import functools
import itertools
import math
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from renewallab import (
    FiniteLaw,
    GeometricLaw,
    Observable,
    ZetaTailLaw,
    build_chain,
)
from renewallab import maps
from renewallab.errors import (
    ConfigError,
    NotPositiveRecurrent,
    PreconditionViolated,
    SymbolCapExceeded,
    TruncationTooSmall,
    ZeroProbabilityBranch,
    ZeroValueInWindow,
)
from renewallab.maps import (
    McEstimate,
    apply,
    build_map,
    coded_states,
    encode,
    entrance_tail,
    invariant_density,
    kac_check,
    map_states,
    markov_frequency_check,
    mc_correlation,
    orbit_symbols,
    pf_check,
    sample_states,
)
from renewallab.chain import MAX_TRUNCATION
from renewallab.spectral import DENSE_LIMIT
from renewallab.series import EPS, _gamma


@pytest.fixture(scope="module")
def geo():
    return build_chain(GeometricLaw(0.5), truncation=2000)


@pytest.fixture(scope="module")
def geo_map(geo):
    return build_map(geo)


@pytest.fixture(scope="module")
def zeta():
    return build_chain(ZetaTailLaw(1.0), truncation=20000)


@pytest.fixture(scope="module")
def zeta_map(zeta):
    return build_map(zeta)


@pytest.fixture(scope="module")
def half_map():
    return build_map(build_chain(FiniteLaw((0.5, 0.5)), truncation=1000))


def centered_top_indicator(chain):
    return Observable(np.array([0.0, 1.0 - chain.pi1]), limit=-chain.pi1)


# ----------------------------------------------------------------------
# map construction
# ----------------------------------------------------------------------

def test_geometric_chain_gives_the_doubling_map(geo_map):
    # q = 1/2: breakpoints 2^-i, every slope 1/2, so f(x) = 2x mod 1
    assert not geo_map.terminal
    assert geo_map.symbol_cap == 46
    i = np.arange(geo_map.symbol_cap + 1)
    assert np.array_equal(geo_map.breakpoints, 0.5 ** i)
    assert np.all(geo_map.slopes[1:] == 0.5)


def test_two_branch_map_layout(half_map):
    assert half_map.terminal
    assert np.array_equal(half_map.breakpoints, [1.0, 0.5, 0.0])
    # top branch doubles onto [0,1], bottom branch translates onto [1/2,1]
    assert half_map.slopes[1] == 0.5
    assert half_map.slopes[2] == 1.0


def test_power_law_slopes_creep_toward_one(zeta_map):
    # p_i ~ i^-3 makes alpha_i = ((i-1)/i)^3, the intermittent profile
    a10 = zeta_map.slopes[10]
    assert a10 == pytest.approx((9 / 10) ** 3, rel=1e-12)
    assert np.all(np.diff(zeta_map.slopes[2:200]) > 0.0)
    assert zeta_map.slopes[199] < 1.0


def test_support_gap_is_rejected():
    ch = build_chain(FiniteLaw((0.5, 0.0, 0.5)), truncation=100)
    with pytest.raises(ZeroProbabilityBranch):
        build_map(ch)


def test_branch_images_meet_the_next_cell(geo_map, zeta_map):
    for m in (geo_map, zeta_map):
        for i in range(3, 40):
            top = np.nextafter(m.breakpoints[i - 1], 0.0)
            assert abs(apply(m, top) - m.breakpoints[i - 2]) < 1e-12


def build_map_loop(chain):
    """:func:`build_map` as two scalar loops: the deepest resolvable branch
    found cell by cell, then each of the first 200 branch images checked
    with :func:`apply`."""
    support = maps._support_length(chain)
    cap = support
    for i in range(1, support + 1):
        if chain.p[i] < maps.DEPTH_RESOLUTION:
            cap = i - 1
            break
    if cap < 1:
        raise ZeroProbabilityBranch("no resolvable branch")
    bp = chain.d[: cap + 1].copy()
    slopes = np.zeros(cap + 1)
    slopes[1] = chain.p[1]
    slopes[2:] = chain.p[2 : cap + 1] / chain.p[1:cap]
    m = maps.IntermittentMap(chain, bp, slopes)
    for i in range(2, min(cap, 200) + 1):
        top = np.nextafter(bp[i - 1], 0.0)
        if abs(apply(m, top) - bp[i - 2]) > 1e-12:
            raise PreconditionViolated(
                f"branch {i} image misses the next cell edge; law too irregular")
    return m


def _map_outcome(build, chain):
    try:
        m = build(chain)
    except (PreconditionViolated, ZeroProbabilityBranch) as exc:
        return type(exc), str(exc)
    return m.breakpoints.tobytes(), m.slopes.tobytes(), m.symbol_cap, m.terminal


def test_build_map_matches_its_scalar_loops():
    rng = np.random.default_rng(0)
    laws = [ZetaTailLaw(0.25), ZetaTailLaw(1.0), ZetaTailLaw(4.0), GeometricLaw(0.5),
            FiniteLaw((0.5, 0.5)), FiniteLaw((0.5, 0.25, 1e-13, 0.25 - 1e-13))]
    for _ in range(12):  # erratic finite laws, most of them too irregular for a map
        w = rng.random(int(rng.integers(2, 300))) ** rng.uniform(0.1, 30)
        laws.append(FiniteLaw(tuple((w / w.sum()).tolist())))
    kinds = set()
    for law in laws:
        for n in (50, 21_000):
            chain = build_chain(law, n)
            expected = _map_outcome(build_map_loop, chain)
            assert _map_outcome(build_map, chain) == expected, (law, n)
            kinds.add(expected[0] if isinstance(expected[0], type) else "map")
    assert kinds == {"map", PreconditionViolated, ZeroProbabilityBranch}


# ----------------------------------------------------------------------
# pointwise action and coding
# ----------------------------------------------------------------------

def test_apply_hand_values(geo_map, half_map):
    assert apply(geo_map, 0.3) == pytest.approx(0.6, abs=1e-15)
    assert apply(geo_map, 0.8) == pytest.approx(0.6, abs=1e-15)
    assert apply(geo_map, 0.5) == 0.0  # first-branch endpoint
    assert apply(geo_map, 1.0) == 1.0
    assert apply(geo_map, 0.0) == 0.0
    assert apply(half_map, 0.2) == pytest.approx(0.7, abs=1e-15)
    assert apply(half_map, 0.75) == pytest.approx(0.5, abs=1e-15)
    assert apply(half_map, 0.0) == 0.5


def test_encode_cells(geo_map):
    assert encode(geo_map, 0.3) == 2
    assert encode(geo_map, 1.0) == 1
    assert encode(geo_map, 0.5) == 1  # breakpoints belong to their own branch
    assert encode(geo_map, 0.25) == 2
    assert encode(geo_map, 0.2) == 3


def test_encode_below_resolution(geo_map, half_map):
    with pytest.raises(SymbolCapExceeded):
        encode(geo_map, 1e-20)
    # a terminal map resolves everything down to 0
    assert encode(half_map, 0.0) == 2
    with pytest.raises(PreconditionViolated):
        encode(geo_map, -0.1)


def test_orbit_symbols_hand_sequence(geo_map):
    assert orbit_symbols(geo_map, 0.3, 8).tolist() == [2, 1, 3, 2, 1, 1, 3, 2, 1]


def test_orbit_symbols_descend_exactly(zeta_map, geo_map):
    # the dyadic map drains one mantissa bit per step, so keep its orbit
    # shorter than the 53-step budget; the power-law map runs indefinitely
    for m, x0, n in ((zeta_map, 0.987654, 300), (geo_map, 0.71234089, 40),
                     (zeta_map, 0.02, 300)):
        s = orbit_symbols(m, x0, n)
        deep = s[:-1] >= 2
        assert np.array_equal(s[1:][deep], s[:-1][deep] - 1)


def test_orbit_symbols_report_mantissa_drain(geo_map):
    with pytest.raises(SymbolCapExceeded):
        orbit_symbols(geo_map, 0.71234089, 300)


def test_orbit_needs_interior_start(geo_map):
    with pytest.raises(PreconditionViolated):
        orbit_symbols(geo_map, 0.0, 5)
    with pytest.raises(PreconditionViolated):
        orbit_symbols(geo_map, 0.5, -1)
    assert orbit_symbols(geo_map, 0.3, 0).tolist() == [2]


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------

def test_chain_sampler_is_reproducible_and_stationary(geo):
    s1, c1 = sample_states(geo, 200_000, seed=7)
    s2, _ = sample_states(geo, 200_000, seed=7)
    s3, _ = sample_states(geo, 200_000, seed=8)
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, s3)
    assert c1 == 0
    # mean occupied state is sum_i i pi_i = 2 for q = 1/2
    assert abs(s1.mean() - 2.0) < 0.02


#: Seeds that are not whole numbers in [0, 2**64).
BAD_SEEDS = [1.5, -0.5, 3.9, -1, 2 ** 64, float("nan"), 10 ** 400, "1", True, np.True_]


@pytest.mark.parametrize("seed", BAD_SEEDS)
@pytest.mark.parametrize("sampler", ["chain", "float"])
def test_bad_seeds_are_refused_before_drawing(geo_map, monkeypatch, sampler, seed):
    # they were truncated by int(): seed 1.5 drew seed 1's orbit
    monkeypatch.setattr(maps, "_cells", no_draw)
    monkeypatch.setattr(maps, "_density_starts", no_draw)
    u = centered_top_indicator(geo_map.chain)
    for call in (lambda: coded_states(geo_map, sampler, 10, seed),
                 lambda: mc_correlation(geo_map, u, u, [1], 1000, seed, sampler=sampler),
                 lambda: kac_check(geo_map, 1000, seed, sampler=sampler),
                 lambda: markov_frequency_check(geo_map, 1000, seed, sampler=sampler),
                 lambda: entrance_tail(geo_map, geo_map.chain.d[1], 10, 1000, seed)):
        with pytest.raises(ConfigError, match="seed"):
            call()


def test_whole_float_seeds_act_as_ints(geo_map):
    assert same_states(sample_states(geo_map, 100, 3.0), sample_states(geo_map, 100, 3))
    u = centered_top_indicator(geo_map.chain)
    est = mc_correlation(geo_map, u, u, [1], 1000, np.float64(3.0))
    assert est == mc_correlation(geo_map, u, u, [1], 1000, 3)
    assert type(est[1].seed) is int and est[1].seed == 3
    # an orbit is keyed by its seed alone, and the top seed is exact, not
    # rounded through a double
    direct = np.random.Generator(np.random.Philox(key=7)).random(8)
    assert np.array_equal(maps._rng(maps._key(7)).random(8), direct)
    top = 2 ** 64 - 1
    for seed in (top, np.uint64(top)):
        rng = maps._rng(maps._key(seed))
        assert rng.bit_generator.state["state"]["key"].tolist() == [top, 0]


def test_coded_states_dispatches_by_sampler_name(geo, geo_map):
    chain_states, _ = coded_states(geo_map, "chain", 5000, seed=4)
    assert np.array_equal(chain_states, sample_states(geo, 5000, seed=4)[0])
    from_map, c1 = coded_states(geo_map, "float", 5000, seed=4)
    from_chain, c2 = coded_states(geo, "float", 5000, seed=4)
    assert np.array_equal(from_map, map_states(geo_map, 5000, seed=4)[0])
    assert np.array_equal(from_map, from_chain) and c1 == c2 > 0
    # the named samplers fix the sampler, whichever of the two is passed
    assert same_states(sample_states(geo_map, 5000, seed=4), sample_states(geo, 5000, seed=4))
    assert same_states(map_states(geo, 5000, seed=4), (from_map, c1))
    with pytest.raises(ConfigError, match="unknown sampler"):
        coded_states(geo_map, "map", 10, seed=4)


@pytest.mark.parametrize("length, burn_in", [(0, 0), (-5, 0), (10, -20),
                                             (maps.MAX_ORBIT + 1, 0), (10.5, 0), (10, 2.5),
                                             ("10", 0), (True, 0), (10, False)])
@pytest.mark.parametrize("sampler", ["chain", "float"])
def test_samplers_check_their_sizes_before_drawing(geo_map, monkeypatch, sampler,
                                                   length, burn_in):
    monkeypatch.setattr(maps, "_rng", no_draw)
    draw = {"chain": lambda: sample_states(geo_map.chain, length, 1, burn_in=burn_in),
            "float": lambda: map_states(geo_map, length, 1, burn_in=burn_in)}[sampler]
    with pytest.raises(ConfigError):
        draw()
    with pytest.raises(ConfigError):
        coded_states(geo_map, sampler, length, 1, burn_in=burn_in)


@pytest.mark.parametrize("sampler", ["chain", "float"])
def test_whole_float_sizes_act_as_ints(geo_map, sampler):
    draw = {"chain": lambda length, burn_in: sample_states(geo_map.chain, length, 1, burn_in),
            "float": lambda length, burn_in: map_states(geo_map, length, 1, burn_in)}[sampler]
    got, want = draw(10.0, 2.0), draw(10, 2)
    assert same_states(got, want) and got[0].size == 10


def no_draw(*args):
    raise AssertionError("drew before checking the sizes")


def top_lags(m, lags):
    u = centered_top_indicator(m.chain)
    return mc_correlation(m, u, u, lags, 1000, 1)


#: Calls given one non-whole count each, and the error that refuses it.
NON_WHOLE = {
    "lags": (lambda m: top_lags(m, [2.5, 3]), PreconditionViolated),
    "orbit_symbols": (lambda m: orbit_symbols(m, 0.3, 2.5), PreconditionViolated),
    "entrance_tail": (lambda m: entrance_tail(m, m.chain.d[1], 10.7, 1000, 1), ConfigError),
    "pf_check": (lambda m: pf_check(m.chain, 500.7), PreconditionViolated),
    "i_max": (lambda m: markov_frequency_check(m, 10_000, 1, i_max=2.5), PreconditionViolated),
}


@pytest.mark.parametrize("name", sorted(NON_WHOLE))
def test_non_whole_counts_are_refused_before_drawing(zeta_map, monkeypatch, name):
    call, error = NON_WHOLE[name]
    monkeypatch.setattr(maps, "_rng", no_draw)
    with pytest.raises(error, match="whole number"):
        call(zeta_map)


def test_whole_float_counts_act_as_ints(zeta_map):
    assert top_lags(zeta_map, [2.0, 3]) == top_lags(zeta_map, [2, 3])
    assert orbit_symbols(zeta_map, 0.3, 2.0).tolist() == orbit_symbols(zeta_map, 0.3, 2).tolist()
    tail = entrance_tail(zeta_map, zeta_map.chain.d[1], 10.0, 1000, 1)
    assert tail.curve.values.tobytes() == entrance_tail(
        zeta_map, zeta_map.chain.d[1], 10, 1000, 1).curve.values.tobytes()
    assert pf_check(zeta_map.chain, 500.0) == pf_check(zeta_map.chain, 500)


def test_float_orbit_steps_match_encode_then_apply(geo_map, zeta_map):
    # reference: the float-orbit loop that encodes, then applies the map
    for m in (geo_map, zeta_map):
        rng = maps._rng(11)
        pi_cdf = np.cumsum(m.chain.pi[1:])
        x = ref_density_start(m, rng, pi_cdf)
        want = []
        for _ in range(3000):
            try:
                want.append(encode(m, x))
                x = apply(m, x)
            except SymbolCapExceeded:
                want.append(-1)
                x = ref_density_start(m, rng, pi_cdf)
        states, _ = map_states(m, 3000, seed=11, burn_in=0)
        assert np.array_equal(states, want)


def test_map_sampler_censors_mantissa_drain(geo_map):
    # the float doubling map sheds one mantissa bit per step, so roughly
    # every 53 steps the orbit bottoms out and restarts
    states, censored = map_states(geo_map, 100_000, seed=5)
    assert states.size == 100_000
    assert 0.8 * 100_000 / 53 < censored < 1.5 * 100_000 / 53
    assert np.count_nonzero(states == -1) == censored
    valid = states[states > 0]
    assert abs(valid.mean() - 2.0) < 0.05


def test_map_sampler_rarely_censors_power_laws(zeta_map):
    # occupancy converges slowly here (returns have infinite variance),
    # so the band is wide; the point is censoring stays negligible
    states, censored = map_states(zeta_map, 50_000, seed=3)
    assert censored < 5
    assert abs(np.mean(states == 1) - zeta_map.chain.pi1) < 0.03


# ----------------------------------------------------------------------
# Monte Carlo estimators
# ----------------------------------------------------------------------

def test_constants_are_uncorrelated(geo_map):
    ones = Observable(np.array([0.0, 1.0]), limit=1.0)
    est = mc_correlation(geo_map, ones, ones, [1, 4], 50_000, seed=1)
    for e in est.values():
        assert e.mean == 0.0


def test_doubling_map_correlation_vanishes_at_small_lags(geo, geo_map):
    # the exact lag-n covariance of the centered top-cell indicator is 0
    # for every n >= 1 because returns are memoryless here
    u = centered_top_indicator(geo)
    est = mc_correlation(geo_map, u, u, [1, 2, 5], 2_000_000, seed=42)
    for e in est.values():
        assert abs(e.mean) < 3.0 * e.stderr
        assert e.stderr < 5e-4


def test_float_orbit_and_chain_sampler_agree(geo, geo_map):
    u = centered_top_indicator(geo)
    a = mc_correlation(geo_map, u, u, [1], 300_000, seed=9)[1]
    b = mc_correlation(geo_map, u, u, [1], 300_000, seed=9, sampler="float")[1]
    assert b.censored > 0
    assert abs(a.mean - b.mean) < 3.0 * math.hypot(a.stderr, b.stderr)


def test_power_law_correlation_slope(zeta, zeta_map):
    u = centered_top_indicator(zeta)
    grid = [10, 18, 32, 56, 100, 178, 300]
    est = mc_correlation(zeta_map, u, u, grid, 3_000_000, seed=123)
    vals = np.array([est[n].mean for n in grid])
    assert np.all(vals > 0.0)
    coef = np.polynomial.polynomial.polyfit(np.log(grid), np.log(vals), 1)
    assert abs(coef[1] - (-1.0)) < 0.25


def test_lag_gate(geo_map):
    u = Observable(np.array([0.0, 1.0]))
    with pytest.raises(PreconditionViolated):
        mc_correlation(geo_map, u, u, [600], 1000, seed=0)


def test_mc_estimate_rejects_negative_stderr():
    with pytest.raises(PreconditionViolated):
        McEstimate(mean=0.0, stderr=-1.0, n_samples=10, seed=0)


def test_kac_product_near_one(geo_map):
    report = kac_check(geo_map, 1_000_000, seed=11)
    assert abs(report.product - 1.0) < 0.01
    assert report.censored == 0
    assert report.n_returns > 400_000
    # same seed, same answer
    again = kac_check(geo_map, 1_000_000, seed=11)
    assert again.product == report.product


def test_kac_histogram_matches_the_return_law(geo, geo_map):
    report = kac_check(geo_map, 1_000_000, seed=11)
    n = report.n_returns
    obs = np.zeros(11)
    obs[:10] = report.histogram[1:11]
    obs[10] = n - obs[:10].sum()
    expected = np.zeros(11)
    expected[:10] = n * geo.p[1:11]
    expected[10] = n * geo.law.tail_beyond(10)
    stat = float(np.sum((obs - expected) ** 2 / expected))
    assert stat < chi2.ppf(0.999, df=10)


def test_frequency_check_against_exact_rows(geo_map):
    rep = markov_frequency_check(geo_map, 1_000_000, seed=21, i_max=10)
    # descent rows are deterministic, so frequencies are exactly one
    for i in range(2, 11):
        assert rep.transition_hat[i - 1, i - 2] == 1.0
    # top row reproduces the law within binomial noise
    for j in range(1, 11):
        gap = abs(rep.transition_hat[0, j - 1] - rep.transition_exact[0, j - 1])
        assert gap <= 3.0 * rep.transition_stderr[0, j - 1]
    for i in range(1, 11):
        gap = abs(rep.occupation_hat[i - 1] - rep.occupation_exact[i - 1])
        assert gap <= 3.0 * rep.occupation_stderr[i - 1]


def test_frequency_check_i_max_gate(geo_map):
    with pytest.raises(PreconditionViolated):
        markov_frequency_check(geo_map, 1000, seed=0, i_max=1)


def test_frequency_rows_normalize_over_all_exits(geo_map):
    # a narrow window drops 2^-4 of the exits from state 1; dividing by
    # in-window exits only would inflate every top-row cell by that factor
    rep = markov_frequency_check(geo_map, 400_000, seed=21, i_max=4)
    for j in range(1, 5):
        gap = abs(rep.transition_hat[0, j - 1] - rep.transition_exact[0, j - 1])
        assert gap <= 3.0 * rep.transition_stderr[0, j - 1]
    assert rep.transition_hat[0].sum() < 1.0


# ----------------------------------------------------------------------
# entrance times
# ----------------------------------------------------------------------

def test_entrance_tail_geometric_is_exactly_geometric(geo_map):
    # k = 1 at a = 1/2; entering the top cell from stationarity takes more
    # than n steps with probability exactly 2^-n
    rep = entrance_tail(geo_map, 0.5, 30, 4_000_000, seed=3)
    assert rep.k == 1 and rep.a_effective == 0.5
    expect = 0.5 ** rep.curve.n_grid
    assert np.all(np.abs(rep.curve.values - expect) <= rep.curve.bounds)


def test_entrance_tail_geometric_is_not_power_law(geo_map):
    rep = entrance_tail(geo_map, 0.5, 30, 4_000_000, seed=3)
    early = entrance_tail(geo_map, 0.5, 30, 4_000_000, seed=3,
                          fit_window=(3, 8)).fit
    late = entrance_tail(geo_map, 0.5, 30, 4_000_000, seed=3,
                         fit_window=(8, 16)).fit
    # log-log slope keeps steepening: log-linear decay, not a power law
    assert late.exponent < early.exponent - 2.0


def test_entrance_tail_power_law_slope(zeta_map):
    rep = entrance_tail(zeta_map, zeta_map.chain.d[1], 1000, 2_000_000,
                        seed=3, fit_window=(100, 1000))
    assert rep.fit is not None
    assert -1.2 < rep.fit.exponent < -0.8


def test_entrance_threshold_gates(zeta_map):
    with pytest.raises(PreconditionViolated):
        entrance_tail(zeta_map, 0.95, 100, 1000, seed=0)  # above d_1
    with pytest.raises(PreconditionViolated):
        entrance_tail(zeta_map, 0.0, 100, 1000, seed=0)
    with pytest.raises(TruncationTooSmall):
        entrance_tail(zeta_map, zeta_map.chain.d[1], 20000, 1000, seed=0)


# ----------------------------------------------------------------------
# invariant density and transfer matrix
# ----------------------------------------------------------------------

def test_geometric_density_is_lebesgue(geo):
    h = invariant_density(geo, 100)
    assert np.array_equal(h[1:], np.ones(100))


def test_power_density_grows_linearly(zeta):
    h = invariant_density(zeta, 2000)
    assert h[1000] / h[500] == pytest.approx(2.0, rel=0.01)
    mass = float(np.dot(h[1:], zeta.p[1:2001])) + zeta.stationary_mass_beyond(2000)
    assert mass == pytest.approx(1.0, rel=1e-12)


def test_density_needs_positive_recurrence():
    null = build_chain(ZetaTailLaw(0.0), truncation=5000)
    with pytest.raises(NotPositiveRecurrent):
        invariant_density(null)


def test_density_support_gate():
    ch = build_chain(FiniteLaw((0.5, 0.5)), truncation=100)
    h = invariant_density(ch)
    assert h.size == 3
    with pytest.raises(TruncationTooSmall):
        invariant_density(ch, 5)
    for n in (0, -3, 2.5):
        with pytest.raises(PreconditionViolated):
            invariant_density(ch, n)
    assert invariant_density(ch, 2.0).tobytes() == h.tobytes()


def test_transfer_matrix_fixes_density_and_law(geo, zeta):
    rep = pf_check(geo, 500)
    assert rep.density_residual == 0.0
    assert rep.law_residual == 0.0
    rep = pf_check(zeta, 500)
    assert rep.density_residual < 1e-10
    assert rep.law_residual < 1e-10
    assert rep.dimension == 500


def ref_transfer(chain, n):
    """The residuals of pf_check from the dense n-by-n transfer matrix, and
    one ulp (eps times the largest sum of moduli) of the terms of each."""
    p = chain.p[1 : n + 1]
    h = invariant_density(chain, n)[1:]
    mat = np.zeros((n, n))
    mat[0, :] = p[0]
    idx = np.arange(1, n)
    mat[idx, idx - 1] = p[idx] / p[idx - 1]
    sub = p[1:] / p[:-1]
    density = float(np.abs((h @ mat)[: n - 1] - h[: n - 1]).max())
    law = float(np.abs((mat @ p)[1:] - p[1:]).max())
    return ((density, EPS * float((h[0] * p[0] + h[1:] * sub + h[:-1]).max())),
            (law, EPS * float((sub * p[:-1] + p[1:]).max())))


@pytest.mark.parametrize("law", [GeometricLaw(0.5), GeometricLaw(0.3), ZetaTailLaw(0.25),
                                 ZetaTailLaw(1.0), ZetaTailLaw(3.0), FiniteLaw((0.4, 0.3, 0.3)),
                                 FiniteLaw((0.32, 0.32, 0.32, 0.04))])
def test_transfer_check_matches_the_dense_matrix(law):
    # the two actions of the bidiagonal-plus-top-row matrix without forming
    # it: the dense products add the same terms and zeros, in another order
    chain = build_chain(law, truncation=1200)
    for n in (3, 4, 50, 500, 1000, 1200):
        rep = pf_check(chain, n)
        (density, density_ulp), (law_res, law_ulp) = ref_transfer(chain, rep.dimension)
        assert abs(rep.density_residual - density) <= density_ulp
        assert abs(rep.law_residual - law_res) <= law_ulp


def test_transfer_matrix_size_limits(geo):
    small = pf_check(build_chain(FiniteLaw((0.4, 0.3, 0.3)), truncation=50))
    assert small.dimension == 3
    # no cap at DENSE_LIMIT: the check runs to the support, p_k = 2^-k > 0 up to k = 1074
    assert pf_check(geo, 1500).dimension == 1074


def test_star_import_exports_maps_and_spectral_names():
    ns = {}
    exec("from renewallab import *", ns)
    assert {"build_map", "coded_states", "apply_map", "disk_scan"} <= set(ns)


# ----------------------------------------------------------------------
# oracles: the straightforward routes the fast samplers and estimators
# must reproduce, bit for bit or, where only the summation order differs,
# within its rounding bound
# ----------------------------------------------------------------------

def ref_density_start(m, rng, pi_cdf):
    """One point distributed by the invariant density, two or more numpy
    scalar draws: a cell drawn with its stationary weight, redrawn below the
    resolvable depth, then a uniform position inside it."""
    while True:
        cell = int(np.searchsorted(pi_cdf, rng.random(), side="left")) + 1
        if cell <= m.symbol_cap:
            width = m.breakpoints[cell - 1] - m.breakpoints[cell]
            return float(m.breakpoints[cell] + rng.random() * width)


def ref_float_states(m, length, seed, burn_in):
    """Float orbit one step at a time: encode, then the branch image."""
    rng = maps._rng(maps._key(seed))
    pi_cdf = np.cumsum(m.chain.pi[1:])
    out = np.empty(burn_in + length, dtype=np.int32)
    x = ref_density_start(m, rng, pi_cdf)
    for t in range(out.size):
        try:
            sym = encode(m, x)
        except SymbolCapExceeded:
            out[t] = -1
            x = ref_density_start(m, rng, pi_cdf)
            continue
        out[t] = sym
        x = maps._image(m, x, sym)
    out = out[burn_in:]
    return out, int(np.count_nonzero(out == -1))


def ref_orbit_symbols(m, x, n):
    out = [encode(m, x)]
    for _ in range(n):
        x = maps._image(m, x, out[-1])
        out.append(encode(m, x))
    return np.array(out, dtype=np.int32)


def ref_chain_states(chain, length, seed, burn_in):
    """Excursions spelled out with np.repeat: L, L-1, ..., 1 each."""
    rng = maps._rng(maps._key(seed))
    cdf = np.cumsum(chain.p[1:])
    total = burn_in + length
    chunks, have = [], 0
    while have < total:
        want = max(1024, int((total - have) / chain.m1 * 1.2) + 16)
        draws = np.searchsorted(cdf, rng.random(want), side="left") + 1
        over = draws > chain.truncation
        draws[over] = 1
        ends = np.cumsum(draws)
        states = (np.repeat(ends, draws) - np.arange(ends[-1])).astype(np.int32)
        states[np.repeat(over, draws)] = -1
        chunks.append(states)
        have += states.size
    states = np.concatenate(chunks)[burn_in:total]
    return states, int(np.count_nonzero(states == -1))


def ref_states(m, sampler, length, seed, burn_in):
    if sampler == "float":
        return ref_float_states(m, length, seed, burn_in)
    return ref_chain_states(m.chain, length, seed, burn_in)


def ref_observe(obs, states):
    """Observable values with NaN at sentinel steps."""
    vals = np.where(states > obs.size, obs.limit, obs.values[np.clip(states, 0, obs.size)])
    return np.where(states < 1, np.nan, vals)


def ref_batches(y, batches=maps.BATCHES):
    """The batches of ``y`` that hold a finite entry."""
    edges = np.linspace(0, y.size, batches + 1).astype(int)
    return [y[a:b] for a, b in zip(edges[:-1], edges[1:])
            if b > a and np.any(np.isfinite(y[a:b]))]


def ref_batch_stderr(y, batches=maps.BATCHES):
    """Batch means by nanmean over the batches holding a finite entry."""
    means = [np.nanmean(batch) for batch in ref_batches(y, batches)]
    if len(means) < 2:
        return math.inf
    return float(np.std(means, ddof=1) / math.sqrt(len(means)))


def ref_lag_row(uu, vv, n):
    """The lag-``n`` estimate by nanmean on the NaN-marked orbit values, and
    how far any other order of its sums may round it away.

    A sum of ``k`` products is off its exact value by at most ``_gamma(k)``
    times the sum of their moduli, whatever the order, so two orders differ
    by twice that; the lag sum runs over at most ``BATCHES`` batch sums.
    The stderr is ``||means - mean(means)||_2 / sqrt(m (m - 1))`` over ``m``
    batch means, which moves by at most ``||delta||_2 / sqrt(m (m - 1))``
    when each mean moves by ``delta``, plus the rounding of ``np.std`` on
    either side: a relative ``_gamma(m + 6)`` and the error of its mean.
    """
    y = uu[n:] * vv[: vv.size - n]
    valid = int(np.count_nonzero(np.isfinite(y)))
    shift = np.nanmean(uu) * np.nanmean(vv)
    mean = float(np.nanmean(y) - shift)
    scale = np.nansum(np.abs(y)) / valid
    mean_tol = 2 * _gamma(y.size + maps.BATCHES) * scale + 3 * EPS * (scale + abs(shift))
    batches = ref_batches(y)
    means = np.array([np.nanmean(batch) for batch in batches])
    m = means.size
    if m < 2:
        return mean, math.inf, valid, y.size - valid, mean_tol, 0.0
    stderr = float(np.std(means, ddof=1) / math.sqrt(m))
    delta = [(2 * _gamma(batch.size) + 2 * EPS) * np.nansum(np.abs(batch))
             / np.count_nonzero(np.isfinite(batch)) for batch in batches]
    own = 4 * _gamma(m + 6) * (stderr + np.abs(means).sum() / (m * math.sqrt(m - 1)))
    stderr_tol = float(np.linalg.norm(delta) / math.sqrt(m * (m - 1)) + own)
    return mean, stderr, valid, y.size - valid, mean_tol, stderr_tol


def ref_mc_correlation(m, u, v, lags, orbit_length, seed, burn_in, sampler):
    """Per-lag nanmean estimator on the NaN-marked orbit values, with the
    rounding bounds of its mean and stderr."""
    states, _ = ref_states(m, sampler, orbit_length, seed, burn_in)
    uu, vv = ref_observe(u, states), ref_observe(v, states)
    return {n: ref_lag_row(uu, vv, n) for n in lags}


def same_states(got, want):
    (states, censored), (want_states, want_censored) = got, want
    return (states.dtype == want_states.dtype and states.tobytes() == want_states.tobytes()
            and censored == want_censored)


ORACLE_LAWS = {
    # dyadic doubling map: the float orbit drains its mantissa and censors
    "geometric-0.5": (GeometricLaw(0.5), 400),
    "geometric-0.3": (GeometricLaw(0.3), 400),
    # short prefixes: draws beyond the truncation and below the symbol cap
    "zeta-1-N60": (ZetaTailLaw(1.0), 60),
    "zeta-1.5-N300": (ZetaTailLaw(1.5), 300),
    "zeta-3-N40": (ZetaTailLaw(3.0), 40),
    # terminal maps: every point down to 0 is coded
    "finite-2": (FiniteLaw((0.5, 0.5)), 50),
    "finite-4": (FiniteLaw((0.32, 0.32, 0.32, 0.04)), 50),
}
#: Null-recurrent laws draw many short chunks in the chain sampler.
NULL_LAWS = {"zeta-0-N200": (ZetaTailLaw(0.0), 200), "zeta--0.5-N80": (ZetaTailLaw(-0.5), 80)}
#: A positive-recurrent law cut short: its chain sampler censors 5.3% of draws.
CENSORED_LAWS = {"zeta-0.25-N6": (ZetaTailLaw(0.25), 6)}


@functools.lru_cache(maxsize=None)
def oracle_map(name):
    law, n = {**ORACLE_LAWS, **NULL_LAWS, **CENSORED_LAWS}[name]
    return build_map(build_chain(law, n))


seeds = st.integers(0, 2 ** 64 - 1)


#: Block sizes for the samplers: a few steps or draws per block put many
#: block edges inside the burn-in and the orbit.
blocks = st.sampled_from([maps._BLOCK, 1, 2, 7, 40])

#: Threads drawing the chain sampler's blocks: one runs them in the calling
#: thread, more on a pool.
workers = st.sampled_from([1, 2, 3])


@given(name=st.sampled_from(sorted(ORACLE_LAWS)), seed=seeds,
       burn_in=st.integers(0, 300), length=st.integers(1, 2500),
       block=blocks)
@settings(max_examples=40, deadline=None)
def test_float_sampler_matches_the_per_step_loop(name, seed, burn_in, length, block):
    m = oracle_map(name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maps, "_BLOCK", block)
        got = map_states(m, length, seed, burn_in=burn_in)
    assert same_states(got, ref_float_states(m, length, seed, burn_in))


def assert_same_orbit(m, x0, n):
    try:
        want = ref_orbit_symbols(m, x0, n)
    except SymbolCapExceeded:
        with pytest.raises(SymbolCapExceeded):
            orbit_symbols(m, x0, n)
        return
    got = orbit_symbols(m, x0, n)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(name=st.sampled_from(sorted(ORACLE_LAWS)), x0=st.floats(0.0, 1.0, exclude_min=True),
       n=st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_orbit_symbols_match_the_per_step_loop(name, x0, n):
    assert_same_orbit(oracle_map(name), x0, n)


@pytest.mark.parametrize("name", sorted(ORACLE_LAWS))
def test_orbits_from_cell_tops_match_the_per_step_loop(name):
    # from 1 or the float just below a cell edge the branch images round
    # onto the next edge, so the upper clamps bind; a few ulps left near 1
    # then decide how long the orbit lingers in the top cell, which the loop
    # finds without a search from x >= d_1: start at d_1 and just above too
    m = oracle_map(name)
    d1 = float(m.breakpoints[1])
    for x0 in (1.0, d1, float(np.nextafter(d1, 1.0))):
        assert_same_orbit(m, x0, 400)
    for edge in m.breakpoints[m.breakpoints > 0.0]:
        assert_same_orbit(m, float(np.nextafter(edge, 0.0)), 400)


@pytest.mark.parametrize("block", [maps._BLOCK, 7])
def test_float_sampler_refills_its_restart_uniforms(block, monkeypatch):
    # about 370 restarts of the doubling map, two or more uniforms each, take
    # them from several batches of the start routine
    m = oracle_map("geometric-0.5")
    monkeypatch.setattr(maps, "_BLOCK", block)
    got = map_states(m, 20_000, 15, burn_in=5)
    assert same_states(got, ref_float_states(m, 20_000, 15, 5))
    assert got[1] > 300


@given(name=st.sampled_from(sorted({**ORACLE_LAWS, **NULL_LAWS})), seed=seeds,
       burn_in=st.integers(0, 3000), length=st.integers(1, 20_000),
       block=blocks, threads=workers)
@settings(max_examples=60, deadline=None)
def test_chain_sampler_matches_the_repeat_construction(name, seed, burn_in, length, block,
                                                       threads):
    chain = oracle_map(name).chain
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maps, "_BLOCK", block)
        mp.setattr(maps, "_workers", lambda: threads)
        got = sample_states(chain, length, seed, burn_in=burn_in)
    assert same_states(got, ref_chain_states(chain, length, seed, burn_in))


values = st.floats(-2.0, 2.0, allow_subnormal=False)
observables = st.one_of(
    st.just("top"),
    st.builds(lambda vals, limit: Observable(np.array([0.0, *vals]), limit=limit),
              st.lists(st.one_of(st.just(0.0), values), min_size=1, max_size=6), values),
)


def resolve(obs, chain):
    return centered_top_indicator(chain) if obs == "top" else obs


@given(name=st.sampled_from(sorted(ORACLE_LAWS)), sampler=st.sampled_from(["chain", "float"]),
       seed=seeds, burn_in=st.integers(0, 200), orbit_length=st.integers(200, 3000),
       u=observables, v=st.one_of(st.just("u"), observables), data=st.data())
@settings(max_examples=60, deadline=None)
def test_lag_estimator_matches_the_nanmean_route(name, sampler, seed, burn_in, orbit_length,
                                                  u, v, data):
    # the estimator sums batch by batch, the oracle whole: their means and
    # stderrs agree within the rounding bound of the two orders, the counts
    # exactly
    m = oracle_map(name)
    u = resolve(u, m.chain)
    v = u if v == "u" else resolve(v, m.chain)
    lags = data.draw(st.lists(st.integers(0, orbit_length // 2 - 1), min_size=1, max_size=4,
                              unique=True).map(lambda xs: [0, *xs]))
    got = mc_correlation(m, u, v, lags, orbit_length, seed, burn_in=burn_in, sampler=sampler)
    want = ref_mc_correlation(m, u, v, lags, orbit_length, seed, burn_in, sampler)
    for n in lags:
        e = got[n]
        mean, stderr, n_samples, censored, mean_tol, stderr_tol = want[n]
        assert (e.n_samples, e.censored) == (n_samples, censored)
        assert abs(e.mean - mean) <= mean_tol
        if math.isinf(stderr):
            assert math.isinf(e.stderr)
        else:
            assert abs(e.stderr - stderr) <= stderr_tol


@pytest.mark.parametrize("same", [True, False])
def test_pair_counts_from_sentinels_match_the_mask_route(same, monkeypatch):
    # sentinels at both ends, an adjacent pair and a pair exactly n apart
    size, n = 1000, 37
    canned = np.arange(size) % 5 + 1
    clean = canned.copy()
    canned[[0, size - 1, 300, 301, 600, 600 + n]] = -1
    u = Observable(np.array([0.0, 1.0, -0.5, 2.0, 0.25, -1.0]))
    v = u if same else Observable(np.array([0.0, -1.5, 0.5, 1.0]), limit=0.75)
    # blocks split at and next to the sentinels; a small block size makes
    # the window of observable values slide about twenty times
    cuts = [0, 1, 299, 300, 301, 302, 600, 637, 638, 999, 1000]
    monkeypatch.setattr(maps, "_BLOCK", 1)
    for states in (canned, clean):
        def blocks(source, length, seed, burn_in, states=states):
            return (states[a:b].copy() for a, b in zip(cuts[:-1], cuts[1:]))

        monkeypatch.setattr(maps, "_sampler", lambda source, sampler: source)
        monkeypatch.setattr(maps, "_blocks", blocks)
        est = mc_correlation(None, u, v, [0, n], size, seed=0)
        sentinels = np.flatnonzero(states < 1)
        for lag in (0, n):
            valid = (states[lag:] >= 1) & (states[: size - lag] >= 1)
            assert (est[lag].n_samples, est[lag].censored) == (
                np.count_nonzero(valid), np.count_nonzero(~valid))
            edges = np.linspace(0, size - lag, maps.BATCHES + 1).astype(int)
            batches = [np.count_nonzero(valid[a:b]) for a, b in zip(edges[:-1], edges[1:])]
            assert maps._pair_counts(sentinels, lag, edges).tolist() == batches
            if states is clean:
                assert batches == np.diff(edges).tolist()
                assert est[lag].censored == 0


@given(name=st.sampled_from(sorted(ORACLE_LAWS)), sampler=st.sampled_from(["chain", "float"]),
       seed=seeds, burn_in=st.integers(0, 200), orbit_length=st.integers(50, 4000),
       i_max=st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_occupation_stderr_matches_the_nanmean_route(name, sampler, seed, burn_in,
                                                     orbit_length, i_max):
    m = oracle_map(name)
    rep = markov_frequency_check(m, orbit_length, seed, i_max=i_max, burn_in=burn_in,
                                 sampler=sampler)
    states, _ = ref_states(m, sampler, orbit_length, seed, burn_in)
    want = [ref_batch_stderr(np.where(states > 0, (states == i).astype(float), np.nan))
            for i in range(1, i_max + 1)]
    assert rep.occupation_stderr.tobytes() == np.array(want).tobytes()


@given(name=st.sampled_from(sorted({**ORACLE_LAWS, **CENSORED_LAWS})),
       sampler=st.sampled_from(["chain", "float"]), seed=seeds, burn_in=st.integers(0, 200),
       orbit_length=st.integers(1, 4000), block=blocks, threads=workers)
@settings(max_examples=60, deadline=None)
def test_kac_report_matches_the_whole_orbit_route(name, sampler, seed, burn_in, orbit_length,
                                                  block, threads):
    # returns read as steps 1 -> L against gaps between visits to the top cell
    m = oracle_map(name)
    states, _ = ref_states(m, sampler, orbit_length, seed, burn_in)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maps, "_BLOCK", block)
        mp.setattr(maps, "_workers", lambda: threads)
        if ref_returns(states).size:
            assert_same_report(kac_check(m, orbit_length, seed, burn_in=burn_in,
                                         sampler=sampler), ref_kac(states))
        else:
            with pytest.raises(PreconditionViolated, match="no completed return"):
                kac_check(m, orbit_length, seed, burn_in=burn_in, sampler=sampler)


def ref_occupation(chain, states, i_max):
    """Occupation, its batch errors and the exact rows, one pass over the
    orbit per cell."""
    valid = states > 0
    valid_steps = int(np.count_nonzero(valid))
    hat = np.array([np.count_nonzero(states == i) / valid_steps for i in range(1, i_max + 1)])
    stderr = np.array([ref_batch_stderr(np.where(valid, (states == i).astype(float), np.nan))
                       for i in range(1, i_max + 1)])
    exact = np.zeros((i_max, i_max))
    exact[0, :] = chain.p[1 : i_max + 1]
    idx = np.arange(1, i_max)
    exact[idx, idx - 1] = 1.0
    return hat, stderr, exact


@pytest.mark.parametrize("sampler", ["chain", "float"])
@pytest.mark.parametrize("i_max", [2, 10, 57])
def test_frequency_report_matches_the_per_state_route(geo_map, zeta_map, sampler, i_max):
    # the doubling map censors float orbits, the zeta map rarely does
    for m in (geo_map, zeta_map):
        rep = markov_frequency_check(m, 20_000, seed=9, i_max=i_max, burn_in=100,
                                     sampler=sampler)
        states, _ = coded_states(m, sampler, 20_000, 9, burn_in=100)
        hat, stderr, exact = ref_occupation(m.chain, states, i_max)
        assert rep.occupation_hat.tobytes() == hat.tobytes()
        assert rep.occupation_stderr.tobytes() == stderr.tobytes()
        assert rep.transition_exact.tobytes() == exact.tobytes()
        assert rep.transition_exact.flags.writeable


def test_null_recurrent_chain_has_no_density_start():
    m = build_map(build_chain(ZetaTailLaw(0.0), truncation=2000))
    with pytest.raises(NotPositiveRecurrent):
        map_states(m, 100, seed=1)
    with pytest.raises(NotPositiveRecurrent):
        entrance_tail(m, m.chain.d[1], 50, 1000, seed=1)
    with pytest.raises(NotPositiveRecurrent):
        markov_frequency_check(m, 1000, seed=1, sampler="chain")
    # Kac's identity needs a finite mean return
    with pytest.raises(NotPositiveRecurrent):
        kac_check(m, 20_000, seed=1)


def test_float_sampler_builds_the_map_once_per_call(geo, monkeypatch):
    calls = []

    def counted(chain):
        calls.append(chain)
        return build_map(chain)

    monkeypatch.setattr(maps, "build_map", counted)
    u = centered_top_indicator(geo)
    mc_correlation(geo, u, u, [1], 2000, seed=5, burn_in=100, sampler="float")
    assert calls == [geo]
    mc_correlation(geo, u, u, [1], 2000, seed=5, burn_in=100)
    assert calls == [geo]


# ----------------------------------------------------------------------
# block-streamed orbits: the samplers fill one array from the blocks of
# maps._blocks and the estimators read those blocks one at a time, so
# every result must equal the whole-array route across block edges
# ----------------------------------------------------------------------

B = maps._BLOCK


@functools.lru_cache(maxsize=None)
def censoring_chain():
    """A short prefix of a null-recurrent law: about one draw in eleven
    lands beyond it, so censored steps fall on many block edges."""
    return build_chain(ZetaTailLaw(0.0), 6)


@pytest.mark.parametrize("length, burn_in", [
    (B - 1, 0), (B, 0), (B + 1, 0), (B - 1, 1), (1, B - 1), (1, B), (5, B + 1),
    (2 * B - 1, B + 1), (2 * B, B), (2 * B + 1, B - 1), (3 * B + 7, 2 * B - 3)])
@pytest.mark.parametrize("name", ["zeta-1.5-N300", "zeta-0-N200", "geometric-0.5"])
def test_chain_sampler_matches_across_block_edges(name, length, burn_in):
    chain = oracle_map(name).chain
    for seed in (3, 2 ** 63 + 5):
        got = sample_states(chain, length, seed, burn_in=burn_in)
        assert same_states(got, ref_chain_states(chain, length, seed, burn_in))


def test_censored_steps_on_block_edges_survive_the_copy():
    chain = censoring_chain()
    edges = [block[[0, -1]] for block in maps._excursions(chain, 8, 40 * B)]
    # the draws of a block end on a censored step as often as anywhere else
    assert sum(int(last == -1) for _, last in edges) > 5
    assert sum(int(first == -1) for first, _ in edges) > 5
    for length, burn_in in ((40 * B - 17, 17), (B + 3, 2 * B - 1), (7 * B, 0)):
        got = sample_states(chain, length, 8, burn_in=burn_in)
        want = ref_chain_states(chain, length, 8, burn_in)
        assert same_states(got, want) and got[1] > length // 20


@pytest.mark.parametrize("name", ["geometric-0.5", "zeta-1.5-N300"])
def test_float_sampler_matches_across_block_edges(name):
    # the dyadic map restarts every ~53 steps, so restarts straddle edges
    m = oracle_map(name)
    got = map_states(m, B + 5, 9, burn_in=B - 3)
    assert same_states(got, ref_float_states(m, B + 5, 9, B - 3))
    assert name != "geometric-0.5" or got[1] > 1000


def test_coded_orbits_are_int32(zeta_map):
    # states are cell indices up to the truncation cap, or the sentinel -1
    assert MAX_TRUNCATION <= np.iinfo(np.int32).max
    chain = zeta_map.chain
    for states, _ in (sample_states(chain, 1000, 1), map_states(zeta_map, 1000, 1),
                      coded_states(chain, "chain", 1000, 1),
                      coded_states(chain, "float", 1000, 1)):
        assert states.dtype == np.int32
    assert orbit_symbols(zeta_map, 0.3, 1000).dtype == np.int32


def test_chain_sampler_reaches_states_past_int16_exactly():
    # every excursion has length 1 or 40000 > 2**15, read 40000, 39999, ..., 1
    deep = 40_000
    chain = build_chain(FiniteLaw([0.5] + [0.0] * (deep - 2) + [0.5]), deep)
    states, censored = sample_states(chain, 4 * B, 5, burn_in=0)
    assert censored == 0 and states.max() == deep
    starts = np.flatnonzero(states == deep)
    assert starts.size >= 2
    for at in starts[:-1]:
        assert np.array_equal(states[at : at + deep], np.arange(deep, 0, -1))
    assert same_states((states, censored), ref_chain_states(chain, 4 * B, 5, 0))


# ----------------------------------------------------------------------
# the exact sampler's block: guide-table cells and the long-excursion
# expansion against the whole-block expansion they replaced
# ----------------------------------------------------------------------

def ref_cells(cdf, u):
    """The cell ``i >= 1`` of each uniform, ``len(cdf) + 1`` past the
    cumulative weights; one search per uniform above ``cdf[0]``."""
    cells = np.ones(u.size, dtype=np.int64)
    above = np.flatnonzero(u > cdf[0])
    cells[above] = np.searchsorted(cdf, u[above], side="left") + 1
    return cells


def ref_excursion_block(chain, cdf, rng, count):
    """Every excursion expanded: a running int32 sum of steps that are -1
    inside an excursion and jump from 1 to L at its start."""
    draws = ref_cells(cdf, rng.random(count))
    over = draws > chain.truncation
    draws[over] = 1
    ends = np.cumsum(draws)
    states = np.full(ends[-1], -1, dtype=np.int32)
    draws -= 1
    states[ends[:-1]] = draws[1:]
    states[0] = draws[0] + 1
    np.cumsum(states, dtype=np.int32, out=states)
    states[ends[over] - 1] = -1
    return states


#: Chains whose blocks the oracle checks: light and heavy tails, draws past
#: a short prefix (one in 19 at zeta 0.25, N = 6; one in 3900 at zeta 1,
#: N = 40) and a null-recurrent law (one in 72 at N = 3000).
BLOCK_CHAINS = {
    "zeta-1-N21000": lambda: build_chain(ZetaTailLaw(1.0), 21_000),
    "geometric-0.5": lambda: build_chain(GeometricLaw(0.5), 2000),
    "zeta-0.25-N6": lambda: build_chain(ZetaTailLaw(0.25), 6),
    "zeta-1-N40": lambda: build_chain(ZetaTailLaw(1.0), 40),
    "zeta--0.5-N3000": lambda: build_chain(ZetaTailLaw(-0.5), 3000),
}


@pytest.mark.parametrize("name", sorted(BLOCK_CHAINS))
def test_excursion_blocks_match_the_whole_block_expansion(name):
    chain = BLOCK_CHAINS[name]()
    cdf = np.cumsum(chain.p[1:])
    guide = maps._guide(cdf)
    censored = 0
    for count in (1, 2, 17, 1024, B):
        for seed, offset in ((1, 0), (2, 5), (2 ** 64 - 1, 4 * B + 3)):
            want = ref_excursion_block(chain, cdf, maps._rng(seed, offset), count)
            # a limit at or above the whole expansion cuts nothing
            for limit in (want.size, 2 ** 62):
                got = maps._excursion_block(chain, cdf, guide, maps._rng(seed, offset), count,
                                            limit)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            censored += int(np.count_nonzero(got == -1))
    assert (censored > 0) == (name not in ("geometric-0.5", "zeta-1-N21000"))


@pytest.mark.parametrize("name", sorted(BLOCK_CHAINS))
def test_a_cut_block_is_the_prefix_of_the_whole_expansion(name):
    chain = BLOCK_CHAINS[name]()
    cdf = np.cumsum(chain.p[1:])
    guide = maps._guide(cdf)
    for count in (1, 17, 1024, B):
        for seed, offset in ((1, 0), (2 ** 64 - 1, 4 * B + 3)):
            want = ref_excursion_block(chain, cdf, maps._rng(seed, offset), count)
            for limit in sorted({1, want.size // 2, want.size - 1, want.size} - {0}):
                got = maps._excursion_block(chain, cdf, guide, maps._rng(seed, offset), count,
                                            limit)
                assert got.dtype == want.dtype and got.tobytes() == want[:limit].tobytes()


def guide_edges(cdf):
    """Uniforms at the cumulative weights and the bucket edges, their
    neighbours, and the top of the unit interval."""
    bits = maps._GUIDE_BITS
    edges = np.arange(2 ** bits) / 2 ** bits
    points = np.concatenate((cdf, edges, [cdf[-1], 1.0 - EPS / 2]))
    u = np.concatenate((points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)))
    return u[(u >= 0.0) & (u < 1.0)]


@pytest.mark.parametrize("name", sorted(BLOCK_CHAINS))
def test_guide_cells_are_the_searched_cells_at_every_edge(name):
    cdf = np.cumsum(BLOCK_CHAINS[name]().p[1:])
    u = guide_edges(cdf)
    above, cells = maps._cells(cdf, maps._guide(cdf), u)
    assert np.array_equal(above, np.flatnonzero(u > cdf[0]))
    assert np.array_equal(cells, np.searchsorted(cdf, u[above], side="left") + 1)


def test_guide_cells_in_a_bucket_of_thousands_of_cells():
    # zeta 1's last bucket [1 - 2**-12, 1) holds the deep cells and the
    # draws past the prefix, so most of its draws fall back to the search
    cdf = np.cumsum(build_chain(ZetaTailLaw(1.0), 21_000).p[1:])
    bottom = 1.0 - 2.0 ** -maps._GUIDE_BITS
    assert np.count_nonzero(cdf >= bottom) > 1000 and cdf[-1] < 1.0
    past = np.nextafter(cdf[-1], 1.0)
    u = np.concatenate((np.linspace(bottom, 1.0, 20_001)[:-1], cdf[cdf >= bottom],
                        maps._rng(3).random(B) * (1.0 - bottom) + bottom,
                        [past, (past + 1.0) / 2, 1.0 - EPS / 2]))
    above, cells = maps._cells(cdf, maps._guide(cdf), u)
    assert above.size == u.size
    assert np.array_equal(cells, np.searchsorted(cdf, u, side="left") + 1)
    assert cells.max() == cdf.size + 1


# ----------------------------------------------------------------------
# parallel blocks: the chain sampler draws block (offset, count) from its
# offset in the Philox stream, so the blocks run on a pool of threads and
# every state and report must not depend on how many
# ----------------------------------------------------------------------

@pytest.mark.parametrize("block", [B, 1, 2, 7, 40])
def test_orbits_and_reports_do_not_depend_on_the_worker_count(monkeypatch, block):
    # offsets off a multiple of four at the small block sizes; several
    # blocks in flight at every size
    chain = oracle_map("zeta-1.5-N300").chain
    censoring = censoring_chain()
    length = 3 * B + 7 if block == B else 3000
    u = centered_top_indicator(chain)
    v = Observable(np.array([0.0, 0.5, -1.0, 2.0]), limit=0.25)
    monkeypatch.setattr(maps, "_BLOCK", block)

    def outputs():
        return [sample_states(chain, length, 6, burn_in=block + 3),
                sample_states(censoring, length, 2 ** 64 - 1, burn_in=0),
                mc_correlation(chain, u, v, [0, 1, 17], length, 6, burn_in=block - 1),
                vars(kac_check(chain, length, 5, burn_in=7)),
                vars(markov_frequency_check(chain, length, 5, i_max=6, burn_in=2))]

    monkeypatch.setattr(maps, "_workers", lambda: 1)
    want = outputs()
    assert same_states(want[0], ref_chain_states(chain, length, 6, block + 3))
    assert same_states(want[1], ref_chain_states(censoring, length, 2 ** 64 - 1, 0))
    for threads in (2, 3):
        monkeypatch.setattr(maps, "_workers", lambda: threads)
        got = outputs()
        for g, w in zip(got[:2], want[:2]):
            assert same_states(g, w)
        assert got[2] == want[2]
        for g, w in zip(got[3:], want[3:]):
            assert g.keys() == w.keys()
            for field in w:
                if isinstance(w[field], np.ndarray):
                    assert g[field].tobytes() == w[field].tobytes(), field
                else:
                    assert g[field] == w[field], field


def test_worker_count_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(maps.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert maps._workers() == 1
    monkeypatch.setattr(maps.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    assert maps._workers() == maps._MAX_WORKERS == 2


@pytest.mark.parametrize("cpus, workers", [(8, 2), (1, 1), (None, 1)])
def test_worker_count_without_affinity_masks(monkeypatch, cpus, workers):
    # a platform without sched_getaffinity falls back on the CPU count, and
    # on one thread when that is unknown
    monkeypatch.delattr(maps.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(maps.os, "cpu_count", lambda: cpus)
    assert maps._workers() == workers


def serial_loop_draws(chain, total, seed):
    """Uniforms a loop drawing one block at a time takes, each block sized
    from the states still missing: 1.2 times their expected excursions,
    at least 1024 and at most a block."""
    lengths = ref_cells(np.cumsum(chain.p[1:]),
                        maps._rng(maps._key(seed)).random(int(total / chain.m1 * 2) + 4 * B))
    lengths[lengths > chain.truncation] = 1
    states = np.concatenate(([0], np.cumsum(lengths)))
    drawn = 0
    while states[drawn] < total:
        drawn += min(max(1024, int((total - states[drawn]) / chain.m1 * 1.2) + 16), B)
    return drawn


@pytest.mark.parametrize("length", [1000, 100_000, 150_000, 333_333, 1_000_000])
def test_one_worker_draws_no_more_than_a_serial_loop(geo, zeta, monkeypatch, length):
    # full blocks are planned only for the whole blocks still expected, so
    # the last block is sized from what remains and no block is wasted
    monkeypatch.setattr(maps, "_workers", lambda: 1)
    cells, drawn = maps._cells, [0]

    def counting(cdf, guide, u):
        drawn[0] += u.size
        return cells(cdf, guide, u)

    monkeypatch.setattr(maps, "_cells", counting)
    for chain in (geo, zeta):
        for seed in (1, 2, 3):
            drawn[0] = 0
            sample_states(chain, length, seed, burn_in=0)
            assert drawn[0] <= serial_loop_draws(chain, length, seed)


def test_pools_leave_no_thread_behind(zeta, monkeypatch):
    monkeypatch.setattr(maps, "_workers", lambda: 2)
    before = threading.active_count()
    blocks = maps._blocks(zeta, 6 * B, 1, 0)
    first = next(blocks)
    assert first.size and threading.active_count() > before
    del blocks  # abandoned with blocks in flight
    assert threading.active_count() == before
    sample_states(zeta, 6 * B, 1)
    assert threading.active_count() == before


def test_a_failing_block_reaches_the_caller(zeta, monkeypatch):
    monkeypatch.setattr(maps, "_workers", lambda: 3)
    draw, calls = maps._excursion_block, itertools.count()

    def failing(chain, cdf, guide, rng, count, limit):
        if next(calls) == 2:
            raise FloatingPointError("the third block failed")
        return draw(chain, cdf, guide, rng, count, limit)

    monkeypatch.setattr(maps, "_excursion_block", failing)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="third block failed"):
        sample_states(zeta, 10 * B, 1)
    assert threading.active_count() == before


def test_one_block_orbits_load_no_thread_pool():
    # concurrent.futures takes about 11 ms to import; only an orbit of
    # several blocks drawn by several workers needs it
    code = """if True:
        import sys
        import renewallab as rl
        import renewallab.cli
        from renewallab import maps
        assert "concurrent.futures" not in sys.modules, "import"
        chain = rl.build_chain(rl.ZetaTailLaw(1.0), 2000)
        rl.sample_states(chain, 20_000, 1)
        rl.kac_check(chain, 20_000, 1)
        assert "concurrent.futures" not in sys.modules, "one block"
        maps._workers = lambda: 2
        rl.sample_states(chain, 200_000, 1)
        assert "concurrent.futures" in sys.modules, "several blocks"
    """
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def ref_returns(states):
    """Gaps between successive visits to the top cell with no censored step
    between them."""
    ones = np.flatnonzero(states == 1)
    broken = np.cumsum(states == -1)
    return np.diff(ones)[broken[ones[1:]] == broken[ones[:-1]]]


def ref_kac(states):
    """Kac's report fields from the whole orbit at once."""
    valid = states > 0
    rho_e = float(np.count_nonzero(states == 1) / np.count_nonzero(valid))
    returns = ref_returns(states)
    mean_return = float(returns.mean())
    return dict(rho_e=rho_e, mean_return=mean_return, product=rho_e * mean_return,
                histogram=np.bincount(returns), n_returns=int(returns.size),
                n_steps=int(states.size), censored=int(np.count_nonzero(states == -1)))


def ref_frequency(states, i_max):
    """The frequency tables from the whole orbit at once."""
    a, b = states[:-1], states[1:]
    origin = (a >= 1) & (a <= i_max) & (b >= 1)
    row_visits = np.bincount(a[origin] - 1, minlength=i_max)
    cell = origin & (b <= i_max)
    counts = np.bincount((a[cell] - 1) * i_max + (b[cell] - 1),
                         minlength=i_max * i_max).reshape(i_max, i_max)
    with np.errstate(invalid="ignore", divide="ignore"):
        hat = counts / row_visits[:, None]
        stderr = np.sqrt(hat * (1.0 - hat) / row_visits[:, None])
    edges = np.linspace(0, states.size, maps.BATCHES + 1).astype(int)
    key = np.clip(states, 0, i_max + 1)
    key += np.repeat(np.arange(maps.BATCHES) * (i_max + 2), np.diff(edges))
    table = np.bincount(key, minlength=maps.BATCHES * (i_max + 2)).reshape(maps.BATCHES, -1)
    visits, valid = table[:, 1 : i_max + 1], table[:, 1:].sum(axis=1)
    means = np.ascontiguousarray((visits[valid > 0] / valid[valid > 0, None]).T)
    occ_stderr = np.std(means, axis=1, ddof=1) / math.sqrt(means.shape[1])
    return dict(transition_hat=hat, transition_stderr=stderr, row_visits=row_visits,
                occupation_hat=visits.sum(axis=0) / valid.sum(), occupation_stderr=occ_stderr,
                n_steps=int(states.size), censored=int(np.count_nonzero(states == -1)))


def assert_same_report(report, want):
    for field, value in want.items():
        got = getattr(report, field)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), field
        else:
            assert type(got) is type(value) and got == value, field


@pytest.mark.parametrize("sampler, length, burn_in, block", [
    ("chain", 3 * B + 11, 100, B), ("float", B + 7, B - 5, B),
    ("chain", 20_000, 33, 97), ("float", 20_000, 33, 97)])
def test_kac_and_frequency_reports_match_the_whole_orbit(geo_map, zeta_map, monkeypatch,
                                                         sampler, length, burn_in, block):
    # the float doubling map censors every ~53 steps, so returns and
    # transitions straddle both block edges and censored steps
    monkeypatch.setattr(maps, "_BLOCK", block)
    for m in (geo_map, zeta_map):
        states, _ = coded_states(m, sampler, length, 6, burn_in=burn_in)
        assert_same_report(kac_check(m, length, 6, burn_in=burn_in, sampler=sampler),
                           ref_kac(states))
        rep = markov_frequency_check(m, length, 6, i_max=7, burn_in=burn_in, sampler=sampler)
        assert_same_report(rep, ref_frequency(states, 7))


@functools.lru_cache(maxsize=None)
def dense_window_map():
    return build_map(build_chain(ZetaTailLaw(1.5), 2000))


@pytest.mark.parametrize("block", [1, 7, B])
@pytest.mark.parametrize("sampler", ["chain", "float"])
def test_pair_counts_match_the_whole_orbit(monkeypatch, sampler, block):
    # one count keyed by both cells of a step: a chain that censors, with
    # i_max = truncation - 1, and a window of DENSE_LIMIT cells a side, whose
    # count of a million keys per block keeps its orbits at a few hundred blocks
    monkeypatch.setattr(maps, "_BLOCK", block)
    short = oracle_map("zeta-0.25-N6")
    for m, i_max, length in ((short, 5, 5000),
                             (dense_window_map(), DENSE_LIMIT, min(300 * block, 30_000))):
        states, censored = coded_states(m, sampler, length, 5, burn_in=11)
        rep = markov_frequency_check(m, length, 5, i_max=i_max, burn_in=11, sampler=sampler)
        assert_same_report(rep, ref_frequency(states, i_max))
        assert m is not short or censored > 0


def test_kac_needs_a_completed_return(half_map):
    # FiniteLaw((0.5, 0.5)) returns within two steps, so one step holds no return
    with pytest.raises(PreconditionViolated, match="no completed return"):
        kac_check(half_map, 1, 0, burn_in=0)


@pytest.mark.parametrize("sampler, length, block", [
    ("chain", 3 * B + 5, B), ("float", B + 900, B), ("chain", 6000, 1), ("float", 6000, 1)])
def test_streamed_lag_estimator_matches_the_nanmean_route(geo_map, zeta_map, monkeypatch,
                                                          sampler, length, block):
    # orbits longer than the window of observable values: it slides, and
    # the observable sums are taken piecewise, within the same bound
    monkeypatch.setattr(maps, "_BLOCK", block)
    for m in (geo_map, zeta_map):
        u = centered_top_indicator(m.chain)
        v = Observable(np.array([0.0, 0.5, -1.0, 2.0]), limit=0.25)
        for vv in (u, v):
            lags = [0, 1, 30, 300] if length > 10_000 else [0, 3, 29]
            got = mc_correlation(m, u, vv, lags, length, 12, burn_in=150, sampler=sampler)
            want = ref_mc_correlation(m, u, vv, lags, length, 12, 150, sampler)
            for n in lags:
                mean, stderr, n_samples, censored, mean_tol, stderr_tol = want[n]
                assert (got[n].n_samples, got[n].censored) == (n_samples, censored)
                assert abs(got[n].mean - mean) <= mean_tol
                assert abs(got[n].stderr - stderr) <= stderr_tol


def traced_peak(call) -> float:
    """Bytes of the largest traced allocation total during ``call``."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_orbit_estimators_hold_no_whole_orbit(zeta):
    # 10^6 states take 8 MB as int64: the estimators must stay below that,
    # and the sampler below its own 4 MB of int32 output plus 4 MB
    steps = 1_000_000
    u = centered_top_indicator(zeta)
    for call in (lambda: mc_correlation(zeta, u, u, [10, 100, 300], steps, 1),
                 lambda: kac_check(zeta, steps, 1),
                 lambda: markov_frequency_check(zeta, steps, 1)):
        assert traced_peak(call) < 8_000_000
    assert traced_peak(lambda: sample_states(zeta, steps, 1)) < 4 * steps + 4_000_000


def test_a_null_recurrent_orbit_builds_no_more_than_it_needs():
    # m1 is infinite, so every batch draws 1024 excursions; at N = 10^6
    # they hold about 2.7e7 states, and a 1000-step orbit allocated 223 MB
    # expanding them all.  Past the 8 MB of the return law's cdf, the
    # block of 1000 states is all it needs.
    chain = build_chain(ZetaTailLaw(-0.9), 10 ** 6)
    peak = traced_peak(lambda: sample_states(chain, 1000, 1, burn_in=0))
    assert peak < 8 * chain.truncation + 2_000_000


def test_a_block_of_more_than_2_31_states_is_cut_in_int32():
    # every draw is cell N = 3e6, so the uncut block holds 1024 N > 2**31
    # states; the 10^6 kept ones are the first excursion, N, N-1, ..., and
    # they and the positions that build them fit int32: 4 bytes for the
    # block and 4 for its positions, where an int64 block took 16
    n, limit = 3_000_000, 1_000_000
    cdf = np.zeros(n)
    cdf[-1] = 1.0
    guide = maps._guide(cdf)
    got = []
    peak = traced_peak(lambda: got.append(maps._excursion_block(
        SimpleNamespace(truncation=n), cdf, guide, maps._rng(1), 1024, limit)))
    assert got[0].dtype == np.int32 and np.array_equal(got[0], n - np.arange(limit))
    assert peak < 10 * limit


def ref_entrance(chain, k, n_max, samples, seed):
    """The Monte Carlo estimate of the entrance survival curve, the oracle
    of its closed form: the starts take the first ``samples`` uniforms, the
    jumps from cell one the next ones, in sample order; a start or jump
    beyond the stored prefix is still out at every n."""
    rng = maps._rng(maps._key(seed))
    pi_cdf = np.cumsum(chain.pi[1:])
    p_cdf = np.cumsum(chain.p[1:])
    u = rng.random(samples)
    start = np.searchsorted(pi_cdf, u, side="left") + 1
    deep_start = u > pi_cdf[-1]
    t = np.empty(samples, dtype=np.int64)
    t[start > k] = start[start > k] - k
    t[(start >= 2) & (start <= k)] = 1
    at_one = np.flatnonzero((start == 1) & ~deep_start)
    uj = rng.random(at_one.size)
    jump = np.searchsorted(p_cdf, uj, side="left") + 1
    t[at_one] = 1 + np.maximum(0, jump - k)
    deep = deep_start.copy()
    deep[at_one] |= uj > p_cdf[-1]
    t[deep] = n_max + 1
    counts = np.bincount(np.clip(t, 0, n_max + 1), minlength=n_max + 2)
    return counts[::-1].cumsum()[::-1][2:] / float(samples)


#: Rounding factor of two additions and one product, u = eps / 2.
GAMMA_3 = 1.5 * EPS / (1.0 - 1.5 * EPS)

#: Chains of the entrance oracle cases: (law, truncation, k, n_max).  Beyond
#: the short prefix of zeta-0.25-N6 lie 44% of the stationary mass, so of
#: the starts, and 5.3% of the return law, so of the jumps.
ENTRANCE_CASES = {
    "zeta-1-k1": (ZetaTailLaw(1.0), 20000, 1, 1000),
    "zeta-1-k5": (ZetaTailLaw(1.0), 20000, 5, 50),
    "zeta-0.25": (ZetaTailLaw(0.25), 20000, 1, 1000),
    "zeta-3": (ZetaTailLaw(3.0), 20000, 1, 1000),
    "geometric-0.5": (GeometricLaw(0.5), 2000, 1, 30),
    "zeta-0.25-N6": (*CENSORED_LAWS["zeta-0.25-N6"], 1, 3),
}


@pytest.mark.parametrize("seed", [7, 2 ** 64 - 3])
@pytest.mark.parametrize("name", sorted(ENTRANCE_CASES))
def test_entrance_tail_lies_within_4_stderr_of_the_sampler(name, seed):
    law, truncation, k, n_max = ENTRANCE_CASES[name]
    chain = build_chain(law, truncation)
    rep = entrance_tail(chain, chain.d[k], n_max, 1000, seed)
    assert rep.k == k
    s = rep.curve.values
    samples = 200_000
    want = ref_entrance(chain, k, n_max, samples, seed)
    assert np.all(np.abs(want - s) <= 4.0 * np.sqrt(s * (1.0 - s) / samples))
    assert np.all(np.diff(s) <= 0.0) and 0.0 < s[-1] <= s[0] <= 1.0
    assert np.array_equal(rep.curve.bounds, GAMMA_3 * s)
    # samples and seed are checked, and draw nothing
    other = entrance_tail(chain, chain.d[k], n_max, maps.MAX_ORBIT, 0)
    assert other.curve.values.tobytes() == s.tobytes()


def test_entrance_tail_fits_the_last_decade_at_degree_3():
    # 2*10^6 sampled entrances read 0 past n = 35 to 49 here (seeds 3 and
    # 7), so the fit was lost; the exact curve is 7.7e-11 at n = 1000
    chain = build_chain(ZetaTailLaw(3.0), 20000)
    rep = entrance_tail(chain, chain.d[1], 1000, 2_000_000, 3, fit_window=(100, 1000))
    assert rep.fit is not None and abs(rep.fit.exponent + 3.0) <= 0.1


def test_entrance_tail_explicit_fit_window_errors_propagate(zeta, half_map):
    with pytest.raises(PreconditionViolated, match="fewer than two grid points"):
        entrance_tail(zeta, zeta.d[1], 200, 1000, 1, fit_window=(300, 400))
    # the default window falls back to no fit: too few points, or a zero
    # value on a law of finite support
    assert entrance_tail(zeta, zeta.d[1], 2, 1000, 1).fit is None
    chain = half_map.chain
    rep = entrance_tail(chain, chain.d[1], 10, 1000, 1)
    assert rep.fit is None and rep.curve.values[-1] == 0.0
    with pytest.raises(ZeroValueInWindow):
        entrance_tail(chain, chain.d[1], 10, 1000, 1, fit_window=(2, 10))


def test_entrance_tail_holds_no_whole_sample(zeta):
    # 2*10^6 samples take 16 MB as one array of doubles
    assert traced_peak(lambda: entrance_tail(zeta, zeta.d[1], 1000, 2_000_000, 3)) < 16_000_000


@pytest.mark.parametrize("call, error", [
    (lambda chain: mc_correlation(chain, centered_top_indicator(chain),
                                  centered_top_indicator(chain), [], 1000, 1),
     PreconditionViolated),
    (lambda chain: pf_check(chain, n=2), TruncationTooSmall),
], ids=["mc_correlation-without-lags", "pf_check-below-three-cells"])
def test_an_empty_lag_list_or_a_short_transfer_check_is_refused(call, error):
    with pytest.raises(error):
        call(build_chain(GeometricLaw(0.5), 100))
