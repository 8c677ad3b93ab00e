import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renewallab as rl
from renewallab import evolve, series
from renewallab import (
    DivergentPairing,
    FiniteLaw,
    GeometricLaw,
    InfiniteDegree,
    NotNullRecurrent,
    NotPositiveRecurrent,
    Observable,
    PreconditionViolated,
    RateCurve,
    TruncatedSeries,
    TruncationTooSmall,
    ZeroValueInWindow,
    ZetaTailLaw,
    build_chain,
    correlation_constant,
    correlation_curve,
    deviation_tail_ratio,
    distance_curve,
    from_weights,
    indicator,
    log_grid,
    nonuniformity_probe,
    null_recurrent_ratio,
    ones,
    partial_sums,
    point_mass,
    rate_fit,
    reciprocal,
    renewal_sequence,
    stationary,
    step,
)


def geo_chain(n=500):
    return build_chain(GeometricLaw(0.5), n)


# ----------------------------------------------------------------------
# step
# ----------------------------------------------------------------------

def test_step_point_mass_two_descends_to_one():
    ch = geo_chain()
    out = step(ch, point_mass(2))
    assert out.weights[1] == 1.0
    assert out.weights[2:].sum() == 0.0
    assert out.tail_mass == 0.0


def test_step_point_mass_one_spreads_as_return_law():
    ch = geo_chain()
    out = step(ch, point_mass(1))
    assert np.array_equal(out.weights, ch.p)
    assert out.tail_mass == ch.d[ch.truncation]


def test_step_fixes_stationary_law_on_interior():
    for law in (GeometricLaw(0.5), FiniteLaw((0.5, 0.5)), ZetaTailLaw(1.0)):
        ch = build_chain(law, 400)
        out = step(ch, stationary(ch))
        interior = np.abs(out.weights[1:-1] - ch.pi[1:-1])
        assert interior.max() < 1e-12, law


def test_step_conserves_total_mass():
    ch = build_chain(ZetaTailLaw(1.0), 2000)
    nu = point_mass(1)
    for _ in range(200):
        nu = step(ch, nu)
    assert nu.total_mass == pytest.approx(1.0, abs=1e-12)
    assert nu.tail_mass > 0.0


def test_long_run_mass_conservation():
    # ten thousand exact steps: totals drift only at the rounding level
    ch = build_chain(ZetaTailLaw(1.0), 1500)
    nu = point_mass(1)
    for _ in range(10000):
        nu = step(ch, nu)
    assert nu.weights[1:].sum() + nu.tail_mass == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------------
# renewal sequence
# ----------------------------------------------------------------------

def test_renewal_single_state_law_is_constant_one():
    ch = build_chain(FiniteLaw((1.0,)), 10)
    e = renewal_sequence(ch, 8)
    assert np.array_equal(e.values, np.ones(9))


def test_renewal_geometric_is_exactly_half():
    e = renewal_sequence(geo_chain(), 200)
    assert e.values[0] == 1.0
    assert np.array_equal(e.values[1:], np.full(200, 0.5))


def test_renewal_half_half_hand_values():
    ch = build_chain(FiniteLaw((0.5, 0.5)), 50)
    e = renewal_sequence(ch, 5)
    assert e.values.tolist() == [1.0, 0.5, 0.75, 0.625, 0.6875, 0.65625]
    far = renewal_sequence(ch, 50).values[-1]
    assert far == pytest.approx(2.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize(
    "law", [GeometricLaw(0.5), FiniteLaw((0.5, 0.5)), ZetaTailLaw(1.0)]
)
def test_renewal_two_routes_agree(law):
    # convolution recursion versus partial sums of the reciprocal of the
    # survival series: two independent routes to the same sequence
    ch = build_chain(law, 400)
    ea = renewal_sequence(ch, 300).values
    eb = partial_sums(reciprocal(TruncatedSeries(ch.d[:301]))).coeffs
    assert np.max(np.abs(ea - eb)) < 1e-10


def test_renewal_needs_prefix():
    with pytest.raises(TruncationTooSmall):
        renewal_sequence(geo_chain(100), 200)


# ----------------------------------------------------------------------
# distance curves
# ----------------------------------------------------------------------

def test_distance_hand_value_half_half():
    ch = build_chain(FiniteLaw((0.5, 0.5)), 50)
    d = distance_curve(ch, point_mass(1), [1])
    assert d.values[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert 0.0 < d.bounds[0] < 1e-14  # no mass leaves the prefix: rounding only


@pytest.mark.parametrize("law, nu", [(FiniteLaw((0.5, 0.5)), point_mass(1)),
                                     (ZetaTailLaw(1.0), point_mass(3)),
                                     (ZetaTailLaw(3.0), from_weights([0.5, -0.25, 0.75],
                                                                  probability=False))])
def test_distance_bound_counts_the_l1_sum_of_the_entries(law, nu):
    # past the rounding of the convolutions, the bound counts the roundings
    # that assemble each entry and those of the l1 sum over the prefix
    from renewallab.evolve import _entries, _gamma

    ch = build_chain(law, 400)
    grid = [0, 1, 7, 50, 190]
    d = distance_curve(ch, nu, grid)
    tails = np.abs([tail for *_, tail in _entries(ch, nu, np.array(grid), 1)])
    gaps = d.values - ch.stationary_mass_beyond(400)
    assert np.all(d.bounds - tails >= _gamma(400) * gaps)


def test_distance_from_stationary_is_zero_for_finite_laws():
    ch = build_chain(FiniteLaw((0.5, 0.5)), 100)
    d = distance_curve(ch, stationary(ch), [1, 5, 20])
    assert np.array_equal(d.values, np.zeros(3))


def test_distance_from_stationary_stays_below_reported_noise():
    # starting exactly at pi, every curve value is pure truncation residue
    # and must sit inside the reported uncertainty of zero
    ch = build_chain(ZetaTailLaw(1.0), 2000)
    d = distance_curve(ch, stationary(ch), [10, 100])
    assert np.all(d.values <= d.bounds + 1e-12)
    assert np.all(d.values < 1e-3)


def test_distance_bounded_by_two():
    ch = build_chain(ZetaTailLaw(1.0), 1000)
    d = distance_curve(ch, point_mass(200), log_grid(1, 200, 12))
    assert np.all(d.values <= 2.0 + 1e-12)


def test_distance_horizon_gate():
    ch = build_chain(ZetaTailLaw(1.0), 100)
    with pytest.raises(TruncationTooSmall):
        distance_curve(ch, point_mass(1), [50])
    distance_curve(ch, point_mass(1), [49])


def test_distance_needs_stationary_law():
    ch = build_chain(ZetaTailLaw(-0.5), 100)
    with pytest.raises(NotPositiveRecurrent):
        distance_curve(ch, point_mass(1), [10])


def test_distance_slope_matches_degree():
    ch = build_chain(ZetaTailLaw(1.5), 6000)
    d = distance_curve(ch, point_mass(1), log_grid(100, 2500, 15))
    fit = rate_fit(d, (100, 2500))
    assert fit.exponent == pytest.approx(-1.5, abs=0.2)


# ----------------------------------------------------------------------
# correlation curves
# ----------------------------------------------------------------------

def test_correlation_with_ones_vanishes():
    ch = build_chain(ZetaTailLaw(1.0), 500)
    c = correlation_curve(ch, point_mass(1), ones(5), [1, 10, 100])
    assert np.max(np.abs(c.values)) < 1e-12


def test_correlation_from_stationary_vanishes():
    ch = geo_chain()
    c = correlation_curve(ch, stationary(ch), indicator(1, 2), [1, 5, 25])
    assert np.max(np.abs(c.values)) < 1e-14


def test_correlation_bilinear_in_observable():
    ch = build_chain(FiniteLaw((0.3, 0.3, 0.4)), 200)
    rng = np.random.default_rng(7)
    a = rng.normal(size=6)
    b = rng.normal(size=6)
    grid = [1, 3, 9, 27]
    ua = Observable(np.concatenate(([0.0], a)))
    ub = Observable(np.concatenate(([0.0], b)))
    uc = Observable(np.concatenate(([0.0], 2.5 * a - b)))
    nu = point_mass(2)
    ca = correlation_curve(ch, nu, ua, grid).values
    cb = correlation_curve(ch, nu, ub, grid).values
    cc = correlation_curve(ch, nu, uc, grid).values
    assert np.max(np.abs(cc - (2.5 * ca - cb))) < 1e-10


def test_correlation_linear_in_signed_deviation():
    ch = build_chain(FiniteLaw((0.3, 0.3, 0.4)), 200)
    w = np.zeros(5)
    w[0], w[2] = 0.05, -0.05
    base = stationary(ch).weights[1:6]
    nu1 = from_weights(base + w, probability=False)
    nu2 = from_weights(base + 2.0 * w, probability=False)
    u = indicator([1, 3], size=4)
    grid = [1, 2, 5, 10]
    c1 = correlation_curve(ch, nu1, u, grid).values
    c2 = correlation_curve(ch, nu2, u, grid).values
    assert np.max(np.abs(c2 - 2.0 * c1)) < 1e-10


# ----------------------------------------------------------------------
# deviation-to-tail ratio
# ----------------------------------------------------------------------

def test_deviation_tail_ratio_rejects_geometric():
    with pytest.raises(InfiniteDegree):
        deviation_tail_ratio(geo_chain(), [10, 100])


def test_deviation_tail_ratio_approaches_one():
    ch = build_chain(ZetaTailLaw(1.0), 3000)
    r = deviation_tail_ratio(ch, [300, 3000])
    assert abs(r.values[1] - 1.0) < abs(r.values[0] - 1.0)
    assert 0.9 < r.values[1] < 1.1


def test_deviation_tail_ratio_null_chain_rejected():
    ch = build_chain(ZetaTailLaw(-0.5), 100)
    with pytest.raises(NotPositiveRecurrent):
        deviation_tail_ratio(ch, [10])


@pytest.mark.filterwarnings("error")
def test_sharp_ratios_refuse_degrees_past_double_range():
    # at degree 1e6 the tail E_n underflows and n^d overflows: both refuse
    # before any 0/0 or inf * 0 reaches the curve
    ch = build_chain(ZetaTailLaw(1e6), 200)
    with pytest.raises(PreconditionViolated, match="underflows"):
        deviation_tail_ratio(ch, [10, 50])
    with pytest.raises(PreconditionViolated, match="overflows"):
        correlation_constant(ch, point_mass(1), indicator(1, 2), [10, 50])


# ----------------------------------------------------------------------
# rate fits
# ----------------------------------------------------------------------

def test_rate_fit_exact_power_law():
    n = log_grid(10, 10000, 25)
    fit = rate_fit(RateCurve(n, n.astype(float) ** -2.0), (10, 10000))
    assert fit.exponent == pytest.approx(-2.0, abs=1e-9)
    assert fit.rms_residual < 1e-12


def test_rate_fit_constant():
    n = log_grid(10, 1000, 12)
    fit = rate_fit(RateCurve(n, np.full(n.size, 0.7)), (10, 1000))
    assert fit.exponent == pytest.approx(0.0, abs=1e-9)


def test_rate_fit_log_corrected_power():
    n = log_grid(1000, 10000, 20)
    vals = np.log(n) / n
    fit = rate_fit(RateCurve(n, vals), (1000, 10000))
    assert -1.05 <= fit.exponent <= -0.85


def test_rate_fit_zero_value_rejected():
    n = np.array([10, 20, 40])
    with pytest.raises(ZeroValueInWindow):
        rate_fit(RateCurve(n, np.array([1.0, 0.0, 0.25])), (10, 40))


def test_rate_fit_narrow_window_rejected():
    n = np.array([10, 20, 40])
    with pytest.raises(PreconditionViolated):
        rate_fit(RateCurve(n, np.ones(3)), (15, 19))


# ----------------------------------------------------------------------
# sharp correlation constant
# ----------------------------------------------------------------------

def test_correlation_constant_guards():
    ch = build_chain(ZetaTailLaw(1.0), 500)
    with pytest.raises(PreconditionViolated):
        correlation_constant(ch, point_mass(1), ones(3), [10])
    with pytest.raises(PreconditionViolated):
        correlation_constant(ch, stationary(ch), indicator(1, 2), [10])
    with pytest.raises(InfiniteDegree):
        correlation_constant(geo_chain(), point_mass(1), indicator(1, 2), [10])
    # pi . u = 0: the prediction vanishes and no relative gap exists
    with pytest.raises(PreconditionViolated, match="pi . u"):
        correlation_constant(ch, point_mass(1), Observable([0.0, 0.0]), [10, 100, 200])


def test_observable_varying_past_the_prefix_is_refused():
    # u = 1_{505} on a prefix of 500 states: reading u only up to the prefix
    # gave a correlation of exactly zero, bounds zero, on this grid
    past = indicator([505], 510)
    ch = build_chain(ZetaTailLaw(1.0), 500)
    with pytest.raises(TruncationTooSmall, match="505"):
        correlation_curve(ch, point_mass(1), past, [10, 100, 200])
    with pytest.raises(TruncationTooSmall, match="505"):
        correlation_constant(ch, point_mass(1), past, [10, 100, 200])
    with pytest.raises(TruncationTooSmall, match="505"):
        null_recurrent_ratio(build_chain(ZetaTailLaw(-0.5), 500), point_mass(1), past, [10])
    # stored states past the prefix that equal u_inf are read as before
    wide = correlation_curve(ch, point_mass(1), indicator([1], 510), [10, 100])
    assert np.array_equal(wide.values, correlation_curve(
        ch, point_mass(1), indicator([1], 500), [10, 100]).values)


def test_correlation_constant_prediction_formula():
    ch = build_chain(ZetaTailLaw(1.0), 2200)
    curve, predicted = correlation_constant(
        ch, point_mass(1), indicator(1, 1), log_grid(10, 1000, 10)
    )
    assert predicted == pytest.approx(ch.pi1 ** 2 / 2.0, rel=1e-12)
    assert curve.values[-1] == pytest.approx(predicted, rel=0.2)


# ----------------------------------------------------------------------
# null-recurrent ratio
# ----------------------------------------------------------------------

def test_null_ratio_guards():
    pos = build_chain(ZetaTailLaw(1.0), 200)
    with pytest.raises(NotNullRecurrent):
        null_recurrent_ratio(pos, point_mass(1), indicator(1, 1), [10])
    nul = build_chain(ZetaTailLaw(-0.5), 200)
    with pytest.raises(DivergentPairing):
        null_recurrent_ratio(nul, point_mass(1), ones(3), [10])


def test_null_ratio_delta_one_is_exactly_one():
    ch = build_chain(ZetaTailLaw(-0.5), 2100)
    r = null_recurrent_ratio(ch, point_mass(1), indicator(1, 1), [1, 10, 100, 1000])
    assert np.array_equal(r.values, np.ones(4))


def test_curves_at_n_zero_with_a_one_state_observable():
    # at n = 0 a one-state observable leaves the pairing nothing to correlate
    zeta = build_chain(ZetaTailLaw(1.0), 500)
    both = correlation_curve(zeta, point_mass(1), indicator(1, 1), [0, 1])
    alone = correlation_curve(zeta, point_mass(1), indicator(1, 1), [0])
    assert alone.values.tobytes() == both.values[:1].tobytes()
    assert alone.values[0] == pytest.approx(0.26923703, abs=1e-8)
    null = build_chain(ZetaTailLaw(-0.5), 500)
    both = null_recurrent_ratio(null, point_mass(1), indicator(1, 1), [0, 1])
    alone = null_recurrent_ratio(null, point_mass(1), indicator(1, 1), [0])
    assert alone.values.tobytes() == both.values[:1].tobytes()


def test_null_ratio_delta_two_shift():
    ch = build_chain(ZetaTailLaw(-0.5), 2100)
    grid = [10, 100, 1000]
    r = null_recurrent_ratio(ch, point_mass(2), indicator(1, 2), grid)
    e = renewal_sequence(ch, 1000).values
    expected = e[np.array(grid) - 1] / e[np.array(grid)]
    assert np.allclose(r.values, expected, rtol=1e-12)
    assert abs(r.values[-1] - 1.0) < 0.05


@pytest.mark.parametrize("degree", [-0.75, -0.5])
@pytest.mark.parametrize("nu, u", [(point_mass(3), indicator([2], 2)),
                                   (point_mass(1), indicator([2], 2)),
                                   (point_mass(2), indicator([1, 4], 4))],
                         ids=["delta3-u2", "delta1-u2", "delta2-u14"])
def test_null_ratio_tends_to_one_when_u_dot_v_is_not_one(degree, nu, u):
    # u . v = d_1 or d_0 + d_3 differs from one: dividing by (nu . 1)(u . v)
    # times (delta_1 P^n . u) instead of e_n leaves 1 / (u . v)
    ch = build_chain(ZetaTailLaw(degree), 20010)
    r = null_recurrent_ratio(ch, nu, u, [100, 1000, 10_000])
    assert abs(r.values[-1] - 1.0) < 1e-3


# ----------------------------------------------------------------------
# the renewal engine against iterated steps
# ----------------------------------------------------------------------

ORACLE_LAWS = [ZetaTailLaw(1.0), ZetaTailLaw(3.0), FiniteLaw((0.3, 0.3, 0.4)),
               GeometricLaw(0.6)]


def iterated(chain, nu, grid):
    """The oracle: ``step`` applied n times, one measure per grid point."""
    out, n = [], 0
    for m in grid:
        while n < m:
            nu = step(chain, nu)
            n += 1
        out.append(nu)
    return out


def oracle_curves(chain, states, u, grid):
    """Distance and correlation values, tail masses and the oscillation of
    ``u`` that bounds them, as the stepwise route defines them, read off
    the iterated measures."""
    n = chain.truncation
    pi_tail = chain.stationary_mass_beyond(n)
    uvals = np.full(n + 1, u.limit)
    uvals[: min(u.size, n) + 1] = u.values[: min(u.size, n) + 1]
    uvals[0] = 0.0
    reach = max(n - int(grid[-1]), 1)
    osc = float(np.max(np.abs(uvals[reach:] - u.limit), initial=0.0))
    gaps = [np.pad(s.weights, (0, n + 1 - s.weights.size))[1:] - chain.pi[1:]
            for s in states]
    dist = [np.abs(gap).sum() + pi_tail for gap in gaps]
    corr = [np.dot(gap, uvals[1:]) + u.limit * (s.tail_mass - pi_tail)
            for gap, s in zip(gaps, states)]
    tails = np.abs([s.tail_mass for s in states])
    return np.array(dist), np.array(corr), tails, osc


@settings(max_examples=40, deadline=None)
@given(law=st.sampled_from(ORACLE_LAWS), n=st.integers(40, 300), data=st.data())
def test_engine_matches_iterated_step(law, n, data):
    from renewallab.evolve import _entries

    chain = build_chain(law, n)
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    sign = st.sampled_from([-1.0, 1.0])
    # starts up to n/4 states long run the nu-term windows with min(n, s) > 8
    w = np.array(data.draw(st.lists(unit, min_size=1, max_size=max(8, n // 4))))
    tail_mass = data.draw(st.floats(0.05, 0.5)) * data.draw(sign)
    w[0] += (1.0 - tail_mass) - w.sum()
    nu = from_weights(w, tail_mass=tail_mass, probability=False)
    # observables stored past the prefix: refused where they differ from
    # u_inf there, read up to the prefix where they do not
    size = data.draw(st.integers(1, n + 20))
    vals = data.draw(st.lists(unit, min_size=size, max_size=size))
    u = Observable([0.0] + vals, limit=data.draw(st.floats(0.25, 2.0)) * data.draw(sign))
    top = data.draw(st.integers(1, n // 2))
    grid = sorted(set(data.draw(st.lists(st.integers(0, top), max_size=5))) | {top})
    if np.any(u.values[n + 1 :] != u.limit):
        with pytest.raises(TruncationTooSmall, match="past the prefix"):
            correlation_curve(chain, nu, u, grid)
        u = Observable(np.r_[u.values[: n + 1], np.full(size - n, u.limit)], limit=u.limit)

    dist, corr, oracle_tails, osc = oracle_curves(
        chain, iterated(chain, nu, grid), u, grid)
    # bounds are built from the tail mass, which matches the stepwise one,
    # plus a rounding term
    tails = np.abs([tail for *_, tail in _entries(chain, nu, np.array(grid), 1)])
    assert np.allclose(tails, oracle_tails, rtol=1e-12, atol=0.0)
    engine_dist = distance_curve(chain, nu, grid)
    assert np.max(np.abs(engine_dist.values - dist)) <= 1e-12
    extra = engine_dist.bounds - tails
    assert np.all(extra >= 0.0) and np.all(extra <= 1e-10)
    try:
        engine_corr = correlation_curve(chain, nu, u, grid)
    except TruncationTooSmall:
        # refused only where rounding could account for the whole value
        assert np.min(np.abs(corr)) <= 1e-10
        return
    assert np.max(np.abs(engine_corr.values - corr)) <= 1e-12
    extra = engine_corr.bounds - tails * osc
    assert np.all(extra >= 0.0) and np.all(extra <= 1e-10)


@settings(max_examples=20, deadline=None)
@given(degree=st.floats(-0.9, 0.0), n=st.integers(20, 300), data=st.data())
def test_null_ratio_delta_one_is_exactly_one_everywhere(degree, n, data):
    chain = build_chain(ZetaTailLaw(degree), n)
    grid = sorted(set(data.draw(st.lists(st.integers(1, (n - 1) // 2), min_size=1,
                                         max_size=8))))
    r = null_recurrent_ratio(chain, point_mass(1), indicator(1, 1), grid)
    assert np.all(r.values == 1.0)


@settings(max_examples=20, deadline=None)
@given(law=st.sampled_from(ORACLE_LAWS), n=st.integers(40, 300), data=st.data())
def test_nonuniformity_probe_matches_iterated_step(law, n, data):
    chain = build_chain(law, n)
    steps = data.draw(st.integers(0, n // 3))  # evolved starts need N >= 2 n + i
    states = sorted(set(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4))))
    probe = nonuniformity_probe(chain, states, steps)
    for i in states:
        if i > steps or steps == 0:
            continue  # pure descent, in closed form on both routes
        (last,) = iterated(chain, point_mass(i), [steps])
        expected = np.abs(last.weights[1:] - chain.pi[1:]).sum() \
            + chain.stationary_mass_beyond(n)
        # the stepwise oracle subtracts O(1) numbers: agreement is absolute
        assert probe[i] == pytest.approx(expected, rel=0.0, abs=1e-12)


def test_distance_resolves_a_zero_on_both_routes_and_refuses_lost_digits():
    # from delta_1 a geometric chain is stationary after one step; the
    # block route (n N past DIRECT_WORK at n = 1000) resolves that zero as
    # the direct route does
    ch = build_chain(GeometricLaw(0.5), 40000)
    d = distance_curve(ch, point_mass(1), [10, 1000])
    assert np.all(d.values < 1e-300) and np.all(d.bounds < 1e-17)
    # +-1e8 weights leave rounding of 1e-11 on a value that is zero
    signed = from_weights([-1e8, 1.0 + 1e8], probability=False)
    with pytest.raises(TruncationTooSmall, match="rounding"):
        distance_curve(build_chain(GeometricLaw(0.3), 400), signed, [10])


def test_distance_returns_a_zero_its_rounding_accounts_for():
    # from delta_2 a geometric chain is stationary after two steps: the value
    # is rounding noise below the floor of a unit mass, not lost digits
    d = distance_curve(build_chain(GeometricLaw(0.6), 67), point_mass(2), [2])
    assert d.values[0] <= d.bounds[0] < 1e-14


def test_distance_resolves_high_degrees_past_direct_work():
    # one bound over uniform blocks from index 0 refused these from
    # n = 4317 (d = 3) and n = 1000 (d = 4); with p~ in dyadic blocks below
    # FAR_BLOCK and a bound per block pair each error keeps to its scale
    d3 = distance_curve(build_chain(ZetaTailLaw(3.0), 20001), point_mass(1),
                        [800, 1000, 2000, 4317, 9000])
    assert d3.at(4317) == pytest.approx(1.91269e-12, rel=1e-5)
    assert np.all(d3.bounds < 0.1 * d3.values)
    d4 = distance_curve(build_chain(ZetaTailLaw(4.0), 80000), point_mass(1),
                        [100, 300, 1000, 4000, 20000])
    assert np.all(np.diff(d4.values) < 0.0) and np.all(d4.bounds < 0.1 * d4.values)


@pytest.mark.parametrize("degree", [1.5, 3.0, 4.0])
def test_block_route_agrees_with_the_direct_route_across_direct_work(degree, monkeypatch):
    n_chain = 20001
    switch = evolve.DIRECT_WORK // n_chain  # n N just below, then just above
    grid = [switch - 1, switch, switch + 1, switch + 2, 4000, 9000]
    starts = [point_mass(1), point_mass(3), from_weights([0.5, -0.25, 0.75],
                                                         probability=False)]
    ch = build_chain(ZetaTailLaw(degree), n_chain)
    blocked = [distance_curve(ch, nu, grid) for nu in starts]
    monkeypatch.setattr(evolve, "DIRECT_WORK", 1 << 40)
    for nu, got in zip(starts, blocked):
        want = distance_curve(ch, nu, grid)
        assert np.all(np.abs(got.values - want.values) <= got.bounds + want.bounds)
        assert np.all(got.values[:2] == want.values[:2])  # the direct route itself


def assert_block_window_is_sliding(rng, n_y, n, size):
    y = np.arange(1.0, n_y + 1) ** -rng.uniform(1.5, 5.0) * rng.choice([-1.0, 1.0], n_y)
    x = np.arange(1.0, n + 1) ** -rng.uniform(0.5, 4.0) * rng.uniform(-1.0, 1.5, n)
    blocks = series._dyadic_blocks(y, min(n_y, n + size - 1), series.FAR_BLOCK)
    got, err = series._window(x, y, blocks, size)
    want = series._sliding(x, y[: n + size - 1], size)
    terms = series._sliding(np.abs(x), np.abs(y[: n + size - 1]), size).sum()
    assert np.abs(got - want).sum() <= err + 2 * series._gamma(n + 3 * len(blocks) + 1) * terms


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_block_window_is_the_sliding_window_within_its_bound(data):
    # signed operands, windows of any length, x shorter than p~'s head and
    # p~ shorter than FAR_BLOCK included
    n_y = data.draw(st.integers(2, 12000))
    n = data.draw(st.integers(1, n_y))
    assert_block_window_is_sliding(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                                   n_y, n, data.draw(st.integers(1, n_y)))


@pytest.mark.parametrize("n_y, n, size", [(20000, 9000, 11000), (20000, 12290, 7), (9000, 4097, 2)])
def test_block_window_at_far_block_edges(n_y, n, size):
    # windows whose first entry sits just past a multiple of FAR_BLOCK draw on
    # the far output block that starts one block below it
    assert_block_window_is_sliding(np.random.default_rng(n), n_y, n, size)


def test_block_window_across_far_block_groups_is_the_convolution():
    # a window across three far blocks of the output, fed by all five far
    # blocks of p~: pairs of up to four blocks land on one output block and
    # share an inverse transform, so a pair lost from a group moves entries
    # by far more than the pieces' rounding bound
    rng = np.random.default_rng(14)
    far = series.FAR_BLOCK
    n_y, n, size = 6 * far, 3 * far + 5, 3 * far
    y, x = rng.uniform(-1.0, 1.0, n_y), rng.uniform(-1.0, 1.0, n)
    blocks = series._dyadic_blocks(y, n_y, far)
    got, err = series._window(x, y, blocks, size)
    window = slice(n - 1, n - 1 + size)
    want = np.convolve(x, y)[window]
    terms = np.convolve(np.abs(x), np.abs(y))[window]
    assert np.all(np.abs(got - want) <= err + 2 * series._gamma(n + 3 * len(blocks) + 1) * terms)


# ----------------------------------------------------------------------
# nonuniformity
# ----------------------------------------------------------------------

def test_nonuniformity_pure_descent_and_start():
    ch = build_chain(ZetaTailLaw(1.0), 2100)
    probe = nonuniformity_probe(ch, [5, 1500], n=100)
    assert probe[1500] == 2.0 * (1.0 - ch.pi[1400])
    evolved = distance_curve(ch, point_mass(5), [100]).values[0]
    assert probe[5] == pytest.approx(evolved, rel=1e-12)
    at_zero = nonuniformity_probe(ch, [7], n=0)
    assert at_zero[7] == 2.0 * (1.0 - ch.pi[7])


def test_nonuniformity_exhibits_state_dependence():
    ch = build_chain(ZetaTailLaw(1.0), 2100)
    probe = nonuniformity_probe(ch, [1, 2000], n=100)
    assert probe[2000] > probe[1]
    assert probe[2000] > 1.9


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------

def test_log_grid_strictly_increasing_ints():
    g = log_grid(1, 10000, 40)
    assert g[0] == 1 and g[-1] == 10000
    assert np.all(np.diff(g) > 0)
    assert g.dtype.kind == "i"


def test_curve_accessor():
    c = RateCurve(np.array([1, 5, 9]), np.array([0.3, 0.2, 0.1]))
    assert c.at(5) == 0.2
    with pytest.raises(KeyError):
        c.at(4)


# ----------------------------------------------------------------------
# refusals of a malformed curve, grid or pairing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda chain: log_grid(0, 10),
    lambda chain: deviation_tail_ratio(chain, [0, 10]),
    lambda chain: correlation_constant(chain, point_mass(1), indicator([1], 10), [0, 10]),
    lambda chain: rate_fit(RateCurve([0, 1, 2], [1.0, 0.5, 0.25]), (0, 2)),
], ids=["log_grid", "deviation_tail_ratio", "correlation_constant", "rate_fit"])
def test_a_grid_from_zero_is_refused_where_n_must_be_at_least_one(call):
    chain = build_chain(ZetaTailLaw(1.5), 100)
    with pytest.raises(PreconditionViolated, match=r"n >= 1|1 <= lo"):
        call(chain)


@pytest.mark.parametrize("grid, values, bounds", [
    ([1, 2, 3], [1.0, 2.0], None), ([1, 2], [[1.0, 2.0]], None),
    ([1, 2], [1.0, math.nan], None), ([1, 2], [1.0, math.inf], None),
    ([1, 2], [1.0, 2.0], [0.1]),
], ids=["short-values", "matrix-values", "nan-value", "inf-value", "short-bounds"])
def test_a_rate_curve_of_mismatched_or_non_finite_entries_is_refused(grid, values, bounds):
    with pytest.raises(PreconditionViolated):
        RateCurve(grid, values, bounds)


def test_a_null_ratio_with_a_vanishing_observable_is_a_divergent_pairing():
    chain = build_chain(ZetaTailLaw(-0.5), 200)
    with pytest.raises(DivergentPairing, match="vanishes"):
        null_recurrent_ratio(chain, point_mass(1), Observable(np.zeros(3)), [1, 10])


@pytest.mark.parametrize("tail, negligible", [
    (rl.TailDecl("geometric", ratio=0.5), True),
    # pi's tail falls as n^-2.5 at degree 1.5: only a lighter power is negligible
    (rl.TailDecl("power", exponent=3.0), True),
    (rl.TailDecl("power", exponent=2.5), False),
], ids=["geometric", "lighter-power", "as-heavy-as-pi"])
def test_a_declared_tail_lighter_than_pis_is_negligible(tail, negligible):
    chain = build_chain(ZetaTailLaw(1.5), 100)
    nu = rl.SignedDistribution(np.array([0.0, 0.5, 0.25]), tail_mass=0.25, tail=tail)
    if negligible:
        assert evolve._check_nu_negligible(chain, nu) is None
    else:
        with pytest.raises(PreconditionViolated, match="negligible against pi"):
            evolve._check_nu_negligible(chain, nu)
