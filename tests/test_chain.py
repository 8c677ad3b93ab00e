import json
import math
import subprocess
import sys
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import renewallab as rl
from renewallab import (
    BadExponent,
    CustomLaw,
    DegreeTooSmall,
    FiniteLaw,
    GeometricLaw,
    NotNormalized,
    NotPositiveRecurrent,
    PeriodicSupport,
    PreconditionViolated,
    TruncationTooSmall,
    ZetaTailLaw,
    build_chain,
    codivergence_probe,
    first_passage,
    moment,
    p_order,
    second_moment_identity,
)
from renewallab.chain import _hurwitz, _weight_tail
from renewallab.config import measure_from_config

# mean return time of the degree-1 zeta law, from two independent
# high-precision zeta evaluations (mpmath, 30 digits): zeta(2)/zeta(3)
M1_ZETA_DEGREE_ONE = 1.3684327776202059


def geo_chain(n=200):
    return build_chain(GeometricLaw(0.5), n)


def test_geometric_half_mean_return_exact():
    ch = geo_chain()
    assert ch.m1 == 2.0
    assert ch.pi1 == 0.5
    assert ch.classification == "positive-recurrent"
    assert math.isinf(ch.ergodic_degree)


def test_geometric_half_stationary_equals_return_law_bitwise():
    # dyadic ratio: every quantity is an exact float, so the fixed point
    # pi = p holds with no rounding at all
    ch = geo_chain()
    assert np.array_equal(ch.pi[1:], ch.p[1:])


def test_survival_telescoping_is_exact_for_every_law():
    laws = [
        GeometricLaw(0.5),
        GeometricLaw(0.37),
        ZetaTailLaw(1.0),
        ZetaTailLaw(0.5, log_power=2.0),
        FiniteLaw((0.2, 0.5, 0.3)),
    ]
    for law in laws:
        ch = build_chain(law, 500)
        assert np.array_equal(ch.d[:-1], ch.d[1:] + ch.p[1:]), law
        assert ch.d[0] == 1.0


def _telescoped(p, tail):
    """Reference survival sums: one cumulative sum of ``p`` (subscript-aligned,
    ``p[0]`` unused) from the top down, seeded with the analytic tail."""
    return np.cumsum(np.concatenate(([tail], p[:0:-1])))[::-1]


@pytest.mark.parametrize("law", [
    ZetaTailLaw(1.0), ZetaTailLaw(1.5), ZetaTailLaw(3.0),
    ZetaTailLaw(1.0, log_power=1.0), GeometricLaw(0.3),
    FiniteLaw((0.5, 0.5)), FiniteLaw((0.32, 0.32, 0.32, 0.04)),
], ids=repr)
def test_build_chain_survival_sums_are_bit_identical_to_telescoping(law):
    n = 5000
    ch = build_chain(law, n)
    d = _telescoped(ch.p, law.tail_beyond(n))
    d[0] = 1.0
    d_tail = _telescoped(d, law.second_tail_beyond(n))
    pi = np.concatenate(([0.0], (1.0 / law.mean_return()) * d[:n]))
    assert ch.d.tobytes() == d.tobytes()
    assert ch.d_tail.tobytes() == d_tail.tobytes()
    assert ch.pi.tobytes() == pi.tobytes()


def test_zeta_mean_return_matches_independent_zeta_ratio():
    ch = build_chain(ZetaTailLaw(1.0), 100)
    assert ch.m1 == pytest.approx(M1_ZETA_DEGREE_ONE, rel=1e-13)
    assert ch.m1 * ch.pi1 == pytest.approx(1.0, abs=1e-15)


def test_zeta_first_weight_matches_scipy_zeta():
    from scipy.special import zeta

    ch = build_chain(ZetaTailLaw(1.0), 10)
    assert ch.p[1] * zeta(3.0) == pytest.approx(1.0, rel=1e-13)
    ch = build_chain(ZetaTailLaw(2.0), 10)
    assert ch.p[1] * zeta(4.0) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("degree,beta", [(1.0, 0.0), (1.0, 1.0), (-0.5, 0.0), (0.5, 2.0)])
def test_analytic_tail_agrees_with_brute_force_partial_sums(degree, beta):
    # tail_beyond(N) - tail_beyond(N+K) must reproduce a directly summed
    # block of weights: checks the integral route against plain summation
    law = ZetaTailLaw(degree, beta)
    n0, k = 200, 3000
    p = law.prefix(n0 + k)
    block = p[n0 + 1 :].sum()
    assert law.tail_beyond(n0) - law.tail_beyond(n0 + k) == pytest.approx(block, rel=1e-11)


@pytest.mark.parametrize("degree,m", [(6.0, 64), (3.0, 70)])
def test_steep_zeta_tail_matches_brute_force_sum(degree, m):
    # 2e6 terms leave a remainder below 1e-16 of either tail
    s = degree + 2.0
    terms = [n ** -s for n in range(1, 2_000_001)]
    brute = math.fsum(terms[m:]) / math.fsum(terms)
    assert ZetaTailLaw(degree).tail_beyond(m) == pytest.approx(brute, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("s,beta,m", [(6.0, 1.0, 100), (3.5, 2.0, 64), (3.0, 1.0, 100),
                                       (4.0, 1.0, 10)])
def test_log_power_tail_matches_brute_force_sum(s, beta, m):
    # terms summed exactly to 2e6, plus the tail from there, whose
    # Euler-Maclaurin remainder is far below rounding
    from renewallab.chain import _weight_tail

    n = np.arange(m + 1, 2_000_001, dtype=float)
    brute = math.fsum(n ** -s * np.log(n + 1.0) ** beta) + _weight_tail(s, beta, 2_000_000)
    assert _weight_tail(s, beta, m) == pytest.approx(brute, rel=1e-13, abs=0.0)


def test_huge_degree_builds_up_to_the_degree_cap():
    # past the cap MAX_ZETA_DEGREE = 1e13 a degree exits 2 with or without a
    # log power; below it every tail is 0 and the law is p = delta_1
    for degree in (1e12, 1e13):
        ch = build_chain(ZetaTailLaw(degree), 1000)
        assert ch.d[1] == 0.0 and ch.m1 == 1.0
    for degree in (1e15, 2.0 ** 63, 1e308, math.inf):
        with pytest.raises(BadExponent):
            build_chain(ZetaTailLaw(degree), 1000)
    with pytest.raises(BadExponent):
        build_chain(ZetaTailLaw(math.inf, 1.0), 1000)
    # the same bound holds with a log power
    ch = build_chain(ZetaTailLaw(1e12, 1.0), 1000)
    assert ch.d[1] == 0.0
    for degree in (1e15, 2.0 ** 63, 1e308):
        with pytest.raises(BadExponent):
            build_chain(ZetaTailLaw(degree, 1.0), 1000)


@pytest.mark.parametrize("degree,beta", [(1e-17, 0.0), (1e-200, 1.0), (1e-3, 80.0),
                                         (0.5, 160.0), (1.0, 171.0), (1.0, 400.0),
                                         (1.0, 1e300)])
def test_constants_that_overflow_or_lose_the_degree_are_refused(degree, beta):
    # s - 1 rounds to 1, or a log power overflows the constants: the chain
    # would read null-recurrent at a positive degree, or end in a traceback
    with pytest.raises(BadExponent):
        build_chain(ZetaTailLaw(degree, beta), 1000)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_a_second_tail_whose_exponent_rounds_to_one_diverges_with_or_without_a_log(beta):
    # 1e-17 + 2 rounds to 2, so the second tail sums k^-1: both routes of
    # the one tail sum call it infinite, as at a null-recurrent degree
    assert ZetaTailLaw(1e-17, beta).second_tail_beyond(10) == math.inf
    assert ZetaTailLaw(-0.5, beta).second_tail_beyond(10) == math.inf


def test_constants_at_the_edge_of_double_precision_still_build():
    for law in (ZetaTailLaw(1.0, 170.0), ZetaTailLaw(1e-12)):
        ch = build_chain(law, 1000)
        assert ch.classification == "positive-recurrent" and math.isfinite(ch.m1)


#: ``int_a^inf x^-3 log(x+1)^170 dx`` at ``a = 100001``: a 50-digit mpmath
#: quadrature in ``t = log x``, with breakpoints around the peak ``t = 85``.
TAIL_INTEGRAL_3_170 = 2.424670542883407192842269e+255


def test_log_power_tail_integral_is_quiet_and_good_to_rounding():
    # quad reports roundoff here although its result is good to rounding:
    # the warning is silenced and quad's own error estimate passes
    from renewallab.chain import _tail_integral

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _tail_integral(3.0, 170.0, 100001.0)
    assert value == pytest.approx(TAIL_INTEGRAL_3_170, rel=1e-15, abs=0.0)


def test_nan_reals_are_refused_by_the_entry_that_reads_them():
    nan = math.nan
    ch = build_chain(ZetaTailLaw(1.5), 200)
    cases = [
        (BadExponent, lambda: rl.convolution_power_probe(nan, 10)),
        (PreconditionViolated, lambda: moment(ch, 1, 1, nan)),
        (PreconditionViolated, lambda: codivergence_probe(ch, nan)),
        (NotNormalized, lambda: rl.from_weights([1.0], tail_mass=nan)),
        (rl.ZeroProbabilityBranch,
         lambda: FiniteLaw([0.5, 0.4], tail_exponent=3.0, tail_log_power=nan)),
        (PreconditionViolated, lambda: rl.TailDecl("power", exponent=nan)),
        (TruncationTooSmall, lambda: first_passage(ch, 1, 1, mass_tol=nan)),
        (rl.ZeroProbabilityBranch, lambda: ZetaTailLaw(1.0, nan)),
    ]
    for error, call in cases:
        with pytest.raises(error):
            call()


#: One request per routine that reads the stored prefix at a state the
#: caller chose, ``x`` that state.
PAST_THE_PREFIX = {
    "stationary_mass_beyond": lambda c, x: c.stationary_mass_beyond(x),
    "first_passage horizon": lambda c, x: first_passage(c, 1, 1, trunc=x, mass_tol=math.inf),
    "first_passage j": lambda c, x: first_passage(c, 1, x, mass_tol=math.inf),
    "codivergence_probe": lambda c, x: codivergence_probe(c, 0.5, 1, x),
    "step": lambda c, x: rl.step(c, rl.point_mass(x)),
    "distance_curve measure": lambda c, x: rl.distance_curve(
        c, rl.from_weights(np.r_[0.5, np.zeros(x - 1)], tail_mass=0.5), [1]),
    "renewal_sequence": lambda c, x: rl.renewal_sequence(c, x),
    "deviation_tail_ratio": lambda c, x: rl.deviation_tail_ratio(c, [x]),
    "nonuniformity_probe": lambda c, x: rl.nonuniformity_probe(c, [x], 5),
    "stationary": lambda c, x: rl.stationary(c, x),
    "transition_operator": lambda c, x: rl.transition_operator(c, x),
    "eigen_from_gf": lambda c, x: rl.eigen_from_gf(c, 0.5, x),
    "gf_evaluate": lambda c, x: rl.gf_evaluate(c, 3, x, 0.5),
    # the survival past n_max steps from cell 1 reads state n_max + 2
    "entrance_tail": lambda c, x: rl.entrance_tail(c, c.d[1], x - 2, 1000, 1),
    "measure_from_config": lambda c, x: measure_from_config({"kind": "point", "state": x}, c),
}


@pytest.mark.parametrize("name", list(PAST_THE_PREFIX))
def test_every_request_past_the_prefix_is_refused_by_one_rule(name):
    chain = build_chain(ZetaTailLaw(1.5), 300)
    call = PAST_THE_PREFIX[name]
    call(chain, 300)
    with pytest.raises(TruncationTooSmall, match="reads state 301, past the stored prefix of 300"):
        call(chain, 301)


def test_a_passage_to_a_state_past_the_prefix_names_that_state():
    # j - i > N: the default horizon N - (j - i) would be negative
    chain = build_chain(ZetaTailLaw(1.5), 500)
    with pytest.raises(TruncationTooSmall, match="1->600 reads state 600, past the stored") as err:
        first_passage(chain, 1, 600)
    assert "horizon" not in str(err.value)


@pytest.mark.parametrize("degree,beta", [(1.0, 1.0), (0.5, 2.0), (-0.5, 1.0), (1.5, 0.5)])
def test_log_corrected_laws_normalize(degree, beta):
    law = ZetaTailLaw(degree, beta)
    for n in (50, 5000):
        ch = build_chain(law, n)
        total = ch.p[1:].sum() + law.tail_beyond(n)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_null_recurrent_chain_has_no_stationary_law():
    ch = build_chain(ZetaTailLaw(-0.5), 100)
    assert ch.classification == "null-recurrent"
    assert math.isinf(ch.m1)
    assert ch.pi is None and ch.pi1 is None and ch.d_tail is None
    assert ch.ergodic_degree == -0.5
    with pytest.raises(NotPositiveRecurrent, match="null-recurrent"):
        rl.stationary(ch)
    with pytest.raises(NotPositiveRecurrent, match="null-recurrent"):
        ch.stationary_mass_beyond(10)


def test_stationary_mass_beyond_is_consistent():
    ch = build_chain(ZetaTailLaw(1.5), 5000)
    total = ch.pi[1:].sum() + ch.stationary_mass_beyond(ch.truncation)
    assert total == pytest.approx(1.0, abs=1e-10)
    split = ch.pi[101:].sum() + ch.stationary_mass_beyond(ch.truncation)
    assert ch.stationary_mass_beyond(100) == pytest.approx(split, rel=1e-12)


NINE_TERMS = (0.3, 0.25, 0.15, 0.1, 0.08, 0.05, 0.04, 0.02, 0.01)
SECOND_TAIL_LAWS = {
    "geometric": GeometricLaw(0.5), "zeta": ZetaTailLaw(1.5), "zeta-log": ZetaTailLaw(1.0, 1.0),
    "finite": FiniteLaw(NINE_TERMS),
    # the last term's 0.01 becomes a tail past the eighth state
    "custom": CustomLaw(NINE_TERMS[:-1], tail_exponent=3.5),
    "custom-log": CustomLaw(NINE_TERMS[:-1], tail_exponent=3.5, tail_log_power=1.0)}


@pytest.mark.parametrize("name", sorted(SECOND_TAIL_LAWS))
@pytest.mark.parametrize("n", [3, 6, 7, 8, 9, 12])
def test_analytic_second_tail_continues_the_stored_survival_sums(name, n):
    # the truncated chain's d_tail = sum_{l > m} d_l must be the long chain's,
    # whether the truncation cuts the explicit prefix of a finite law or not
    law = SECOND_TAIL_LAWS[name]
    short, long = build_chain(law, n), build_chain(law, 4000)
    assert short.d_tail == pytest.approx(long.d_tail[: n + 1], rel=1e-12, abs=0.0)
    assert short.stationary_mass_beyond(n) == pytest.approx(
        long.stationary_mass_beyond(n), rel=1e-12, abs=0.0)


def test_unnormalized_law_rejected():
    with pytest.raises(NotNormalized):
        FiniteLaw((0.5, 0.4))
    with pytest.raises(NotNormalized):
        CustomLaw((0.6, 0.6), tail_exponent=3.0)
    with pytest.raises(NotNormalized, match="leaving no tail mass"):
        CustomLaw((0.5, 0.3, 0.2), tail_exponent=3.5)
    with pytest.raises(rl.ZeroProbabilityBranch):
        CustomLaw((0.5, 0.3, 0.1), tail_exponent=3.5, tail_log_power=-1.0)
    # a log power without a tail was accepted and dropped from describe()
    with pytest.raises(rl.ConfigError, match="needs a tail_exponent"):
        FiniteLaw((0.5, 0.5), tail_log_power=2.0)
    assert FiniteLaw((0.5, 0.5), tail_log_power=0.0) == FiniteLaw((0.5, 0.5))


def test_periodic_support_rejected():
    with pytest.raises(PeriodicSupport):
        FiniteLaw((0.0, 1.0))
    with pytest.raises(PeriodicSupport):
        FiniteLaw((0.0, 0.5, 0.0, 0.5))


def test_tiny_truncation_rejected():
    with pytest.raises(TruncationTooSmall):
        build_chain(GeometricLaw(0.5), 1)


def test_first_passage_descending_is_point_mass():
    ch = geo_chain()
    fp = first_passage(ch, 5, 2)
    assert fp.prefix_mass == 1.0
    expected = np.zeros(fp.series.coeffs.size)
    expected[3] = 1.0
    assert np.array_equal(fp.series.coeffs, expected)


def test_first_passage_geometric_return_to_two_closed_form():
    # returns to state 2 under the dyadic geometric law: one descent step
    # then a delayed renewal, giving exactly (n-1) 2^-n
    ch = geo_chain()
    fp = first_passage(ch, 2, 2, trunc=60)
    n = np.arange(61, dtype=float)
    expected = np.zeros(61)
    expected[2:] = (n[2:] - 1.0) * 0.5 ** n[2:]
    assert np.array_equal(fp.series.coeffs, expected)


def test_first_passage_mass_gate_and_override():
    ch = build_chain(ZetaTailLaw(-0.5), 2000)
    with pytest.raises(TruncationTooSmall):
        first_passage(ch, 1, 1)
    fp = first_passage(ch, 1, 1, mass_tol=0.1)
    assert 0.9 < fp.prefix_mass < 1.0


def test_first_passage_horizon_gate():
    ch = geo_chain()
    with pytest.raises(TruncationTooSmall):
        first_passage(ch, 1, 3, trunc=ch.truncation)


def test_second_moment_geometric_state_two_is_twenty():
    ch = geo_chain()
    mv = moment(ch, 2, 2, 2.0)
    assert mv.value == pytest.approx(20.0, abs=1e-12)
    assert mv.finite


def test_moment_finiteness_follows_declared_degree():
    ch = build_chain(ZetaTailLaw(1.0), 100)
    assert moment(ch, 1, 1, 1.5).finite
    assert not moment(ch, 1, 1, 2.0).finite
    assert moment(ch, 7, 2, 5.0).finite  # descending passage, all moments finite
    assert moment(geo_chain(), 1, 1, 12.0).finite


def test_moment_tail_estimate_closes_the_gap():
    # gamma = 1 at state 1 is the mean return time; prefix plus declared
    # tail estimate must land on the analytic value far beyond the bare
    # prefix accuracy
    from scipy.special import zeta

    ch = build_chain(ZetaTailLaw(2.0), 2000)
    m1 = zeta(3.0) / zeta(4.0)
    mv = moment(ch, 1, 1, 1.0)
    bare_gap = abs(mv.value - m1)
    assert abs(mv.value + mv.tail_estimate - m1) < 0.02 * bare_gap


def test_finite_law_passage_tail_is_estimated_geometrically():
    # 4 -> 4 passages of this law still carry mass 9.4e-10 past 1024 steps;
    # their exact second moment, by the closed route of
    # second_moment_identity, is 5120
    ch = build_chain(FiniteLaw((0.32, 0.32, 0.32, 0.04)), 1024)
    mv = moment(ch, 4, 4, 2.0)
    assert mv.tail_estimate == pytest.approx(5120.0 - mv.value, rel=0.15)
    # passage laws that have ended carry no tail
    assert moment(ch, 1, 1, 2.0).tail_estimate == 0.0
    assert moment(ch, 4, 2, 2.0).tail_estimate == 0.0


def test_second_moment_identity_geometric_exact():
    lhs, rhs, gap = second_moment_identity(geo_chain(400), 2)
    assert lhs == pytest.approx(20.0, abs=1e-12)
    assert gap < 1e-14


def test_second_moment_identity_zeta_small_gap():
    ch = build_chain(ZetaTailLaw(2.0), 20000)
    lhs, rhs, gap = second_moment_identity(ch, 3)
    assert gap < 1e-6


def test_second_moment_identity_degree_gate():
    ch = build_chain(ZetaTailLaw(1.0), 100)
    with pytest.raises(DegreeTooSmall):
        second_moment_identity(ch, 2)
    with pytest.raises(DegreeTooSmall):  # a null-recurrent chain has degree <= 0
        second_moment_identity(build_chain(ZetaTailLaw(-0.5), 100), 2)


def test_p_order_stationary_initial_law():
    ch = build_chain(ZetaTailLaw(1.0), 200)
    po = p_order(ch, rl.stationary(ch))
    assert po.value == 1.0
    assert not po.boundary


def test_p_order_boundary_flag_for_log_corrected_tail():
    ch = build_chain(ZetaTailLaw(1.0, log_power=1.0), 200)
    po = p_order(ch, rl.stationary(ch))
    assert po.value == 1.0
    assert po.boundary


def test_p_order_point_mass_hits_chain_ceiling():
    ch = build_chain(ZetaTailLaw(1.0), 200)
    assert p_order(ch, rl.point_mass(5)).value == 2.0


def test_p_order_geometric_everything():
    ch = geo_chain()
    nu = rl.from_weights(
        [0.5, 0.25, 0.125],
        tail_mass=0.125,
        tail=rl.TailDecl("geometric", ratio=0.5),
    )
    assert math.isinf(p_order(ch, nu).value)


def test_codivergence_probe_tracks_declared_verdict():
    ch = build_chain(ZetaTailLaw(1.0), 2000)

    def late_fraction(s):
        return (s[-1] - s[s.size // 2]) / s[-1]

    conv = codivergence_probe(ch, 0.5)
    assert conv.predicted_convergent
    assert late_fraction(conv.partial_direct) < 0.06
    assert late_fraction(conv.partial_paired) < 0.06

    div = codivergence_probe(ch, 1.5)
    assert not div.predicted_convergent
    assert late_fraction(div.partial_direct) > 0.2
    assert late_fraction(div.partial_paired) > 0.2


def test_codivergence_needs_stationary_law():
    ch = build_chain(ZetaTailLaw(-0.5), 100)
    with pytest.raises(NotPositiveRecurrent):
        codivergence_probe(ch, 0.5)


@pytest.mark.parametrize("i", [2, 5])
def test_codivergence_probe_pairs_every_start_below_i_at_its_default_horizon(i):
    # the default horizon N - i + 1 keeps every passage l -> i on the prefix;
    # the paired terms below i agree with one moment per start
    ch = build_chain(ZetaTailLaw(1.5), 300)
    probe = codivergence_probe(ch, 0.5, i)
    n = ch.truncation - i + 1
    assert probe.partial_direct.size == probe.partial_paired.size == n + 1
    terms = [0.0] + [ch.pi[l] * moment(ch, l, i, 0.5, trunc=n).value for l in range(1, i)]
    assert probe.partial_paired[:i] == pytest.approx(np.cumsum(terms), rel=1e-13, abs=0.0)
    with pytest.raises(TruncationTooSmall):
        codivergence_probe(ch, 0.5, i, n + 1)


def test_custom_law_uses_declared_tail():
    # the leftover mass 0.1 is spread as c n^-3.5 over n > 3
    law = CustomLaw((0.5, 0.3, 0.1), tail_exponent=3.5)
    ch = build_chain(law, 50)
    c = 0.1 / (_hurwitz(3.5, 1.0) - 1.0 - 2.0 ** -3.5 - 3.0 ** -3.5)
    assert law.tail_family().amplitude == pytest.approx(c, rel=1e-14)
    assert ch.p[4:] == pytest.approx(c * np.arange(4.0, 51.0) ** -3.5, rel=1e-14)
    assert ch.ergodic_degree == 1.5
    assert moment(ch, 1, 1, 2.0).finite
    assert not moment(ch, 1, 1, 3.0).finite
    # a tail of degree -0.5 makes the chain null-recurrent
    ch = build_chain(CustomLaw((0.5, 0.3, 0.1), tail_exponent=1.5), 200)
    assert ch.classification == "null-recurrent" and ch.ergodic_degree == -0.5


def _timed_verdicts(chain, d):
    """Verdict and wall time of three acceptance checks on a chain of degree
    ``d``: criterion 3's Lemma-2 ratio, criterion 4's distance slope over
    [1e3, 1e4] (within 0.15 of -d) and criterion 6's correlation constant."""
    def lemma2():
        r3, r4 = rl.deviation_tail_ratio(chain, [1000, 10000]).values
        return 0.9 <= r4 <= 1.1 and abs(r4 - 1.0) < abs(r3 - 1.0)

    def slope():
        grid = sorted(set(rl.log_grid(1000, 10000, 12).tolist()) | {5000, 10000})
        fit = rl.rate_fit(rl.distance_curve(chain, rl.point_mass(1), grid), (1000, 10000))
        return abs(fit.exponent + d) <= 0.15

    def constant():
        curve, predicted = rl.correlation_constant(
            chain, rl.point_mass(1), rl.indicator(1, 100), [10000])
        return abs(curve.values[-1] - predicted) <= 0.2 * predicted

    out = {}
    for check in (lemma2, slope, constant):
        start = time.perf_counter()
        out[check.__name__] = check(), time.perf_counter() - start
    return out


@pytest.mark.parametrize("d", [0.25, 1.0, 1.5, 3.0])
def test_a_realized_tail_passes_the_checks_its_zeta_law_passes(d):
    # probs (0.5, 0.3, 0.1) leave 0.1 for the tail
    n = 200_001
    custom = build_chain(CustomLaw((0.5, 0.3, 0.1), tail_exponent=d + 2.0), n)
    zeta = _timed_verdicts(build_chain(ZetaTailLaw(d), n), d)
    for name, (passed, seconds) in _timed_verdicts(custom, d).items():
        assert passed or not zeta[name][0], name
        assert seconds <= 5.0, name
    for gamma in (d - 0.5, d + 0.5):
        start = time.perf_counter()
        probe = codivergence_probe(custom, gamma)
        assert time.perf_counter() - start <= 5.0
        for sums in (probe.partial_direct, probe.partial_paired):
            late = (sums[-1] - sums[sums.size // 2]) / sums[-1]
            assert late < 0.06 if probe.predicted_convergent else late > 0.2, gamma


def test_one_explicit_prefix_class_describes_itself_by_its_tail():
    assert CustomLaw is FiniteLaw and isinstance(ZetaTailLaw(1.0), FiniteLaw)
    assert FiniteLaw((0.5, 0.5)).describe() == {"type": "finite", "probs": [0.5, 0.5]}
    assert CustomLaw((0.5, 0.5)).describe()["type"] == "finite"
    assert FiniteLaw((0.5, 0.4), tail_exponent=3.0).describe() == {
        "type": "custom", "probs": [0.5, 0.4], "tail_exponent": 3.0, "tail_log_power": 0.0}
    assert ZetaTailLaw(1.0, 2.0).describe() == {"type": "zeta", "degree": 1.0, "log_power": 2.0}
    # 1e-17 + 2 rounds to 2: the degree, not the exponent, tells the two apart
    assert ZetaTailLaw(1e-17) != ZetaTailLaw(0.0) and ZetaTailLaw(1.0) == ZetaTailLaw(1.0)


# ----------------------------------------------------------------------
# oracles: the zeta and finite laws' arithmetic written out separately, the
# reference the explicit-prefix law must match bit for bit
# ----------------------------------------------------------------------

def ref_zeta(degree, beta):
    """``p_n`` proportional to ``n^-(degree+2) log(n+1)^beta``, divided by its
    normalization."""
    s = degree + 2.0

    def tail_sum(s, n):
        if s <= 1.0:
            return math.inf
        return _hurwitz(s, n + 1.0) if beta == 0.0 else _weight_tail(s, beta, n)

    def prefix(n):
        p = np.zeros(n + 1)
        idx = np.arange(1.0, n + 1.0)
        w = idx ** -s
        if beta != 0.0:
            w *= np.log(idx + 1.0) ** beta
        p[1:] = w / tail_sum(s, 0)
        return p

    def second_tail_beyond(n):
        if degree <= 0.0:
            return math.inf
        return (tail_sum(s - 1.0, n + 1) - (n + 1) * tail_sum(s, n + 1)) / tail_sum(s, 0)

    return SimpleNamespace(
        prefix=prefix, second_tail_beyond=second_tail_beyond, degree=lambda: degree,
        tail_beyond=lambda n: tail_sum(s, n) / tail_sum(s, 0),
        mean_return=lambda: (math.inf if degree <= 0.0
                             else tail_sum(s - 1.0, 0) / tail_sum(s, 0)))


def ref_finite(probs):
    """``p_k = probs_k``, finitely supported."""
    probs = tuple(float(x) for x in np.asarray(probs, dtype=float))

    def prefix(n):
        p = np.zeros(n + 1)
        k = min(n, len(probs))
        p[1 : k + 1] = probs[:k]
        return p

    return SimpleNamespace(
        prefix=prefix, degree=lambda: math.inf,
        tail_beyond=lambda n: float(sum(probs[n:])) if n < len(probs) else 0.0,
        second_tail_beyond=lambda n: float(
            sum((k - n - 1) * pk for k, pk in enumerate(probs, start=1) if k > n + 1)),
        mean_return=lambda: float(sum(k * pk for k, pk in enumerate(probs, start=1))))


def assert_same_chain(law, ref, n):
    ch, want = build_chain(law, n), build_chain(ref, n)
    for name in ("p", "d", "d_tail"):
        got, exp = getattr(ch, name), getattr(want, name)
        assert (got is exp is None) or got.tobytes() == exp.tobytes(), (law, n, name)
    assert np.float64(ch.m1).tobytes() == np.float64(want.m1).tobytes(), (law, n)


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("degree", [-0.5, 0.25, 1.0, 1.5, 3.0, 4.0])
def test_zeta_chains_match_the_zeta_oracle_bit_for_bit(degree, beta):
    for n in (2, 7, 3000):
        assert_same_chain(ZetaTailLaw(degree, beta), ref_zeta(degree, beta), n)


def _erratic_laws():
    """The erratic finite laws of the map tests."""
    rng = np.random.default_rng(0)
    for _ in range(12):
        w = rng.random(int(rng.integers(2, 300))) ** rng.uniform(0.1, 30)
        yield tuple((w / w.sum()).tolist())


#: every finite law the tests build
FINITE_PROBS = [
    (0.2, 0.5, 0.3), (0.5, 0.5), (0.32, 0.32, 0.32, 0.04), NINE_TERMS, (0.5, 0.0, 0.5),
    (0.5, 0.25, 1e-13, 0.25 - 1e-13), (0.3, 0.0, 0.2, 0.0, 0.0, 0.5), (0.2, 0.3, 0.5),
    (0.25, 0.0, 0.25, 0.0, 0.5), (0.1, 0.0, 0.0, 0.9), (0.05,) * 20, (0.4, 0.3, 0.3), (1.0,),
    (0.3, 0.3, 0.4), (0.5,) + (0.0,) * 39_998 + (0.5,), *_erratic_laws()]


def test_finite_chains_match_the_finite_oracle_bit_for_bit():
    for probs in FINITE_PROBS:
        k = len(probs)
        for n in sorted({2, k - 1, k, k + 1, 500} - {0, 1}):
            assert_same_chain(FiniteLaw(probs), ref_finite(probs), n)


@st.composite
def finite_laws(draw):
    k = draw(st.integers(min_value=2, max_value=6))
    raw = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=k,
            max_size=k,
        )
    )
    arr = np.asarray(raw)
    return FiniteLaw(tuple(arr / arr.sum()))


@given(finite_laws())
@settings(max_examples=40, deadline=None)
def test_return_law_is_its_own_first_passage_law(law):
    # f^n_11 is p_n itself: division by the trivial denominator must not
    # perturb a single bit
    ch = build_chain(law, 64)
    fp = first_passage(ch, 1, 1, trunc=64, mass_tol=math.inf)
    assert np.array_equal(fp.series.coeffs, ch.p[:65])


@given(finite_laws())
@settings(max_examples=25, deadline=None)
def test_drawn_finite_chains_match_the_finite_oracle_bit_for_bit(law):
    for n in (2, len(law.probs), 64):
        assert_same_chain(law, ref_finite(law.probs), n)


@given(finite_laws())
@settings(max_examples=25, deadline=None)
def test_mean_return_from_moment_route(law):
    ch = build_chain(law, 256)
    assert moment(ch, 1, 1, 1.0).value == pytest.approx(ch.m1, rel=1e-12)


@given(finite_laws(), st.integers(min_value=2, max_value=4))
@settings(max_examples=25, deadline=None)
def test_second_moment_identity_exact_for_finite_laws(law, i):
    # horizon long enough that the n^2-weighted passage tail is dust even
    # for slowly mixing draws (the tail decays geometrically but from a
    # base that can sit close to 1): doubled until the i -> i passage mass
    # beyond it is below 1e-15
    n = 1024
    ch = build_chain(law, n)
    assume(ch.pi[i] > 0.0)
    while (1.0 - first_passage(ch, i, i, mass_tol=math.inf).prefix_mass > 1e-15
           and n < 2 ** 15):
        n *= 2
        ch = build_chain(law, n)
    _, _, gap = second_moment_identity(ch, i)
    assert gap < 1e-10


def test_zeta_laws_without_a_log_power_load_no_scipy_module(tmp_path):
    # their constants come from the package's own Hurwitz zeta, as do those of
    # a custom law's realized tail; only log-power tails still load scipy, for
    # quadrature.  So importing the package and running a command that divides
    # no series loads neither scipy.integrate (slow to load) nor scipy.linalg
    # (the quotient imports its triangular solve when first called): no scipy
    # module at all.  spectral gf evaluates closed forms; its series route
    # is a test oracle
    zeta = {"law": {"type": "zeta", "degree": 1.0}, "truncation": 2000}
    custom = {"law": {"type": "custom", "probs": [0.5, 0.3, 0.1], "tail_exponent": 3.5},
              "truncation": 2000}
    runs = [
        ("chain info", {"chain": zeta}),
        ("map kac", {"chain": zeta, "orbit_length": 10_000, "seed": 1}),
        ("map entrance", {"chain": zeta, "a": 0.1, "n_max": 20, "samples": 1000, "seed": 1}),
        ("spectral factorize", {"chain": zeta, "z_points": [0.5], "dimension": 50}),
        ("spectral gf", {"chain": zeta, "z_points": [0.5, [0.3, 0.4]], "i": 2, "j": 3}),
        ("chain info", {"chain": custom}),
    ]
    argvs = []
    for k, (command, payload) in enumerate(runs):
        cfg = tmp_path / f"cfg{k}.json"
        cfg.write_text(json.dumps(payload))
        argvs.append([*command.split(), "--config", str(cfg), "--out", str(tmp_path / f"out{k}"),
                      "--quiet"])
    code = (
        "import json, sys, renewallab.cli as cli, renewallab as r\n"
        "r.build_chain(r.ZetaTailLaw(1.0), 50)\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    code = cli.main(argv)\n"
        "    loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "    assert code == 0 and not loaded, (argv[:2], code, loaded)\n"
        "r.build_chain(r.ZetaTailLaw(1.0, 1.0), 50)\n"
    )
    run = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


_ZETA_GRID_S = (1.0001, 1.1, 1.5, 2.0, 2.5, 3.0, 3.5, 5.0, 14.0, 60.0)
_ZETA_GRID_Q = (1.0, 2.0, 11.0, 2001.0, 20001.0, 1e7 + 2.0)


@pytest.mark.parametrize("s", _ZETA_GRID_S)
def test_hurwitz_zeta_agrees_with_scipy(s):
    from scipy.special import zeta

    from renewallab.chain import _hurwitz

    for q in _ZETA_GRID_Q:
        ref = float(zeta(s, q))
        if ref == 0.0:  # underflowed, as at s = 60, q = 1e7 + 2
            assert _hurwitz(s, q) == 0.0
        else:
            assert _hurwitz(s, q) == pytest.approx(ref, rel=1e-15, abs=0.0), q


def test_hurwitz_zeta_stays_finite_where_its_corrections_would_overflow():
    # past s of about 2.5e13 the running product s (s+1) ... (s+22) of the
    # Bernoulli corrections overflows; once w^-s is 0 they are skipped
    from renewallab.chain import _hurwitz

    for s in (1e14, 1e300):
        assert _hurwitz(s, 1.0) == 1.0 and _hurwitz(s, 2.0) == 0.0


@pytest.mark.parametrize("s, value", [(2.0, 1.6449340668482264), (3.0, 1.2020569031595942),
                                      (4.0, 1.0823232337111381), (1.5, 2.612375348685488)])
def test_riemann_zeta_within_one_ulp_of_its_literal(s, value):
    from renewallab.chain import _hurwitz

    assert abs(_hurwitz(s, 1.0) - value) <= math.ulp(value)


# ----------------------------------------------------------------------
# refusals of a malformed law or request
# ----------------------------------------------------------------------

REFUSALS = {
    "geometric-q-0": (lambda: GeometricLaw(0.0), rl.ZeroProbabilityBranch),
    "geometric-q-1": (lambda: GeometricLaw(1.0), rl.ZeroProbabilityBranch),
    "geometric-q-nan": (lambda: GeometricLaw(math.nan), rl.ZeroProbabilityBranch),
    "finite-negative": (lambda: FiniteLaw([0.6, -0.1, 0.5]), NotNormalized),
    "finite-nan": (lambda: FiniteLaw([0.5, math.nan]), NotNormalized),
    "finite-inf": (lambda: FiniteLaw([math.inf]), NotNormalized),
    "descent-past-the-horizon": (lambda: first_passage(geo_chain(), 5, 1, trunc=3),
                                 TruncationTooSmall),
    "second-moment-past-the-prefix": (
        lambda: second_moment_identity(build_chain(ZetaTailLaw(2.5), 200), 201),
        PreconditionViolated),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_a_malformed_law_or_request_is_refused_by_its_own_error(name):
    make, error = REFUSALS[name]
    with pytest.raises(error):
        make()
