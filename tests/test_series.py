"""Series algebra: frozen examples, algebraic invariants, decay transfer."""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renewallab as rl
from renewallab import (
    BadExponent,
    FiniteLaw,
    NegativeCoefficient,
    NonPositiveCoefficient,
    OutOfDomain,
    TruncatedSeries,
    ZeroLeadingCoefficient,
    ZetaTailLaw,
    build_chain,
    convolution_power_probe,
    convolve,
    divide,
    first_passage,
    kaluza_check,
    partial_sums,
    reciprocal,
    renewal_sequence,
    tail_sums,
    zero_diagnostic,
)
from renewallab import series
from renewallab.evolve import _deviation


def geometric_tail_series(n):
    # d_n = 2^-n for the dyadic geometric law; exact in floating point.
    return TruncatedSeries(2.0 ** -np.arange(n + 1.0))


# -- convolve ----------------------------------------------------------

def test_convolve_delta_is_identity():
    a = TruncatedSeries([1.0, 0.0, 0.0])
    b = TruncatedSeries([3.0, -2.0, 0.5])
    out = convolve(a, b)
    assert np.array_equal(out.coeffs, b.coeffs)


def test_convolve_truncates_to_shorter_operand():
    a = TruncatedSeries([1.0, 1.0])
    b = TruncatedSeries([1.0, 1.0, 1.0, 1.0])
    assert len(convolve(a, b)) == 2


def test_convolve_hand_value():
    # (1 + 2z)(3 + z + z^2) = 3 + 7z + 3z^2 + 2z^3, truncated at order 2
    out = convolve([1.0, 2.0, 0.0], [3.0, 1.0, 1.0])
    assert np.allclose(out.coeffs, [3.0, 7.0, 3.0], rtol=0, atol=0)


def test_convolve_renewal_identity_half_half():
    # first-return series (0, 1/2, 1/2) against the occupation series prefix
    # (1, 1/2, 3/4) reproduces the two-step occupation 3/4.
    f = TruncatedSeries([0.0, 0.5, 0.5])
    p11 = TruncatedSeries([1.0, 0.5, 0.75])
    out = convolve(f, p11)
    assert out.coeffs[2] == pytest.approx(0.75, abs=1e-15)


def ref_kahan_convolve(a, b):
    """The Kahan loop that allocates its temporaries at every step."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n_out = min(len(a), len(b))
    out = np.zeros(n_out)
    comp = np.zeros(n_out)
    for k in range(n_out):
        ak = a[k]
        if ak == 0.0:
            continue
        term = ak * b[: n_out - k]
        y = term - comp[k:]
        t = out[k:] + y
        comp[k:] = (t - out[k:]) - y
        out[k:] = t
    return out


def bit_identity_cases():
    rng = np.random.default_rng(19)
    big = build_chain(ZetaTailLaw(1.5), 6325)
    for n in (1, 2, 64, 2000):
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        yield a, b
        yield a[: n // 2 + 1], b  # a shorter than b
        yield a, b[: n // 2 + 1]  # a longer than b
        holes = a * (rng.random(n) < 0.5)
        holes[0] = 0.0
        yield holes, b
        holes[0] = -0.0
        yield holes, b
        yield np.abs(a) * 10.0 ** rng.integers(-8, 8, n), np.abs(b)
        yield np.zeros(n), b
        last = np.zeros(n)
        last[-1] = a[-1]
        yield last, b  # one nonzero coefficient, at the last index
    # odd and even counts of nonzero coefficients with zeros between them
    a, b = rng.standard_normal(64), rng.standard_normal(64)
    for picks in ([3, 17, 40], [0, 5, 6, 63], [2, 9, 30, 31, 50], [1, 33]):
        spaced = np.zeros(64)
        spaced[picks] = a[picks]
        yield spaced, b
        yield -spaced, -b  # mixed -0.0 and nonzero terms
    for n in (64, 1999, 6325):
        yield big.p[1 : n + 1], big.d[: n + 1]


def test_convolve_is_bit_identical_to_the_allocating_kahan_loop():
    # bytes, not values: a -0.0 where the loop has +0.0 counts
    for a, b in bit_identity_cases():
        assert convolve(a, b).coeffs.tobytes() == ref_kahan_convolve(a, b).tobytes()


def test_convolve_compensates():
    # every product a_k b_{n-k} is p = fl(0.1 * 0.1), so output n sums
    # n + 1 equal terms to exactly (n + 1) p; Kahan summation keeps within
    # (2u + c n u^2) of the sum of their magnitudes (Higham, *Accuracy and
    # Stability of Numerical Algorithms*, ch. 4), plain summation drifts
    # far past it
    n, u = 2000, Fraction(1, 2 ** 53)
    ones = np.full(n, 0.1)
    p = Fraction(0.1 * 0.1)
    for j, got in enumerate(convolve(ones, ones).coeffs.tolist()):
        exact = (j + 1) * p
        assert abs(Fraction(got) - exact) <= (2 * u + 4 * (j + 1) * u * u) * exact


def test_convolve_refuses_overflow_without_warnings():
    # (a, b, first coefficient that overflows): the sum and compensation
    # trade buffers at each nonzero a_k, so the first overflow is reached by
    # an odd and by an even count of nonzero a_k, each with an odd and an
    # even total count
    cases = [
        ([1e200, 0.0, 0.0], [1e200, 1.0, 1.0], 0),  # odd of odd
        ([1e200, 1.0], [1e200, 1.0], 0),  # odd of even
        ([1.0, 0.0, 1e300, 2.0], [1e10, 1.0, 1.0, 1.0], 2),  # even of odd
        ([1.0, 0.0, 1e300], [1e10, 1.0, 1.0], 2),  # even of even
        ([1.0, 1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1e308, 1e308], 4),  # a sum, odd of odd
        ([1.0, 0.0, 1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1e308, 1.0, 1e308], 5),  # even of even
    ]
    parities = {(np.count_nonzero(a[: first + 1]) % 2, np.count_nonzero(a) % 2)
                for a, _, first in cases}
    assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b, first in cases:
            with pytest.raises(OutOfDomain, match=f"coefficient {first}$"):
                convolve(a, b)


# -- reciprocal --------------------------------------------------------

def test_reciprocal_of_one_minus_half_z():
    out = reciprocal([1.0, -0.5])
    assert np.allclose(out.coeffs, [1.0, 0.5], atol=0)


def test_reciprocal_of_geometric_tails():
    # D(z) = sum 2^-n z^n = 1/(1 - z/2), so 1/D = (1, -1/2, 0, 0, ...)
    out = reciprocal(geometric_tail_series(12))
    expected = np.zeros(13)
    expected[0], expected[1] = 1.0, -0.5
    assert np.allclose(out.coeffs, expected, atol=1e-15)


def test_reciprocal_zero_leading_coefficient():
    with pytest.raises(ZeroLeadingCoefficient):
        reciprocal([0.0, 1.0])
    with pytest.raises(ZeroLeadingCoefficient):
        reciprocal([1e-301, 1.0])
    with pytest.raises(ZeroLeadingCoefficient):  # no floor: the solve itself refuses
        series._quotient(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


# -- divide ------------------------------------------------------------

def test_divide_hand_value():
    # E = (1, 1), D = (1, -1/2): h_n = 2^-n + 2^-(n-1) = 3 * 2^-n for n >= 1
    out = divide([1.0, 1.0, 0.0, 0.0, 0.0], [1.0, -0.5, 0.0, 0.0, 0.0])
    n = np.arange(1, 5)
    assert out.coeffs[0] == pytest.approx(1.0)
    assert np.allclose(out.coeffs[1:], 3.0 * 2.0 ** -n.astype(float), rtol=1e-15)


def test_divide_self_is_delta():
    d = geometric_tail_series(30)
    out = divide(d, d)
    expected = np.zeros(31)
    expected[0] = 1.0
    assert np.allclose(out.coeffs, expected, atol=1e-14)


def test_divide_agrees_with_convolve_of_the_reciprocal():
    # the direct quotient against the independent Kahan route (5.4e-16 apart here)
    rng = np.random.default_rng(7)
    e = TruncatedSeries(rng.normal(size=50))
    d = TruncatedSeries(np.r_[1.0, rng.normal(size=49) * 0.3])
    lhs = divide(e, d).coeffs
    rhs = convolve(e, reciprocal(d)).coeffs
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))


# -- tail_sums ---------------------------------------------------------

def test_tail_sums_point_mass():
    out = tail_sums([1.0, 0.0, 0.0])
    assert np.array_equal(out.coeffs, [1.0, 0.0, 0.0, 0.0])


def test_tail_sums_finite_law():
    out = tail_sums([0.5, 0.3, 0.2])
    assert np.allclose(out.coeffs, [1.0, 0.5, 0.2, 0.0], atol=1e-15)


def test_tail_sums_geometric_halving():
    p = TruncatedSeries(2.0 ** -np.arange(1.0, 21.0))
    out = tail_sums(p, analytic_tail=2.0 ** -20)
    assert np.allclose(out.coeffs, 2.0 ** -np.arange(21.0), rtol=1e-14)


def test_tail_sums_analytic_tail_enters_every_entry():
    out = tail_sums([0.5, 0.25], analytic_tail=0.25)
    assert np.allclose(out.coeffs, [1.0, 0.5, 0.25], atol=1e-15)


def test_tail_sums_nonincreasing_postcondition():
    rng = np.random.default_rng(3)
    a = rng.uniform(size=200)
    out = tail_sums(a).coeffs
    assert np.all(out[:-1] >= out[1:])


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=60),
    st.floats(min_value=1e-12, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_tail_sums_telescope_exactly_with_a_tail(terms, tail):
    out = tail_sums(terms, analytic_tail=tail).coeffs
    assert out[-1] == tail
    assert np.array_equal(out[:-1], out[1:] + np.asarray(terms))


def test_tail_sums_rejects_negative():
    with pytest.raises(NegativeCoefficient):
        tail_sums([0.5, -0.1])
    with pytest.raises(NegativeCoefficient):
        tail_sums([0.5, 0.5], analytic_tail=-1e-3)


# -- partial_sums ------------------------------------------------------

def test_partial_sums_alternating_halves():
    c = TruncatedSeries((-0.5) ** np.arange(6.0))
    out = partial_sums(c)
    expected = np.array([1.0, 0.5, 0.75, 0.625, 0.6875, 0.65625])
    assert np.array_equal(out.coeffs, expected)


def test_partial_sums_of_geometric_reciprocal():
    out = partial_sums(reciprocal(geometric_tail_series(10)))
    assert out.coeffs[0] == 1.0
    assert np.allclose(out.coeffs[1:], 0.5, atol=1e-15)


# -- the prefix polynomial near and on the circle ----------------------

def test_evaluate_geometric_reciprocal_near_one():
    c = reciprocal(geometric_tail_series(50))
    value = np.polynomial.polynomial.polyval(0.99, c.coeffs)
    assert value == pytest.approx(1.0 - 0.495, abs=1e-12)


def test_evaluate_tail_series_at_one_gives_mean():
    # p = (1/2, 1/2): D(1) = 1 + 1/2 = 3/2, the mean return time.
    d = tail_sums([0.5, 0.5])
    assert np.polynomial.polynomial.polyval(1.0, d.coeffs) == pytest.approx(1.5, abs=1e-15)


# -- kaluza_check ------------------------------------------------------

def test_kaluza_geometric_is_boundary_false():
    p = 2.0 ** -np.arange(1.0, 30.0)
    assert kaluza_check(p) is False


def test_kaluza_cubic_tail_true():
    n = np.arange(1.0, 200.0)
    p = n ** -3.0
    p /= p.sum()
    assert kaluza_check(p) is True


def test_kaluza_flat_pair_false():
    assert kaluza_check([0.5, 0.5]) is False


def test_kaluza_rejects_nonpositive():
    with pytest.raises(NonPositiveCoefficient):
        kaluza_check([0.5, 0.0, 0.5])


# -- convolution_power_probe -------------------------------------------

def test_convpower_gamma_between_one_and_two_levels_off():
    # gamma = 3/2: the sum converges to the beta integral value pi.
    v1, regime = convolution_power_probe(1.5, 4096)
    v2, _ = convolution_power_probe(1.5, 16384)
    assert regime == "n^(3-2g)"
    assert v2 == pytest.approx(np.pi, rel=1e-2)
    assert abs(v2 - np.pi) < abs(v1 - np.pi)


def test_convpower_gamma_two_log_over_n():
    n = 16384
    v, regime = convolution_power_probe(2.0, n)
    assert regime == "log(n)/n"
    assert v * n / np.log(n) == pytest.approx(2.0, rel=8e-2)


def test_convpower_gamma_three_edge_dominated():
    n = 16384
    v, regime = convolution_power_probe(3.0, n)
    assert regime == "n^(1-g)"
    # edges contribute 2 * zeta(2) / n^2
    assert v * n ** 2 == pytest.approx(2.0 * np.pi ** 2 / 6.0, rel=2e-3)


def test_convpower_rejects_gamma_at_most_one():
    with pytest.raises(BadExponent):
        convolution_power_probe(1.0, 100)
    with pytest.raises(BadExponent):
        convolution_power_probe(0.5, 100)


# -- decay transfer through the reciprocal ------------------------------

@pytest.mark.parametrize("gamma", [2.0, 3.0])
def test_reciprocal_preserves_power_decay(gamma):
    # d_n = n^-gamma prefix: coefficients of 1/D must decay with the same
    # exponent; fitted slope over [1e3, 1e4] within 0.3 of -gamma.
    n_max = 10_000
    n = np.arange(1.0, n_max + 1.0)
    d = np.r_[1.0, n ** -gamma]
    c = reciprocal(d).coeffs
    grid = np.unique(np.logspace(3, 4, 25).astype(int))
    slope = np.polyfit(np.log(grid), np.log(np.abs(c[grid])), 1)[0]
    assert abs(slope + gamma) < 0.3


def test_reciprocal_partial_sums_eventually_monotone_for_kaluza_input():
    # For a strictly log-convex decreasing prefix the running sums of 1/D
    # approach their limit from one side after a finite burn-in.
    n = np.arange(1.0, 2001.0)
    p = n ** -3.0
    p /= p.sum()
    assert kaluza_check(p)
    d = tail_sums(p).coeffs[:-1]
    s = partial_sums(reciprocal(d)).coeffs
    # stay away from the truncation edge, where the cut-off law's cliff
    # perturbs the far coefficients at the 1e-10 level
    diffs = np.diff(s[10:1000])
    assert np.all(diffs <= 0.0) or np.all(diffs >= 0.0)


# -- zero diagnostic ----------------------------------------------------

def test_zero_diagnostic_reports_known_root():
    # D = 1 - 2z has its root at z = 1/2.
    out = zero_diagnostic([1.0, -2.0])
    assert out["smallest_root_modulus"] == pytest.approx(0.5, abs=1e-12)
    assert out["min_abs"] < 0.1


def test_zero_diagnostic_disk_clean_for_geometric_tails():
    out = zero_diagnostic(geometric_tail_series(64), radii=np.linspace(0.1, 0.99, 8))
    assert out["min_abs"] > 0.5


def exact_sign(coeffs, x):
    """Sign of the polynomial with these double coefficients at the double
    ``x``, in exact integer arithmetic: each double is an integer over a
    power of 2."""
    m, q = float(x).as_integer_ratio()
    ratios = [float(c).as_integer_ratio() for c in coeffs]
    den = max(b for _, b in ratios)
    # Horner on den * q^n * P(m / q) = sum_k (a_k den / b_k) m^k q^(n - k)
    acc, qk = 0, 1
    for a, b in reversed(ratios):
        acc = acc * m + a * (den // b) * qk
        qk *= q
    return (acc > 0) - (acc < 0)


def root_modulus(coeffs):
    return zero_diagnostic(coeffs, radii=[0.5], points=1)["smallest_root_modulus"]


def assert_root_within_ulps(coeffs, r, ulps=4):
    # the exact polynomial changes sign between r -/+ ulps ulps
    step = ulps * math.ulp(r)
    assert exact_sign(coeffs, r - step) * exact_sign(coeffs, r + step) <= 0


ZETA_DEGREES = (0.25, 1.0, 1.5, 3.0, 4.0, 6.0)
PREFIXES = (2, 3, 10, 100, 250, 500, 2000)


@pytest.fixture(scope="module")
def zeta_chains():
    return {d: build_chain(ZetaTailLaw(d), 2000) for d in ZETA_DEGREES}


@pytest.mark.parametrize("d", ZETA_DEGREES)
def test_zero_diagnostic_chain_root_is_exact(zeta_chains, d):
    # 1 - F(z) has nonnegative F: its smallest zero modulus is the positive
    # root of F(r) = 1, here checked against the exact root of the very
    # same double coefficients, for 1 - F and the sign-flipped -1 + F
    for prefix in PREFIXES:
        coeffs = np.r_[1.0, -zeta_chains[d].p[1 : prefix + 1]]
        r = root_modulus(coeffs)
        assert r >= 1.0
        assert_root_within_ulps(coeffs, r)
        assert root_modulus(-coeffs) == r


def test_zero_diagnostic_chain_root_with_interior_zeros():
    ch = build_chain(FiniteLaw([0.3, 0.0, 0.2, 0.0, 0.0, 0.5]), 10)
    for prefix, cut in ((6, False), (3, True)):
        coeffs = np.r_[1.0, -ch.p[1 : prefix + 1]]
        r = root_modulus(coeffs)
        # the whole law has F(1) = 1; a cut prefix leaves its root outside
        assert (r > 1.0) if cut else (r == 1.0)
        assert_root_within_ulps(coeffs, r)


def test_zero_diagnostic_chain_root_where_plain_newton_overflows():
    # root 1e300^(1/500), about 3.98: a Newton step from r = 1 lands near
    # 2e297, whose 500th power overflows; the bracket keeps every step finite
    coeffs = np.zeros(501)
    coeffs[0], coeffs[500] = 1.0, -1e-300
    r = root_modulus(coeffs)
    assert r == pytest.approx(10.0 ** 0.6, rel=1e-14)
    assert_root_within_ulps(coeffs, r)


def test_zero_diagnostic_chain_root_agrees_with_companion_eigenvalues(zeta_chains):
    # the eigen solve is O(n^3): prefix 512, the old cap, at one degree only
    cases = [(d, prefix) for d in ZETA_DEGREES for prefix in PREFIXES if prefix <= 250]
    for d, prefix in cases + [(1.5, 512)]:
        coeffs = np.r_[1.0, -zeta_chains[d].p[1 : prefix + 1]]
        eig = np.min(np.abs(np.polynomial.polynomial.polyroots(coeffs)))
        assert root_modulus(coeffs) == pytest.approx(eig, rel=1e-12, abs=0.0)


def test_zero_diagnostic_routes(zeta_chains, monkeypatch):
    def refuse(_):
        raise AssertionError("polyroots called")

    monkeypatch.setattr(np.polynomial.polynomial, "polyroots", refuse)
    # a chain prefix of any degree answers without the eigen solve
    coeffs = np.r_[1.0, -zeta_chains[1.0].p[1:2001]]
    assert root_modulus(coeffs) > 1.0
    assert root_modulus(np.r_[0.0, coeffs]) == 0.0
    assert root_modulus([3.0]) is None
    # r^10 underflows near the root, so the slope there is -0.0: bisection
    tiny = [5e-324] + [0.0] * 9 + [-1.0]
    assert root_modulus(tiny) == pytest.approx(5e-324 ** 0.1, rel=0.05)
    # a generic prefix of any degree reports no modulus
    generic = np.random.default_rng(5).normal(size=2001)
    for coeffs in ([1.0, 1.0], [2.0, -1.0, 1.0], generic[:513], generic[:514], generic):
        assert root_modulus(coeffs) is None


@pytest.mark.parametrize("c0, k, a", [
    (1.0, [1.0, 2.0], [0.5, 0.5]),  # root 1
    (1.0, [3.0], [1e-9]),  # root 1000
    (2.0, [1.0, 5.0, 40.0], [0.01, 0.2, 1e-30]),
    (1e-300, [10.0], [1.0]),
])
def test_positive_root_at_its_step_cap_returns_a_bracket_end(monkeypatch, c0, k, a):
    k, a = np.array(k), np.array(a)
    root = series._positive_root(c0, k, a)
    monkeypatch.setattr(series, "_ROOT_STEPS", 0)
    end = series._positive_root(c0, k, a)
    # the bracket [lo, 2 lo] holds the root, and no step refines it
    assert end == 2.0 ** round(math.log2(end))
    assert root / 2.0 <= end <= 2.0 * root


def ref_circle_scan(coeffs, radii, points):
    """The circle scan one radius at a time: the first smallest ``|D(z)|``."""
    angles = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    best = (np.inf, 0.0 + 0.0j)
    for r in radii:
        zs = r * np.exp(1j * angles)
        vals = np.polynomial.polynomial.polyval(zs, coeffs)
        k = int(np.argmin(np.abs(vals)))
        if abs(vals[k]) < best[0]:
            best = (float(abs(vals[k])), complex(zs[k]))
    return best


@pytest.mark.parametrize("radii, points, chunk", [
    ([0.3, 0.9, 1.0], 50_000, series._SCAN_CHUNK),  # chunk edges inside circles
    (np.linspace(0.1, 1.0, 10), 720, series._SCAN_CHUNK),  # the default scan
    ([1.0, 0.5, 0.5, 0.7], 360, 7),  # many chunks per circle
    ([1.0, 0.5, 0.5, 0.7, 0.2], 360, 1000),  # chunks across circle edges
    ([0.8], 1, 1),
])
def test_zero_diagnostic_scan_matches_the_per_radius_loop(zeta_chains, monkeypatch, radii,
                                                          points, chunk):
    monkeypatch.setattr(series, "_SCAN_CHUNK", chunk)
    cases = [np.r_[1.0, -zeta_chains[d].p[1:251]] for d in (1.0, 4.0)]
    # D = z and constants tie along each circle; generic prefixes of any sign
    cases += [[0.0, 1.0], [3.0], np.random.default_rng(2).normal(size=30)]
    for coeffs in cases:
        out = zero_diagnostic(coeffs, radii=radii, points=points)
        assert (out["min_abs"], out["argmin"]) == ref_circle_scan(coeffs, radii, points)


def test_zero_diagnostic_scan_skips_overflowed_values():
    # Horner's steps overflow to NaN at z = 1, while D(-1) is about 1e292
    with np.errstate(over="ignore", invalid="ignore"):
        out = zero_diagnostic([0.0, 0.0, 1e308, 1e308], radii=[1.0], points=2)
    assert out["argmin"] == pytest.approx(-1.0) and out["min_abs"] < 1e293


@pytest.mark.parametrize("kwargs", [{"radii": []}, {"points": 2.5}, {"points": 0},
                                    {"points": True}, {"radii": [1.5]}])
def test_zero_diagnostic_refuses_bad_arguments(kwargs):
    with pytest.raises(OutOfDomain):
        zero_diagnostic([1.0, -0.5], **kwargs)


# -- property tests -----------------------------------------------------

finite_coeffs = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=30,
)


@given(finite_coeffs, finite_coeffs)
@settings(max_examples=200, deadline=None)
def test_convolve_commutes(a, b):
    lhs = convolve(a, b).coeffs
    rhs = convolve(b, a).coeffs
    scale = 1.0 + np.max(np.abs(lhs))
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


@given(finite_coeffs, finite_coeffs, finite_coeffs)
@settings(max_examples=200, deadline=None)
def test_convolve_associates(a, b, c):
    lhs = convolve(convolve(a, b), c).coeffs
    rhs = convolve(a, convolve(b, c)).coeffs
    scale = 1.0 + np.max(np.abs(lhs))
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


# Denominators with a well-separated leading term and geometric decay keep
# the reciprocal's coefficient growth tame, which the round-trip bound needs.
tame_denominators = st.builds(
    lambda lead, rest: np.r_[lead, np.asarray(rest) * 0.4 * abs(lead) * 0.7 ** np.arange(len(rest))]
    if rest
    else np.array([lead]),
    st.floats(min_value=0.1, max_value=10.0).flatmap(
        lambda m: st.sampled_from([m, -m])
    ),
    st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), max_size=25),
)


@given(tame_denominators)
@settings(max_examples=200, deadline=None)
def test_reciprocal_round_trip(d):
    back = reciprocal(reciprocal(d)).coeffs
    assert np.all(np.abs(back - d) <= 1e-10 * (1.0 + np.abs(d)))


@given(tame_denominators, finite_coeffs)
@settings(max_examples=100, deadline=None)
def test_divide_then_multiply_recovers_numerator(d, e):
    n = min(len(d), len(e))
    h = divide(e, d)
    back = convolve(h, d).coeffs
    scale = 1.0 + float(np.max(np.abs(np.asarray(e)[:n])))
    assert np.all(np.abs(back - np.asarray(e)[:n]) <= 1e-9 * scale)


# -- the relaxed quotient against the loops it replaced ------------------

EPS = float(np.finfo(float).eps)
REFS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "refs.json")
                  .read_text())


def direct_quotient(e, d):
    """The direct recursion ``h_n = (e_n - sum_{k=1..n} d_k h_{n-k}) / d_0``,
    one dot product per coefficient, on the shorter prefix."""
    n = min(len(e), len(d))
    h = np.empty(n)
    for i in range(n):
        h[i] = (e[i] - np.dot(d[1 : i + 1], h[:i][::-1])) / d[0]
    return h


def reference_quotients(chain, n):
    """The parent's three hand-written recursions: the reciprocal of the
    survival prefix, the renewal sequence and the renewal deviation, each a
    loop of one dot product per coefficient over the full prefix."""
    dc = chain.d[: n + 1]
    c = np.empty(n + 1)
    inv0 = 1.0 / dc[0]
    c[0] = inv0
    for k in range(1, n + 1):
        c[k] = -inv0 * np.dot(dc[1 : k + 1], c[k - 1 :: -1])
    e = np.empty(n + 1)
    e[0] = 1.0
    for k in range(1, n + 1):
        e[k] = np.dot(chain.p[1 : k + 1], e[k - 1 :: -1])
    dev = chain.d_tail[: n + 1] / chain.m1
    for k in range(1, n + 1):
        dev[k] -= np.dot(chain.d[1 : k + 1], dev[k - 1 :: -1])
    return c, e, dev


def package_quotients(chain, n):
    return (reciprocal(chain.d[: n + 1]).coeffs,
            renewal_sequence(chain, n).values, _deviation(chain, n))


def fixed_point_quotient(e, d, bits=240):
    """``E/D`` of the double inputs in integer fixed point with ``bits``
    fractional bits: inputs above ``2^(52-bits)`` are exact and each output
    is one floor division, so the result is the true quotient of the
    stored prefixes to about ``n 2^-bits``."""
    scale = 2.0 ** bits
    num = [int(v * scale) << bits for v in e]
    den = [int(v * scale) for v in np.trim_zeros(d, "b")]
    h = []
    for i in range(min(len(e), len(d))):
        terms = map(operator.mul, den[1 : i + 1], reversed(h[max(0, i - len(den) + 1) :]))
        h.append((num[i] - sum(terms)) // den[0])
    return np.array([float(v) / scale for v in h])


def true_quotients(chain, n, degree):
    """Positions and true values of the three quotients: the reciprocal and
    the renewal sequence in fixed point, and the deviation from the 60-digit
    references, at their grid points up to ``n``."""
    everywhere = np.arange(n + 1)
    unit = np.zeros(n + 1)
    unit[0] = 1.0
    ref = REFS["zeta"][repr(degree)]["dev"]
    grid = [(m, float(v)) for m, v in zip(REFS["grid"], ref) if m <= n]
    return ((everywhere, fixed_point_quotient(unit, chain.d[: n + 1])),
            (everywhere, fixed_point_quotient(unit, np.r_[1.0, -chain.p[1 : n + 1]])),
            tuple(np.array(v) for v in zip(*grid)))


def worst_relative_error(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


@pytest.mark.parametrize("degree", [1.0, 1.5, 3.0, 4.0])
def test_quotient_is_as_accurate_as_the_loops_on_full_support(degree):
    chain = build_chain(ZetaTailLaw(degree), 2000)
    for got, loops, (at, want) in zip(package_quotients(chain, 2000),
                                      reference_quotients(chain, 2000),
                                      true_quotients(chain, 2000, degree)):
        assert worst_relative_error(got[at], want) <= worst_relative_error(loops[at], want) + 4 * EPS


@pytest.mark.parametrize("degree", [1.0, 1.5, 3.0, 4.0])
def test_quotient_accuracy_does_not_depend_on_long_double(monkeypatch, degree):
    # where numpy's long double is double (Windows, macOS on arm64)
    monkeypatch.setattr(np, "longdouble", np.float64)
    test_quotient_is_as_accurate_as_the_loops_on_full_support(degree)


BLOCK = series._BLOCK
#: lengths on both sides of every block edge and of the far blocks' edges
EDGES = sorted({1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 12 * BLOCK}
               | {(BLOCK << k) + s for k in range(4) for s in (-1, 1)})


@st.composite
def quotient_cases(draw):
    """A numerator and a denominator, maybe cut by trailing zeros, for which
    ``sum_k |c_k| |e_{n-k}|`` bounds the rounding of either route: a
    renewal ``lead (1 - P)`` with ``P`` a sub-probability or the survival
    sums of a zeta law (a Kaluza law), whose reciprocals keep one sign
    past ``c_0``, over a unit or a random numerator; or a
    geometrically tame signed denominator over a random numerator."""
    n = draw(st.one_of(st.sampled_from(EDGES), st.integers(1, 12 * BLOCK)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["renewal", "survival", "tame"]))
    if kind == "renewal":
        p = rng.random(n - 1)
        d = np.r_[1.0, -p * draw(st.floats(0.1, 1.0)) / max(p.sum(), 1.0)]
    elif kind == "survival":
        d = build_chain(ZetaTailLaw(draw(st.floats(0.5, 4.0))), max(n, 2)).d[:n].copy()
    else:
        d = np.r_[1.0, rng.uniform(-0.4, 0.4, n - 1) * 0.7 ** np.arange(n - 1)]
    d *= draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    d[draw(st.integers(1, n)):] *= draw(st.sampled_from([0.0, 1.0]))
    size = draw(st.sampled_from([n, max(1, n // 3), 2 * n + 1]))
    e = np.zeros(size)
    if kind != "tame" and draw(st.booleans()):
        e[0] = 1.0
    else:
        e[:] = rng.uniform(-1.0, 1.0, size)
    return e, d


@given(quotient_cases())
@settings(max_examples=60, deadline=None)
def test_quotient_agrees_with_the_direct_recursion(case):
    e, d = case
    got, want = series._quotient(e, d), direct_quotient(e, d)
    n = want.size
    unit = np.zeros(n)
    unit[0] = 1.0
    scale = np.convolve(np.abs(direct_quotient(unit, d)), np.abs(e[:n]))[:n]
    assert got.shape == want.shape
    # the second term covers gradual underflow, of rapidly decaying quotients
    assert np.all(np.abs(got - want) <= 64 * n * EPS * scale + n * np.finfo(float).tiny)


@pytest.mark.parametrize("probs", [[0.2, 0.3, 0.5], [0.25, 0.0, 0.25, 0.0, 0.5],
                                   [0.1, 0.0, 0.0, 0.9], [0.05] * 20])
def test_quotient_skipping_trailing_zeros_agrees_with_the_loops(probs):
    # the loops add the zeros past the support; the quotient skips them, so
    # only the summation grouping differs (max-norm relative agreement)
    chain = build_chain(FiniteLaw(probs), 2000)
    for got, want in zip(package_quotients(chain, 2000), reference_quotients(chain, 2000)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


finite_laws = st.tuples(
    st.floats(min_value=0.01, max_value=1.0),
    st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0)),
             max_size=7),
).map(lambda t: np.asarray([t[0], *t[1]]) / math.fsum([t[0], *t[1]]))


@given(finite_laws, st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_first_passage_matches_divide(probs, i, j):
    chain = build_chain(FiniteLaw(probs), 80)
    f = first_passage(chain, i, j, mass_tol=math.inf).series.coeffs
    n = f.size - 1
    num = np.zeros(n + 1)
    den = np.zeros(n + 1)
    den[0] = 1.0
    if i <= j:
        num[i:] = chain.p[j : j + n - i + 1]
        den[1:j] = -chain.p[1:j]
    else:
        num[i - j] = 1.0
    want = divide(num, den).coeffs
    assert np.all(np.abs(f - want) <= 1e-12 * np.abs(want))
    # both routes run the quotient recursion; multiplying back checks it
    assert np.allclose(convolve(f, den).coeffs, num, rtol=0.0, atol=1e-12)


# ----------------------------------------------------------------------
# the whole-number rule of series._whole and series._as_grid
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def whole_chains():
    return SimpleNamespace(z=build_chain(ZetaTailLaw(1.5), 2000),
                           z25=build_chain(ZetaTailLaw(2.5), 2000),
                           null=build_chain(ZetaTailLaw(-0.5), 2000))


#: One call per entry point with its size, index, state or grid point ``x``.
WHOLE_ENTRIES = {
    # chain
    "build_chain": lambda c, x: rl.build_chain(ZetaTailLaw(1.5), x),
    "first_passage i": lambda c, x: rl.first_passage(c.z, x, 12, mass_tol=math.inf),
    "first_passage j": lambda c, x: rl.first_passage(c.z, 3, x, mass_tol=math.inf),
    "first_passage trunc": lambda c, x: rl.first_passage(c.z, 1, 1, trunc=x,
                                                           mass_tol=math.inf),
    "moment": lambda c, x: rl.moment(c.z, x, x, 1.0),
    "second_moment_identity": lambda c, x: rl.second_moment_identity(c.z25, x),
    "codivergence_probe i": lambda c, x: rl.codivergence_probe(c.z, 0.5, x, 200),
    "codivergence_probe n_max": lambda c, x: rl.codivergence_probe(c.z, 0.5, 2, x),
    "stationary_mass_beyond": lambda c, x: c.z.stationary_mass_beyond(x),
    # evolve
    "RateCurve": lambda c, x: rl.RateCurve([x], [1.0]),
    "renewal_sequence": lambda c, x: rl.renewal_sequence(c.z, x),
    "distance_curve": lambda c, x: rl.distance_curve(c.z, rl.point_mass(1), [x]),
    "correlation_curve": lambda c, x: rl.correlation_curve(
        c.z, rl.point_mass(1), rl.indicator([1], 10), [x]),
    "deviation_tail_ratio": lambda c, x: rl.deviation_tail_ratio(c.z, [x]),
    "correlation_constant": lambda c, x: rl.correlation_constant(
        c.z, rl.point_mass(1), rl.indicator([1], 10), [x]),
    "null_recurrent_ratio": lambda c, x: rl.null_recurrent_ratio(
        c.null, rl.point_mass(1), rl.indicator([1], 1), [x]),
    "rate_fit": lambda c, x: rl.rate_fit(rl.renewal_sequence(c.z, 100), (x, 100)),
    "nonuniformity_probe n": lambda c, x: rl.nonuniformity_probe(c.z, [1, 50], x),
    "nonuniformity_probe i": lambda c, x: rl.nonuniformity_probe(c.z, [x], 5),
    "log_grid": lambda c, x: rl.log_grid(1, 100, x),
    # spectral
    "transition_operator": lambda c, x: rl.transition_operator(c.z, x),
    "jump_operator": lambda c, x: rl.jump_operator(c.z, 0.5, x),
    "factorization_residual": lambda c, x: rl.factorization_residual(c.z, 0.5, x),
    "eigen_from_gf": lambda c, x: rl.eigen_from_gf(c.z, 0.5, x),
    "disk_scan": lambda c, x: rl.disk_scan(c.z, [0.5, 0.5j], x),
    "partial_norm_scan": lambda c, x: rl.partial_norm_scan(c.z, 0.5, [x]),
    "gf_evaluate i": lambda c, x: rl.gf_evaluate(c.z, x, 3, 0.5),
    "gf_evaluate j": lambda c, x: rl.gf_evaluate(c.z, 3, x, 0.5),
    # measures
    "point_mass state": lambda c, x: rl.point_mass(x),
    "indicator state": lambda c, x: rl.indicator([1, x], 20),
    "indicator size": lambda c, x: rl.indicator([1], x),
    "ones": lambda c, x: rl.ones(x),
    # series
    "convolution_power_probe": lambda c, x: rl.convolution_power_probe(1.5, x),
    "zero_diagnostic points": lambda c, x: rl.zero_diagnostic(c.z.d[:40], [0.5, 0.9], x),
    # maps
    "orbit_symbols": lambda c, x: rl.orbit_symbols(rl.build_map(c.z), 0.3, x),
    "mc_correlation": lambda c, x: rl.mc_correlation(
        c.z, rl.indicator([1], 1), rl.indicator([1], 1), [x], 1000, 1),
    "sample_states": lambda c, x: rl.sample_states(c.z, x, 1, burn_in=x),
    "sample_states seed": lambda c, x: rl.sample_states(c.z, 100, x),
    "entrance_tail": lambda c, x: rl.entrance_tail(c.z, c.z.d[1], x, 1000, 1),
    "markov_frequency_check": lambda c, x: rl.markov_frequency_check(c.z, 1000, 1, i_max=x),
    "invariant_density": lambda c, x: rl.invariant_density(c.z, x),
    "pf_check": lambda c, x: rl.pf_check(c.z, x),
}

#: The entries that refuse with :class:`ConfigError` (``OutOfDomain`` in the
#: series probes); the others raise :class:`PreconditionViolated`.
CONFIG_ERROR_ENTRIES = {"build_chain", "sample_states", "sample_states seed", "entrance_tail",
                        "convolution_power_probe", "zero_diagnostic points"}


def bits(value) -> bytes:
    """Every array of ``value`` as its bytes and dtype, every other leaf as
    its repr, through dataclasses, dicts, lists and tuples."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (list, tuple)):
        return b"(" + b",".join(bits(v) for v in value) + b")"
    if isinstance(value, np.ndarray):
        return value.dtype.str.encode() + value.tobytes()
    return repr(value).encode()


@pytest.mark.parametrize("name", list(WHOLE_ENTRIES))
def test_every_entry_point_reads_whole_numbers_by_one_rule(whole_chains, name):
    call = WHOLE_ENTRIES[name]
    error = rl.ConfigError if name in CONFIG_ERROR_ENTRIES else rl.PreconditionViolated
    for bad in (10.5, "10", True):
        with pytest.raises(error, match="whole number|grid must be"):
            call(whole_chains, bad)
    want = bits(call(whole_chains, 10))
    for same in (10.0, np.int64(10)):
        assert bits(call(whole_chains, same)) == want


def test_values_that_are_no_number_at_all_are_refused_by_the_rule():
    # None and a list have no float: a package error, not a bare TypeError
    for bad in (None, [10], 10 + 0j):
        with pytest.raises(rl.PreconditionViolated, match="whole number"):
            series._whole(bad, "the size")
    with pytest.raises(rl.PreconditionViolated, match="whole number"):
        rl.indicator([None], 10)
    # np.asarray reads [True, 5] as the ints [1, 5]; the bool is refused as a bare one is
    for grid in ([True, 5], (1, np.True_, 5), [False, 5.0]):
        with pytest.raises(rl.PreconditionViolated, match="grid must be"):
            series._as_grid(grid)
    assert series._as_grid(np.array([1, 5])).tolist() == [1, 5]


@pytest.mark.parametrize("coeffs", [[], [[1.0]], [1.0, math.nan], [math.inf]],
                         ids=["empty", "matrix", "nan", "inf"])
def test_a_series_of_the_wrong_shape_or_not_finite_is_refused(coeffs):
    with pytest.raises(ValueError, match="nonempty one-dimensional|must be finite"):
        TruncatedSeries(coeffs)


@pytest.mark.parametrize("terms, tail", [
    ([0.5, math.inf], 0.0), ([0.5], math.inf), ([1e308, 1e308], 0.0), ([1e308], 1e308),
], ids=["inf-term", "inf-tail", "overflowing-terms", "overflowing-tail"])
def test_tail_sums_refuse_a_non_finite_or_overflowing_input_without_warnings(terms, tail):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="coefficients must be finite"):
            tail_sums(terms, analytic_tail=tail)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            series._tail_sums(np.asarray(terms, dtype=float), tail)
