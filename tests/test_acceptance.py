"""Acceptance suite: one test per headline capability, each printing a
single PASS/FAIL line with the measured quantity.

Run it with output streaming to see the lines:

    python3 -m pytest tests/test_acceptance.py -v -s

Every test is self-contained (fixtures only share chain construction) and
checks both the numerical claim and the stated runtime budget.
"""

import math
import time

import numpy as np
import pytest

from renewallab import (
    FiniteLaw,
    GeometricLaw,
    Observable,
    RateCurve,
    TruncatedSeries,
    ZetaTailLaw,
    build_chain,
    build_map,
    correlation_constant,
    correlation_curve,
    deviation_tail_ratio,
    distance_curve,
    eigen_from_gf,
    entrance_tail,
    factorization_residual,
    indicator,
    kac_check,
    markov_frequency_check,
    mc_correlation,
    null_recurrent_ratio,
    partial_sums,
    point_mass,
    rate_fit,
    reciprocal,
    renewal_sequence,
)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


class stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


@pytest.fixture(scope="module")
def geo():
    return build_chain(GeometricLaw(0.5), 2000)


@pytest.fixture(scope="module")
def zeta_one():
    # 2 * 10^4 + 1 states so measures can be evolved to horizon 10^4
    return build_chain(ZetaTailLaw(1.0), 21000)


@pytest.fixture(scope="module")
def zeta_three_half():
    return build_chain(ZetaTailLaw(1.5), 40000)


@pytest.fixture(scope="module")
def zeta_null():
    return build_chain(ZetaTailLaw(-0.5), 20100)


def test_criterion_01_geometric_chain_is_exact(geo):
    with stopwatch() as sw:
        e = renewal_sequence(geo, 200).values
        gap_e = float(np.abs(e[1:] - 0.5).max())
        gap_pi = float(np.abs(geo.pi[1:] - geo.p[1:]).max())
    ok = gap_e <= 1e-12 and gap_pi <= 1e-12 and sw.elapsed < 1.0
    report(1, ok,
           f"geometric e_n gap {gap_e:.2e}, pi vs p gap {gap_pi:.2e} "
           f"({sw.elapsed:.2f}s)")


def test_criterion_02_two_renewal_routes_agree(geo, zeta_one):
    half = build_chain(FiniteLaw((0.5, 0.5)), 2000)
    worst = 0.0
    with stopwatch() as sw:
        for chain in (geo, half, zeta_one):
            direct = renewal_sequence(chain, 1000).values
            series = partial_sums(reciprocal(TruncatedSeries(chain.d[:1001])))
            worst = max(worst, float(np.abs(direct - series.coeffs).max()))
    ok = worst <= 1e-10 and sw.elapsed < 5.0
    report(2, ok, f"route gap {worst:.2e} over three laws ({sw.elapsed:.2f}s)")


def test_criterion_03_deviation_tail_ratio_sharpens(zeta_one):
    with stopwatch() as sw:
        curve = deviation_tail_ratio(zeta_one, [1000, 10000])
    r3, r4 = float(curve.values[0]), float(curve.values[1])
    ok = (0.9 <= r4 <= 1.1 and abs(r4 - 1.0) < abs(r3 - 1.0)
          and sw.elapsed < 60.0)
    report(3, ok,
           f"ratio {r4:.4f} at n=1e4 (vs {r3:.4f} at 1e3) ({sw.elapsed:.2f}s)")


@pytest.fixture(scope="module")
def heavy_distance(zeta_three_half):
    """Distance curve shared by the rate and sharpness checks, with the
    wall time of the one evolution run attached."""
    from renewallab import log_grid

    grid = sorted(set(log_grid(1000, 10000, 12).tolist()) | {5000, 10000})
    with stopwatch() as sw:
        curve = distance_curve(zeta_three_half, point_mass(1), grid)
    return curve, sw.elapsed


def test_criterion_04_polynomial_distance_rate(heavy_distance):
    curve, elapsed = heavy_distance
    fit = rate_fit(curve, (1000, 10000))
    bound = float(curve.bounds[-1])
    ok = -1.65 <= fit.exponent <= -1.35 and bound < 1e-8 and elapsed < 120.0
    report(4, ok,
           f"distance slope {fit.exponent:.3f}, tail bound {bound:.1e} "
           f"({elapsed:.2f}s)")


def test_criterion_05_scaled_distance_is_slowly_varying(heavy_distance):
    curve, _ = heavy_distance
    scaled = curve.values * curve.n_grid.astype(float) ** 1.5
    at = dict(zip(curve.n_grid.tolist(), scaled.tolist()))
    ratio = at[10000] / at[5000]
    ok = 0.8 <= ratio <= 1.2
    report(5, ok, f"doubling ratio of n^1.5 * distance at n=5e3: {ratio:.3f}")


def test_criterion_06_sharp_correlation_constant(zeta_one):
    with stopwatch() as sw:
        curve, predicted = correlation_constant(
            zeta_one, point_mass(1), indicator(1, 100), [10000]
        )
    value = float(curve.values[-1])
    gap = abs(value - predicted) / predicted
    ok = gap <= 0.2 and sw.elapsed < 60.0
    report(6, ok,
           f"C_n {value:.5f} vs predicted {predicted:.5f} "
           f"(gap {100 * gap:.1f}%, {sw.elapsed:.2f}s)")


def test_criterion_07_operator_factorization(geo, zeta_one):
    worst = 0.0
    with stopwatch() as sw:
        for chain in (geo, zeta_one):
            for z in (0.5, -0.3 + 0.4j):
                worst = max(worst, factorization_residual(chain, z, 200))
    ok = worst < 1e-12 and sw.elapsed < 5.0
    report(7, ok, f"factorization residual {worst:.2e} ({sw.elapsed:.2f}s)")


def test_criterion_08_interior_eigenvector(geo):
    with stopwatch() as sw:
        probe = eigen_from_gf(geo, 0.5, 400)
    x2 = abs(float(probe.vector[2].real))
    x3 = abs(float(probe.vector[3].real) + 0.25)
    ok = (probe.residual < 1e-10 and x2 <= 1e-14 and x3 <= 1e-14
          and sw.elapsed < 1.0)
    report(8, ok,
           f"eigen residual {probe.residual:.2e}, |x2| {x2:.1e}, "
           f"|x3+1/4| {x3:.1e} ({sw.elapsed:.2f}s)")


def test_criterion_09_null_recurrent_ratio(zeta_null):
    with stopwatch() as sw:
        shifted = null_recurrent_ratio(
            zeta_null, point_mass(2), indicator(1, 2), [10000]
        )
        exact = null_recurrent_ratio(
            zeta_null, point_mass(1), indicator(1, 1), [1, 10, 100, 10000]
        )
    r = float(shifted.values[-1])
    unit = float(np.abs(exact.values - 1.0).max())
    ok = abs(r - 1.0) <= 0.05 and unit == 0.0 and sw.elapsed < 60.0
    report(9, ok,
           f"delta_2 ratio {r:.4f}, delta_1 ratio gap {unit:.1e} "
           f"({sw.elapsed:.2f}s)")


def test_criterion_10_occupation_and_frequencies(geo):
    m = build_map(geo)
    with stopwatch() as sw:
        kac = kac_check(m, 1_000_000, seed=11)
        freq = markov_frequency_check(m, 1_000_000, seed=21, i_max=10)
    kac_gap = abs(kac.product - 1.0)
    dev = np.abs(freq.transition_hat[0] - freq.transition_exact[0])
    sigmas = float(np.max(dev / freq.transition_stderr[0]))
    ok = kac_gap < 0.01 and sigmas <= 3.0 and sw.elapsed < 30.0
    report(10, ok,
           f"|occupation*return - 1| {kac_gap:.1e}, worst row-1 cell "
           f"{sigmas:.2f} stderr ({sw.elapsed:.2f}s)")


def test_criterion_11_map_correlations_match_chain(geo, zeta_one):
    u = Observable([0.0, 1.0 - geo.pi1], limit=-geo.pi1)
    with stopwatch() as sw:
        est = mc_correlation(build_map(geo), u, u, [1, 2, 5], 2_000_000,
                             seed=42)
        within = all(abs(e.mean) <= 3.0 * e.stderr for e in est.values())

        grid = [10, 18, 32, 56, 100, 178, 300]
        uz = Observable([0.0, 1.0 - zeta_one.pi1], limit=-zeta_one.pi1)
        heavy = mc_correlation(build_map(zeta_one), uz, uz, grid,
                               10_000_000, seed=123)
        curve = RateCurve(np.array(grid),
                          np.array([heavy[n].mean for n in grid]))
        slope = rate_fit(curve, (10, 300)).exponent
    ok = within and abs(slope - (-1.0)) <= 0.25 and sw.elapsed < 120.0
    report(11, ok,
           f"short lags within 3 stderr: {within}, heavy-tail slope "
           f"{slope:.3f} ({sw.elapsed:.2f}s)")


def test_criterion_12_entrance_time_tail(zeta_one):
    m = build_map(zeta_one)
    with stopwatch() as sw:
        rep = entrance_tail(m, zeta_one.d[1], 1000, 2_000_000, seed=3,
                            fit_window=(100, 1000))
    slope = rep.fit.exponent
    ok = -1.2 <= slope <= -0.8 and sw.elapsed < 120.0
    report(12, ok, f"entrance survival slope {slope:.3f} ({sw.elapsed:.2f}s)")


# ----------------------------------------------------------------------
# the sharp claims at higher degrees, where e_n - pi_1 is far below pi_1
# ----------------------------------------------------------------------

@pytest.fixture(scope="module", params=[3.0, 4.0], ids=["d3", "d4"])
def high_degree(request):
    return request.param, build_chain(ZetaTailLaw(request.param), 20001)


def test_criterion_13_lemma2_ratio_at_high_degree(high_degree):
    d, chain = high_degree
    with stopwatch() as sw:
        curve = deviation_tail_ratio(chain, [1000, 3000, 10000])
    worst = float(np.abs(curve.values - 1.0).max())
    ok = worst <= 0.1 and sw.elapsed < 30.0
    report(13, ok, f"d={d}: Lemma-2 ratios {np.round(curve.values, 5).tolist()} "
                   f"({sw.elapsed:.2f}s)")


def test_criterion_14_sharp_constant_at_high_degree(high_degree):
    d, chain = high_degree
    with stopwatch() as sw:
        curve, predicted = correlation_constant(
            chain, point_mass(1), indicator(1, 1), [1000, 3000, 10000]
        )
    gap = abs(float(curve.values[-1]) - predicted) / predicted
    ok = gap <= 0.1 and sw.elapsed < 30.0
    report(14, ok, f"d={d}: C_n {curve.values[-1]:.6g} vs predicted "
                   f"{predicted:.6g} (gap {100 * gap:.2f}%, {sw.elapsed:.2f}s)")


def test_criterion_15_correlation_is_the_deviation(high_degree):
    d, chain = high_degree
    grid = [10, 100, 1000, 3000, 10000]
    corr = correlation_curve(chain, point_mass(1), indicator(1, 1), grid)
    ratio = deviation_tail_ratio(chain, grid)
    dev = ratio.values * chain.d_tail[grid] / chain.m1 ** 2
    worst = float(np.max(np.abs(corr.values - dev) / np.abs(dev)))
    covered = bool(np.all(corr.bounds < 1e-10 * np.abs(corr.values)))
    ok = worst <= 1e-12 and covered
    report(15, ok, f"d={d}: correlation vs e_n - pi_1 relative gap {worst:.1e}, "
                   f"bound/value {float(np.max(corr.bounds / corr.values)):.1e}")
