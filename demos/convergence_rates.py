"""How fast a heavy-tailed chain forgets where it started.

With a return law p_n ~ n^-(d+2) the distance to the stationary law
decays like n^-d up to slowly varying corrections, never geometrically,
and never uniformly over starting points.  Each section below measures
one face of that statement with exact prefix evolution.
"""

import numpy as np

from renewallab import (
    ZetaTailLaw,
    build_chain,
    correlation_constant,
    correlation_curve,
    deviation_tail_ratio,
    distance_curve,
    indicator,
    log_grid,
    nonuniformity_probe,
    null_recurrent_ratio,
    point_mass,
    rate_fit,
)


def main():
    chain = build_chain(ZetaTailLaw(1.5), 40000)
    grid = log_grid(10, 10000, 25)

    print("== l1 distance from a point start, p_n ~ n^-3.5 ==")
    curve = distance_curve(chain, point_mass(1), grid)
    for n in (10, 100, 1000, 10000):
        k = int(np.flatnonzero(curve.n_grid == n)[0])
        print(f"  n={n:6d}: distance {curve.values[k]:.3e}"
              f"  (tail + rounding bound {curve.bounds[k]:.1e})")
    fit = rate_fit(curve, (1000, 10000))
    print(f"  log-log slope over [1e3, 1e4]: {fit.exponent:.3f}"
          f"  (tail degree 1.5)")
    print()

    print("== scaled distance n^1.5 * dist settles to a constant ==")
    scaled = curve.values * curve.n_grid.astype(float) ** 1.5
    for n in (100, 1000, 10000):
        k = int(np.flatnonzero(curve.n_grid == n)[0])
        print(f"  n={n:6d}: {scaled[k]:.4f}")
    print()

    heavy = build_chain(ZetaTailLaw(1.0), 21000)
    print("== sharp prefactor for the degree-1 law ==")
    ratio = deviation_tail_ratio(heavy, [100, 1000, 10000])
    print("  m1^2 (e_n - pi_1) / E_n on a growing grid:")
    for n, r in zip(ratio.n_grid, ratio.values):
        print(f"    n={n:6d}: {r:.5f}")
    c_curve, predicted = correlation_constant(
        heavy, point_mass(1), indicator(1, 100), [1000, 10000]
    )
    print(f"  scaled autocorrelation C_n at n=1e4: {c_curve.values[-1]:.5f}"
          f" vs predicted pi_1^2/2 = {predicted:.5f}")
    print()

    print("== no uniform rate: late starters are still on their way down ==")
    probe = nonuniformity_probe(heavy, [1, 10, 100, 1000], 50)
    for i, dist in probe.items():
        print(f"  start at {i:5d}: distance after 50 steps {dist:.4f}")
    print("  mass that starts deeper than the horizon has moved nowhere yet")
    print()

    print("== null-recurrent scaling for p_n ~ n^-1.5 ==")
    null = build_chain(ZetaTailLaw(-0.5), 21000)
    r = null_recurrent_ratio(null, point_mass(2), indicator(1, 2),
                             [10, 100, 1000, 10000])
    print("  (nu P^n . u) / ((nu.1)(u.v) e_n) from a shifted start:")
    for n, v in zip(r.n_grid, r.values):
        print(f"    n={n:6d}: {v:.5f}")

    print()
    print("== correlation of two observables decays like the distance ==")
    u = indicator([1, 2, 3], 50)
    corr = correlation_curve(heavy, point_mass(1), u, log_grid(10, 3000, 15))
    fit = rate_fit(corr, (300, 3000))
    print(f"  slope for the degree-1 law over [300, 3000]: {fit.exponent:.3f}")


if __name__ == "__main__":
    main()
