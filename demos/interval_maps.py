"""The interval map behind the chain, and sampling both ways.

Partitioning [0, 1] at the survival values d_n turns the chain into a
piecewise linear map: cell A_1 = [d_1, 1] maps onto [0, 1] (a return), and
each deeper cell maps onto the next shallower one (the descent).  Orbit
itineraries are then chain paths, which we exploit twice: an exact coded
sampler that never touches floats, and a float-orbit sampler for the map
itself with censoring where the mantissa runs out.  The survival of the
first entrance into the top cell needs neither: from a stationary start it
is a closed form in the chain's tails, exact up to rounding.
"""

import numpy as np

from renewallab import (
    GeometricLaw,
    Observable,
    ZetaTailLaw,
    build_chain,
    build_map,
    entrance_tail,
    invariant_density,
    kac_check,
    markov_frequency_check,
    mc_correlation,
    orbit_symbols,
    pf_check,
)


def main():
    geo = build_chain(GeometricLaw(0.5), 2000)
    m = build_map(geo)
    print("== the dyadic return law yields the doubling map ==")
    print(f"  breakpoints d_0..d_4: {m.breakpoints[:5]}")
    print(f"  branch slopes       : {1.0 / m.slopes[1]:.0f}x on every cell")
    syms = orbit_symbols(m, 0.2, 12)
    print(f"  orbit code of 0.2   : {[int(s) for s in syms]}")
    print()

    heavy = build_chain(ZetaTailLaw(1.0), 21000)
    mh = build_map(heavy)
    print("== for p_n ~ n^-3 the slopes approach 1 near 0 ==")
    slopes = 1.0 / mh.slopes[2:7]
    print("  expansion on cells 2..6: "
          + ", ".join(f"{s:.3f}" for s in slopes))
    print("  long laminar descents near the origin, quick reinjection at 1")
    print()

    print("== occupation * mean return = 1 along one orbit ==")
    rep = kac_check(mh, 1_000_000, seed=11)
    print(f"  top-cell occupation {rep.rho_e:.5f}, mean return"
          f" {rep.mean_return:.4f}, product {rep.product:.5f}")
    print(f"  completed returns: {rep.n_returns}, censored steps:"
          f" {rep.censored}")
    print()

    print("== itinerary frequencies reproduce the transition rows ==")
    freq = markov_frequency_check(mh, 1_000_000, seed=21, i_max=6)
    print("  state:   " + "  ".join(f"{j:7d}" for j in range(1, 7)))
    print("  p_j:     " + "  ".join(f"{v:7.5f}" for v in
                                    freq.transition_exact[0]))
    print("  hat p_j: " + "  ".join(f"{v:7.5f}" for v in
                                    freq.transition_hat[0]))
    print()

    print("== correlation decay along map orbits, exact vs sampled ==")
    u = Observable([0.0, 1.0 - heavy.pi1], limit=-heavy.pi1)
    grid = [10, 32, 100, 300]
    est = mc_correlation(mh, u, u, grid, 2_000_000, seed=42)
    for n in grid:
        e = est[n]
        print(f"  lag {n:4d}: {e.mean: .3e} +/- {e.stderr:.1e}")
    print("  the decay is ~ 1/n for this law (degree 1)")
    print()

    print("== entrance times into the top cell from a stationary start ==")
    # exact, S(n) = pi_1 (d_n + d_{n+1} + E_{n+1}): samples and seed draw nothing
    rep = entrance_tail(mh, heavy.d[1], 1000, 1_000_000, seed=3,
                        fit_window=(100, 1000))
    print(f"  threshold snapped to d_1 = {rep.a_effective:.5f}")
    print(f"  survival at n=10: {rep.curve.at(10):.4f}, at n=100:"
          f" {rep.curve.at(100):.5f}")
    print(f"  tail slope over [1e2, 1e3]: {rep.fit.exponent:.3f}"
          f" (exact curve, rounding bound {rep.curve.bounds[-1]:.1e} at n=1000)")
    print()

    print("== the transfer matrix fixes the density and the law ==")
    tr = pf_check(heavy, 500)
    print(f"  density residual (row action) : {tr.density_residual:.2e}")
    print(f"  law residual (column action)  : {tr.law_residual:.2e}")
    h = invariant_density(heavy, 5)
    print(f"  density steps on cells 1..5   : "
          + ", ".join(f"{v:.4f}" for v in h[1:]))
    print(f"  dyadic chain density is flat  : "
          + str(np.array_equal(invariant_density(geo, 5)[1:], np.ones(5))))


if __name__ == "__main__":
    main()
