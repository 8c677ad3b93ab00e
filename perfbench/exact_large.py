"""exact-large: exact prefix arithmetic at large horizons.

The quadratic evolution and series routes do almost all the work here, and
the maps layer none.  The three routes to ``e_n - pi_1`` are checked against
the references at every degree: error within the reported bound plus a
stated rounding allowance, and at least one correct digit.  At degrees 3
and 4 the deviation loses all its digits to cancellation (a known defect):
those operations fail as expected, and ``rel_err_max`` shows how far off
they are.  They stay in the mix.
"""

from __future__ import annotations

import random

import numpy as np

import renewallab as rl
from ops import Op, Outcome, against, load_refs

DEGREES = (1.0, 1.5, 3.0, 4.0)
DISTANCE_N = 80_001  # horizon 4e4 needs truncation >= 2 * 4e4 + 1
DISTANCE_TOP = 40_000
RATIO_N = 20_001
RATIO_TOP = 20_000
CORR_TOP = 5289
SERIES_LADDER = (4000, 12_650, 40_000)  # reciprocal and renewal_sequence
CONVOLVE_LADDER = (2000, 6325, 20_000)  # compensated loop, ~4x costlier per N^2


def setup(seed: int, root):
    """Chains and seeded grids; ``root`` is unused (nothing is written)."""
    refs = load_refs()
    rng = random.Random(f"exact-large:{seed}")
    ref_n = refs["grid"]

    def pick(pool, k, top):
        return sorted(rng.sample([n for n in pool if n < top], k)) + [top]

    distance_pool = [int(v) for v in rl.log_grid(100, DISTANCE_TOP - 1, 40)]
    return {
        "refs": refs,
        "big": rl.build_chain(rl.ZetaTailLaw(1.5), DISTANCE_N),
        "by_degree": {d: rl.build_chain(rl.ZetaTailLaw(d), RATIO_N) for d in DEGREES},
        "moment": rl.build_chain(rl.ZetaTailLaw(2.5), 20_000),
        "null": rl.build_chain(rl.ZetaTailLaw(-0.5), 20_002),
        "geo": rl.build_chain(rl.GeometricLaw(0.5), 2000),
        "half": rl.build_chain(rl.FiniteLaw((0.5, 0.5)), 2000),
        "distance_grid": pick(distance_pool, 11, DISTANCE_TOP),
        "ratio_grid": pick(ref_n, 9, RATIO_TOP),
        "corr_grid": pick(ref_n, 7, CORR_TOP),
    }


def _distance_check(curve) -> Outcome:
    slope = rl.rate_fit(curve, (1000, DISTANCE_TOP)).exponent
    if -1.65 <= slope <= -1.35:
        return Outcome()
    return Outcome([f"distance slope {slope:.3f} outside [-1.65, -1.35]"])


def _route_check(refs, d, series, what):
    """Check a curve of one route to ``e_n - pi_1`` against ``series``."""
    zr = refs["zeta"][repr(d)]
    return lambda c: against(c.n_grid, c.values, c.bounds, refs["grid"],
                             zr[series], f"{what} d={d}", zr["dev"])


def _constant_check(refs, d):
    check = _route_check(refs, d, "scaled", "C_n")
    return lambda result: check(result[0])


def _null_check(curve) -> Outcome:
    r = float(curve.values[-1])
    return Outcome() if abs(r - 1.0) <= 0.05 else Outcome(
        [f"null-recurrent ratio {r:.4f} at n={int(curve.n_grid[-1])}"])


def _exactly_one(curve) -> Outcome:
    gap = float(np.abs(curve.values - 1.0).max())
    return Outcome() if gap == 0.0 else Outcome([f"delta_1 ratio gap {gap:.2e}"])


def _moment_check(result) -> Outcome:
    gap = float(result[2])
    return Outcome() if gap <= 1e-8 else Outcome([f"second-moment gap {gap:.2e}"])


def _routes_agree(s):
    def call():
        worst = 0.0
        for chain in (s["geo"], s["half"], s["by_degree"][1.0]):
            direct = rl.renewal_sequence(chain, 1000).values
            series = rl.partial_sums(rl.reciprocal(rl.TruncatedSeries(chain.d[:1001])))
            worst = max(worst, float(np.abs(direct - series.coeffs).max()))
        return worst

    return call


def _geometric_exact(s):
    def call():
        geo = s["geo"]
        e = rl.renewal_sequence(geo, 200).values
        return max(float(np.abs(e[1:] - 0.5).max()),
                   float(np.abs(geo.pi[1:] - geo.p[1:]).max()))

    return call


def _at_most(limit, what):
    return lambda gap: Outcome() if gap <= limit else Outcome(
        [f"{what} gap {gap:.2e} above {limit:g}"])


def operations(s) -> list[Op]:
    refs = s["refs"]
    big = s["big"]
    ops = [Op("evolve.distance_curve",
              lambda: rl.distance_curve(big, rl.point_mass(1), s["distance_grid"]),
              _distance_check)]
    for d in DEGREES:
        chain = s["by_degree"][d]
        defect = "cancellation" if d >= 3 else None
        ops += [
            Op("evolve.deviation_tail_ratio",
               lambda c=chain: rl.deviation_tail_ratio(c, s["ratio_grid"]),
               _route_check(refs, d, "ratio", "lemma-2 ratio"), defect),
            Op("evolve.correlation_curve",
               lambda c=chain: rl.correlation_curve(
                   c, rl.point_mass(1), rl.indicator([1], 10), s["corr_grid"]),
               _route_check(refs, d, "dev", "correlation"), defect),
            Op("evolve.correlation_constant",
               lambda c=chain: rl.correlation_constant(
                   c, rl.point_mass(1), rl.indicator([1], 10), s["corr_grid"]),
               _constant_check(refs, d), defect),
        ]
    null = s["null"]
    ops += [
        Op("evolve.null_recurrent_ratio",
           lambda: rl.null_recurrent_ratio(null, rl.point_mass(2),
                                           rl.indicator([1], 2), [100, 1000, 10_000]),
           _null_check),
        Op("evolve.null_recurrent_ratio",
           lambda: rl.null_recurrent_ratio(null, rl.point_mass(1),
                                           rl.indicator([1], 1), [1, 10, 100, 1000]),
           _exactly_one),
        Op("chain.second_moment_identity",
           lambda: rl.second_moment_identity(s["moment"], 2), _moment_check),
        Op("evolve.renewal_routes", _routes_agree(s), _at_most(1e-10, "renewal route")),
        Op("evolve.geometric_exact", _geometric_exact(s), _at_most(1e-12, "geometric")),
    ]
    for n in CONVOLVE_LADDER:
        ops.append(Op("series.convolve",
                      lambda n=n: rl.convolve(big.p[1 : n + 1], big.d[: n + 1]),
                      size=n))
    for n in SERIES_LADDER:
        ops.append(Op("series.reciprocal",
                      lambda n=n: rl.reciprocal(big.d[: n + 1]), size=n))
    for n in SERIES_LADDER:
        ops.append(Op("evolve.renewal_sequence",
                      lambda n=n: rl.renewal_sequence(big, n), size=n))
    return ops
