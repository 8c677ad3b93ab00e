"""Generate the high-precision references behind ``rel_err_max``.

For the zeta laws ``p_n = n^-s / zeta(s)`` with ``s = d + 2`` and
``d in {1, 1.5, 3, 4}`` it writes, on a fixed log-spaced grid of ``n`` up to
``REF_N_MAX``:

* ``dev``: the deviation ``e_n - pi_1`` of the renewal sequence from its limit
  (the correlation-curve route with ``nu = delta_1`` and ``u = 1_{1}``);
* ``ratio``: the Lemma-2 ratio ``m1^2 (e_n - pi_1) / E_n`` with
  ``E_n = sum_{l > n} d_l`` (the ``deviation_tail_ratio`` route);
* ``scaled``: ``C_n = (e_n - pi_1) n^d zeta(s)`` (the
  ``correlation_constant`` route; ``zeta(s)`` undoes the tail amplitude).

It also writes the survival values ``d_i = zeta(3, i + 1) / zeta(3)`` of the
``d = 1`` law, which are the cell edges of its interval map.

Every constant is computed with mpmath at ``DIGITS`` significant digits.
The renewal recursion ``e_n = sum_k p_k e_{n-k}`` runs in exact integer
fixed point with ``BITS`` fractional bits, which is faster than mpf
arithmetic and loses at most ``n^2 2^-BITS`` in absolute terms.  Run time
is a few minutes on one core:

    python3 perfbench/make_refs.py            # writes perfbench/refs.json

Before writing, the script checks the package's own routes at ``d = 1``,
where no cancellation occurs, against the new references: they agree to
about 1e-7 relative at n = 2e4, the rounding the float recursion accumulates.
"""

from __future__ import annotations

import json
import math
import operator
import sys
import time
from pathlib import Path

import mpmath

DIGITS = 60
BITS = 240
DEGREES = (1.0, 1.5, 3.0, 4.0)
REF_N_MAX = 20_000
BREAKPOINT_DEGREE = 1.0
BREAKPOINT_I_MAX = 21_000
SIG = 25  # significant digits written per value

HERE = Path(__file__).resolve().parent


def ref_grid() -> list[int]:
    """Log-spaced integers from 10 to REF_N_MAX plus the decade anchors
    the workloads report at."""
    lo, hi, count = 1.0, math.log10(REF_N_MAX), 41
    pts = {round(10 ** (lo + k * (hi - lo) / (count - 1))) for k in range(count)}
    return sorted(pts | {1000, 3000, 10_000, REF_N_MAX})


def breakpoint_points() -> list[int]:
    hi, count = math.log10(BREAKPOINT_I_MAX), 61
    pts = {round(10 ** (k * hi / (count - 1))) for k in range(count)}
    return sorted(pts | {BREAKPOINT_I_MAX})


def _fmt(x) -> str:
    return mpmath.nstr(x, SIG, min_fixed=0, max_fixed=0)


def zeta_references(d: float, grid: list[int]) -> dict:
    s = mpmath.mpf(d) + 2
    zs = mpmath.zeta(s)
    m1 = mpmath.zeta(s - 1) / zs
    pi1 = 1 / m1
    one = 1 << BITS
    n_max = grid[-1]
    p = [0] + [int(mpmath.floor(mpmath.ldexp(mpmath.power(k, -s) / zs, BITS)))
               for k in range(1, n_max + 1)]
    e = [one]
    for n in range(1, n_max + 1):
        e.append(sum(map(operator.mul, p[1 : n + 1], reversed(e))) >> BITS)
    pi1_fixed = int(mpmath.floor(mpmath.ldexp(pi1, BITS)))
    dev, ratio, scaled = [], [], []
    for n in grid:
        dn = mpmath.ldexp(mpmath.mpf(e[n] - pi1_fixed), -BITS)
        # E_n = sum_{k >= n+2} (k - n - 1) k^-s / zeta(s)
        big_e = (mpmath.zeta(s - 1, n + 2) - (n + 1) * mpmath.zeta(s, n + 2)) / zs
        dev.append(_fmt(dn))
        ratio.append(_fmt(m1 ** 2 * dn / big_e))
        scaled.append(_fmt(dn * mpmath.power(n, d) * zs))
    return {"m1": _fmt(m1), "pi1": _fmt(pi1), "dev": dev, "ratio": ratio,
            "scaled": scaled}


def breakpoint_references(points: list[int]) -> dict:
    s = mpmath.mpf(BREAKPOINT_DEGREE) + 2
    zs = mpmath.zeta(s)
    return {
        "degree": BREAKPOINT_DEGREE,
        "i": points,
        "d": [_fmt(mpmath.zeta(s, i + 1) / zs) for i in points],
    }


def check_seed_routes(refs: dict) -> float:
    """Worst relative gap of the package's d = 1 routes against the
    references; d = 1 has no cancellation, so the gap must be tiny."""
    sys.path.insert(0, str(HERE.parent / "src"))
    import renewallab as rl

    grid = refs["grid"]
    zr = refs["zeta"]["1.0"]
    chain = rl.build_chain(rl.ZetaTailLaw(1.0), 2 * grid[-1] + 1)
    ratio = rl.deviation_tail_ratio(chain, grid).values
    corr = rl.correlation_curve(chain, rl.point_mass(1), rl.indicator([1], 10),
                                grid).values
    worst = 0.0
    for k in range(len(grid)):
        for got, want in ((ratio[k], zr["ratio"][k]), (corr[k], zr["dev"][k])):
            worst = max(worst, abs(got - float(want)) / abs(float(want)))
    return worst


def main() -> int:
    mpmath.mp.dps = DIGITS
    grid = ref_grid()
    refs = {
        "digits": DIGITS,
        "fixed_point_bits": BITS,
        "grid": grid,
        "zeta": {},
        "breakpoints": breakpoint_references(breakpoint_points()),
    }
    for d in DEGREES:
        t0 = time.perf_counter()
        refs["zeta"][repr(d)] = zeta_references(d, grid)
        print(f"d = {d}: {time.perf_counter() - t0:.1f} s", flush=True)
    gap = check_seed_routes(refs)
    print(f"package routes at d = 1 against the references: worst relative gap {gap:.2e}")
    if not gap < 1e-6:
        print("references disagree with the d = 1 routes; not written", file=sys.stderr)
        return 1
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {HERE / 'refs.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
