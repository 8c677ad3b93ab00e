"""orbit-mc: Monte Carlo along interval-map orbits.

The maps layer does all the work here and the evolution routes none.  The
two samplers load that layer in opposite ways: the exact coded-orbit
sampler is vectorized, the float-orbit sampler is a Python loop over map
steps.  Every generator seed comes from the workload seed.
"""

from __future__ import annotations

import random

import numpy as np

import renewallab as rl
from ops import Op, Outcome, rel_err, load_refs

#: A mean more than this many standard errors from its exact value fails;
#: at 6 the chance per estimate is below 1e-7, so no seed trips it.
SIGMAS = 6.0
MC_LAGS = (10, 18, 32, 56, 100, 178, 300)


def setup(seed: int, root):
    """Chains, maps and generator seeds; ``root`` is unused."""
    refs = load_refs()["breakpoints"]
    zeta = rl.build_chain(rl.ZetaTailLaw(refs["degree"]), 21_000)
    geo = rl.build_chain(rl.GeometricLaw(0.5), 2000)
    rng = random.Random(f"orbit-mc:{seed}")
    return {
        "refs": refs,
        "zeta": zeta,
        "zeta_map": rl.build_map(zeta),
        "geo_map": rl.build_map(geo),
        # u = 1_{1} - pi_1 has stationary mean zero on either chain
        "u_zeta": rl.Observable([0.0, 1.0 - zeta.pi1], limit=-zeta.pi1),
        "u_geo": rl.Observable([0.0, 1.0 - geo.pi1], limit=-geo.pi1),
        "seeds": [rng.getrandbits(63) for _ in range(8)],
    }


def _breakpoints_check(refs):
    def check(m) -> Outcome:
        worst = max(rel_err(m.breakpoints[i], want)
                    for i, want in zip(refs["i"], refs["d"]))
        return Outcome(rel_err=worst)

    return check


def _descends(states) -> list:
    """Coded orbits obey the descent rule: state j >= 2 is followed by
    j - 1 wherever neither step is censored (-1)."""
    a, b = states[:-1], states[1:]
    live = (a >= 2) & (b != -1)
    bad = int(np.count_nonzero(b[live] != a[live] - 1))
    return [f"{bad} steps break the descent rule"] if bad else []


def _stream_check(result) -> Outcome:
    states, censored = result
    problems = _descends(states)
    if censored != int(np.count_nonzero(states == -1)):
        problems.append("censored count disagrees with the sentinels")
    return Outcome(problems)


def _kac_check(rep) -> Outcome:
    gap = abs(rep.product - 1.0)
    return Outcome() if gap <= 0.01 else Outcome([f"Kac product off by {gap:.3g}"])


def _frequency_check(rep) -> Outcome:
    row = rep.transition_stderr[0]
    dev = np.abs(rep.transition_hat[0] - rep.transition_exact[0])
    worst = float(np.max(dev[row > 0] / row[row > 0]))
    problems = [] if worst <= SIGMAS else [f"row-1 frequency {worst:.2f} stderr off"]
    descent = rep.transition_hat[1:, :]
    if not np.array_equal(descent, rep.transition_exact[1:, :]):
        problems.append("descent rows are not deterministic")
    return Outcome(problems)


def _finite_estimates(est) -> Outcome:
    bad = [n for n, e in est.items() if not (np.isfinite(e.mean) and e.stderr > 0)]
    return Outcome([f"lags {bad} have no finite estimate"] if bad else [])


def _geometric_zero(est) -> Outcome:
    """The geometric chain is stationary after one step, so every lag >= 1
    covariance is exactly zero."""
    off = {n: e.mean / e.stderr for n, e in est.items()}
    bad = {n: round(z, 2) for n, z in off.items() if abs(z) > SIGMAS}
    return Outcome([f"geometric lags off by {bad} stderr"] if bad else [])


def _survival_check(rep) -> Outcome:
    v = rep.curve.values
    ok = v[0] <= 1.0 and v[-1] >= 0.0 and bool(np.all(np.diff(v) <= 0.0))
    return Outcome() if ok else Outcome(["entrance survival is not monotone in [0, 1]"])


def operations(s) -> list[Op]:
    zm, gm, seeds = s["zeta_map"], s["geo_map"], s["seeds"]
    return [
        Op("maps.build_map", lambda: rl.build_map(s["zeta"]),
           _breakpoints_check(s["refs"])),
        Op("maps.sample_states",
           lambda: rl.sample_states(s["zeta"], 10_000_000, seeds[0]), _stream_check),
        Op("maps.map_states",
           lambda: rl.map_states(zm, 100_000, seeds[1], burn_in=1000), _stream_check),
        Op("maps.map_states",
           lambda: rl.map_states(gm, 100_000, seeds[2], burn_in=1000), _stream_check),
        Op("maps.kac_check", lambda: rl.kac_check(zm, 2_000_000, seeds[3]), _kac_check),
        Op("maps.markov_frequency_check",
           lambda: rl.markov_frequency_check(zm, 2_000_000, seeds[4], i_max=10),
           _frequency_check),
        Op("maps.mc_correlation",
           lambda: rl.mc_correlation(zm, s["u_zeta"], s["u_zeta"], MC_LAGS,
                                     10_000_000, seeds[5]),
           _finite_estimates),
        Op("maps.mc_correlation",
           lambda: rl.mc_correlation(gm, s["u_geo"], s["u_geo"], [1, 2, 5],
                                     2_000_000, seeds[6]),
           _geometric_zero),
        Op("maps.entrance_tail",
           lambda: rl.entrance_tail(zm, s["zeta"].d[1], 1000, 2_000_000, seeds[7]),
           _survival_check),
    ]
