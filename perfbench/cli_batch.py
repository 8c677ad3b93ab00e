"""cli-batch: an in-process loop over ``renewallab.cli.main``.

A seeded mix of all fifteen documented commands at small sizes, each writing
its artifacts.  Small N is where a faster asymptotic route can be slower, and
this is the only workload that runs the spectral layer, config parsing and
the artifact writers.  The mix is stratified: every command gets one
operation per (law degree, truncation) pair, so the seed changes grids,
points, orbit lengths, generator seeds and order, but not how much of each
kind of work a pass does.  ``map kac|frequency|correlate`` keep the
documented ``"sampler": "float"`` in a quarter of their operations; the
package rejects it (a known defect), which counts as failed operations.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from pathlib import Path

from renewallab import cli

from ops import Op, Outcome, against, load_refs

SIZES = (500, 1000, 2000, 4000)
DEGREES = (1.0, 1.5, 3.0, 4.0)
NULL_DEGREES = (-0.75, -0.5, -0.25, 0.0)
ORBITS = (20_000, 30_000, 40_000, 50_000)
FLOAT_ORBIT = 4000  # float-orbit steps cost ~100x exact ones; keep them small
BURN_IN = 1000
FLOAT_SLOTS = (0, 5, 10, 15)  # one per truncation and per degree
COMMANDS = (
    "chain info", "rates distance", "rates correlation", "rates lemma2",
    "rates constant", "rates null", "spectral factorize", "spectral eigen",
    "spectral gf", "map simulate", "map correlate", "map entrance", "map kac",
    "map frequency", "series probe",
)
#: Degrees whose deviation keeps its digits; ``rel_err_max`` reads only
#: these, so it measures rounding rather than cancellation.
NO_CANCELLATION = (1.0, 1.5)
#: rates output that pairs with a reference: csv name, reference series
REFERENCED = {
    "rates correlation": ("rates_correlation.csv", "dev"),
    "rates lemma2": ("rates_lemma2.csv", "ratio"),
    "rates constant": ("rates_constant.csv", "scaled"),
}


def _chain(law: dict, n: int) -> dict:
    return {"chain": {"law": law, "truncation": n}}


def _zeta(d: float) -> dict:
    return {"type": "zeta", "degree": d}


def _disk_points(rng, count: int, radius: float) -> list:
    """``count`` points spread uniformly over the disk ``|z| <= radius``."""
    out = []
    for _ in range(count):
        z = cmath.rect(radius * math.sqrt(rng.random()), rng.uniform(0.0, 2 * math.pi))
        out.append([round(z.real, 6), round(z.imag, 6)])
    return out


class _Mix:
    """Draws the configs of one command's sixteen operations."""

    def __init__(self, rng, ref_grid):
        self.rng = rng
        self.ref_grid = ref_grid

    def shuffled(self, values):
        out = list(values) * (16 // len(values))
        self.rng.shuffle(out)
        return out

    def grid(self, limit: int) -> dict:
        pool = [n for n in self.ref_grid if n <= limit]
        top = pool[-1]
        return {"points": sorted(self.rng.sample(pool[:-1], 3)) + [top]}

    def configs(self, command: str) -> list:
        orbits = self.shuffled(ORBITS)
        dims = self.shuffled((100, 200, 300, 400))
        out = []
        for k in range(16):
            n, d = SIZES[k % 4], DEGREES[k // 4]
            base = _chain(_zeta(d), n)
            seed = self.rng.getrandbits(32)
            floated = k in FLOAT_SLOTS
            orbit = {"sampler": "float", "burn_in": BURN_IN} if floated else \
                {"sampler": "chain", "burn_in": BURN_IN}
            length = FLOAT_ORBIT if floated else orbits[k]
            evolve_top = (n - 1) // 2
            if command == "chain info":
                cfg = base
            elif command == "rates distance":
                g = self.grid(evolve_top)
                cfg = {**base, "nu": {"kind": "point", "state": 1}, "grid": g,
                       "fit_window": [g["points"][0], g["points"][-1]]}
            elif command in ("rates correlation", "rates constant"):
                cfg = {**base, "nu": {"kind": "point", "state": 1},
                       "u": {"kind": "indicator", "states": [1], "size": 10},
                       "grid": self.grid(evolve_top)}
            elif command == "rates lemma2":
                cfg = {**base, "grid": self.grid(n)}
            elif command == "rates null":
                cfg = {**_chain(_zeta(NULL_DEGREES[k // 4]), n),
                       "nu": {"kind": "point", "state": 1 + k % 2},
                       "u": {"kind": "indicator", "states": [1], "size": 2},
                       "grid": self.grid((n - 3) // 2)}
            elif command == "spectral factorize":
                cfg = {**base, "dimension": dims[k],
                       "z_points": _disk_points(self.rng, 2, 0.95)}
            elif command == "spectral eigen":
                cfg = {**base, "dimension": dims[k],
                       "lambdas": _disk_points(self.rng, 2, 0.9)}
            elif command == "spectral gf":
                cfg = {**base, "z_points": _disk_points(self.rng, 3, 0.9),
                       "i": self.rng.randint(1, 5), "j": self.rng.randint(1, 5)}
            elif command == "map simulate":
                cfg = {**base, **orbit, "length": length, "seed": seed}
            elif command == "map correlate":
                cfg = {**base, **orbit, "orbit_length": length, "seed": seed,
                       "u": {"kind": "indicator", "states": [1], "size": 10},
                       "v": {"kind": "indicator", "states": [2], "size": 10},
                       "lags": {"points": [1, 2, 5, 10]}}
            elif command == "map entrance":
                cfg = {**base, "a": (0.01, 0.005, 0.002, 0.001)[k % 4],
                       "n_max": dims[k], "samples": orbits[k], "seed": seed}
            elif command in ("map kac", "map frequency"):
                cfg = {**base, **orbit, "orbit_length": length, "seed": seed}
            else:  # series probe
                kind = ("convolution", "kaluza", "zeros")[k % 3]
                cfg = {"probe": kind}
                if kind == "convolution":
                    cfg.update(gamma=(1.5, 2.0, 3.0)[self.rng.randrange(3)],
                               n_list=[10, 100, 1000, 10_000])
                else:
                    cfg.update(base)
                if kind == "zeros":
                    cfg.update(prefix=dims[k] // 2 + 50, points=360)
            defect = "float-sampler" if floated and command in (
                "map correlate", "map kac", "map frequency") else None
            out.append((command, cfg, 0, defect, d))
        return out


def _documented_errors() -> list:
    """Operations whose documented outcome is a nonzero exit."""
    zeta1 = _chain(_zeta(1.0), 1000)
    return [
        ("rates lemma2", {**_chain({"type": "geometric", "q": 0.5}, 1000),
                          "grid": {"points": [10, 100]}}, 3, None, None),
        ("rates null", {**zeta1, "nu": {"kind": "point", "state": 1},
                        "u": {"kind": "indicator", "states": [1], "size": 2},
                        "grid": {"points": [10, 100]}}, 3, None, None),
        ("rates distance", {**zeta1, "nu": {"kind": "point", "state": 1},
                            "grid": {"points": [10, 1000]}}, 4, None, None),
        ("map kac", {**zeta1, "orbit_len": 1000}, 2, None, None),
    ]


def setup(seed: int, root: Path):
    """Draws the mix and writes one config file per operation under ``root``."""
    refs = load_refs()
    rng = random.Random(f"cli-batch:{seed}")
    mix = _Mix(rng, refs["grid"])
    specs = [spec for command in COMMANDS for spec in mix.configs(command)]
    specs += _documented_errors()
    rng.shuffle(specs)
    (root / "configs").mkdir(parents=True, exist_ok=True)
    ops = []
    for k, (command, cfg, expected, defect, degree) in enumerate(specs):
        path = root / "configs" / f"op{k:03d}.json"
        path.write_text(json.dumps(cfg, sort_keys=True))
        ops.append((command, path, root / "out" / f"op{k:03d}", expected, defect,
                    degree))
    return {"refs": refs, "ops": ops}


def _invoke(argv: list):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue()


def _artifacts(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def _make_check(command, out, expected, degree, refs):
    first = {}

    def check(result) -> Outcome:
        code, err = result
        files = _artifacts(out)
        # the next pass must write every artifact anew
        shutil.rmtree(out, ignore_errors=True)
        digest = {name: hashlib.sha256(b).hexdigest() for name, b in files.items()}
        outcome = Outcome(counts={"artifact_bytes": sum(map(len, files.values())),
                                  "nonzero_exits": int(code != 0)})
        if code != expected:
            last = err.strip().splitlines()[-1] if err.strip() else ""
            outcome.problems.append(f"exit {code}, documented {expected}: {last}")
        if first.setdefault("digest", digest) != digest:
            outcome.problems.append("artifacts differ from the first run")
        if code == 0 and command in REFERENCED and degree in NO_CANCELLATION:
            name, series = REFERENCED[command]
            rows = files[name].decode().splitlines()[1:]
            n_grid = [int(r.split(",")[0]) for r in rows]
            values = [float(r.split(",")[1]) for r in rows]
            ref = refs["zeta"][repr(degree)][series]
            outcome.rel_err = against(n_grid, values, None, refs["grid"], ref,
                                      command).rel_err
        return outcome

    return check


def operations(s) -> list[Op]:
    ops = []
    for command, path, out, expected, defect, degree in s["ops"]:
        argv = command.split() + ["--config", str(path), "--out", str(out), "--quiet"]
        ops.append(Op("cli." + command.replace(" ", "_"),
                      lambda argv=argv: _invoke(argv),
                      _make_check(command, out, expected, degree, s["refs"]),
                      defect))
    return ops
