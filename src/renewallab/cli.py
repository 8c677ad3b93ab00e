"""Command-line front end.

Every command reads a JSON descriptor (see :mod:`renewallab.config`),
computes one artifact set, and writes it under ``--out``:

* ``summary.json`` with the headline numbers, sorted keys, no timestamps;
* one CSV per curve or table, each with a header row and a
  ``<name>.csv.meta.json`` sidecar recording the config hash, the seed and
  the tool version.

Re-running a command with the same config and seed reproduces every output
byte for byte; floats are written with full round-trip precision and
nothing time- or host-dependent is recorded.  Writes go through a
temporary file in the target directory followed by an atomic rename.

Exit codes: 0 success, 2 malformed config or usage, 3 mathematical
precondition violated (for example ``rates lemma2`` on a geometric chain,
whose deviation decays faster than any power), 4 stored prefix too short.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .config import (
    CHAIN_SCHEMA, GRID, MEASURE_SCHEMA, OBSERVABLE_SCHEMA, Kinds, Leaf, bounded,
    chain_from_config, complex_points, config_hash, grid_from_config, integer,
    interval, list_of, load_config, measure_from_config, number,
    observable_from_config, read, string,
)
from .errors import (
    ConfigError, PreconditionError, PreconditionViolated, TruncationError, TruncationTooSmall,
)
from .evolve import (
    correlation_constant, correlation_curve, deviation_tail_ratio, distance_curve,
    null_recurrent_ratio, rate_fit,
)
from .maps import (
    BURN_IN, SAMPLER, coded_states, entrance_tail, kac_check, markov_frequency_check,
    mc_correlation,
)
from .series import convolution_power_probe, kaluza_check, zero_diagnostic
from .spectral import disk_scan, factorization_residual, gf_evaluate

__all__ = ["main"]


# ----------------------------------------------------------------------
# Deterministic writers
# ----------------------------------------------------------------------

def _atomic_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _plain(x):
    """Recursively coerce numpy scalars/arrays and complex numbers into
    JSON-representable values."""
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        # keep summaries strict JSON: no Infinity/NaN literals
        return x if np.isfinite(x) else repr(x)
    if isinstance(x, complex):
        return {"re": _plain(x.real), "im": _plain(x.imag)}
    return x


def _write_json(path: str, obj) -> None:
    text = json.dumps(_plain(obj), sort_keys=True, indent=2)
    _atomic_bytes(path, (text + "\n").encode())


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


class Ctx:
    """Per-invocation state: the config as read (``cfg``) and the hash of
    the file's descriptor, resolved seed, output sink."""

    def __init__(self, command, raw, cfg, out, seed, truncation, quiet):
        self.command = command
        self.cfg = cfg
        self.out = out
        self.seed = seed
        self.truncation = truncation
        self.quiet = quiet
        self.sha = config_hash(raw)
        self.artifacts = []

    def chain(self):
        return chain_from_config(self.cfg, self.truncation)

    def say(self, line: str) -> None:
        if not self.quiet:
            print(line)

    def _meta(self, columns) -> dict:
        return {
            "columns": list(columns),
            "command": self.command,
            "config_sha256": self.sha,
            "seed": self.seed,
            "tool_version": __version__,
        }

    def write_table(self, name: str, header, rows) -> None:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_cell(v) for v in row))
        path = os.path.join(self.out, name)
        _atomic_bytes(path, ("\n".join(lines) + "\n").encode())
        _write_json(path + ".meta.json", self._meta(header))
        self.artifacts.append(name)
        self.say(f"wrote {path}")

    def write_curve(self, name: str, curve) -> None:
        bounds = curve.bounds
        if bounds is None:
            bounds = np.zeros(curve.values.size)
        rows = zip(curve.n_grid.tolist(), curve.values.tolist(), bounds.tolist())
        self.write_table(name, ("n", "value", "tail_bound"), rows)


# ----------------------------------------------------------------------
# Command handlers.  Each returns the ``results`` block of summary.json
# and indexes ``ctx.cfg``, which its schema in COMMANDS has already read.
# ----------------------------------------------------------------------

def _fit_dict(fit):
    if fit is None:
        return None
    return {
        "exponent": fit.exponent,
        "intercept": fit.intercept,
        "window": list(fit.window),
        "rms_residual": fit.rms_residual,
    }


def cmd_chain_info(ctx: Ctx) -> dict:
    chain = ctx.chain()
    info = chain.describe()
    info["degree"] = chain.ergodic_degree
    info["positive_recurrent"] = chain.positive_recurrent
    ctx.say(f"{chain.classification} chain, m1={chain.m1!r}, pi1={chain.pi1!r}")
    return info


def _fitted_curve(ctx: Ctx, what: str, curve) -> dict:
    """Writes ``rates_<what>.csv`` and fits it over the optional
    ``fit_window``."""
    ctx.write_curve(f"rates_{what}.csv", curve)
    window = ctx.cfg["fit_window"]
    results = {
        "final_n": int(curve.n_grid[-1]),
        "final_value": float(curve.values[-1]),
        "fit": _fit_dict(None if window is None else rate_fit(curve, window)),
    }
    ctx.say(f"{what} at n={results['final_n']}: {results['final_value']!r}")
    return results


def _pair(ctx: Ctx):
    """The chain, the ``nu`` measure on it, the ``u`` observable and the grid."""
    chain = ctx.chain()
    nu = measure_from_config(ctx.cfg["nu"], chain)
    return chain, nu, observable_from_config(ctx.cfg["u"]), grid_from_config(ctx.cfg["grid"])


def cmd_rates_distance(ctx: Ctx) -> dict:
    chain = ctx.chain()
    nu = measure_from_config(ctx.cfg["nu"], chain)
    curve = distance_curve(chain, nu, grid_from_config(ctx.cfg["grid"]))
    return _fitted_curve(ctx, "distance", curve)


def cmd_rates_correlation(ctx: Ctx) -> dict:
    chain, nu, u, grid = _pair(ctx)
    return _fitted_curve(ctx, "correlation", correlation_curve(chain, nu, u, grid))


def cmd_rates_lemma2(ctx: Ctx) -> dict:
    chain = ctx.chain()
    curve = deviation_tail_ratio(chain, grid_from_config(ctx.cfg["grid"]))
    ctx.write_curve("rates_lemma2.csv", curve)
    lo, hi = ctx.cfg["band"]
    final = float(curve.values[-1])
    results = {
        "final_n": int(curve.n_grid[-1]),
        "final_ratio": final,
        "band": [lo, hi],
        "within_band": bool(lo <= final <= hi),
    }
    ctx.say(f"deviation/tail ratio at n={results['final_n']}: {final!r}")
    return results


def cmd_rates_constant(ctx: Ctx) -> dict:
    curve, predicted = correlation_constant(*_pair(ctx))
    ctx.write_curve("rates_constant.csv", curve)
    rel_tol = ctx.cfg["rel_tolerance"]
    final = float(curve.values[-1])
    gap = abs(final - predicted) / abs(predicted)
    results = {
        "final_n": int(curve.n_grid[-1]),
        "final_value": final,
        "predicted": float(predicted),
        "relative_gap": float(gap),
        "rel_tolerance": rel_tol,
        "pass": bool(gap <= rel_tol),
    }
    ctx.say(f"scaled correlation {final!r} vs predicted {predicted!r}")
    return results


def cmd_rates_null(ctx: Ctx) -> dict:
    curve = null_recurrent_ratio(*_pair(ctx))
    ctx.write_curve("rates_null.csv", curve)
    results = {
        "final_n": int(curve.n_grid[-1]),
        "final_ratio": float(curve.values[-1]),
    }
    ctx.say(f"null-recurrent ratio at n={results['final_n']}: "
            f"{results['final_ratio']!r}")
    return results


def cmd_spectral_factorize(ctx: Ctx) -> dict:
    chain = ctx.chain()
    dimension, tolerance = ctx.cfg["dimension"], ctx.cfg["tolerance"]
    rows = []
    worst = 0.0
    for z in ctx.cfg["z_points"]:
        res = factorization_residual(chain, z, dimension)
        worst = max(worst, res)
        rows.append((z.real, z.imag, res))
    ctx.write_table("spectral_factorize.csv", ("re_z", "im_z", "residual"), rows)
    results = {
        "dimension": dimension,
        "max_residual": worst,
        "tolerance": tolerance,
        "pass": bool(worst <= tolerance),
    }
    ctx.say(f"max factorization residual {worst!r} at N={dimension}")
    return results


def cmd_spectral_eigen(ctx: Ctx) -> dict:
    dimension = ctx.cfg["dimension"]
    rows = disk_scan(ctx.chain(), ctx.cfg["lambdas"], dimension)
    ctx.write_table("spectral_eigen.csv",
                    ("re_lambda", "im_lambda", "residual", "l1_partial_norm"), rows)
    worst = max(r[2] for r in rows)
    ctx.say(f"max interior eigen residual {worst!r} at N={dimension}")
    return {"dimension": dimension, "max_residual": float(worst)}


def cmd_spectral_gf(ctx: Ctx) -> dict:
    chain = ctx.chain()
    i, j = ctx.cfg["i"], ctx.cfg["j"]
    points = ctx.cfg["z_points"]
    rows = []
    for z, (p_val, f_val) in zip(points, gf_evaluate(chain, i, j, points)):
        p_val, f_val = complex(p_val), complex(f_val)
        rows.append((z.real, z.imag, p_val.real, p_val.imag, f_val.real, f_val.imag))
    ctx.write_table("spectral_gf.csv", ("re_z", "im_z", "re_p", "im_p", "re_f", "im_f"), rows)
    ctx.say(f"evaluated P_{i}{j} and F_{i}{j} at {len(rows)} points")
    return {"i": i, "j": j, "points": len(rows)}


def cmd_map_simulate(ctx: Ctx) -> dict:
    chain = ctx.chain()
    sampler, i_max = ctx.cfg["sampler"], ctx.cfg["i_max"]
    if not 1 <= i_max <= chain.truncation:
        raise PreconditionViolated(f"i_max must lie in [1, {chain.truncation}], the stored "
                                   f"prefix, got {i_max}")
    states, censored = coded_states(chain, sampler, ctx.cfg["length"], ctx.seed,
                                    ctx.cfg["burn_in"])
    valid = int(np.count_nonzero(states > 0))
    if valid == 0:
        raise TruncationTooSmall(f"all {censored} recorded steps are censored past the stored "
                                 f"prefix of {chain.truncation} states, so no frequency is "
                                 "defined; raise the truncation or the length")
    counts = np.bincount(states[(states > 0) & (states <= i_max)], minlength=i_max + 1)
    exact = chain.pi[1 : i_max + 1] if chain.positive_recurrent else np.full(i_max, np.nan)
    rows = [
        (s, int(counts[s]), counts[s] / valid, float(exact[s - 1]))
        for s in range(1, i_max + 1)
    ]
    ctx.write_table("map_simulate_occupation.csv",
                    ("state", "visits", "frequency", "exact"), rows)
    results = {
        "n_steps": int(states.size),
        "valid_steps": valid,
        "censored": int(censored),
        "sampler": sampler,
    }
    ctx.say(f"simulated {states.size} steps, {censored} censored")
    return results


def cmd_map_correlate(ctx: Ctx) -> dict:
    cfg = ctx.cfg
    estimates = mc_correlation(
        ctx.chain(), observable_from_config(cfg["u"]), observable_from_config(cfg["v"]),
        grid_from_config(cfg["lags"]), cfg["orbit_length"], ctx.seed,
        burn_in=cfg["burn_in"], sampler=cfg["sampler"], streams=cfg["streams"],
    )
    rows = [(n, est.mean, est.stderr, est.censored) for n, est in sorted(estimates.items())]
    ctx.write_table("map_correlate.csv", ("n", "mean", "stderr", "censored"), rows)
    results = {
        "estimates": {
            str(n): {
                "mean": est.mean,
                "stderr": est.stderr,
                "n_samples": est.n_samples,
                "censored": est.censored,
            }
            for n, est in estimates.items()
        },
        "sampler": cfg["sampler"],
        "streams": cfg["streams"],
    }
    ctx.say(f"estimated {len(rows)} lags from {cfg['orbit_length']}-step orbits")
    return results


def cmd_map_entrance(ctx: Ctx) -> dict:
    report = entrance_tail(ctx.chain(), ctx.cfg["a"], ctx.cfg["n_max"], ctx.cfg["samples"],
                           ctx.seed, fit_window=ctx.cfg["fit_window"])
    ctx.write_curve("map_entrance.csv", report.curve)
    results = {
        "a_effective": report.a_effective,
        "k": report.k,
        "n_samples": report.n_samples,
        "fit": _fit_dict(report.fit),
    }
    if report.fit is not None:
        ctx.say(f"entrance-tail exponent {report.fit.exponent!r}")
    return results


def cmd_map_kac(ctx: Ctx) -> dict:
    report = kac_check(ctx.chain(), ctx.cfg["orbit_length"], ctx.seed,
                       burn_in=ctx.cfg["burn_in"], sampler=ctx.cfg["sampler"])
    top = min(report.histogram.size - 1, ctx.cfg["histogram_max"])
    rows = [(k, int(report.histogram[k])) for k in range(1, top + 1)]
    ctx.write_table("map_kac_histogram.csv", ("length", "count"), rows)
    tolerance = ctx.cfg["tolerance"]
    gap = abs(report.product - 1.0)
    results = {
        "rho_e": report.rho_e,
        "mean_return": report.mean_return,
        "product": report.product,
        "n_returns": report.n_returns,
        "n_steps": report.n_steps,
        "censored": report.censored,
        "tolerance": tolerance,
        "pass": bool(gap <= tolerance),
    }
    ctx.say(f"occupation*mean_return = {report.product!r}")
    return results


def cmd_map_frequency(ctx: Ctx) -> dict:
    i_max, sigma = ctx.cfg["i_max"], ctx.cfg["sigma"]
    rep = markov_frequency_check(ctx.chain(), ctx.cfg["orbit_length"], ctx.seed, i_max=i_max,
                                 burn_in=ctx.cfg["burn_in"], sampler=ctx.cfg["sampler"])
    t_rows = []
    for r in range(i_max):
        for c in range(i_max):
            t_rows.append((
                r + 1, c + 1,
                rep.transition_hat[r, c],
                rep.transition_exact[r, c],
                rep.transition_stderr[r, c],
            ))
    ctx.write_table(
        "map_frequency_transitions.csv",
        ("row", "col", "hat", "exact", "stderr"),
        t_rows,
    )
    o_rows = [
        (s + 1, rep.occupation_hat[s], rep.occupation_exact[s],
         rep.occupation_stderr[s])
        for s in range(i_max)
    ]
    ctx.write_table(
        "map_frequency_occupation.csv",
        ("state", "hat", "exact", "stderr"),
        o_rows,
    )

    def worst(hat, exact, err):
        with np.errstate(invalid="ignore", divide="ignore"):
            dev = np.abs(hat - exact) / np.where(err > 0.0, err, np.nan)
        return 0.0 if np.all(np.isnan(dev)) else float(np.nanmax(dev))

    w_t = worst(rep.transition_hat, rep.transition_exact, rep.transition_stderr)
    w_o = worst(rep.occupation_hat, rep.occupation_exact, rep.occupation_stderr)
    results = {
        "n_steps": rep.n_steps,
        "censored": rep.censored,
        "max_transition_sigma": w_t,
        "max_occupation_sigma": w_o,
        "sigma": sigma,
        "pass": bool(w_t <= sigma and w_o <= sigma),
    }
    ctx.say(f"worst deviation {max(w_t, w_o)!r} standard errors")
    return results


def cmd_series_probe(ctx: Ctx) -> dict:
    probe = ctx.cfg["probe"]
    if probe == "convolution":
        gamma = ctx.cfg["gamma"]
        values = {}
        for n in ctx.cfg["n_list"]:
            value, regime = convolution_power_probe(gamma, n)
            values[str(n)] = value
        ctx.say(f"convolution power regime: {regime}")
        return {"gamma": gamma, "regime": regime, "values": values}
    chain = ctx.chain()
    if probe == "kaluza":
        ok = kaluza_check(chain.p[1:])
        ctx.say(f"kaluza (decreasing, log-convex): {ok}")
        return {"kaluza": bool(ok), "law": chain.law.describe()}
    prefix = ctx.cfg["prefix"]
    if prefix is None:  # the default depends on the chain
        prefix = min(chain.truncation, 2000)
    if not 2 <= prefix <= chain.truncation:
        raise ConfigError(f"'prefix' must lie in [2, {chain.truncation}], the truncation, "
                          f"got {prefix}")
    diag = zero_diagnostic(np.r_[1.0, -chain.p[1 : prefix + 1]],
                           radii=ctx.cfg["radii"], points=ctx.cfg["points"])
    ctx.say(f"min |1 - F(z)| sampled: {diag['min_abs']!r}")
    return diag


# ----------------------------------------------------------------------
# Command table, parser, entry point
# ----------------------------------------------------------------------

def _keys(**keys) -> dict:
    """Schema of a command's config: the shared chain block and ``keys``."""
    return {"chain": CHAIN_SCHEMA, **keys}


#: key of the commands that draw from a seeded generator
_SEED = {"seed": Leaf(integer, 0)}
#: keys of the commands that draw coded orbits
_ORBIT = {"burn_in": Leaf(integer, BURN_IN), "sampler": Leaf(string, SAMPLER), **_SEED}
_FIT = {"fit_window": Leaf(interval(int), None, nullable=True)}
#: blocks of the rates commands that pair an evolved measure with an observable
_PAIR = {"nu": MEASURE_SCHEMA, "u": OBSERVABLE_SCHEMA, "grid": GRID}
_POINTS = {"z_points": Leaf(complex_points)}

PROBE_SCHEMA = Kinds("probe", {
    "convolution": {"gamma": Leaf(number), "n_list": Leaf(list_of(bounded, nonempty=True))},
    "kaluza": _keys(),
    # the prefix defaults to min(truncation, 2000), read off the chain
    "zeros": _keys(radii=Leaf(list_of(number, nonempty=True), None, nullable=True),
                   points=Leaf(bounded, 720), prefix=Leaf(bounded, None)),
})

#: "group sub" -> (handler, schema of its config)
COMMANDS = {
    "chain info": (cmd_chain_info, _keys()),
    "rates distance": (
        cmd_rates_distance, _keys(**_FIT, nu=MEASURE_SCHEMA, grid=GRID)),
    "rates correlation": (cmd_rates_correlation, _keys(**_FIT, **_PAIR)),
    "rates lemma2": (
        cmd_rates_lemma2,
        _keys(band=Leaf(interval(float), (0.9, 1.1), nullable=True), grid=GRID)),
    "rates constant": (
        cmd_rates_constant, _keys(rel_tolerance=Leaf(number, 0.2), **_PAIR)),
    "rates null": (cmd_rates_null, _keys(**_PAIR)),
    "spectral factorize": (
        cmd_spectral_factorize,
        _keys(dimension=Leaf(bounded, 200), tolerance=Leaf(number, 1e-12), **_POINTS)),
    "spectral eigen": (
        cmd_spectral_eigen,
        _keys(dimension=Leaf(bounded, 400), lambdas=Leaf(complex_points))),
    "spectral gf": (
        cmd_spectral_gf, _keys(i=Leaf(bounded, 1), j=Leaf(bounded, 1), **_POINTS)),
    "map simulate": (
        cmd_map_simulate,
        _keys(length=Leaf(integer), i_max=Leaf(bounded, 10), **_ORBIT)),
    "map correlate": (
        cmd_map_correlate,
        _keys(orbit_length=Leaf(integer), streams=Leaf(integer, 1), **_ORBIT,
              u=OBSERVABLE_SCHEMA, v=OBSERVABLE_SCHEMA, lags=GRID)),
    "map entrance": (
        cmd_map_entrance,
        _keys(a=Leaf(number), n_max=Leaf(integer), samples=Leaf(integer), **_FIT, **_SEED)),
    "map kac": (
        cmd_map_kac,
        _keys(orbit_length=Leaf(integer), tolerance=Leaf(number, 0.01),
              histogram_max=Leaf(bounded, 30), **_ORBIT)),
    "map frequency": (
        cmd_map_frequency,
        _keys(orbit_length=Leaf(integer), i_max=Leaf(bounded, 10),
              sigma=Leaf(number, 3.0), **_ORBIT)),
    "series probe": (cmd_series_probe, PROBE_SCHEMA),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renewallab",
        description="Convergence-rate experiments for renewal chains",
        epilog="commands: " + ", ".join(COMMANDS),
    )
    parser.add_argument("group", help="command group, for example 'rates'")
    parser.add_argument("sub", help="command within the group, for example 'distance'")
    parser.add_argument("--config", required=True,
                        help="path to the JSON descriptor")
    parser.add_argument("--out", default=".",
                        help="output directory (default: current)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (unsigned 64-bit)")
    parser.add_argument("--truncation", type=int, default=None,
                        help="override the chain prefix length")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress lines on stdout")
    return parser


def _run(command: str, args) -> int:
    handler, schema = COMMANDS[command]
    raw = load_config(args.config)
    cfg = read(raw, schema)
    # a command without a seed key records seed 0
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("seed must be an unsigned 64-bit integer")
    os.makedirs(args.out, exist_ok=True)
    ctx = Ctx(command, raw, cfg, args.out, seed, args.truncation, args.quiet)
    results = handler(ctx)
    summary = {
        "command": command,
        "config_sha256": ctx.sha,
        "seed": seed,
        "tool_version": __version__,
        "artifacts": sorted(ctx.artifacts),
        "results": results,
    }
    path = os.path.join(args.out, "summary.json")
    _write_json(path, summary)
    ctx.say(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    command = f"{args.group} {args.sub}"
    if command not in COMMANDS:
        parser.error(f"unknown command {command!r}; valid commands: "
                     + ", ".join(COMMANDS))
    try:
        return _run(command, args)
    except ConfigError as exc:
        print(f"config error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 3
    except TruncationError as exc:
        print(f"truncation too small ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
