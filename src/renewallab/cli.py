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
    CHAIN_KEYS,
    GRID_KEYS,
    MEASURE_SCHEMA,
    OBSERVABLE_SCHEMA,
    Kinds,
    chain_from_config,
    check_keys,
    config_hash,
    grid_from_config,
    load_config,
    measure_from_config,
    numbers,
    observable_from_config,
    optional,
    require,
)
from .errors import ConfigError, PreconditionError, TruncationError
from .evolve import (
    correlation_constant,
    correlation_curve,
    deviation_tail_ratio,
    distance_curve,
    null_recurrent_ratio,
    rate_fit,
)
from .maps import (
    BURN_IN,
    SAMPLER,
    coded_states,
    entrance_tail,
    kac_check,
    markov_frequency_check,
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
    """Per-invocation state: parsed config, resolved seed, output sink."""

    def __init__(self, command, cfg, out, seed, truncation, quiet):
        self.command = command
        self.cfg = cfg
        self.out = out
        self.seed = seed
        self.truncation = truncation
        self.quiet = quiet
        self.sha = config_hash(cfg)
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
# Small config helpers
# ----------------------------------------------------------------------

def _complex_points(cfg: dict, key: str):
    raw = require(cfg, key, list)
    if not raw:
        raise ConfigError(f"config key {key!r} must be a nonempty list")
    out = []
    for k, item in enumerate(raw):
        pair = item if isinstance(item, list) and len(item) == 2 else [item, 0.0]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair):
            raise ConfigError(
                f"{key}[{k}] must be a real number or an [re, im] pair"
            )
        out.append(complex(float(pair[0]), float(pair[1])))
    return out


def _interval(cfg: dict, key: str, kind: type, default=None):
    """An optional ``[lo, hi]`` pair with ``lo < hi``, converted to ``kind``;
    ``default`` when the key is absent or null."""
    raw = cfg.get(key)
    if raw is None:
        return default
    if not (
        isinstance(raw, list) and len(raw) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw)
        and raw[0] < raw[1]
    ):
        raise ConfigError(f"config key {key!r} must be [lo, hi] with lo < hi")
    return (kind(raw[0]), kind(raw[1]))


def _fit_dict(fit):
    if fit is None:
        return None
    return {
        "exponent": fit.exponent,
        "intercept": fit.intercept,
        "window": list(fit.window),
        "rms_residual": fit.rms_residual,
    }


def _orbit_options(cfg: dict):
    """The ``burn_in`` and ``sampler`` keys shared by the orbit commands."""
    return optional(cfg, "burn_in", int, BURN_IN), optional(cfg, "sampler", str, SAMPLER)


# ----------------------------------------------------------------------
# Command handlers.  Each returns the ``results`` block of summary.json.
# ----------------------------------------------------------------------

def cmd_chain_info(ctx: Ctx) -> dict:
    chain = ctx.chain()
    info = chain.describe()
    info["degree"] = chain.ergodic_degree
    info["positive_recurrent"] = chain.positive_recurrent
    ctx.say(
        f"{chain.classification} chain, m1={chain.m1!r}, pi1={chain.pi1!r}"
    )
    return info


def _fitted_curve(ctx: Ctx, what: str, curve) -> dict:
    """Writes ``rates_<what>.csv`` and fits it over the optional
    ``fit_window``."""
    ctx.write_curve(f"rates_{what}.csv", curve)
    window = _interval(ctx.cfg, "fit_window", int)
    results = {
        "final_n": int(curve.n_grid[-1]),
        "final_value": float(curve.values[-1]),
        "fit": _fit_dict(None if window is None else rate_fit(curve, window)),
    }
    ctx.say(f"{what} at n={results['final_n']}: {results['final_value']!r}")
    return results


def cmd_rates_distance(ctx: Ctx) -> dict:
    chain = ctx.chain()
    nu = measure_from_config(require(ctx.cfg, "nu", dict), chain, chain.truncation)
    grid = grid_from_config(require(ctx.cfg, "grid", dict))
    return _fitted_curve(ctx, "distance", distance_curve(chain, nu, grid))


def cmd_rates_correlation(ctx: Ctx) -> dict:
    chain = ctx.chain()
    nu = measure_from_config(require(ctx.cfg, "nu", dict), chain, chain.truncation)
    u = observable_from_config(require(ctx.cfg, "u", dict), "u")
    grid = grid_from_config(require(ctx.cfg, "grid", dict))
    return _fitted_curve(ctx, "correlation", correlation_curve(chain, nu, u, grid))


def cmd_rates_lemma2(ctx: Ctx) -> dict:
    chain = ctx.chain()
    grid = grid_from_config(require(ctx.cfg, "grid", dict))
    lo, hi = _interval(ctx.cfg, "band", float, (0.9, 1.1))
    curve = deviation_tail_ratio(chain, grid)
    ctx.write_curve("rates_lemma2.csv", curve)
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
    chain = ctx.chain()
    nu = measure_from_config(require(ctx.cfg, "nu", dict), chain, chain.truncation)
    u = observable_from_config(require(ctx.cfg, "u", dict), "u")
    grid = grid_from_config(require(ctx.cfg, "grid", dict))
    rel_tol = optional(ctx.cfg, "rel_tolerance", float, 0.2)
    curve, predicted = correlation_constant(chain, nu, u, grid)
    ctx.write_curve("rates_constant.csv", curve)
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
    chain = ctx.chain()
    nu = measure_from_config(require(ctx.cfg, "nu", dict), chain, chain.truncation)
    u = observable_from_config(require(ctx.cfg, "u", dict), "u")
    grid = grid_from_config(require(ctx.cfg, "grid", dict))
    curve = null_recurrent_ratio(chain, nu, u, grid)
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
    dimension = optional(ctx.cfg, "dimension", int, 200)
    tolerance = optional(ctx.cfg, "tolerance", float, 1e-12)
    points = _complex_points(ctx.cfg, "z_points")
    rows = []
    worst = 0.0
    for z in points:
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
    chain = ctx.chain()
    dimension = optional(ctx.cfg, "dimension", int, 400)
    lams = _complex_points(ctx.cfg, "lambdas")
    rows = disk_scan(chain, lams, dimension)
    ctx.write_table(
        "spectral_eigen.csv",
        ("re_lambda", "im_lambda", "residual", "l1_partial_norm"),
        rows,
    )
    worst = max(r[2] for r in rows)
    results = {"dimension": dimension, "max_residual": float(worst)}
    ctx.say(f"max interior eigen residual {worst!r} at N={dimension}")
    return results


def cmd_spectral_gf(ctx: Ctx) -> dict:
    chain = ctx.chain()
    i = optional(ctx.cfg, "i", int, 1)
    j = optional(ctx.cfg, "j", int, 1)
    points = _complex_points(ctx.cfg, "z_points")
    rows = []
    for z in points:
        p_val, f_val = gf_evaluate(chain, i, j, z)
        p_val, f_val = complex(p_val), complex(f_val)
        rows.append((z.real, z.imag, p_val.real, p_val.imag,
                     f_val.real, f_val.imag))
    ctx.write_table(
        "spectral_gf.csv",
        ("re_z", "im_z", "re_p", "im_p", "re_f", "im_f"),
        rows,
    )
    ctx.say(f"evaluated P_{i}{j} and F_{i}{j} at {len(rows)} points")
    return {"i": i, "j": j, "points": len(rows)}


def cmd_map_simulate(ctx: Ctx) -> dict:
    chain = ctx.chain()
    length = require(ctx.cfg, "length", int)
    burn_in, sampler = _orbit_options(ctx.cfg)
    i_max = optional(ctx.cfg, "i_max", int, 10)
    states, censored = coded_states(chain, sampler, length, ctx.seed, burn_in)
    valid = int(np.count_nonzero(states > 0))
    counts = np.bincount(
        states[(states > 0) & (states <= i_max)], minlength=i_max + 1
    )
    exact = (
        chain.pi[1 : i_max + 1]
        if chain.positive_recurrent
        else np.full(i_max, np.nan)
    )
    rows = [
        (s, int(counts[s]), counts[s] / valid, float(exact[s - 1]))
        for s in range(1, i_max + 1)
    ]
    ctx.write_table(
        "map_simulate_occupation.csv",
        ("state", "visits", "frequency", "exact"),
        rows,
    )
    results = {
        "n_steps": int(states.size),
        "valid_steps": valid,
        "censored": int(censored),
        "sampler": sampler,
    }
    ctx.say(f"simulated {states.size} steps, {censored} censored")
    return results


def cmd_map_correlate(ctx: Ctx) -> dict:
    chain = ctx.chain()
    u = observable_from_config(require(ctx.cfg, "u", dict), "u")
    v = observable_from_config(require(ctx.cfg, "v", dict), "v")
    lags = grid_from_config(require(ctx.cfg, "lags", dict), "lags")
    orbit_length = require(ctx.cfg, "orbit_length", int)
    burn_in, sampler = _orbit_options(ctx.cfg)
    streams = optional(ctx.cfg, "streams", int, 1)
    estimates = mc_correlation(
        chain, u, v, lags, orbit_length, ctx.seed,
        burn_in=burn_in, sampler=sampler, streams=streams,
    )
    rows = [
        (n, est.mean, est.stderr, est.censored)
        for n, est in sorted(estimates.items())
    ]
    ctx.write_table(
        "map_correlate.csv", ("n", "mean", "stderr", "censored"), rows
    )
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
        "sampler": sampler,
        "streams": streams,
    }
    ctx.say(f"estimated {len(rows)} lags from {orbit_length}-step orbits")
    return results


def cmd_map_entrance(ctx: Ctx) -> dict:
    chain = ctx.chain()
    a = float(require(ctx.cfg, "a", (int, float)))
    n_max = require(ctx.cfg, "n_max", int)
    samples = require(ctx.cfg, "samples", int)
    window = _interval(ctx.cfg, "fit_window", int)
    report = entrance_tail(chain, a, n_max, samples, ctx.seed, fit_window=window)
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
    chain = ctx.chain()
    orbit_length = require(ctx.cfg, "orbit_length", int)
    burn_in, sampler = _orbit_options(ctx.cfg)
    tolerance = optional(ctx.cfg, "tolerance", float, 0.01)
    hist_max = optional(ctx.cfg, "histogram_max", int, 30)
    report = kac_check(chain, orbit_length, ctx.seed, burn_in=burn_in, sampler=sampler)
    top = min(report.histogram.size - 1, hist_max)
    rows = [(k, int(report.histogram[k])) for k in range(1, top + 1)]
    ctx.write_table("map_kac_histogram.csv", ("length", "count"), rows)
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
    chain = ctx.chain()
    orbit_length = require(ctx.cfg, "orbit_length", int)
    i_max = optional(ctx.cfg, "i_max", int, 10)
    burn_in, sampler = _orbit_options(ctx.cfg)
    sigma = optional(ctx.cfg, "sigma", float, 3.0)
    rep = markov_frequency_check(chain, orbit_length, ctx.seed,
                                 i_max=i_max, burn_in=burn_in, sampler=sampler)
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
    probe = require(ctx.cfg, "probe", str)
    if probe == "convolution":
        gamma = float(require(ctx.cfg, "gamma", (int, float)))
        n_list = numbers(ctx.cfg, "n_list", int)
        values = {}
        regime = None
        for n in n_list:
            value, regime = convolution_power_probe(gamma, n)
            values[str(n)] = value
        ctx.say(f"convolution power regime: {regime}")
        return {"gamma": gamma, "regime": regime, "values": values}
    chain = ctx.chain()
    if probe == "kaluza":
        ok = kaluza_check(chain.p[1:])
        ctx.say(f"kaluza (decreasing, log-convex): {ok}")
        return {"kaluza": bool(ok), "law": chain.law.describe()}
    prefix = optional(ctx.cfg, "prefix", int, min(chain.truncation, 2000))
    if not 2 <= prefix <= chain.truncation:
        raise ConfigError("'prefix' must lie within the stored prefix")
    diag = zero_diagnostic(
        np.r_[1.0, -chain.p[1 : prefix + 1]],
        radii=None if ctx.cfg.get("radii") is None else numbers(ctx.cfg, "radii"),
        points=optional(ctx.cfg, "points", int, 720),
    )
    ctx.say(f"min |1 - F(z)| sampled: {diag['min_abs']!r}")
    return diag


# ----------------------------------------------------------------------
# Command table, parser, entry point
# ----------------------------------------------------------------------

def _keys(*leaves, **blocks) -> dict:
    """Allowed top-level config keys: the shared chain block, ``leaves``
    validated by the handler, and nested ``blocks`` with their own keys."""
    return {"chain": CHAIN_KEYS, **dict.fromkeys(leaves), **blocks}


_ORBIT = ("burn_in", "sampler", "seed")
#: blocks of the rates commands that pair an evolved measure with an observable
_PAIR = {"nu": MEASURE_SCHEMA, "u": OBSERVABLE_SCHEMA, "grid": GRID_KEYS}

PROBE_SCHEMA = Kinds("probe", {
    "convolution": dict.fromkeys(("gamma", "n_list")),
    "kaluza": _keys(),
    "zeros": _keys("radii", "points", "prefix"),
})

#: "group sub" -> (handler, schema of its config)
COMMANDS = {
    "chain info": (cmd_chain_info, _keys()),
    "rates distance": (
        cmd_rates_distance, _keys("fit_window", nu=MEASURE_SCHEMA, grid=GRID_KEYS)),
    "rates correlation": (cmd_rates_correlation, _keys("fit_window", **_PAIR)),
    "rates lemma2": (cmd_rates_lemma2, _keys("band", grid=GRID_KEYS)),
    "rates constant": (cmd_rates_constant, _keys("rel_tolerance", **_PAIR)),
    "rates null": (cmd_rates_null, _keys(**_PAIR)),
    "spectral factorize": (
        cmd_spectral_factorize, _keys("dimension", "z_points", "tolerance")),
    "spectral eigen": (cmd_spectral_eigen, _keys("dimension", "lambdas")),
    "spectral gf": (cmd_spectral_gf, _keys("i", "j", "z_points")),
    "map simulate": (cmd_map_simulate, _keys("length", "i_max", *_ORBIT)),
    "map correlate": (
        cmd_map_correlate,
        _keys("orbit_length", "streams", *_ORBIT,
              u=OBSERVABLE_SCHEMA, v=OBSERVABLE_SCHEMA, lags=GRID_KEYS)),
    "map entrance": (
        cmd_map_entrance, _keys("a", "n_max", "samples", "fit_window", "seed")),
    "map kac": (
        cmd_map_kac, _keys("orbit_length", "tolerance", "histogram_max", *_ORBIT)),
    "map frequency": (
        cmd_map_frequency, _keys("orbit_length", "i_max", "sigma", *_ORBIT)),
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
    cfg = load_config(args.config)
    check_keys(cfg, schema)
    seed = args.seed if args.seed is not None else optional(cfg, "seed", int, 0)
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("seed must be an unsigned 64-bit integer")
    os.makedirs(args.out, exist_ok=True)
    ctx = Ctx(command, cfg, args.out, seed, args.truncation, args.quiet)
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
