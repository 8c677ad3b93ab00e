"""Command-line front end.

Every command reads a JSON descriptor (see :mod:`renewallab.config`),
computes one artifact set, and writes it under ``--out``:

* ``summary.json`` with the headline numbers, sorted keys, no timestamps;
* one CSV per curve or table, each with a header row and a
  ``<name>.csv.meta.json`` sidecar recording the config hash, the seed and
  the tool version.

A command's handler computes its results and returns its tables; only
:func:`_run` writes, once the handler has returned, so a command that
exits nonzero leaves ``--out`` without artifacts.  The config sets every
value of a run, so the same config reproduces every output byte for byte,
whatever ``--out`` and ``--quiet`` say; floats are written with full
round-trip precision and nothing time- or host-dependent is recorded.  Writes go through a
temporary file in the target directory followed by an atomic rename; the
file is created with mode ``0o666`` less the process umask, as
``open(path, "w")`` would create it.  An ``--out`` that cannot be made a
directory is a usage error, reported before anything is computed.

The argument parser is built on the first :func:`main` call and reused by
every later call in the process; ``parse_args`` returns a fresh namespace
each time, so no flag carries from one call to the next.

Exit codes: 0 success, 2 malformed config or usage, 3 mathematical
precondition violated (for example ``rates lemma2`` on a geometric chain,
whose deviation decays faster than any power), 4 stored prefix too short.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys

import numpy as np

from . import __version__
from .config import (
    CHAIN_SCHEMA, GRID, MEASURE_SCHEMA, OBSERVABLE_SCHEMA, Kinds, Leaf, bounded,
    chain_from_config, complex_points, config_hash, integer, interval, list_of,
    load_config, measure_from_config, number, observable_from_config, read, string,
)
from .errors import (
    ConfigError, PreconditionError, PreconditionViolated, TruncationError, TruncationTooSmall,
)
from .evolve import (
    correlation_constant, correlation_curve, deviation_tail_ratio, distance_curve,
    null_recurrent_ratio, rate_fit,
)
from .maps import (
    BURN_IN, ENTRANCE_ROUNDING, SAMPLER, coded_states, entrance_tail, kac_check,
    markov_frequency_check, mc_correlation,
)
from .series import convolution_power_probe, kaluza_check, zero_diagnostic
from .spectral import disk_scan, factorization_residual, gf_evaluate

__all__ = ["main"]


# ----------------------------------------------------------------------
# Deterministic writers
# ----------------------------------------------------------------------

#: numbers the temporary files of this process
_TMP = itertools.count()
_TMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def _atomic_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(path)
    while True:
        tmp = os.path.join(directory, f".tmp-{os.getpid()}-{next(_TMP)}")
        try:
            # 0o666 less the umask, as open(path, "w") would create it
            fd = os.open(tmp, _TMP_FLAGS, 0o666)
            break
        except FileExistsError:  # left behind by an earlier process with this pid
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _plain(x):
    """Recursively coerce complex numbers and non-finite floats into
    JSON-representable values."""
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, float):  # numpy's float64 among them
        x = float(x)
        # keep summaries strict JSON: no Infinity/NaN literals
        return x if np.isfinite(x) else repr(x)
    if isinstance(x, complex):
        return {"re": _plain(x.real), "im": _plain(x.imag)}
    return x


def _write_json(path: str, obj) -> None:
    text = json.dumps(_plain(obj), sort_keys=True, indent=2)
    _atomic_bytes(path, (text + "\n").encode())


def _csv(header, columns) -> bytes:
    """``columns``, one per name of ``header``, as CSV rows; an array
    column is read through ``tolist``, so its cells are Python ints and
    floats, which ``str`` writes exactly (a float as its shortest repr)."""
    cells = [list(map(str, c.tolist() if isinstance(c, np.ndarray) else c))
             for c in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    return ("\n".join(lines) + "\n").encode()


# ----------------------------------------------------------------------
# Command handlers.  Each is ``(cfg, chain) -> (results, tables, line)``:
# the ``results`` block of summary.json, the tables as ``{csv name:
# (header, columns)}`` and the progress line (or None).  A handler writes
# and prints nothing; :func:`_run` does, once it has returned.  ``cfg`` is
# read by the handler's schema in COMMANDS, and ``chain`` is built from its
# chain block (None without one).
# A report's results are its scalar fields (:func:`_record`), so a field
# added to a report enters summary.json.
# ----------------------------------------------------------------------

def _curve(curve) -> tuple:
    """The ``n, value, tail_bound`` table of a curve, 0 where it has no
    bounds.  ``tail_bound`` holds truncation plus rounding for ``rates
    distance|correlation|constant``; for ``rates lemma2|null`` its 0 means
    no bound is reported; for ``map entrance`` its 0 is the truncation
    part, and summary.json states the rounding factor."""
    bounds = np.zeros(curve.values.size) if curve.bounds is None else curve.bounds
    return ("n", "value", "tail_bound"), (curve.n_grid, curve.values, bounds)


def _last(curve, key: str = "final_value", **extras) -> dict:
    """The results of a rates curve: its last point, the value under
    ``key``, and ``extras``."""
    return {"final_n": int(curve.n_grid[-1]), key: float(curve.values[-1]), **extras}


def _record(report, **extras) -> dict:
    """The fields of the dataclass ``report`` but ``seed``, arrays and
    nested records, then ``extras``."""
    fields = ((f.name, getattr(report, f.name)) for f in dataclasses.fields(report))
    return {**{k: v for k, v in fields if k != "seed" and not isinstance(v, np.ndarray)
               and not dataclasses.is_dataclass(v)}, **extras}


def cmd_chain_info(cfg, chain):
    line = f"{chain.classification} chain, m1={chain.m1!r}, pi1={chain.pi1!r}"
    return chain.describe(), {}, line


def _fitted_curve(cfg, what: str, curve):
    """``rates_<what>.csv``, fitted over the optional ``fit_window``."""
    window = cfg["fit_window"]
    results = _last(curve, fit=None if window is None else _record(rate_fit(curve, window)))
    return (results, {f"rates_{what}.csv": _curve(curve)},
            f"{what} at n={results['final_n']}: {results['final_value']!r}")


def _pair(cfg, chain):
    """The chain, the ``nu`` measure on it, the ``u`` observable and the grid."""
    nu = measure_from_config(cfg["nu"], chain)
    return chain, nu, observable_from_config(cfg["u"]), cfg["grid"]


def cmd_rates_distance(cfg, chain):
    nu = measure_from_config(cfg["nu"], chain)
    return _fitted_curve(cfg, "distance", distance_curve(chain, nu, cfg["grid"]))


def cmd_rates_correlation(cfg, chain):
    return _fitted_curve(cfg, "correlation", correlation_curve(*_pair(cfg, chain)))


def cmd_rates_lemma2(cfg, chain):
    curve = deviation_tail_ratio(chain, cfg["grid"])
    lo, hi = cfg["band"]
    final = float(curve.values[-1])
    results = _last(curve, "final_ratio", band=[lo, hi], within_band=bool(lo <= final <= hi))
    return (results, {"rates_lemma2.csv": _curve(curve)},
            f"deviation/tail ratio at n={results['final_n']}: {final!r}")


def cmd_rates_constant(cfg, chain):
    curve, predicted = correlation_constant(*_pair(cfg, chain))
    rel_tol = cfg["rel_tolerance"]
    final = float(curve.values[-1])
    gap = abs(final - predicted) / abs(predicted)
    results = _last(curve, predicted=float(predicted), relative_gap=float(gap),
                    rel_tolerance=rel_tol, **{"pass": bool(gap <= rel_tol)})
    return (results, {"rates_constant.csv": _curve(curve)},
            f"scaled correlation {final!r} vs predicted {predicted!r}")


def cmd_rates_null(cfg, chain):
    curve = null_recurrent_ratio(*_pair(cfg, chain))
    results = _last(curve, "final_ratio")
    return (results, {"rates_null.csv": _curve(curve)},
            f"null-recurrent ratio at n={results['final_n']}: {results['final_ratio']!r}")


def cmd_spectral_factorize(cfg, chain):
    dimension, tolerance = cfg["dimension"], cfg["tolerance"]
    rows = []
    worst = 0.0
    for z in cfg["z_points"]:
        res = factorization_residual(chain, z, dimension)
        worst = max(worst, res)
        rows.append((z.real, z.imag, res))
    results = {
        "dimension": dimension,
        "max_residual": worst,
        "tolerance": tolerance,
        "pass": bool(worst <= tolerance),
    }
    return (results, {"spectral_factorize.csv": (("re_z", "im_z", "residual"), zip(*rows))},
            f"max factorization residual {worst!r} at N={dimension}")


def cmd_spectral_eigen(cfg, chain):
    dimension = cfg["dimension"]
    rows = disk_scan(chain, cfg["lambdas"], dimension)
    worst = max(r[2] for r in rows)
    header = ("re_lambda", "im_lambda", "residual", "l1_partial_norm")
    return ({"dimension": dimension, "max_residual": float(worst)},
            {"spectral_eigen.csv": (header, zip(*rows))},
            f"max interior eigen residual {worst!r} at N={dimension}")


def cmd_spectral_gf(cfg, chain):
    i, j = cfg["i"], cfg["j"]
    points = cfg["z_points"]
    rows = []
    for z, (p_val, f_val) in zip(points, gf_evaluate(chain, i, j, points)):
        p_val, f_val = complex(p_val), complex(f_val)
        rows.append((z.real, z.imag, p_val.real, p_val.imag, f_val.real, f_val.imag))
    header = ("re_z", "im_z", "re_p", "im_p", "re_f", "im_f")
    return ({"i": i, "j": j, "points": len(rows)}, {"spectral_gf.csv": (header, zip(*rows))},
            f"evaluated P_{i}{j} and F_{i}{j} at {len(rows)} points")


def cmd_map_simulate(cfg, chain):
    sampler, i_max = cfg["sampler"], chain.within(cfg["i_max"], "the occupation table's i_max")
    if i_max < 1:
        raise PreconditionViolated(f"i_max must be at least 1, got {i_max}")
    states, censored = coded_states(chain, sampler, cfg["length"], cfg["seed"], cfg["burn_in"])
    valid = int(np.count_nonzero(states > 0))
    if valid == 0:
        raise TruncationTooSmall(f"all {censored} recorded steps are censored past the stored "
                                 f"prefix of {chain.truncation} states, so no frequency is "
                                 "defined; raise the truncation or the length")
    counts = np.bincount(states[(states > 0) & (states <= i_max)], minlength=i_max + 1)
    exact = chain.pi[1 : i_max + 1] if chain.positive_recurrent else np.full(i_max, np.nan)
    visits = counts[1:]
    results = {
        "n_steps": int(states.size),
        "valid_steps": valid,
        "censored": int(censored),
        "sampler": sampler,
    }
    table = (("state", "visits", "frequency", "exact"),
             (np.arange(1, i_max + 1), visits, visits / valid, exact))
    return (results, {"map_simulate_occupation.csv": table},
            f"simulated {states.size} steps, {censored} censored")


def cmd_map_correlate(cfg, chain):
    estimates = mc_correlation(
        chain, observable_from_config(cfg["u"]), observable_from_config(cfg["v"]),
        cfg["lags"], cfg["orbit_length"], cfg["seed"],
        burn_in=cfg["burn_in"], sampler=cfg["sampler"],
    )
    rows = [(n, est.mean, est.stderr, est.censored) for n, est in sorted(estimates.items())]
    results = {"estimates": {str(n): _record(est) for n, est in estimates.items()},
               "sampler": cfg["sampler"]}
    return (results, {"map_correlate.csv": (("n", "mean", "stderr", "censored"), zip(*rows))},
            f"estimated {len(rows)} lags from {cfg['orbit_length']}-step orbits")


def cmd_map_entrance(cfg, chain):
    report = entrance_tail(chain, cfg["a"], cfg["n_max"], cfg["samples"], cfg["seed"],
                           fit_window=cfg["fit_window"])
    results = _record(report, rounding_rel_bound=ENTRANCE_ROUNDING,
                      fit=None if report.fit is None else _record(report.fit))
    # every rounding bound is ENTRANCE_ROUNDING times its value, so the
    # summary states the factor once and the table's tail_bound, the
    # truncation part, is zero; per-row bounds nearly doubled the table
    table = _curve(dataclasses.replace(report.curve, bounds=None))
    line = None if report.fit is None else f"entrance-tail exponent {report.fit.exponent!r}"
    return results, {"map_entrance.csv": table}, line


def cmd_map_kac(cfg, chain):
    report = kac_check(chain, cfg["orbit_length"], cfg["seed"], burn_in=cfg["burn_in"],
                       sampler=cfg["sampler"])
    top = min(report.histogram.size - 1, cfg["histogram_max"])
    tolerance = cfg["tolerance"]
    gap = abs(report.product - 1.0)
    results = _record(report, tolerance=tolerance, **{"pass": bool(gap <= tolerance)})
    table = (("length", "count"), (np.arange(1, top + 1), report.histogram[1 : top + 1]))
    return (results, {"map_kac_histogram.csv": table},
            f"occupation*mean_return = {report.product!r}")


def cmd_map_frequency(cfg, chain):
    i_max, sigma = cfg["i_max"], cfg["sigma"]
    rep = markov_frequency_check(chain, cfg["orbit_length"], cfg["seed"], i_max=i_max,
                                 burn_in=cfg["burn_in"], sampler=cfg["sampler"])
    states = np.arange(1, i_max + 1)
    tables = {
        "map_frequency_transitions.csv": (
            ("row", "col", "hat", "exact", "stderr"),
            (np.repeat(states, i_max), np.tile(states, i_max), rep.transition_hat.ravel(),
             rep.transition_exact.ravel(), rep.transition_stderr.ravel())),
        "map_frequency_occupation.csv": (
            ("state", "hat", "exact", "stderr"),
            (states, rep.occupation_hat, rep.occupation_exact, rep.occupation_stderr)),
    }

    def worst(hat, exact, err):
        with np.errstate(invalid="ignore", divide="ignore"):
            dev = np.abs(hat - exact) / np.where(err > 0.0, err, np.nan)
        return 0.0 if np.all(np.isnan(dev)) else float(np.nanmax(dev))

    w_t = worst(rep.transition_hat, rep.transition_exact, rep.transition_stderr)
    w_o = worst(rep.occupation_hat, rep.occupation_exact, rep.occupation_stderr)
    results = _record(rep, max_transition_sigma=w_t, max_occupation_sigma=w_o, sigma=sigma,
                      **{"pass": bool(w_t <= sigma and w_o <= sigma)})
    return results, tables, f"worst deviation {max(w_t, w_o)!r} standard errors"


def cmd_series_probe(cfg, chain):
    probe = cfg["probe"]
    if probe == "convolution":
        gamma = cfg["gamma"]
        values = {}
        for n in cfg["n_list"]:
            value, regime = convolution_power_probe(gamma, n)
            values[str(n)] = value
        return ({"gamma": gamma, "regime": regime, "values": values}, {},
                f"convolution power regime: {regime}")
    if probe == "kaluza":
        # finite and geometric laws are no Kaluza sequences; a power tail is
        # judged down to the smallest normal double, past which underflow
        # bends its ratios, and a zero inside that prefix is no decrease
        p = chain.p[1:]
        p = p[: np.count_nonzero(p >= np.finfo(float).tiny)]
        ok = chain.law.tail_family().kind == "power" and p.all() and kaluza_check(p)
        return ({"kaluza": bool(ok), "law": chain.law.describe()}, {},
                f"kaluza (decreasing, log-convex): {ok}")
    prefix = cfg["prefix"]
    if prefix is None:  # the default depends on the chain
        prefix = min(chain.truncation, 2000)
    if chain.within(prefix, "the zeros probe's prefix") < 2:
        raise ConfigError(f"'prefix' must be at least 2, got {prefix}")
    diag = zero_diagnostic(np.r_[1.0, -chain.p[1 : prefix + 1]],
                           radii=cfg["radii"], points=cfg["points"])
    return diag, {}, f"min |1 - F(z)| sampled: {diag['min_abs']!r}"


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
        _keys(orbit_length=Leaf(integer), **_ORBIT,
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call: building one
    costs more than parsing with it."""
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
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress lines on stdout")
    return parser


def _run(command: str, args) -> int:
    """Reads the config, builds the chain, runs the handler and only then
    writes its tables, prints its line and writes summary.json, so a
    handler that raises leaves no artifact."""
    handler, schema = COMMANDS[command]
    raw = load_config(args.config)
    cfg = read(raw, schema)
    seed = cfg.get("seed", 0)  # a command without a seed key records seed 0
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("seed must be an unsigned 64-bit integer")
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:  # a file in the way, no permission, ...
        raise ConfigError(f"cannot create output directory {args.out}: {exc}") from exc
    chain = chain_from_config(cfg) if "chain" in cfg else None
    results, tables, line = handler(cfg, chain)
    say = (lambda text: None) if args.quiet else print
    meta = {"command": command, "config_sha256": config_hash(raw), "seed": seed,
            "tool_version": __version__}
    for name, (header, columns) in tables.items():
        path = os.path.join(args.out, name)
        _atomic_bytes(path, _csv(header, columns))
        _write_json(path + ".meta.json", {**meta, "columns": list(header)})
        say(f"wrote {path}")
    if line is not None:
        say(line)
    path = os.path.join(args.out, "summary.json")
    _write_json(path, {**meta, "artifacts": sorted(tables), "results": results})
    say(f"wrote {path}")
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
