"""End-to-end checks of the command-line layer: exit codes, schema
rejection, deterministic artifacts."""

import argparse
import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewallab import cli
from renewallab.cli import COMMANDS, main

GEO = {"chain": {"law": {"type": "geometric", "q": 0.5}, "truncation": 2000}}
ZETA = {"chain": {"law": {"type": "zeta", "degree": 1.0}, "truncation": 20000}}
CORRELATE = {"u": {"kind": "indicator", "states": [1], "size": 20},
             "v": {"kind": "indicator", "states": [1], "size": 20},
             "lags": {"points": [1, 2]}}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, payload, *extra, name="cfg.json", sub="out"):
    cfg = write_cfg(tmp_path, payload, name)
    out = tmp_path / sub
    code = main(command + ["--config", cfg, "--out", str(out), "--quiet",
                           *extra])
    return code, out


def summary(out):
    return json.loads((out / "summary.json").read_text())


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------

def test_chain_info_reports_invariants(tmp_path):
    code, out = run(tmp_path, ["chain", "info"], GEO)
    assert code == 0
    res = summary(out)["results"]
    assert res["m1"] == 2.0
    assert res["pi1"] == 0.5
    assert res["degree"] == "inf"
    assert res["classification"] == "positive-recurrent"


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c.replace(" ", "-"))
def test_unknown_config_key_exits_2(tmp_path, capsys, command):
    code, _ = run(tmp_path, command.split(), {**GEO, "typo_key": 1})
    assert code == 2
    assert "typo_key" in capsys.readouterr().err


MALFORMED = [
    ("map kac", {**GEO, "orbit_length": 1000, "seed": -1}),
    ("map kac", {**GEO, "orbit_length": 1000, "seed": 2 ** 64}),
    ("chain info", {"chain": {**GEO["chain"], "truncation": True}}),
    ("spectral factorize", {**GEO, "z_points": [0.5], "dimension": "big"}),
    ("map kac", {**GEO, "orbit_length": 1000, "burn_in": [1]}),
    ("series probe", {"probe": "convolution", "gamma": 2.0, "n_list": ["a"]}),
    ("series probe", {"probe": "convolution", "gamma": 2.0, "n_list": [True]}),
    ("rates distance", {**GEO, "nu": {"kind": "point", "state": 1},
                        "grid": {"points": ["a"]}}),
    ("series probe", {**GEO, "probe": "zeros", "radii": ["a"]}),
    ("chain info", {"chain": {"law": {"type": "finite", "probs": ["a", 0.5]},
                              "truncation": 20}}),
    ("chain info", {"chain": {"law": {"type": "finite", "probs": [True, False]},
                              "truncation": 20}}),
    ("spectral gf", {**GEO, "z_points": [["a", 0.1]]}),
    ("spectral gf", {**GEO, "z_points": [[True, 0.1]]}),
    ("spectral gf", {**GEO, "z_points": [True]}),
    ("rates correlation", {**GEO, "nu": {"kind": "weights", "weights": ["a"]},
                           "u": {"kind": "indicator", "states": ["a"], "size": 3},
                           "grid": {"points": [1]}}),
    ("chain info", {"chain": {**GEO["chain"], "truncation": 10 ** 12}}),
    ("map simulate", {**GEO, "length": 10 ** 13}),
    ("map kac", {**GEO, "orbit_length": 10 ** 13}),
    ("map correlate", {**GEO, **CORRELATE, "orbit_length": 10 ** 13}),
    ("map entrance", {**GEO, "a": 0.5, "n_max": 10, "samples": 10 ** 13}),
    ("map kac", {**GEO, "orbit_length": 1000, "burn_in": -10 ** 6}),
    ("map entrance", {**GEO, "a": 0.5, "n_max": 10, "samples": -7}),
    ("map entrance", {**GEO, "a": 0.5, "n_max": -2, "samples": 1000}),
    ("map simulate", {**GEO, "length": 0}),
    ("map simulate", {**GEO, "length": -5}),
    ("map frequency", {**GEO, "orbit_length": 0}),
    ("map correlate", {**GEO, **CORRELATE, "orbit_length": 1000, "streams": 0}),
    ("chain info", {"chain": {"law": {"type": "zeta", "degree": 1e15}, "truncation": 100}}),
    ("chain info", {"chain": {"law": {"type": "zeta", "degree": 2 ** 63},
                              "truncation": 100}}),
    ("chain info", {"chain": {"law": {"type": "zeta", "degree": 1e308},
                              "truncation": 100}}),
    ("chain info", {"chain": {"law": {"type": "zeta", "degree": math.nextafter(-1.0, 0.0)},
                              "truncation": 100}}),
    ("series probe", {"probe": "convolution", "gamma": 2.0, "n_list": [16, 1]}),
    ("series probe", {**GEO, "probe": "zeros", "points": -1}),
    ("rates correlation", {**GEO, "nu": {"kind": "point", "state": 1},
                           "u": {"kind": "ones", "size": 2 ** 63},
                           "grid": {"points": [1]}}),
    ("rates correlation", {**GEO, "nu": {"kind": "point", "state": 1},
                           "u": {"kind": "indicator", "states": [2 ** 63], "size": 3},
                           "grid": {"points": [1]}}),
    ("rates distance", {**GEO, "nu": {"kind": "point", "state": 1},
                        "grid": {"points": [1, 2 ** 63]}}),
    ("spectral gf", {**GEO, "z_points": [0.5], "j": 2 ** 63}),
    ("map simulate", {**GEO, "length": 1000, "i_max": 2 ** 63}),
    ("spectral gf", {**GEO, "z_points": [0.5], "j": 2 ** 62}),
    ("series probe", {"probe": "convolution", "gamma": 2.5, "n_list": []}),
    ("series probe", {**GEO, "probe": "zeros", "radii": []}),
    ("spectral factorize", {**GEO, "z_points": [math.nan, 0.5]}),
    ("spectral gf", {**GEO, "z_points": [[0.5, math.nan]]}),
    ("spectral eigen", {**GEO, "lambdas": [math.nan]}),
    ("series probe", {**GEO, "probe": "zeros", "radii": [math.nan, 0.9]}),
    ("series probe", {"probe": "convolution", "gamma": math.nan, "n_list": [16]}),
    ("chain info", {"chain": {"law": {"type": "custom", "probs": [0.5, 0.5],
                                      "tail_exponent": math.inf}, "truncation": 20}}),
    ("series probe", {**GEO, "probe": "zeros", "radii": [10 ** 6, 0.9]}),
    ("series probe", {"probe": "convolution", "gamma": 10 ** 400, "n_list": [16]}),
    ("spectral gf", {**GEO, "z_points": [[0.5, -10 ** 400]]}),
    ("map entrance", {**GEO, "a": 0.5, "n_max": 10, "samples": 1000,
                      "fit_window": [1, 10 ** 400]}),
    ("rates distance", {**GEO, "nu": {"kind": "point", "state": 1},
                        "grid": {"lo": 5, "hi": 3}}),
    ("rates distance", {**GEO, "nu": {"kind": "point", "state": 1},
                        "grid": {"lo": 0, "hi": 30}}),
    ("rates distance", {**GEO, "nu": {"kind": "point", "state": 1},
                        "grid": {"lo": 3, "hi": 30, "count": 0}}),
    *(("chain info", {"chain": {"law": {"type": "zeta", **law}, "truncation": 1000}})
      for law in ({"degree": 1e-17}, {"degree": 1e-200, "log_power": 1},
                  {"degree": 1, "log_power": 171}, {"degree": 1, "log_power": 1e300})),
    ("chain info", {"chain": {"law": {"type": "custom", "probs": [0.5, 0.3, 0.2],
                                      "tail_exponent": 3.5}, "truncation": 100}}),
    ("chain info", {"chain": {"law": {"type": "custom", "probs": [0.5, 0.3, 0.1],
                                      "tail_exponent": 3.5, "tail_log_power": -1.0},
                              "truncation": 100}}),
    ("chain info", {"chain": {"law": {"type": "custom", "probs": [0.5, 0.5],
                                      "tail_log_power": 2.0}, "truncation": 100}}),
    ("rates distance", {**GEO, "nu": {"kind": "point", "state": 1},
                        "grid": {"points": [10, 100, 500, 1000]}, "fit_window": [10.5, 1000]}),
    ("map entrance", {**GEO, "a": 0.5, "n_max": 10, "samples": 1000, "fit_window": [1, 9.5]}),
    ("chain info", [GEO]),
    ("spectral gf", {**GEO, "z_points": []}),
    ("rates distance", {**GEO, "nu": [1], "grid": {"points": [1]}}),
    ("map kac", GEO),
]
MALFORMED_IDS = [
    "negative-seed", "seed-2^64", "bool-truncation", "string-dimension",
    "list-burn-in", "string-n-list", "bool-n-list", "string-grid-point",
    "string-radius", "string-probability", "bool-probabilities",
    "string-pair", "bool-pair", "bool-point", "string-weights",
    "huge-truncation", "huge-length", "huge-kac-orbit",
    "huge-correlate-orbit", "huge-samples", "negative-burn-in",
    "negative-samples", "negative-n-max", "zero-length",
    "negative-length", "zero-frequency-orbit", "zero-streams", "degree-1e15",
    "degree-2^63", "degree-1e308", "degree-next-to-minus-1", "n-list-below-2", "negative-points",
    "u-size-2^63", "u-state-2^63", "grid-point-2^63", "j-2^63", "i-max-2^63",
    "j-2^62", "empty-n-list", "empty-radii", "nan-z-point", "nan-gf-point",
    "nan-lambda", "nan-radius", "nan-gamma", "infinite-tail-exponent", "radius-10^6",
    "gamma-10^400", "point-10^400", "fit-window-10^400", "grid-lo-above-hi",
    "grid-lo-zero", "grid-count-zero", "degree-1e-17-infinite-mean",
    "degree-1e-200-log-1-infinite-mean", "log-power-171", "log-power-1e300",
    "declared-tail-without-mass", "negative-tail-log-power", "log-power-without-tail",
    "fractional-fit-window", "fractional-entrance-window", "not-an-object", "empty-z-points",
    "block-not-an-object", "missing-orbit-length",
]


@pytest.mark.parametrize("command, payload", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_value_exits_2(tmp_path, capsys, command, payload):
    code, _ = run(tmp_path, command.split(), payload)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error")


def test_unknown_command_exits_2_listing_commands(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GEO)
    with pytest.raises(SystemExit) as exc:
        main(["rates", "bogus", "--config", cfg])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'rates bogus'" in err and all(c in err for c in COMMANDS)


def test_nested_unknown_key_exits_2(tmp_path):
    bad = {"chain": {"law": {"type": "geometric", "q": 0.5, "p": 0.1},
                     "truncation": 100}}
    code, _ = run(tmp_path, ["chain", "info"], bad)
    assert code == 2


NU = {"kind": "point", "state": 1}
RATES = {"nu": NU, "u": {"kind": "ones", "size": 20}, "grid": {"points": [1, 2]}}
BLOCKS = {
    "rates distance": {**GEO, "nu": NU, "grid": RATES["grid"]},
    **{f"rates {sub}": {**GEO, **RATES} for sub in ("correlation", "constant", "null")},
    "map correlate": {**GEO, **CORRELATE, "orbit_length": 1000},
}
LAWS = {
    "geometric": ({"type": "geometric", "q": 0.5}, "degree"),
    "zeta": ({"type": "zeta", "degree": 1.0}, "q"),
    "finite": ({"type": "finite", "probs": [0.5, 0.5]}, "tail_exponent"),
    "custom": ({"type": "custom", "probs": [0.5, 0.4], "tail_exponent": 3.0}, "log_power"),
}
PROBES = {
    "convolution": ({"probe": "convolution", "gamma": 2.0, "n_list": [4]}, "chain"),
    "kaluza": ({**GEO, "probe": "kaluza"}, "radii"),
    "zeros": ({**GEO, "probe": "zeros"}, "gamma"),
}


def _stray_key_cases():
    """(command, payload, dotted path) with one key that the block's kind
    does not allow, although another kind of the same block does."""
    for law, stray in LAWS.values():
        chain = {"law": {**law, stray: 1}, "truncation": 100}
        yield "chain info", {"chain": chain}, f"chain.law.{stray}"
    for command, payload in BLOCKS.items():
        if "nu" in payload:
            yield command, {**payload, "nu": {**NU, "weights": [1.0]}}, "nu.weights"
        for block in ("u", "v"):
            if block in payload:
                bad = {**payload[block], "limit": 0.0}
                yield command, {**payload, block: bad}, f"{block}.limit"
    for payload, stray in PROBES.values():
        yield "series probe", {**payload, stray: 1}, stray


STRAY = list(_stray_key_cases())


@pytest.mark.parametrize("command, payload, path", STRAY,
                         ids=[f"{c.replace(' ', '-')}-{p}" for c, _, p in STRAY])
def test_stray_key_in_any_block_exits_2_before_the_chain_is_built(
        tmp_path, capsys, monkeypatch, command, payload, path):
    def refuse(*args):
        raise AssertionError("build_chain ran before the key check")

    monkeypatch.setattr("renewallab.config.build_chain", refuse)
    code, _ = run(tmp_path, command.split(), payload)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error")
    assert f"unknown config key {path!r}" in err[0]


WRONG_TYPE = {
    name: case for case, name in zip(MALFORMED, MALFORMED_IDS)
    if name.startswith(("bool-", "string-", "list-"))
}
WRONG_TYPE["string-nu-state"] = (
    "rates distance", {**GEO, "nu": {"kind": "point", "state": "a"}, "grid": {"points": [1]}})
WRONG_TYPE["string-u-size"] = (
    "rates null", {**GEO, "nu": NU, "u": {"kind": "ones", "size": "a"}, "grid": {"points": [1]}})


@pytest.mark.parametrize("command, payload", list(WRONG_TYPE.values()), ids=list(WRONG_TYPE))
def test_wrong_type_exits_2_before_the_chain_is_built(tmp_path, capsys, monkeypatch,
                                                      command, payload):
    def refuse(*args):
        raise AssertionError("build_chain ran before the values were read")

    monkeypatch.setattr("renewallab.config.build_chain", refuse)
    code, _ = run(tmp_path, command.split(), payload)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error")


@pytest.mark.parametrize("command, payload, valid", [
    ("chain info", {"chain": {"law": {"type": "zato"}, "truncation": 100}}, LAWS),
    ("rates distance", {**BLOCKS["rates distance"], "nu": {"kind": "pt"}},
     ("point", "stationary", "weights")),
    ("rates null", {**GEO, **RATES, "u": {"kind": "all"}}, ("indicator", "ones", "values")),
    ("series probe", {"probe": "fft"}, PROBES),
], ids=["law-type", "measure-kind", "observable-kind", "probe"])
def test_unknown_kind_exits_2_listing_the_valid_ones(tmp_path, capsys, command,
                                                     payload, valid):
    code, _ = run(tmp_path, command.split(), payload)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error")
    assert all(repr(kind) in err[0] for kind in valid)


def test_malformed_json_exits_2(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["chain", "info", "--config", str(cfg), "--quiet"]) == 2


@pytest.mark.parametrize("data", [
    b"\xff\xfe\x00",
    b'{"a":' * 10 ** 5 + b"1" + b"}" * 10 ** 5,  # nested past the recursion limit
], ids=["not-utf8", "deep"])
def test_unreadable_json_exits_2(tmp_path, capsys, data):
    cfg = tmp_path / "broken.json"
    cfg.write_bytes(data)
    assert main(["chain", "info", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error") and str(cfg) in err[0]


@pytest.mark.parametrize("out", ["afile", "o/summary.json/x"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, monkeypatch, out):
    (tmp_path / "afile").write_text("")
    assert run(tmp_path, ["chain", "info"], GEO, sub="o")[0] == 0

    def refuse(*args):
        raise AssertionError("the chain was built before the output directory")

    monkeypatch.setattr("renewallab.cli.chain_from_config", refuse)
    cfg = write_cfg(tmp_path, GEO)
    target = str(tmp_path / out)
    assert main(["chain", "info", "--config", cfg, "--out", target, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error")
    assert f"output directory {target}:" in err and "Traceback" not in err


def test_missing_config_file_exits_2(tmp_path):
    assert main(["chain", "info", "--config", str(tmp_path / "nope.json"),
                 "--quiet"]) == 2


def test_lemma2_on_geometric_exits_3_naming_the_reason(tmp_path, capsys):
    payload = {**GEO, "grid": {"points": [10, 100]}}
    code, _ = run(tmp_path, ["rates", "lemma2"], payload)
    assert code == 3
    assert "InfiniteDegree" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload, error", [
    # null-recurrent: the tail that the leftover 0.1 makes has degree -0.5
    ("rates lemma2", {"chain": {"law": {"type": "custom", "probs": [0.5, 0.3, 0.1],
                                        "tail_exponent": 1.5}, "truncation": 200},
                      "grid": {"points": [10, 100]}}, "NotPositiveRecurrent"),
    ("rates distance", {"chain": {"law": {"type": "zeta", "degree": -0.5}, "truncation": 200},
                        "nu": {"kind": "stationary"}, "grid": {"points": [10]}},
     "NotPositiveRecurrent"),
], ids=["lemma2-degree", "distance-stationary-null"])
def test_degree_and_stationary_law_refusals_exit_3(tmp_path, capsys, command, payload, error):
    code, _ = run(tmp_path, command.split(), payload)
    assert code == 3
    assert error in capsys.readouterr().err


def test_custom_law_with_leftover_mass_builds_its_tail(tmp_path):
    law = {"type": "custom", "probs": [0.5, 0.3, 0.1], "tail_exponent": 3.5}
    code, out = run(tmp_path, ["chain", "info"], {"chain": {"law": law, "truncation": 200}})
    assert code == 0
    res = summary(out)["results"]
    assert res["law"] == {**law, "tail_log_power": 0.0}
    assert res["classification"] == "positive-recurrent" and res["ergodic_degree"] == 1.5


NULL = {"chain": {"law": {"type": "zeta", "degree": 0}, "truncation": 2000}}
ORBIT = {"orbit_length": 5000, "burn_in": 100, "seed": 3}


@pytest.mark.parametrize("command, payload", [
    ("map simulate", {**NULL, "length": 5000, "sampler": "float"}),
    ("map correlate", {**NULL, **CORRELATE, **ORBIT, "sampler": "float"}),
    ("map kac", {**NULL, **ORBIT, "sampler": "float"}),
    ("map frequency", {**NULL, **ORBIT, "sampler": "float"}),
    ("map frequency", {**NULL, **ORBIT}),
    ("map entrance", {**NULL, "a": 0.3, "n_max": 50, "samples": 1000}),
    ("map kac", {**NULL, **ORBIT}),
], ids=["simulate-float", "correlate-float", "kac-float", "frequency-float",
        "frequency-chain", "entrance", "kac-chain"])
def test_null_recurrent_chain_in_the_map_layer_exits_3(tmp_path, capsys, command,
                                                       payload):
    # no invariant density or stationary law: refused before any draw
    code, _ = run(tmp_path, command.split(), payload)
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "NotPositiveRecurrent" in err[0]
    assert "null-recurrent" in err[0]


TINY = {"chain": {"law": {"type": "zeta", "degree": 1e-9}, "truncation": 500},
        "sampler": "float"}


@pytest.mark.parametrize("command, payload", [
    ("map simulate", {**TINY, "length": 5000, "seed": 1}),
    ("map correlate", {**TINY, **CORRELATE, **ORBIT}),
    ("map kac", {**TINY, **ORBIT}),
    ("map frequency", {**TINY, **ORBIT}),
], ids=["simulate", "correlate", "kac", "frequency"])
def test_float_sampler_refuses_cells_without_stationary_mass(tmp_path, capsys, command,
                                                            payload):
    # at degree 1e-9 the 500 resolvable cells hold 7.8e-9 of the stationary
    # mass, so each start would redraw about 10^8 times
    start = time.perf_counter()
    code, _ = run(tmp_path, command.split(), payload)
    assert time.perf_counter() - start < 1.0
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "TruncationTooSmall" in err[0]


@pytest.mark.parametrize("command, payload", [
    ("map simulate", {"chain": {"law": {"type": "zeta", "degree": 1.0}, "truncation": 500},
                      "length": 20000, "i_max": 1000, "seed": 1}),
    ("map simulate", {**GEO, "length": 1000, "i_max": 0, "seed": 1}),
    ("map frequency", {**GEO, **ORBIT, "i_max": 1001}),
], ids=["simulate-past-the-prefix", "simulate-empty-table", "frequency-past-the-dense-cap"])
def test_i_max_out_of_range_exits_3_before_drawing(tmp_path, capsys, monkeypatch, command,
                                                   payload):
    # a table past the stored prefix or with no row, or i_max^2 cells past
    # the dense cap
    def refuse(*args):
        raise AssertionError("the orbit was drawn before i_max was checked")

    monkeypatch.setattr("renewallab.cli.coded_states", refuse)
    monkeypatch.setattr("renewallab.maps.coded_states", refuse)
    monkeypatch.setattr("renewallab.maps._rng", refuse)
    code, _ = run(tmp_path, command.split(), payload)
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "PreconditionViolated" in err[0] and "i_max" in err[0]


GAP = {"chain": {"law": {"type": "finite", "probs": [0.5, 0.0, 0.5]}, "truncation": 100}}
GAP_RUNS = {
    "map kac": {**GAP, **ORBIT},
    "map frequency": {**GAP, **ORBIT, "i_max": 4},
    "map correlate": {**GAP, **CORRELATE, **ORBIT},
    "map entrance": {**GAP, "a": 0.5, "n_max": 10, "samples": 1000},
}


@pytest.mark.parametrize("command", GAP_RUNS, ids=lambda c: c.split()[1])
def test_gap_in_the_support_runs_without_a_map(tmp_path, capsys, command):
    # a law with p_2 = 0 has no branch map; only the float sampler needs one
    code, _ = run(tmp_path, command.split(), GAP_RUNS[command])
    assert code == 0
    if command == "map entrance":
        return
    code, _ = run(tmp_path, command.split(), {**GAP_RUNS[command], "sampler": "float"},
                  sub="float")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "ZeroProbabilityBranch" in err[0]


@pytest.mark.parametrize("command, payload", [
    ("map entrance", {**ZETA, "a": 0.16, "n_max": 200, "samples": 1000}),
    ("rates distance", {**ZETA, "nu": {"kind": "point", "state": 1},
                        "grid": {"lo": 1, "hi": 200, "count": 20}}),
], ids=["entrance", "distance"])
def test_fit_window_without_two_grid_points_exits_3(tmp_path, capsys, command, payload):
    # map entrance wrote "fit": null and exited 0 on a window past n_max
    code, _ = run(tmp_path, command.split(), {**payload, "fit_window": [300, 400]})
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "window [300, 400] holds fewer than two grid points" in err[0]


WINDOW = {"grid": {"points": [10, 100]}, "fit_window": [20, 30]}
FAILING_RUNS = [
    ("rates distance", {**GEO, "nu": NU, **WINDOW}, 3),
    ("rates correlation", {**GEO, **RATES, **WINDOW}, 3),
    ("map entrance", {**ZETA, "a": 0.16, "n_max": 200, "samples": 1000,
                      "fit_window": [300, 400]}, 3),
    ("rates constant", {"chain": {"law": {"type": "zeta", "degree": 1.0}, "truncation": 500},
                        "nu": NU, "u": {"kind": "values", "values": [0.0]},
                        "grid": {"points": [10, 100, 200]}}, 3),
    ("rates distance", {**GEO, "nu": NU, "grid": {"points": [10, 1000]}}, 4),
    ("map simulate", {"chain": {"law": {"type": "zeta", "degree": -0.9}, "truncation": 2},
                      "length": 1, "burn_in": 0, "i_max": 1, "seed": 1}, 4),
]


@pytest.mark.parametrize("command, payload, exit_code", FAILING_RUNS,
                         ids=["distance-window", "correlation-window", "entrance-window",
                              "constant-vanishing", "distance-past-the-horizon",
                              "simulate-all-censored"])
def test_a_failed_command_writes_no_artifact(tmp_path, capsys, command, payload, exit_code):
    # rates distance and correlation wrote their curve and its sidecar
    # before the fit refused the window
    code, out = run(tmp_path, command.split(), payload)
    assert code == exit_code
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert out.is_dir() and not any(out.iterdir())


def test_entrance_default_fit_window_falls_back_on_a_finite_law(tmp_path):
    # the survival of a law of finite support is zero past it, so the
    # last decade cannot be fitted in log-log
    payload = {"chain": {"law": {"type": "finite", "probs": [0.5, 0.5]}, "truncation": 100},
               "a": 0.5, "n_max": 10, "samples": 1000}
    code, out = run(tmp_path, ["map", "entrance"], payload)
    assert code == 0
    res = summary(out)["results"]
    assert res["fit"] is None and res["k"] == 1 and "n_samples" not in res
    # the exact curve's rounding bound is stated once, as a factor of each
    # value; its truncation part, the table's tail_bound, is zero
    eps = sys.float_info.epsilon
    assert res["rounding_rel_bound"] == 1.5 * eps / (1.0 - 1.5 * eps)
    rows = (out / "map_entrance.csv").read_text().splitlines()
    assert rows[0] == "n,value,tail_bound" and rows[1] == "1,0.3333333333333333,0.0"


def test_short_prefix_exits_4(tmp_path):
    payload = {
        "chain": {"law": {"type": "geometric", "q": 0.5}, "truncation": 50},
        "nu": {"kind": "point", "state": 1},
        "grid": {"points": [10, 100]},
    }
    code, _ = run(tmp_path, ["rates", "distance"], payload)
    assert code == 4


def test_constant_with_a_vanishing_prediction_exits_3(tmp_path, capsys):
    # pi . u = 0 leaves no relative gap to report
    payload = {"chain": {"law": {"type": "zeta", "degree": 1.0}, "truncation": 500},
               "nu": {"kind": "point", "state": 1}, "u": {"kind": "values", "values": [0.0]},
               "grid": {"points": [10, 100, 200]}}
    code, _ = run(tmp_path, ["rates", "constant"], payload)
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "PreconditionViolated" in err[0]


@pytest.mark.parametrize("command, degree", [
    ("rates correlation", 1.0), ("rates constant", 1.0), ("rates null", -0.5)],
    ids=["correlation", "constant", "null"])
def test_observable_past_the_prefix_exits_4(tmp_path, capsys, command, degree):
    # u = 1_{505} on a prefix of 500 states was read as zero
    payload = {"chain": {"law": {"type": "zeta", "degree": degree}, "truncation": 500},
               "nu": {"kind": "point", "state": 1},
               "u": {"kind": "indicator", "states": [505], "size": 510},
               "grid": {"points": [10, 100, 200]}}
    code, _ = run(tmp_path, command.split(), payload)
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "TruncationTooSmall" in err[0]


@pytest.mark.parametrize("nu", [{"kind": "stationary", "size": 3000},
                                {"kind": "point", "state": 3000}], ids=["stationary", "point"])
def test_initial_measure_past_the_prefix_exits_4(tmp_path, capsys, nu):
    # both exited 3 (PreconditionViolated), though a larger truncation mends them
    payload = {"chain": {"law": {"type": "zeta", "degree": 1.0}, "truncation": 2000},
               "nu": nu, "grid": {"points": [10, 100]}}
    code, _ = run(tmp_path, ["rates", "distance"], payload)
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "TruncationTooSmall" in err[0]
    assert "reads state 3000, past the stored prefix of 2000 states" in err[0]


def test_chain_info_at_a_large_log_power_is_quiet(tmp_path, capsys):
    # scipy's quad warned of roundoff here on a run that succeeds
    payload = {"chain": {"law": {"type": "zeta", "degree": 1.0, "log_power": 170},
                         "truncation": 1000}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, ["chain", "info"], payload)
    assert code == 0 and not caught
    assert capsys.readouterr().err == ""


def test_eigen_candidate_outside_the_disk_exits_3_without_overflow(tmp_path, capsys):
    payload = {**GEO, "dimension": 100, "lambdas": [[10 ** 6, 0.1]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _ = run(tmp_path, ["spectral", "eigen"], payload)
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("precondition violated")


def test_gf_pole_exits_3(tmp_path):
    payload = {**GEO, "z_points": [1.0]}
    code, _ = run(tmp_path, ["spectral", "gf"], payload)
    assert code == 3


@pytest.mark.parametrize("i, j", [(3000, 3000), (1, 3000)])
def test_gf_target_past_the_prefix_exits_4(tmp_path, capsys, i, j):
    payload = {"chain": {"law": {"type": "zeta", "degree": 1.0}, "truncation": 2000},
               "z_points": [0.999], "i": i, "j": j}
    code, _ = run(tmp_path, ["spectral", "gf"], payload)
    assert code == 4
    assert "TruncationTooSmall" in capsys.readouterr().err


# ----------------------------------------------------------------------
# one parser per process
# ----------------------------------------------------------------------

def test_main_builds_at_most_one_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for k in range(5):
        assert run(tmp_path, ["chain", "info"], GEO, sub=f"o{k}")[0] == 0
    assert len(built) <= 1


def test_flags_do_not_carry_to_the_next_call(tmp_path):
    payload = {**GEO, "orbit_length": 1000, "seed": 11}
    _, out1 = run(tmp_path, ["map", "kac"], payload, "--seed", "7", sub="o1")
    _, out2 = run(tmp_path, ["map", "kac"], payload, sub="o2")
    assert summary(out1)["seed"] == 7 and summary(out2)["seed"] == 11
    _, out3 = run(tmp_path, ["chain", "info"], GEO, "--truncation", "64", sub="o3")
    _, out4 = run(tmp_path, ["chain", "info"], GEO, sub="o4")
    assert summary(out3)["results"]["truncation"] == 64
    assert summary(out4)["results"]["truncation"] == GEO["chain"]["truncation"]


def test_usage_errors_after_a_warm_parser(tmp_path, capsys):
    assert run(tmp_path, ["chain", "info"], GEO)[0] == 0
    cfg = write_cfg(tmp_path, GEO)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "--config" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["rates", "bogus", "--config", cfg])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "'rates bogus'" in err and all(c in err for c in COMMANDS)
    with pytest.raises(SystemExit) as exc:
        main(["chain", "info"])
    assert exc.value.code == 2 and "--config" in capsys.readouterr().err


def test_artifacts_take_the_mode_that_open_gives(tmp_path):
    payload = {**GEO, "nu": {"kind": "point", "state": 1}, "grid": {"points": [1, 2]}}
    old = os.umask(0o022)
    try:
        for mask in (0o022, 0o077):
            os.umask(mask)
            with open(tmp_path / f"plain{mask:o}", "w"):
                pass
            expected = stat.S_IMODE(os.stat(tmp_path / f"plain{mask:o}").st_mode)
            code, out = run(tmp_path, ["rates", "distance"], payload, sub=f"o{mask:o}")
            assert code == 0
            names = sorted(p.name for p in out.iterdir())
            assert names == ["rates_distance.csv", "rates_distance.csv.meta.json",
                             "summary.json"]
            for name in names:
                assert stat.S_IMODE(os.stat(out / name).st_mode) == expected, (mask, name)
    finally:
        os.umask(old)


def test_a_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr("renewallab.cli.os.replace", fail)
    with pytest.raises(OSError, match="disk full"):
        cli._atomic_bytes(str(tmp_path / "a.csv"), b"x\n")
    assert not any(tmp_path.iterdir())


def test_console_module_entry(tmp_path):
    cfg = write_cfg(tmp_path, GEO)
    proc = subprocess.run(
        [sys.executable, "-m", "renewallab.cli", "chain", "info",
         "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"],
        capture_output=True,
    )
    assert proc.returncode == 0


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------

def test_rate_curve_csv_layout_and_sidecar(tmp_path):
    payload = {
        **GEO,
        "nu": {"kind": "point", "state": 1},
        "grid": {"points": [1, 2, 5, 10]},
    }
    code, out = run(tmp_path, ["rates", "distance"], payload)
    assert code == 0
    lines = (out / "rates_distance.csv").read_text().splitlines()
    assert lines[0] == "n,value,tail_bound"
    assert len(lines) == 5
    meta = json.loads((out / "rates_distance.csv.meta.json").read_text())
    assert meta["columns"] == ["n", "value", "tail_bound"]
    assert meta["command"] == "rates distance"
    assert meta["tool_version"]
    assert meta["config_sha256"] == summary(out)["config_sha256"]


def test_map_kac_rerun_is_byte_identical(tmp_path):
    payload = {**GEO, "orbit_length": 120_000, "seed": 11}
    _, out1 = run(tmp_path, ["map", "kac"], payload, sub="o1")
    _, out2 = run(tmp_path, ["map", "kac"], payload, sub="o2")
    for name in ("summary.json", "map_kac_histogram.csv",
                 "map_kac_histogram.csv.meta.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_flag_overrides_config_seed(tmp_path):
    payload = {**GEO, "orbit_length": 120_000, "seed": 11}
    _, out1 = run(tmp_path, ["map", "kac"], payload, sub="o1")
    _, out2 = run(tmp_path, ["map", "kac"], payload, "--seed", "99", sub="o2")
    s1, s2 = summary(out1), summary(out2)
    assert s1["seed"] == 11 and s2["seed"] == 99
    assert s1["results"]["product"] != s2["results"]["product"]


def test_truncation_flag_overrides_config(tmp_path):
    code, out = run(tmp_path, ["chain", "info"], GEO, "--truncation", "64")
    assert code == 0
    assert summary(out)["results"]["truncation"] == 64


def test_estimator_csv_columns(tmp_path):
    payload = {
        **GEO,
        "u": {"kind": "indicator", "states": [1], "size": 20},
        "v": {"kind": "indicator", "states": [1], "size": 20},
        "lags": {"points": [1, 2, 5]},
        "orbit_length": 60_000,
        "seed": 42,
    }
    code, out = run(tmp_path, ["map", "correlate"], payload)
    assert code == 0
    lines = (out / "map_correlate.csv").read_text().splitlines()
    assert lines[0] == "n,mean,stderr,censored"
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "5"]
    assert all(row.split(",")[3] == "0" for row in lines[1:])


def test_eigen_csv_columns(tmp_path):
    payload = {**GEO, "dimension": 200, "lambdas": [1.0, 0.5, [0.0, 1.0]]}
    code, out = run(tmp_path, ["spectral", "eigen"], payload)
    assert code == 0
    lines = (out / "spectral_eigen.csv").read_text().splitlines()
    assert lines[0] == "re_lambda,im_lambda,residual,l1_partial_norm"
    top = lines[1].split(",")
    assert float(top[2]) == 0.0
    assert float(top[3]) == 2.0


def test_gf_csv_carries_exact_radial_values(tmp_path):
    payload = {**GEO, "z_points": [0.5], "i": 1, "j": 1}
    code, out = run(tmp_path, ["spectral", "gf"], payload)
    assert code == 0
    row = (out / "spectral_gf.csv").read_text().splitlines()[1].split(",")
    assert float(row[2]) == 1.5
    assert abs(float(row[4]) - 1.0 / 3.0) < 1e-15


def test_factorize_summary_verdict(tmp_path):
    payload = {**ZETA, "z_points": [0.5, [-0.3, 0.4]], "dimension": 200}
    code, out = run(tmp_path, ["spectral", "factorize"], payload)
    assert code == 0
    res = summary(out)["results"]
    assert res["pass"] is True
    assert res["max_residual"] < 1e-12


def test_series_probe_convolution_and_exponent_gate(tmp_path):
    code, out = run(tmp_path, ["series", "probe"],
                    {"probe": "convolution", "gamma": 2.5, "n_list": [16, 64]})
    assert code == 0
    assert summary(out)["results"]["regime"] == "n^(1-g)"
    code, _ = run(tmp_path, ["series", "probe"],
                  {"probe": "convolution", "gamma": 0.5, "n_list": [16]},
                  name="bad.json")
    assert code == 2


def test_series_probe_zeros_reports_a_root_at_the_default_prefix(tmp_path):
    # the default prefix of 2000 takes the O(n) positive-root route
    payload = {**ZETA, "probe": "zeros", "points": 36}
    code, out = run(tmp_path, ["series", "probe"], payload)
    assert code == 0
    root = summary(out)["results"]["smallest_root_modulus"]
    assert root is not None and 1.0 < root < 1.0 + 1e-6


@pytest.mark.parametrize("law, truncation, kaluza", [
    ({"type": "geometric", "q": 0.5}, 500, False),
    ({"type": "zeta", "degree": 1.0, "log_power": 0.0}, 500, True),
    # stored prefixes that end in zeros: underflow past 2^-1074, and a finite support
    ({"type": "geometric", "q": 0.5}, 2000, False),
    ({"type": "finite", "probs": [0.5, 0.5]}, 10, False),
    # a power tail behind a zero: no decrease, and no exit 2
    ({"type": "custom", "probs": [0.3, 0.0, 0.2], "tail_exponent": 3.0,
      "tail_log_power": 0.0}, 50, False),
    # p_n^2 underflows from n = 4 on, while the ratios stay normal
    ({"type": "zeta", "degree": 300.0, "log_power": 0.0}, 500, True),
], ids=["geometric", "zeta", "geometric-underflow", "finite", "custom-gap",
        "zeta-high-degree"])
def test_series_probe_kaluza_reports_the_law_and_its_verdict(tmp_path, capsys, law,
                                                            truncation, kaluza):
    payload = {"chain": {"law": law, "truncation": truncation}, "probe": "kaluza"}
    code, out = run(tmp_path, ["series", "probe"], payload)
    assert code == 0 and capsys.readouterr().err == ""
    assert summary(out)["results"] == {"kaluza": kaluza, "law": law}


#: the exact ``results`` keys of the commands whose results are read off
#: their report's fields, so that a field added to a report is a choice
#: made here, not a silent change of summary.json
ESTIMATE_KEYS = {"mean", "stderr", "n_samples", "censored"}
FIT_KEYS = {"exponent", "intercept", "window", "rms_residual"}
RECORDED = {
    "map correlate": ({**GEO, **CORRELATE, "orbit_length": 5000},
                      {"estimates", "sampler", "streams"}),
    "map entrance": ({**GEO, "a": 0.5, "n_max": 100, "samples": 1000},
                     {"a_effective", "k", "rounding_rel_bound", "fit"}),
    "map kac": ({**GEO, "orbit_length": 5000},
                {"rho_e", "mean_return", "product", "n_returns", "n_steps", "censored",
                 "tolerance", "pass"}),
    "map frequency": ({**GEO, "orbit_length": 5000},
                      {"n_steps", "censored", "max_transition_sigma", "max_occupation_sigma",
                       "sigma", "pass"}),
    "rates distance": ({**GEO, "nu": NU, "grid": {"points": [1, 10, 100]},
                        "fit_window": [1, 100]}, {"final_n", "final_value", "fit"}),
}


@pytest.mark.parametrize("command", RECORDED, ids=lambda c: c.replace(" ", "-"))
def test_summary_keys_of_the_recorded_reports(tmp_path, command):
    payload, keys = RECORDED[command]
    code, out = run(tmp_path, command.split(), payload)
    assert code == 0
    res = summary(out)["results"]
    assert set(res) == keys
    if "estimates" in res:
        assert res["estimates"].keys() == {"1", "2"}
        assert all(set(est) == ESTIMATE_KEYS for est in res["estimates"].values())
    if "fit" in res:
        assert set(res["fit"]) == FIT_KEYS


@pytest.mark.parametrize("prefix", [0, 1, 20001])
def test_series_probe_zeros_prefix_out_of_range_exits_2(tmp_path, capsys, prefix):
    # a zero modulus needs a polynomial of degree one at least
    code, _ = run(tmp_path, ["series", "probe"], {**ZETA, "probe": "zeros", "prefix": prefix})
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "'prefix' must lie in [2, 20000]" in err[0]


def test_quiet_flag_suppresses_stdout(tmp_path, capsys):
    run(tmp_path, ["chain", "info"], GEO)
    assert capsys.readouterr().out == ""
    cfg = write_cfg(tmp_path, GEO)
    main(["chain", "info", "--config", cfg, "--out", str(tmp_path / "o2")])
    assert "m1" in capsys.readouterr().out


def test_stationary_start_measure_roundtrip(tmp_path):
    # distance from the stationary start is identically zero
    payload = {
        **GEO,
        "nu": {"kind": "stationary"},
        "grid": {"points": [1, 5, 25]},
    }
    code, out = run(tmp_path, ["rates", "distance"], payload)
    assert code == 0
    lines = (out / "rates_distance.csv").read_text().splitlines()[1:]
    for row in lines:
        assert float(row.split(",")[1]) < 1e-12


@pytest.mark.parametrize("sampler", ["chain", "float"])
def test_map_simulate_occupation_table(tmp_path, sampler):
    payload = {**GEO, "length": 60_000, "seed": 7, "sampler": sampler,
               "i_max": 4}
    code, out = run(tmp_path, ["map", "simulate"], payload, sub=sampler)
    assert code == 0
    lines = (out / "map_simulate_occupation.csv").read_text().splitlines()
    assert lines[0] == "state,visits,frequency,exact"
    top = lines[1].split(",")
    assert float(top[3]) == 0.5
    assert abs(float(top[2]) - 0.5) < 0.02


@pytest.mark.parametrize("command, keys", [
    ("map kac", {}),
    ("map frequency", {"i_max": 4}),
    ("map correlate", {"u": {"kind": "indicator", "states": [1], "size": 20},
                       "v": {"kind": "indicator", "states": [1], "size": 20},
                       "lags": {"points": [1, 2]}}),
], ids=["kac", "frequency", "correlate"])
def test_float_sampler_runs_every_map_command(tmp_path, command, keys):
    payload = {**GEO, "orbit_length": 20_000, "burn_in": 1000, "seed": 3,
               "sampler": "float", **keys}
    code, out = run(tmp_path, command.split(), payload)
    assert code == 0
    res = summary(out)["results"]
    # the float doubling map drains its mantissa, so its orbits censor
    censored = res["censored"] if "censored" in res else res["estimates"]["1"]["censored"]
    assert censored > 0


# ----------------------------------------------------------------------
# config fuzz: one edge value in one numeric leaf of a valid config
# ----------------------------------------------------------------------

ZETA_2000 = {"chain": {"law": {"type": "zeta", "degree": 1.0}, "truncation": 2000}}
POINT = {"kind": "point", "state": 1}
IND_1 = {"kind": "indicator", "states": [1], "size": 10}
#: one valid config per command, each run in well under a second
FUZZ_BASES = {
    "chain info": ZETA_2000,
    "rates distance": {**ZETA_2000, "nu": POINT, "grid": {"points": [1, 10, 100]},
                       "fit_window": [1, 100]},
    "rates correlation": {**ZETA_2000, "nu": {"kind": "weights", "weights": [0.5, 0.5]},
                          "u": IND_1, "grid": {"points": [1, 10, 100]},
                          "fit_window": [1, 100]},
    "rates lemma2": {**ZETA_2000, "grid": {"lo": 1, "hi": 1000, "count": 10},
                     "band": [0.9, 1.1]},
    "rates constant": {"chain": {"law": {"type": "zeta", "degree": 1.5}, "truncation": 2000},
                       "nu": POINT, "u": {"kind": "values", "values": [1.0, -0.5]},
                       "grid": {"points": [10, 100]}, "rel_tolerance": 0.2},
    "rates null": {"chain": {"law": {"type": "zeta", "degree": -0.5}, "truncation": 2000},
                   "nu": {"kind": "point", "state": 2},
                   "u": {"kind": "indicator", "states": [1], "size": 2},
                   "grid": {"points": [10, 100]}},
    "spectral factorize": {**ZETA_2000, "dimension": 100, "tolerance": 1e-12,
                           "z_points": [[0.5, 0.1], 0.9]},
    "spectral eigen": {**ZETA_2000, "dimension": 100, "lambdas": [[0.5, 0.1]]},
    "spectral gf": {**ZETA_2000, "i": 1, "j": 2, "z_points": [0.5, [0.3, 0.2]]},
    "map simulate": {**ZETA_2000, "length": 20_000, "i_max": 10, "burn_in": 100, "seed": 3,
                     "sampler": "float"},
    "map correlate": {**ZETA_2000, "orbit_length": 20_000, "streams": 2, "burn_in": 100,
                      "seed": 3, "u": IND_1,
                      "v": {"kind": "values", "values": [0.5, -1.0], "limit": 0.25},
                      "lags": {"points": [1, 5]}},
    "map entrance": {**ZETA_2000, "a": 0.01, "n_max": 200, "samples": 20_000, "seed": 3,
                     "fit_window": [10, 100]},
    "map kac": {**ZETA_2000, "orbit_length": 20_000, "tolerance": 0.01, "histogram_max": 30,
                "burn_in": 100, "seed": 3, "sampler": "float"},
    "map frequency": {**ZETA_2000, "orbit_length": 20_000, "i_max": 10, "sigma": 3.0,
                      "burn_in": 100, "seed": 3},
    "series probe": {**ZETA_2000, "probe": "zeros", "radii": [0.5, 0.9], "points": 360,
                     "prefix": 500},
}
EDGES = (0, 1, -1, 1e-300, 1e-9, 0.999999, 1e6)
#: keys that size an orbit: edge values above 4e4 would only make runs slow
ORBIT_SIZES = {"length", "orbit_length", "samples", "burn_in"}


def numeric_leaves(cfg, path=()):
    """Paths to the numbers of a config, through dicts and lists."""
    if isinstance(cfg, (dict, list)):
        for key, value in (cfg.items() if isinstance(cfg, dict) else enumerate(cfg)):
            yield from numeric_leaves(value, path + (key,))
    elif isinstance(cfg, (int, float)) and not isinstance(cfg, bool):
        yield path


def with_leaf(cfg, path, value):
    if not path:
        return value
    out = dict(cfg) if isinstance(cfg, dict) else list(cfg)
    out[path[0]] = with_leaf(cfg[path[0]], path[1:], value)
    return out


def test_fuzz_bases_cover_every_command_and_exit_0(tmp_path):
    assert set(FUZZ_BASES) == set(COMMANDS)
    for k, (command, cfg) in enumerate(FUZZ_BASES.items()):
        assert run(tmp_path, command.split(), cfg, sub=f"out{k}")[0] == 0, command


def test_simulate_with_every_step_censored_exits_4_before_writing(tmp_path, capsys):
    # two stored states of a null-recurrent chain: the one recorded step
    # jumps past the prefix, so no visit frequency is defined
    payload = {"chain": {"law": {"type": "zeta", "degree": -0.9}, "truncation": 2},
               "length": 1, "burn_in": 0, "i_max": 1, "seed": 1}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run(tmp_path, ["map", "simulate"], payload)
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "TruncationTooSmall" in err[0] and "all 1 recorded" in err[0]
    assert not any(out.iterdir())


@given(command=st.sampled_from(sorted(FUZZ_BASES)), data=st.data())
@settings(max_examples=200, deadline=10_000)
def test_edge_value_in_any_numeric_leaf_exits_cleanly(command, data):
    base = FUZZ_BASES[command]
    path = data.draw(st.sampled_from(list(numeric_leaves(base))))
    old = base
    for key in path:
        old = old[key]
    edges = [v for v in EDGES if not (path[-1] in ORBIT_SIZES and v > 4e4)]
    value = data.draw(st.sampled_from(edges))
    # integral edges keep an integer leaf an integer
    if isinstance(old, int) and value == int(value):
        value = int(value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(with_leaf(base, path, value)))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(command.split() + ["--config", str(cfg), "--out", str(Path(tmp) / "out"),
                                           "--quiet"])
    # the console prints warnings to stderr, two lines each
    stderr = err.getvalue() + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in out.getvalue() + stderr
    if code:
        assert len(stderr.splitlines()) == 1, stderr
    else:  # an overflow or invalid value on a run that succeeds is a silent NaN
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], stderr
