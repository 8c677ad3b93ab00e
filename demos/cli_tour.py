"""A quick tour of the command-line layer.

Runs a handful of commands against generated configs in a temporary
directory and shows the artifacts, including the byte-for-byte rerun
guarantee for the stochastic commands.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

GEO = {"chain": {"law": {"type": "geometric", "q": 0.5}, "truncation": 2000}}
HEAVY = {"chain": {"law": {"type": "zeta", "degree": 1.0},
                   "truncation": 21000}}


def cli(*args):
    cmd = [sys.executable, "-m", "renewallab.cli", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc


def main():
    with tempfile.TemporaryDirectory(prefix="renewallab-tour-") as tmp:
        tour(Path(tmp))


def tour(root):
    print(f"working under {root}")
    print()

    cfg = root / "geo.json"
    cfg.write_text(json.dumps(GEO))
    print("== chain info ==")
    proc = cli("chain", "info", "--config", str(cfg), "--out",
               str(root / "info"))
    print("  " + proc.stdout.strip().replace("\n", "\n  "))
    print()

    print("== a deviation-ratio curve needs a polynomial tail ==")
    lem = root / "lemma2.json"
    lem.write_text(json.dumps({**GEO, "grid": {"points": [10, 100]}}))
    proc = cli("rates", "lemma2", "--config", str(lem), "--out",
               str(root / "lem_geo"))
    print(f"  on the dyadic law: exit {proc.returncode}"
          f" ({proc.stderr.strip()})")
    lem.write_text(json.dumps({**HEAVY, "grid": {"points": [100, 1000]}}))
    proc = cli("rates", "lemma2", "--config", str(lem), "--out",
               str(root / "lem_heavy"), "--quiet")
    summary = json.loads((root / "lem_heavy" / "summary.json").read_text())
    print(f"  on the n^-3 law:   exit {proc.returncode},"
          f" final ratio {summary['results']['final_ratio']:.4f}")
    print()

    print("== stochastic commands rerun byte-for-byte ==")
    kac = root / "kac.json"
    kac.write_text(json.dumps({**GEO, "orbit_length": 200_000, "seed": 11}))
    cli("map", "kac", "--config", str(kac), "--out", str(root / "k1"),
        "--quiet")
    cli("map", "kac", "--config", str(kac), "--out", str(root / "k2"),
        "--quiet")
    same = all(
        (root / "k1" / name).read_bytes() == (root / "k2" / name).read_bytes()
        for name in ("summary.json", "map_kac_histogram.csv",
                     "map_kac_histogram.csv.meta.json")
    )
    print(f"  two runs, identical artifacts: {same}")
    product = json.loads(
        (root / "k1" / "summary.json").read_text()
    )["results"]["product"]
    print(f"  occupation * mean return = {product}")
    print()

    print("== every CSV ships with a provenance sidecar ==")
    meta = json.loads(
        (root / "k1" / "map_kac_histogram.csv.meta.json").read_text()
    )
    for key, value in sorted(meta.items()):
        print(f"  {key}: {value}")
    print()

    print("== config schemas reject unknown keys before any work ==")
    bad = root / "bad.json"
    bad.write_text(json.dumps({**GEO, "orbit_len": 1000}))
    proc = cli("map", "kac", "--config", str(bad), "--out", str(root / "kb"))
    print(f"  exit {proc.returncode}: {proc.stderr.strip()}")


if __name__ == "__main__":
    main()
