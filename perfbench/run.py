"""Benchmark of renewallab: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload exact-large --seed 1 --seconds 15 --trace 0

A run sets up the workload several times in fresh interpreters (``setup_s``
is the median), sets it up once more in this process, runs one warm-up pass
and then repeats timed passes until ``--seconds`` have elapsed, and at least
twice.  Every
operation's output is checked.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the metrics are the
``end_to_end`` set of ``BENCHMARK.json`` with ``--trace 0`` and its
``per_layer`` set with ``--trace 1``.  A traced run alternates untraced and
traced passes, so the tracing overhead is measured in the same process.
Times are scaled to a reference machine speed by a calibration kernel timed
around the calls (see ``ops.py``).
Lines above the JSON give the machine, every metric with its unit, and the
failures.  Results, machine record and spans go to ``.perfbench_out/``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run stops with exit code 2.  BLAS and OpenMP threads are
capped at one before numpy loads; the cap and nproc go in the machine record.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
# One BLAS/OpenMP thread, which is at most nproc.  The package's BLAS calls
# are many short dot products: on 2 CPUs two threads made them 10-30%
# slower and their run-to-run spread ten times wider, and a single
# competing process stretched a run fourfold.
THREAD_CAP = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_CAP)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = {"exact-large": "exact_large", "orbit-mc": "orbit_mc",
             "cli-batch": "cli_batch"}
SETUP_PROBES = 4  # fresh-interpreter set-ups per run; setup_s is their median
MIN_PASSES = 2  # timed passes per run at least, however long a pass takes
#: layer timings taken during set-up rather than during a pass
SETUP_LAYERS = ("chain.build_chain", "maps.build_map")


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=Path, default=None,
                    help=argparse.SUPPRESS)  # internal: one timed set-up
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_package() -> float:
    """Import renewallab from this checkout's src/; return the import time."""
    if not (SRC / "renewallab" / "__init__.py").is_file():
        print(f"perfbench: no renewallab source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import renewallab

    seconds = time.perf_counter() - t0
    if SRC not in Path(renewallab.__file__).resolve().parents:
        print(f"perfbench: renewallab imported from {renewallab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return seconds


def _probe(args) -> int:
    """Child side of one set-up measurement: prints its own phase times."""
    import_s = _import_package()
    from tracing import Tracer

    module = importlib.import_module(WORKLOADS[args.workload])
    tracer = Tracer()
    if args.trace:
        tracer.install()
    module.setup(args.seed, args.setup_probe)
    totals = defaultdict(float)
    for span in tracer.spans:
        totals[span.name] += span.seconds
    print(json.dumps({"import_s": import_s, "layers": totals}))
    return 0


def _setup_times(args, run_dir: Path, cal) -> list:
    """Spawn fresh interpreters that import the package and set the
    workload up; the first one only warms bytecode and file caches.
    Returns ``(wall, child report, speed scale)`` per probe."""
    samples = []
    for k in range(SETUP_PROBES + 1):
        before = cal.sample()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "1",
               "--trace", str(args.trace), "--setup-probe", str(run_dir / "probe")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if k:
            samples.append((wall, json.loads(proc.stdout.splitlines()[-1]),
                            cal.scale(before, cal.sample())))
    return samples


def _slope(points) -> float:
    """Least-squares slope of log time against log size, one intercept per
    function: ``points`` maps a function name to ``{size: seconds}``."""
    sxy = sxx = 0.0
    for by_size in points.values():
        xs = [math.log(n) for n in by_size]
        ys = [math.log(t) for t in by_size.values()]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        sxy += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        sxx += sum((x - mx) ** 2 for x in xs)
    return sxy / sxx if sxx else 0.0


def _op_medians(passes) -> list:
    """Each operation's median call time over the passes.  A pass is summed
    from these rather than taken whole, so that a slow stretch of the
    machine during one pass moves only the calls it overlapped."""
    return [statistics.median(r.seconds for r in calls) for calls in zip(*passes)]


def _median_wall(passes) -> float:
    """Wall time of one pass: the sum of its calls' median times."""
    return sum(_op_medians(list(passes)))


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _pass_layers(records, spans) -> dict:
    """Per-layer numbers of one traced pass, keyed like the metrics; a
    span's time is scaled like the operation it belongs to."""
    seconds, work, wasted = defaultdict(float), defaultdict(int), defaultdict(int)
    calls = defaultdict(list)
    for s in spans:
        t = s.seconds * records[s.op % 10000].scale
        if s.name.startswith("op:"):
            calls[s.name[3:]].append(t)
            continue
        seconds[s.name] += t
        work[s.name] += s.work
        wasted[s.name] += s.wasted
    out = {f"{name}_s": t for name, t in seconds.items()}
    out.update({f"{name}_s": statistics.median(ts)
                for name, ts in calls.items() if name.startswith("cli.")})
    horizon = ("evolve.distance_curve", "evolve.correlation_curve",
               "evolve.null_recurrent_ratio")
    out["evolve.horizon_steps_per_s"] = _ratio(
        sum(work[n] for n in horizon), sum(seconds[n] for n in horizon))
    for sampler in ("maps.sample_states", "maps.map_states"):
        out[f"{sampler}_steps_per_s"] = _ratio(work[sampler], seconds[sampler])
    out["maps.censored_frac"] = _ratio(wasted["maps.map_states"],
                                       work["maps.map_states"])
    for key in ("artifact_bytes", "nonzero_exits"):
        out[f"cli.{key}"] = sum(r.counts.get(key, 0) for r in records)
    return out


def _layer_metrics(traced, untraced, probes) -> dict:
    per_pass = [_pass_layers(recs, spans) for recs, spans in traced]
    names = set().union(*per_pass)
    out = {n: statistics.median(p.get(n, 0.0) for p in per_pass) for n in names}
    for name in SETUP_LAYERS:
        out[f"{name}_s"] = statistics.median(p["layers"].get(name, 0.0) * scale
                                             for _, p, scale in probes)
    out["cli.import_s"] = statistics.median(p["import_s"] * scale
                                            for _, p, scale in probes)

    ladder = defaultdict(lambda: defaultdict(list))
    for recs in untraced:
        for r in recs:
            if r.size:
                ladder[r.name][r.size].append(r.seconds)
    medians = {name: {n: statistics.median(ts) for n, ts in by.items()}
               for name, by in ladder.items()}
    series = {k: v for k, v in medians.items() if k.startswith("series.")}
    out["series.growth"] = _slope(series)
    out["series.coeffs_per_s"] = _ratio(
        sum(sum(by) for by in series.values()),
        sum(sum(by.values()) for by in series.values()))
    renewal = {k: v for k, v in medians.items() if k == "evolve.renewal_sequence"}
    out["evolve.renewal_growth"] = _slope(renewal)

    out["trace.overhead_s"] = (_median_wall(recs for recs, _ in traced)
                               - _median_wall(untraced))
    return out


def _end_to_end(timed, probes) -> dict:
    records = [r for recs in timed for r in recs]
    latencies = _op_medians(timed)
    failed = sum(r.failed for r in records)
    return {
        "setup_s": statistics.median(wall * scale for wall, _, scale in probes),
        "wall_s": _median_wall(timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / len(records),
        "rel_err_max": max(r.rel_err for r in records),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": statistics.quantiles(latencies, n=10)[8],
    }


def main(argv=None) -> int:
    args = _args(argv)
    if args.setup_probe is not None:
        return _probe(args)
    _import_package()
    from machine import describe
    from ops import Calibrator, run_pass
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = describe(ROOT, NPROC, THREAD_CAP, args.seed)

    cal = Calibrator()
    probes = _setup_times(args, run_dir, cal)
    module = importlib.import_module(WORKLOADS[args.workload])
    ops = module.operations(module.setup(args.seed, run_dir / "work"))
    tracer = Tracer()
    warm = run_pass(ops, 0, cal)
    untraced, traced = [], []
    start, pass_no = time.perf_counter(), 1
    while True:
        if args.trace and pass_no % 2 == 0:
            mark = len(tracer.spans)
            tracer.install()
            try:
                recs = run_pass(ops, pass_no, cal, tracer)
            finally:
                tracer.uninstall()
            traced.append((recs, tracer.spans[mark:]))
        else:
            untraced.append(run_pass(ops, pass_no, cal))
        pass_no += 1
        if (time.perf_counter() - start >= args.seconds and pass_no > MIN_PASSES
                and (traced or not args.trace)):
            break

    timed = untraced + [recs for recs, _ in traced]
    if args.trace:
        values = _layer_metrics(traced, untraced, probes)
    else:
        values = _end_to_end(untraced, probes)
    # a layer the workload never calls reads 0; every end-to-end metric is set
    default = 0.0 if args.trace else None
    metrics = {m["name"]: {"value": float(values.get(m["name"], default)), "unit": m["unit"]}
               for m in wanted}
    records = [r for recs in timed for r in recs]
    failures = [r for r in records if r.failed]
    unexpected = [r for r in warm + records if r.failed and not r.expected]
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }

    print(f"# renewallab benchmark: {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# machine: " + json.dumps(env, sort_keys=True))
    print(f"# passes: 1 warm-up, {len(untraced)} untraced, {len(traced)} traced; "
          f"{len(ops)} operations per pass; {len(records)} timed operations")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:<24.10g} {m['unit']}")
    print(f"{'failed_frac':40s} {len(failures) / len(records):<24.10g} 1")
    raw = statistics.median(sum(r.wall for r in recs) for recs in timed)
    speed = statistics.median(r.scale for r in records)
    print(f"# times are at reference speed; measured median pass {raw:.4g} s, "
          f"median speed scale {speed:.3f}")
    by_defect = defaultdict(int)
    for r in failures:
        by_defect[r.defect if r.expected else "unexpected"] += 1
    print("# failed operations by cause: " + json.dumps(by_defect, sort_keys=True))
    for r in unexpected[:5]:
        print(f"# unexpected failure in {r.name}: {r.problems[0]}")

    report = {"args": {k: str(v) for k, v in vars(args).items()}, "machine": env,
              "result": result, "failed_by_cause": by_defect,
              "failures": sorted({f"{r.name}: {p}" for r in failures for p in r.problems}),
              "pass_walls": {"warm-up": sum(r.wall for r in warm),
                             "untraced": [sum(r.wall for r in recs) for recs in untraced],
                             "traced": [sum(r.wall for r in recs) for recs, _ in traced]},
              "op_wall_and_scale": [[r.name] + [(recs[k].wall, recs[k].scale) for recs in timed]
                                    for k, r in enumerate(timed[0])],
              "setup_probes": [{"wall_s": w, "scale": c, **p} for w, p, c in probes]}
    (run_dir / f"BENCH_{args.workload}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        (run_dir / "spans.json").write_text(json.dumps(tracer.dump()))
    shutil.rmtree(run_dir / "work", ignore_errors=True)
    shutil.rmtree(run_dir / "probe", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
