"""Operations, their output checks, and the pass loop shared by the workloads.

An operation is one call into renewallab with fixed inputs.  A pass runs a
workload's operations in order and times each call alone; the output check
runs after the clock stops.  An operation fails when the call raises, its
check raises, or its check reports a problem.  ``defect`` names a known defect of the package
(see ``KNOWN_DEFECTS``): a failure whose every problem mentions it is
counted as failed but is expected, so it does not make the run incorrect.

Times are normalized to a reference machine speed.  On a shared virtual
machine the speed of the CPU swings by 20% and more for tens of seconds at
a time, which no number of passes averages out.  So a pass also times a
fixed calibration kernel (numpy and Python arithmetic that never touches
renewallab) before the calls, at most every ``CALIBRATION_EVERY_S``, and
once more at the end; each call's wall time is scaled by
``CALIBRATION_REF_S / (mean kernel time just before and after it)``.  That
cut the run-to-run spread of repeated-call medians from 8-13% to 2-4%.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from pathlib import Path
from typing import Callable

import numpy as np

#: Known defects that the benchmark keeps visible, with the text their
#: failures carry.
KNOWN_DEFECTS = {
    # at degree >= 3, e_n - pi_1 is the difference of two nearly equal O(1)
    # numbers and loses every significant digit
    "cancellation": "lost its digits",
    # the documented "sampler": "float" is rejected by map kac|frequency|correlate
    "float-sampler": "unknown sampler 'float'",
}

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

#: Calibration kernel time at the reference speed: normalized times are
#: seconds on a machine where one calibration sample takes this long.
CALIBRATION_REF_S = 2.0e-3
CALIBRATION_EVERY_S = 0.25

#: Rounding allowance of ``e_n - pi_1``: ``ROUNDING_C * n * eps``.  A running
#: sum over n steps loses about n * eps (Higham, Accuracy and Stability of
#: Numerical Algorithms, ch. 4); the package's routes stay within 4 n eps at
#: every degree and n of the reference grid.
ROUNDING_C = 16.0
EPS = float(np.finfo(float).eps)
#: Relative error at which a value has no correct significant digit left.
NO_DIGIT = 0.1


class Calibrator:
    """Times the calibration kernel: best of three runs per sample."""

    def __init__(self):
        self._x = np.random.default_rng(0).random(50_000)

    def sample(self) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0.0
            for _ in range(20):
                acc += float(np.dot(self._x * 1.5 + 2.0, self._x))
            k = 0
            for i in range(20_000):
                k += i * i
            best = min(best, time.perf_counter() - t0)
        return best

    def scale(self, before: float, after: float) -> float:
        return CALIBRATION_REF_S / (0.5 * (before + after))


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    rel_err: float = 0.0  # worst relative error against references, if any
    counts: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str  # layer.function (or cli.group_sub) the call goes into
    call: Callable[[], object]
    check: Callable[[object], Outcome] | None = None
    defect: str | None = None  # key of KNOWN_DEFECTS
    size: int = 0  # problem size, for growth fits over a ladder


@dataclass
class Record:
    name: str
    wall: float  # measured wall time of the call
    problems: list
    rel_err: float
    counts: dict
    defect: str | None
    size: int
    scale: float = 1.0  # machine-speed normalization of this call

    @property
    def seconds(self) -> float:
        """Call time at the reference machine speed."""
        return self.wall * self.scale

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def expected(self) -> bool:
        """Failed only through its known defect."""
        if not self.failed or self.defect is None:
            return False
        marker = KNOWN_DEFECTS[self.defect]
        return all(marker in p for p in self.problems)


def run_pass(ops: list[Op], pass_no: int, cal: Calibrator, tracer=None) -> list[Record]:
    records = []
    samples, before = [cal.sample()], []
    last = time.perf_counter()
    for k, op in enumerate(ops):
        if time.perf_counter() - last > CALIBRATION_EVERY_S:
            samples.append(cal.sample())
            last = time.perf_counter()
        before.append(len(samples) - 1)
        root = None
        if tracer is not None:
            tracer.op = pass_no * 10000 + k
            root = tracer.open("op:" + op.name)
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a raise is a failed operation, not a crash
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if root is not None:
            tracer.close(root)
        if error is not None:
            outcome = Outcome([error])
        elif op.check is not None:
            try:
                outcome = op.check(result)
            except Exception as exc:  # a malformed output fails its check
                outcome = Outcome([f"check raised {type(exc).__name__}: {exc}"])
        else:
            outcome = Outcome()
        del result
        records.append(Record(op.name, seconds, outcome.problems,
                              outcome.rel_err, outcome.counts, op.defect,
                              op.size))
    samples.append(cal.sample())
    for rec, i in zip(records, before):
        rec.scale = cal.scale(samples[i], samples[i + 1])
    return records


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------

def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())


def rel_err(value: float, ref: str) -> float:
    """|value - ref| / |ref| in exact decimal arithmetic, so a value that
    rounds to the reference still reads as a nonzero error."""
    with localcontext() as ctx:
        ctx.prec = 50
        want = Decimal(ref)
        return float(abs(Decimal(float(value)) - want) / abs(want))


def against(n_grid, values, bounds, ref_n, ref_vals, what: str,
            ref_dev=None) -> Outcome:
    """Compare a curve with references wherever the reference grid has its n.

    With ``ref_dev``, the reference ``e_n - pi_1`` on that grid, each value
    is also checked twice.  Its error must stay within the reported bound
    plus the rounding allowance ``ROUNDING_C * n * eps`` of ``e_n - pi_1``,
    carried into the curve's units by ``ref / ref_dev``; the package's
    bounds leave rounding out.  And it must keep a significant digit: an
    error above ``NO_DIGIT * |ref|`` that the bound does not cover is
    cancellation."""
    where = {n: k for k, n in enumerate(ref_n)}
    out = Outcome()
    for j, n in enumerate(n_grid):
        k = where.get(int(n))
        if k is None:
            continue
        ref = ref_vals[k]
        rel = rel_err(values[j], ref)
        out.rel_err = max(out.rel_err, rel)
        if ref_dev is None:
            continue
        bound = 0.0 if bounds is None else float(bounds[j])
        err = abs(float(values[j]) - float(ref))
        allow = bound + ROUNDING_C * int(n) * EPS * abs(float(ref) / float(ref_dev[k]))
        if not err <= allow:
            out.problems.append(f"{what} at n={int(n)}: error {err:.3g} above "
                                f"bound + rounding {allow:.3g}")
        if not err <= max(bound, NO_DIGIT * abs(float(ref))):
            out.problems.append(f"{what} at n={int(n)}: value lost its digits "
                                f"to cancellation (relative error {rel:.3g})")
    return out
