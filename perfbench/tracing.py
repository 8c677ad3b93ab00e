"""Spans around calls into renewallab, recorded from the benchmark's side.

A traced pass swaps the public functions listed in ``TRACED`` for wrappers
in every loaded ``renewallab`` module that holds them (the defining module,
the package namespace and every module that imported the name), so calls
the package makes internally are seen too.  Each wrapper records one span:
name, start, end, parent span and operation id, plus a work count read from
the result where ``WORK`` knows how.  Spans stay in memory; the run writes
them out when it ends.  Untraced passes run the original functions.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import asdict, dataclass

#: Public functions wrapped in a traced pass, by layer (module name).
TRACED = {
    "series": ("convolve", "reciprocal"),
    "chain": ("build_chain", "first_passage", "second_moment_identity"),
    "evolve": ("renewal_sequence", "deviation_tail_ratio", "distance_curve",
               "correlation_curve", "correlation_constant",
               "null_recurrent_ratio"),
    "maps": ("build_map", "sample_states", "map_states", "mc_correlation",
             "kac_check", "markov_frequency_check", "entrance_tail"),
    "spectral": ("factorization_residual", "disk_scan", "gf_evaluate"),
    "config": ("chain_from_config",),
}


def _sampled(result):
    states, censored = result
    return states.size, censored


#: Work done by one call, read from its result as ``(work, wasted)``:
#: coefficients produced, evolution steps taken, or states delivered and
#: censored.
WORK = {
    "series.convolve": lambda r: (len(r), 0),
    "series.reciprocal": lambda r: (len(r), 0),
    "evolve.renewal_sequence": lambda r: (r.values.size - 1, 0),
    "evolve.distance_curve": lambda r: (int(r.n_grid[-1]), 0),
    "evolve.correlation_curve": lambda r: (int(r.n_grid[-1]), 0),
    # evolves the measure and delta_1 side by side
    "evolve.null_recurrent_ratio": lambda r: (2 * int(r.n_grid[-1]), 0),
    "maps.sample_states": _sampled,
    "maps.map_states": _sampled,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at an operation's root
    op: int  # operation id: pass number * 10000 + index in the pass
    work: int = 0
    wasted: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._swapped: list[tuple] = []
        self.op = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if work is not None:
                self.spans[idx].work, self.spans[idx].wasted = work(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == "renewallab" or k.startswith("renewallab.")]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"renewallab.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._swapped.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._swapped):
            setattr(mod, attr, original)
        self._swapped.clear()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
