"""Piecewise-affine interval maps coded by the renewal chain.

A return law with survival breakpoints 1 = d_0 > d_1 > d_2 > ... defines a
map of [0,1]: the top branch carries [d_1, 1] affinely onto [0,1], and each
deeper branch carries [d_i, d_{i-1}) onto [d_{i-1}, d_{i-2}).  Coding a
point by the partition cell it visits turns orbits into paths of the chain,
so every chain statistic has a map-side Monte Carlo counterpart.

Two samplers produce coded orbits, picked by name in :func:`coded_states`
alone (:func:`sample_states` and :func:`map_states` fix the name).  The
default, ``"chain"``, draws excursion lengths straight from the return law,
which is exact: no float orbit is involved, so there is no rounding
question to argue about, and no map.  The estimators take a chain or its
:class:`IntermittentMap`; only the float sampler builds the map, so laws
with a gap in their support, which have none, run on the chain sampler.  The
float-orbit sampler, ``"float"``, iterates the map itself; near 0 the cells
shrink below double resolution (and for dyadic slopes the mantissa drains
in about fifty steps), so when an orbit crosses the resolvable depth it is
censored, counted, and the stream restarts from a fresh invariant-density
sample, whose uniforms are drawn in batches.  Its loop searches the
breakpoints only when a top-cell step or a restart lands below ``d_1``:
the clamps of each branch image put a point of cell ``i >= 2`` into cell
``i - 1`` exactly, so the descent needs no search and codes the same
symbols as :func:`encode`.  Its starts come from the invariant density,
so on a null-recurrent chain it raises :class:`NotPositiveRecurrent` before
drawing, as :func:`markov_frequency_check` and :func:`kac_check` do on
either sampler.  :func:`entrance_tail` draws nothing: the survival of the
first entrance from a stationary start is a closed form in the chain's
tails, and it raises the same error on a null-recurrent chain.
Estimators skip pairs that straddle a censored step: they sum zero-filled
streams and divide by the count of valid pairs, counted from the sentinel
positions.  A lag sum is one BLAS dot per batch: it and the ``nanmean`` of
NaN-marked streams each lie within ``gamma_k sum |y|`` of the exact sum of
the ``k`` products ``y``, rounded in different orders.

Both samplers draw an orbit in blocks of at most ``2**16`` excursions or
steps, burn-in skipped: each excursion takes one uniform, and the float
orbit carries its point from block to block, so the states do not depend
on where the blocks split.  The chain sampler's block ``(offset,
count)`` expands the ``count`` uniforms from ``offset`` on in its
Philox stream, which a counter-based generator reaches without drawing
the uniforms before it, so its blocks are independent.  An orbit of
several blocks draws them on a pool of threads, one per CPU of the
process's affinity mask up to :data:`_MAX_WORKERS`, numpy releasing the
GIL inside them; they are read in order, at most one more than the
workers in flight, so the states do not depend on the thread count.
The float orbit is one sequential recursion, so it stays in the calling
thread.  States are cell indices, at most
:data:`~renewallab.chain.MAX_TRUNCATION` < 2**31, or the sentinel ``-1``,
so every orbit array, block or whole, is ``np.int32``.  The samplers copy
the blocks into the one array they return.  The estimators read the
blocks one at a time and hold O(batch) memory, not O(orbit):
:func:`mc_correlation` keeps a window of observable values about two
batches long that slides along the orbit, and
:func:`markov_frequency_check` and :func:`kac_check` read the steps
``a -> b``, the last state carried across block edges.  By the descent
rule a step ``1 -> L`` returns to the top cell ``L`` steps later, so
Kac's returns are the steps ``1 -> L`` whose return ends in the orbit.

Randomness comes from the counter-based Philox generator; stream ``s`` of
a run with the unsigned 64-bit seed ``seed`` uses the two-word key
``seed | (s << 64)`` (Salmon et al., SC 2011), so no two (seed, stream)
pairs share a key and every estimate is reproducible from its reported
seed.  A seed or stream that is not a whole number in ``[0, 2**64)``, by
the rule of :mod:`renewallab.series`, raises :class:`ConfigError` before
anything is drawn, as do the orbit sizes.  Estimators burn in
10^4 steps by default and report batch-mean standard errors over 100
batches.
"""

from __future__ import annotations

import itertools
import math
import os
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    PreconditionError,
    PreconditionViolated,
    SymbolCapExceeded,
    TruncationTooSmall,
    ZeroProbabilityBranch,
)
from .evolve import RateCurve, RateFit, rate_fit
from .series import EPS, _whole
from .spectral import DENSE_LIMIT, transition_operator

__all__ = [
    "IntermittentMap",
    "McEstimate",
    "KacReport",
    "FrequencyReport",
    "EntranceReport",
    "TransferReport",
    "build_map",
    "apply",
    "encode",
    "orbit_symbols",
    "sample_states",
    "map_states",
    "coded_states",
    "mc_correlation",
    "kac_check",
    "entrance_tail",
    "markov_frequency_check",
    "invariant_density",
    "pf_check",
]

#: A branch narrower than this cannot be separated in double precision.
DEPTH_RESOLUTION = 1e-14

#: Least stationary mass of the resolvable cells for float orbits, whose
#: starts redraw until they land in one: at most 1000 draws expected.
START_MASS_FLOOR = 1e-3

#: Default number of discarded steps before an estimator starts recording.
BURN_IN = 10_000

#: Default number of batches for batch-mean standard errors.
BATCHES = 100

#: Default coded-orbit sampler; :func:`coded_states` lists them all.
SAMPLER = "chain"

#: Most states (or excursion draws) in one block of a coded orbit; the
#: samplers and the orbit estimators hold a few blocks at a time.
_BLOCK = 2 ** 16

#: Bits of the guide table through which the exact sampler finds the cell
#: of a draw: ``2**_GUIDE_BITS`` buckets of the unit interval (see
#: :func:`_cells`).
_GUIDE_BITS = 12

#: Most orbit steps (burn-in included, summed over streams) one call
#: accepts, and the most ``samples`` :func:`entrance_tail` accepts.  Checked
#: before anything is allocated.  The orbit arrays that
#: :func:`sample_states`, :func:`map_states` and :func:`coded_states` return
#: take 400 MB of int32 states at the cap; the estimators read orbits in
#: blocks and hold none of them whole.
MAX_ORBIT = 100_000_000

#: Relative rounding bound of the curve of :func:`entrance_tail`, two
#: additions of nonnegative terms and one product: ``gamma_3 = 3u / (1 - 3u)``
#: with ``u = eps / 2``.
ENTRANCE_ROUNDING = 1.5 * EPS / (1.0 - 1.5 * EPS)

#: Most threads that draw the blocks of one exact coded orbit; one block
#: more than the threads is in flight at most.  Two is the count whose
#: time and memory were measured (on two CPUs); more would hold more
#: blocks at once for a gain no run has shown.
_MAX_WORKERS = 2


def _key(seed: int, stream: int = 0) -> int:
    """The Philox key ``seed | (stream << 64)`` of ``stream`` of the run
    ``seed``.  Seed and stream must be whole numbers in ``[0, 2**64)``;
    anything else raises :class:`ConfigError`, so a caller that takes the
    key first draws nothing from a bad one."""
    seed = _whole(seed, "the seed", ConfigError)
    stream = _whole(stream, "the stream", ConfigError)
    if not (0 <= seed < 2 ** 64 and 0 <= stream < 2 ** 64):
        raise ConfigError(f"seed and stream must be unsigned 64-bit integers, "
                          f"got seed {seed}, stream {stream}")
    return seed | (stream << 64)


def _rng(key: int, offset: int = 0) -> np.random.Generator:
    """The Philox generator of the checked ``key`` (see :func:`_key`), past
    the first ``offset`` doubles of its stream: a Philox step makes four,
    so it advances ``offset // 4`` steps and discards ``offset % 4``
    doubles."""
    rng = np.random.Generator(np.random.Philox(key=key))
    if offset:
        rng.bit_generator.advance(offset // 4)
        rng.random(offset % 4)
    return rng


def _workers() -> int:
    """Threads that draw the blocks of an exact coded orbit: the CPUs in
    this process's affinity mask, at most :data:`_MAX_WORKERS`."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_WORKERS))


def _check_orbit(length, burn_in=0, streams=1) -> tuple:
    """Refuse an empty orbit (or sample), a negative burn-in, no streams, a
    size that is not a whole number, or more than :data:`MAX_ORBIT` steps in
    all.  Returns ``(length, burn_in, streams)`` as ints."""
    length, burn_in, streams = (_whole(v, what, ConfigError, least) for v, what, least in
                                ((length, "the orbit length", 1), (burn_in, "the burn-in", 0),
                                 (streams, "the stream count", 1)))
    if streams * (burn_in + length) > MAX_ORBIT:
        raise ConfigError(
            f"{streams} x ({burn_in} + {length}) orbit steps exceed the cap of {MAX_ORBIT}")
    return length, burn_in, streams


def _support_length(chain) -> int:
    """Length of the initial segment where the return law is positive."""
    positive = np.flatnonzero(chain.p[1:] > 0.0)
    if positive.size and positive[-1] != positive.size - 1:
        raise ZeroProbabilityBranch(
            "return law has a zero inside its support; the branch map is not defined"
        )
    return int(positive.size)


@dataclass(frozen=True)
class IntermittentMap:
    """Piecewise-affine map of [0,1] built from a renewal chain.

    breakpoints : ndarray
        ``d_0 .. d_B`` strictly decreasing; ``d_B`` is 0 exactly when the
        return law has finite support, otherwise it is the deepest cell
        edge separable in double precision.
    slopes : ndarray
        ``slopes[i] = p_i / p_{i-1}`` (entry 0 unused); branch ``i``
        expands by ``1/slopes[i]``.
    symbol_cap : int
        Largest resolvable partition index.
    """

    chain: object
    breakpoints: np.ndarray
    slopes: np.ndarray
    symbol_cap: int
    terminal: bool

    def __post_init__(self):
        self.breakpoints.flags.writeable = False
        self.slopes.flags.writeable = False


def build_map(chain) -> IntermittentMap:
    """Assemble the branch map of a chain.

    Branches stop where cells get narrower than ``DEPTH_RESOLUTION``;
    below that depth points cannot be coded and orbits are censored.
    Branch images are checked against the next cell at build time.
    """
    support = _support_length(chain)
    narrow = np.flatnonzero(chain.p[1 : support + 1] < DEPTH_RESOLUTION)
    cap = int(narrow[0]) if narrow.size else support
    if cap < 1:
        raise ZeroProbabilityBranch("no resolvable branch")
    terminal = support == cap and chain.d[cap] == 0.0
    bp = chain.d[: cap + 1].copy()
    slopes = np.zeros(cap + 1)
    slopes[1] = chain.p[1]
    slopes[2:] = chain.p[2 : cap + 1] / chain.p[1:cap]
    m = IntermittentMap(chain, bp, slopes, cap, terminal)

    # apply() on the float just below the top of each cell i = 2 .. k, all at
    # once.  encode() puts it in cell i: every p_i >= DEPTH_RESOLUTION is
    # more than half an ulp of d_i <= 1, so the cells are not empty.  The
    # image is _image's affine step and clamps, the upper clamp 1 for i = 2.
    k = min(cap, 200)
    top = np.nextafter(bp[1:k], 0.0)
    hi = np.r_[1.0, np.nextafter(bp[1 : k - 1], 0.0)]
    image = np.minimum(np.maximum(bp[1:k] + (top - bp[2 : k + 1]) / slopes[2 : k + 1],
                                  bp[1:k]), hi)
    bad = np.abs(image - bp[: k - 1]) > 1e-12
    if bad.any():  # the first branch that a loop over i would refuse
        raise PreconditionViolated(
            f"branch {int(np.argmax(bad)) + 2} image misses the next cell edge; "
            "law too irregular"
        )
    return m


def encode(m: IntermittentMap, x: float) -> int:
    """Partition index of ``x``; cell ``i`` is ``[d_i, d_{i-1})`` and the
    top cell includes 1.  Points below the deepest breakpoint of a
    non-terminal map raise :class:`SymbolCapExceeded`."""
    if not 0.0 <= x <= 1.0:
        raise PreconditionViolated("points live in [0, 1]")
    if x == 1.0:
        return 1
    bp = m.breakpoints
    idx = int(np.searchsorted(bp[::-1], x, side="right"))
    sym = bp.size - idx
    if sym > m.symbol_cap:
        raise SymbolCapExceeded(
            f"point {x!r} lies below the resolvable depth {bp[-1]!r}"
        )
    return sym


def apply(m: IntermittentMap, x: float) -> float:
    """One step of the map.

    The branch holding ``x`` is found by binary search; its affine image
    is clamped into the exact target cell so that coded orbits descend
    deterministically with no rounding spill.  The boundary fixed point 0
    maps to 0 when the map has no terminal cell.
    """
    if x == 0.0 and not m.terminal:
        return 0.0
    return _image(m, x, encode(m, x))


def _image(m: IntermittentMap, x: float, i: int) -> float:
    """Image of ``x`` under branch ``i``, the cell that :func:`encode` gave."""
    bp = m.breakpoints
    if i == 1:
        y = (x - bp[1]) / m.slopes[1]
        return min(max(y, 0.0), 1.0)
    y = bp[i - 1] + (x - bp[i]) / m.slopes[i]
    hi = np.nextafter(bp[i - 2], 0.0) if i > 2 else 1.0
    return min(max(y, bp[i - 1]), hi)


def orbit_symbols(m: IntermittentMap, x0: float, n: int) -> np.ndarray:
    """Symbols of ``x0, f(x0), ..., f^n(x0)``, length ``n + 1``, as int32.

    Symbols obey the descent rule exactly: ``j >= 2`` at one step forces
    ``j - 1`` at the next.  Raises :class:`SymbolCapExceeded` if the orbit
    leaves the resolvable depth.
    """
    if not 0.0 < x0 <= 1.0:
        raise PreconditionViolated("orbit starts in (0, 1]")
    n = _whole(n, "the orbit length", least=0)
    return _fill(_float_orbit(m, float(x0), n + 1), n + 1)[0]


def _float_orbit(m: IntermittentMap, x: float, total: int, restart=None):
    """Blocks of at most :data:`_BLOCK` symbols, ``total`` in all, of the
    float orbit of ``x``, stepping as :func:`encode` then :func:`_image`
    would, on plain Python floats; the point and its cell carry over from
    one block to the next.

    The clamps of :func:`_image` put the image of a branch ``i >= 2`` in
    cell ``i - 1`` exactly, and a point ``x >= d_1`` (1 included) is in
    the top cell, so the breakpoints are searched only when a top-cell
    step or a restart lands below ``d_1``.  Each block starts as all ones,
    so a top-cell step stores nothing.  Only the upper clamps can bind: a
    point ``x >= d_i`` has an image at least the lower edge in floating
    point.  A point below the resolvable depth raises
    :class:`SymbolCapExceeded`, or, given ``restart`` (a callable drawing a
    fresh point), is recorded as ``-1`` and the orbit goes on from
    ``restart()``.
    """
    bp = m.breakpoints.tolist()
    ascending = bp[::-1]
    slopes = m.slopes.tolist()
    cap, d1, s1, cells = m.symbol_cap, bp[1], slopes[1], len(bp)
    # upper clamp of branch i: 1 for i <= 2, the float below d_{i-2} beyond
    hi = [1.0, 1.0, 1.0] + np.nextafter(m.breakpoints[1 : cap - 1], 0.0).tolist()

    sym = 1 if x >= d1 else cells - bisect_right(ascending, x)
    for start in range(0, total, _BLOCK):
        out = [1] * min(_BLOCK, total - start)
        for t in range(len(out)):
            if sym == 1:
                x = (x - d1) / s1
                if x >= d1:
                    if x > 1.0:
                        x = 1.0
                    continue
            elif sym <= cap:
                out[t] = sym
                x = bp[sym - 1] + (x - bp[sym]) / slopes[sym]
                if x > hi[sym]:
                    x = hi[sym]
                sym -= 1
                continue
            elif restart is None:
                raise SymbolCapExceeded(
                    f"point {x!r} lies below the resolvable depth {bp[-1]!r}")
            else:
                out[t] = -1
                x = restart()
                if x >= d1:
                    sym = 1
                    continue
            sym = cells - bisect_right(ascending, x)
        yield np.fromiter(out, np.int32, count=len(out))


# ----------------------------------------------------------------------
# coded-orbit samplers
# ----------------------------------------------------------------------

def _guide(cdf) -> np.ndarray:
    """The guide table of the cumulative weights ``cdf`` (Chen and Asau,
    1974): entry ``b`` is the first index whose weight reaches ``b /
    2**_GUIDE_BITS``, at most ``len(cdf) - 1``, so that every entry reads a
    weight."""
    edges = np.arange(2 ** _GUIDE_BITS) / 2 ** _GUIDE_BITS
    return np.minimum(np.searchsorted(cdf, edges, side="left"), cdf.size - 1)


def _cells(cdf, guide, u) -> tuple:
    """``(above, cells)``: the indices of the uniforms of ``u`` above
    ``cdf[0]``, and the cell ``i >= 2`` that each of them draws from the
    cumulative weights ``cdf``, ``len(cdf) + 1`` past them; the other
    uniforms draw cell one.  A cell is ``np.searchsorted(cdf, u,
    side="left") + 1``, found by comparisons only: a uniform in bucket ``b
    = floor(u * 2**_GUIDE_BITS)`` (exact, a power-of-two scaling) draws cell
    ``guide[b] + 1`` when ``cdf[guide[b]]`` reaches it, and searches the
    whole of ``cdf`` otherwise, as a bucket of several cells or a draw past
    the prefix does."""
    above = np.flatnonzero(u > cdf[0])
    u = u[above]
    at = guide[(u * 2 ** _GUIDE_BITS).astype(np.intp)]
    miss = np.flatnonzero(cdf[at] < u)
    at[miss] = np.searchsorted(cdf, u[miss], side="left")
    at += 1
    return above, at


def _excursion_block(chain, cdf, guide, rng, count: int, limit: int):
    """The first ``limit`` states, or all if fewer, of the ``count``
    excursions that the next ``count`` uniforms of ``rng`` draw, one each;
    :func:`_cells` finds their lengths through ``guide``.  A draw beyond the
    stored prefix is one ``-1`` step.

    An excursion of length L reads L, L-1, ..., 1, so only the draws of
    cell two or more need work.  Draw ``k`` starts at ``k`` plus the extra
    steps ``L - 1`` of the draws before it, and the state at position ``i``
    is ``max(e - i, 1)``, ``e`` the largest ``start + L`` of the excursions
    starting at or before ``i``: one running maximum over a block whose
    entries are zero but at those starts.  A state reads only the starts at
    or before it, so the block is cut at ``limit`` states and the starts
    past the cut are dropped, and no more is built than the orbit needs."""
    above, extra = _cells(cdf, guide, rng.random(count))
    over = extra > chain.truncation
    extra -= 1  # the steps of each excursion past its first
    extra[over] = 0
    last = np.cumsum(extra)
    size = count + (int(last[-1]) if last.size else 0)
    # positions of the last states, in int64; the kept ones lie below limit
    # + truncation <= MAX_ORBIT + MAX_TRUNCATION < 2**31, so the states,
    # whose values lie in [-1, truncation], run in int32
    last += above
    starts = last - extra
    kept = np.searchsorted(starts, limit)  # the starts increase
    starts, last, over = starts[:kept], last[:kept], over[:kept]
    states = np.zeros(min(size, limit), dtype=np.int32)
    states[starts] = last + 1
    np.maximum.accumulate(states, out=states)
    states -= np.arange(states.size, dtype=np.int32)
    np.maximum(states, 1, out=states)
    states[starts[over]] = -1
    return states


def _in_order(pool, draw, batch, depth: int):
    """The results of ``draw(offset, count)`` over ``batch``, computed on
    ``pool`` and yielded in order, at most ``depth`` submitted and not yet
    yielded."""
    pending = deque()
    for block in batch:
        pending.append(pool.submit(draw, *block))
        if len(pending) == depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _excursions(chain, key: int, total: int):
    """Blocks of the exact coded orbit of the stream of ``key``, ``total``
    states at least.

    Each excursion takes one uniform, so block ``(offset, count)`` expands
    the ``count`` uniforms from ``offset`` on and the states do not depend
    on where the blocks split the stream.  The return law's cumulative
    weights and their guide table (:func:`_guide`) are built once per call
    and shared by the blocks, which expand only the excursions longer than
    one step (:func:`_excursion_block`).  The uniforms still needed are
    estimated as ``(total - have) / m1``, the states still missing over the
    mean excursion.  While that estimate is a block or more, a batch holds
    one full :data:`_BLOCK` block for each whole block of it, so a batch
    rarely runs past the end; then one block sized from the remainder,
    1.2 times its estimate and at most :data:`_BLOCK`, is drawn, and
    another if it falls short.  Each block is cut at the ``total - have``
    states still missing when its batch starts, so a null-recurrent chain,
    whose estimate is zero and whose excursions reach the truncation, builds
    no more states than the orbit needs.  A batch of several blocks runs on a
    pool of :func:`_workers` threads, at most one block more than the
    workers in flight; one block, or one worker, runs in this thread.
    Either way each block comes from its own generator advanced to its
    offset.  Abandoned or failed, the generator shuts its pool down.
    """
    cdf = np.cumsum(chain.p[1:])
    guide = _guide(cdf)
    workers = _workers()

    def draw(offset, count, limit):
        return _excursion_block(chain, cdf, guide, _rng(key, offset), count, limit)

    pool = None
    have = offset = 0
    try:
        while have < total:
            need = (total - have) / chain.m1
            want = max(1024, int(need * 1.2) + 16)
            if want <= _BLOCK:
                batch = [(offset, want, total - have)]
            else:
                batch = [(offset + k * _BLOCK, _BLOCK, total - have)
                         for k in range(max(1, int(need) // _BLOCK))]
            offset += sum(count for _, count, _ in batch)
            if len(batch) > 1 and workers > 1:
                if pool is None:
                    from concurrent.futures import ThreadPoolExecutor
                    pool = ThreadPoolExecutor(workers)
                blocks = _in_order(pool, draw, batch, workers + 1)
            else:
                blocks = (draw(*block) for block in batch)
            for states in blocks:
                yield states
                have += states.size
                if have >= total:
                    break
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def _density_starts(m: IntermittentMap, rng):
    """Points distributed by the invariant density, each a cell drawn with
    its stationary weight, then a uniform position inside it.  The
    uniforms come from ``rng`` in batches of 256 and are used in order;
    the search and the arithmetic are those of ``np.searchsorted(...,
    side="left")`` and numpy scalars, on Python floats."""
    bp = m.breakpoints.tolist()
    pi_cdf = np.cumsum(m.chain.pi[1:]).tolist()
    uniforms = itertools.chain.from_iterable(iter(lambda: rng.random(256).tolist(), None))
    for u in uniforms:
        cell = bisect_left(pi_cdf, u) + 1
        if cell <= m.symbol_cap:
            yield bp[cell] + next(uniforms) * (bp[cell - 1] - bp[cell])


def _blocks(source, length: int, seed: int, burn_in: int, stream: int = 0):
    """The coded orbit of ``source`` as successive blocks of states: a
    chain draws excursions (the chain sampler), an :class:`IntermittentMap`
    iterates its float orbit from invariant-density starts (the float
    sampler).  The burn-in is skipped and the last block cut, so the blocks
    hold ``length`` states in all.  The public entries check the sizes, and
    :func:`_sampler` the float sampler's starts, before this draws."""
    total = burn_in + length
    key = _key(seed, stream)  # refuses a bad seed or stream before drawing
    if isinstance(source, IntermittentMap):
        starts = _density_starts(source, _rng(key))
        raw = _float_orbit(source, next(starts), total, restart=starts.__next__)
    else:
        raw = _excursions(source, key, total)
    at = 0
    try:
        for block in raw:
            start, at = at, at + block.size
            if at > burn_in:
                yield block[max(burn_in - start, 0) : total - start]
    finally:
        raw.close()


def _steps(blocks):
    """``(at, block, a, b)`` for each block of a coded orbit, ``at`` the
    orbit index of its first state: the steps ``a[k] -> b[k]`` that end in
    the block, the previous block's last state carried over as the first
    ``a``, so that every step of the orbit is read once."""
    at, tail = 0, np.zeros(0, dtype=np.int32)
    for block in blocks:
        yield at, block, np.concatenate((tail, block[:-1])), block[1 - tail.size :]
        at, tail = at + block.size, block[-1:]


def _fill(blocks, length: int):
    """``(states, censored)``: ``length`` states copied block by block into
    one array, and the count of ``-1`` sentinels among them."""
    states = np.empty(length, dtype=np.int32)
    at = censored = 0
    for block in blocks:
        states[at : at + block.size] = block
        at += block.size
        censored += int(np.count_nonzero(block == -1))
    return states, censored


def _sampler(source, sampler: str):
    """What the sampler named ``sampler`` draws from, the chain or the map
    of ``source``; the map is built only from a chain.  Float orbits start
    from the invariant density, so their chain must be positive recurrent
    and the resolvable cells hold :data:`START_MASS_FLOOR` of its mass."""
    if sampler == "chain":
        return source.chain if isinstance(source, IntermittentMap) else source
    if sampler != "float":
        raise ConfigError(f"unknown sampler {sampler!r}; known: 'chain', 'float'")
    m = source if isinstance(source, IntermittentMap) else build_map(source)
    chain = m.chain.stationary_law("float orbits need the invariant density")
    mass = np.cumsum(chain.pi[1:])[m.symbol_cap - 1]
    if mass < START_MASS_FLOOR:
        raise TruncationTooSmall(f"the resolvable cells hold stationary mass {mass:.3g} < "
                                 f"{START_MASS_FLOOR:g}: a start takes {1 / mass:.3g} draws")
    return m


def coded_states(source, sampler: str, length: int, seed: int,
                 burn_in: int = BURN_IN, stream: int = 0):
    """Coded orbit from the sampler named ``sampler``, ``"chain"`` or
    ``"float"``; ``source`` is a chain or its :class:`IntermittentMap`, and
    the map is built from a chain only when the float sampler needs it.

    Returns ``(states, censored)``: the states an ``np.int32`` array of
    cell indices with ``-1`` at censored steps, and the count of those.
    Sizes are checked before anything is drawn: ``length >= 1``,
    ``burn_in >= 0``, whole numbers, and at most :data:`MAX_ORBIT` steps.
    """
    length, burn_in, _ = _check_orbit(length, burn_in)
    return _fill(_blocks(_sampler(source, sampler), length, seed, burn_in, stream), length)


def sample_states(chain, length: int, seed: int, burn_in: int = BURN_IN,
                  stream: int = 0):
    """Exact coded orbit of ``chain``, a chain or its map: :func:`coded_states`
    with the chain sampler, its states int32.  A draw beyond the stored
    prefix (probability = the survival mass at the truncation) is a single
    ``-1`` sentinel step, counted in ``censored``."""
    return coded_states(chain, "chain", length, seed, burn_in, stream)


def map_states(m: IntermittentMap, length: int, seed: int,
               burn_in: int = BURN_IN, stream: int = 0):
    """Float-orbit coded states of ``m``, a map or its chain:
    :func:`coded_states` with the float sampler, its states int32.  The
    orbit starts from an invariant-density sample; whenever it falls below
    the resolvable depth the step is recorded as ``-1``, counted, and the
    orbit restarts fresh.  A null-recurrent chain raises
    :class:`NotPositiveRecurrent`, cells below :data:`START_MASS_FLOOR`
    :class:`TruncationTooSmall`, before drawing."""
    return coded_states(m, "float", length, seed, burn_in, stream)


def _table(obs) -> np.ndarray:
    """Observable values by state, read with ``take(mode="clip")``: zero at
    sentinel steps, the limit past the stored values."""
    return np.concatenate(([0.0], obs.values[1:], [obs.limit]))


# ----------------------------------------------------------------------
# Monte Carlo estimators
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its provenance.

    stderr comes from batch means; censored counts the sample pairs that
    straddled an unresolvable step and were skipped.
    """

    mean: float
    stderr: float
    n_samples: int
    seed: int
    censored: int = 0

    def __post_init__(self):
        if self.stderr < 0.0:
            raise PreconditionViolated("stderr cannot be negative")


def _pair_counts(sentinels: np.ndarray, n: int, edges) -> np.ndarray:
    """Pairs ``(t, t + n)`` with ``edges[k] <= t < edges[k + 1]`` that touch
    no sentinel: ``t`` is lost iff it lies in ``S``, the sorted sentinel
    positions, or in ``S - n``, so batch ``k`` loses its share of both sets
    less its share of their intersection."""
    ahead = sentinels[np.searchsorted(sentinels, n):] - n
    both = ahead[sentinels.take(np.searchsorted(sentinels, ahead), mode="clip") == ahead]
    in_s, in_ahead, in_both = (np.diff(np.searchsorted(at, edges))
                               for at in (sentinels, ahead, both))
    return np.diff(edges) - in_s - in_ahead + in_both


def _lag_pass(blocks, u, v, n_list, edges):
    """One stream's batch-major lag sums, read block by block.

    Returns ``(sums, u_sum, v_sum, sentinels)``: ``sums[j, k]`` is the dot
    of batch ``k`` of lag ``n_list[j]``, whose pairs ``(t, t + n)`` have
    ``edges[j, k] <= t < edges[j, k + 1]``.  A window of observable values
    slides along the orbit.  Once it reaches past the last pair of the next
    batch, that batch is summed for every lag.  When it is full it drops
    the values before that batch's first pair, adding them to the
    observable sums first.  An orbit that fits in the window is thus summed
    in one piece, as a whole array would be.
    """
    lags = np.array(n_list)[:, None]
    first, last = edges[:, :-1].min(axis=0), (edges[:, 1:] + lags).max(axis=0)
    # at least twice what one batch of every lag reads, so that a full
    # window always has a batch's worth of steps to drop
    room = max(_BLOCK, 2 * int((last - first).max()))
    rows = edges.tolist()
    uu = np.empty(room)
    vv = uu if v is u else np.empty(room)
    windows = [(_table(u), uu)] + ([] if v is u else [(_table(v), vv)])
    sums = np.empty((len(n_list), BATCHES))
    base = filled = k = 0  # the window holds orbit steps base .. base + filled - 1
    u_sum = v_sum = 0.0
    sentinels = []
    for block in blocks:
        sentinels.append(np.flatnonzero(block < 1) + (base + filled))
        while block.size:
            if filled == room:
                drop = first[k] - base
                u_sum += np.sum(uu[:drop])
                v_sum += np.sum(vv[:drop])
                for _, w in windows:
                    w[: filled - drop] = w[drop:filled]
                base, filled = base + drop, filled - drop
            take = min(room - filled, block.size)
            for table, w in windows:
                table.take(block[:take], mode="clip", out=w[filled : filled + take])
            filled, block = filled + take, block[take:]
            # a batch is read once, and every lag takes its dot from cache
            while k < BATCHES and last[k] <= base + filled:
                for j, (n, e) in enumerate(zip(n_list, rows)):
                    lo, hi = e[k] - base, e[k + 1] - base
                    sums[j, k] = np.dot(uu[n + lo : n + hi], vv[lo:hi])
                k += 1
    u_sum += np.sum(uu[:filled])
    v_sum += np.sum(vv[:filled])
    return sums, u_sum, v_sum, np.concatenate(sentinels)


def mc_correlation(source, u, v, n_list, orbit_length: int,
                   seed: int, burn_in: int = BURN_IN, sampler: str = SAMPLER,
                   streams: int = 1) -> dict:
    """Time-average estimates of the lag-n covariance of two cell
    observables along a coded orbit of ``source``, a chain or its map (the
    float sampler builds the map from a chain once per call).

    For each n the estimator is mean(u(s_{t+n}) v(s_t)) - mean(u) mean(v)
    with batch-mean standard errors; pairs that straddle a censored step
    are skipped and counted.  Streams use disjoint generator keys and
    merge by inverse-variance-free weighted average (weights = sample
    counts).  Each stream is read block by block through a window of about
    two batches, so memory stays O(batch), not O(orbit).  Returns
    ``{n: McEstimate}``.
    """
    size, burn_in, streams = _check_orbit(orbit_length, burn_in, streams)
    n_list = [_whole(n, "a lag", least=0) for n in n_list]
    if not n_list:
        raise PreconditionViolated("need at least one lag")
    if max(n_list) >= size // 2:
        raise PreconditionViolated("largest lag must be well inside the orbit length")
    source = _sampler(source, sampler)
    edges = np.array([np.linspace(0, size - n, BATCHES + 1).astype(int) for n in n_list])
    per_stream = []
    for s in range(streams):
        sums, u_sum, v_sum, sentinels = _lag_pass(
            _blocks(source, size, seed, burn_in, s), u, v, n_list, edges)
        n_valid = size - sentinels.size
        u_mean, v_mean = u_sum / n_valid, v_sum / n_valid
        rows = {}
        for n, e, batch_sums in zip(n_list, edges, sums):
            counts = _pair_counts(sentinels, n, e)
            count = int(counts.sum())
            means = batch_sums[counts > 0] / counts[counts > 0]
            stderr = np.std(means, ddof=1) / math.sqrt(means.size) if means.size > 1 else math.inf
            rows[n] = (float(np.sum(batch_sums) / count - u_mean * v_mean), float(stderr),
                       count, size - n - count)
        per_stream.append(rows)

    out = {}
    for n in n_list:
        w = np.array([st[n][2] for st in per_stream], dtype=float)
        mean = float(np.dot(w, [st[n][0] for st in per_stream]) / w.sum())
        var = float(np.dot(w ** 2, [st[n][1] ** 2 for st in per_stream]) / w.sum() ** 2)
        out[n] = McEstimate(
            mean=mean,
            stderr=math.sqrt(var),
            n_samples=int(w.sum()),
            seed=int(seed),
            censored=sum(st[n][3] for st in per_stream),
        )
    return out


@dataclass(frozen=True)
class KacReport:
    """Occupation frequency of the top cell against the mean return time.

    ``product`` estimates occupation * mean return, which is 1 for the
    true dynamics; ``histogram[k]`` counts completed returns of length k.
    """

    rho_e: float
    mean_return: float
    product: float
    histogram: np.ndarray
    n_returns: int
    n_steps: int
    censored: int
    seed: int


def kac_check(source, orbit_length: int, seed: int,
              burn_in: int = BURN_IN, sampler: str = SAMPLER) -> KacReport:
    """Empirical occupation of the top cell times the empirical mean
    return along a coded orbit of ``source``, a chain or its map, with the
    return-length histogram for comparison with the law.  A null-recurrent
    chain, whose mean return is infinite, raises before drawing.  A step
    ``1 -> L`` is a completed return when its ``L`` steps end in the orbit."""
    _sampler(source, "chain").stationary_law("Kac's identity needs a finite mean return")
    size, burn_in, _ = _check_orbit(orbit_length, burn_in)
    blocks = _blocks(_sampler(source, sampler), size, seed, burn_in)
    ones = valid = censored = 0
    histogram = np.zeros(0, dtype=np.intp)
    for at, block, a, b in _steps(blocks):
        ones += int(np.count_nonzero(block == 1))
        valid += int(np.count_nonzero(block > 0))
        censored += int(np.count_nonzero(block == -1))
        # the return opened by b[k] = L ends at orbit index at + block.size - b.size + k + L - 1
        opens = np.flatnonzero((a == 1) & (b >= 1))
        returns = b[opens]
        returns = returns[returns <= size - (at + block.size - b.size) - opens]
        counts = np.bincount(returns, minlength=histogram.size)
        counts[: histogram.size] += histogram
        histogram = counts
    n_returns = int(histogram.sum())
    if not n_returns:
        raise PreconditionViolated("orbit too short: no completed return")
    rho_e = ones / valid
    mean_return = int(histogram @ np.arange(histogram.size)) / n_returns
    return KacReport(
        rho_e=rho_e,
        mean_return=mean_return,
        product=rho_e * mean_return,
        histogram=histogram,
        n_returns=n_returns,
        n_steps=size,
        censored=censored,
        seed=int(seed),
    )


@dataclass(frozen=True)
class FrequencyReport:
    """Empirical one-step frequencies of a coded orbit against the chain.

    Rows and columns run over states 1..i_max; ``transition_stderr`` holds
    per-cell binomial standard errors given the row visit counts, and the
    occupation estimates carry batch-mean standard errors.
    """

    transition_hat: np.ndarray
    transition_exact: np.ndarray
    transition_stderr: np.ndarray
    row_visits: np.ndarray
    occupation_hat: np.ndarray
    occupation_exact: np.ndarray
    occupation_stderr: np.ndarray
    n_steps: int
    censored: int
    seed: int


def markov_frequency_check(source, orbit_length: int, seed: int,
                           i_max: int = 10, burn_in: int = BURN_IN,
                           sampler: str = SAMPLER) -> FrequencyReport:
    """Tabulate empirical transition frequencies and occupation of the
    first ``i_max`` cells along a coded orbit of ``source``, a chain or its
    map, against the exact chain entries.  The ``i_max``-square tables are
    capped at :data:`~renewallab.spectral.DENSE_LIMIT` cells a side."""
    chain = _sampler(source, "chain").stationary_law("occupations need the stationary law")
    i_max = _whole(i_max, "i_max")
    if i_max < 2 or i_max > chain.truncation - 1:
        raise PreconditionViolated("i_max must fit inside the stored prefix")
    if i_max > DENSE_LIMIT:
        raise PreconditionViolated(f"dense cell matrices are capped at i_max = {DENSE_LIMIT}")
    size, burn_in, _ = _check_orbit(orbit_length, burn_in)
    blocks = _blocks(_sampler(source, sampler), size, seed, burn_in)

    # one count keyed by batch and cell, over BATCHES equal batches of the
    # orbit, and one keyed by the step's two cells: cell 0 for censored
    # steps, i_max + 1 for resolved ones past the window
    side = i_max + 2
    edges = np.linspace(0, size, BATCHES + 1).astype(int)
    keys = np.arange(BATCHES) * side
    table = np.zeros(BATCHES * side, dtype=np.intp)
    pairs = np.zeros(side * side, dtype=np.intp)
    for at, block, a, b in _steps(blocks):
        key = np.clip(a, 0, i_max + 1)
        key *= side
        key += np.clip(b, 0, i_max + 1)
        pairs += np.bincount(key, minlength=pairs.size)
        key = np.clip(block, 0, i_max + 1)
        key += np.repeat(keys, np.diff(np.clip(edges, at, at + block.size)))
        table += np.bincount(key, minlength=table.size)
    # normalize by every resolved exit from the row, not only exits landing
    # inside the window, else each cell inflates by 1/P(next <= i_max)
    pairs = pairs.reshape(side, side)[1 : i_max + 1, 1:]
    row_visits, counts = pairs.sum(axis=1), pairs[:, :i_max]
    with np.errstate(invalid="ignore", divide="ignore"):
        hat = counts / row_visits[:, None]
        stderr = np.sqrt(hat * (1.0 - hat) / row_visits[:, None])

    table = table.reshape(BATCHES, side)
    visits, valid = table[:, 1 : i_max + 1], table[:, 1:].sum(axis=1)
    # means of the batches holding a resolved step, each cell's a C-contiguous row
    means = np.ascontiguousarray((visits[valid > 0] / valid[valid > 0, None]).T)
    occ_stderr = np.full(i_max, math.inf)
    if means.shape[1] >= 2:
        occ_stderr = np.std(means, axis=1, ddof=1) / math.sqrt(means.shape[1])
    return FrequencyReport(
        transition_hat=hat,
        transition_exact=transition_operator(chain, i_max),
        transition_stderr=stderr,
        row_visits=row_visits,
        occupation_hat=visits.sum(axis=0) / valid.sum(),
        occupation_exact=chain.pi[1 : i_max + 1].copy(),
        occupation_stderr=occ_stderr,
        n_steps=size,
        censored=int(table[:, 0].sum()),
        seed=int(seed),
    )


@dataclass(frozen=True)
class EntranceReport:
    """Survival of the first entrance time into a top interval.

    ``a_effective`` is the cell edge the request was snapped to: entrance
    is measured into [d_k, 1] where d_k is the deepest breakpoint at or
    above the requested threshold.
    """

    curve: RateCurve
    fit: RateFit | None
    a_effective: float
    k: int


def entrance_tail(source, a: float, n_max: int, samples: int,
                  seed: int, fit_window=None) -> EntranceReport:
    """Survival function of the first entrance time into ``[a, 1]`` from
    invariant-density starts, exact from the chain of ``source``, a chain
    or its map.

    The target is snapped inward to the nearest cell edge ``d_k >= a``, so
    entrance means reaching a cell of index at most k.  A start at state
    ``j > k`` enters after ``j - k`` steps, one at state 1 after
    ``1 + max(0, L - k)`` with ``L`` drawn from the return law, and one at
    states ``2 .. k`` after one step.  With ``pi_j = pi_1 d_{j-1}`` the
    survival past ``n >= 1`` steps is

        ``S(n) = pi_1 (d_{k+n-1} + d_{k+n} + E_{k+n})``,  ``E_m = sum_{l>m} d_l``,

    which carries the mass beyond the stored prefix through the chain's
    analytic tails.  ``curve.bounds`` is its rounding alone,
    :data:`ENTRANCE_ROUNDING` times ``S(n)``.  As ``d`` and ``E``
    are nonincreasing and rounding is monotone, the curve is nonincreasing
    in floating point too.

    ``samples`` and ``seed`` are checked as a sampler checks its size and
    seed (:class:`ConfigError` past :data:`MAX_ORBIT` or off ``[0, 2**64)``)
    and do not change the curve.  A log-log fit over ``fit_window`` is
    attached, and a window the fit refuses raises; the default window, the
    last decade, gives ``fit = None`` when it holds fewer than two grid
    points (``n_max <= 2``) or a zero value (a law of finite support).
    """
    chain = _sampler(source, "chain").stationary_law("entrances need the invariant density")
    _check_orbit(samples)
    n_max = _whole(n_max, "n_max", ConfigError, least=1)
    if not 0.0 < a <= chain.d[1]:
        raise PreconditionViolated(
            "threshold must lie in (0, d_1]: entrances inside the top cell "
            "are not resolved by the partition"
        )
    d = chain.d
    below = int(np.searchsorted(d[::-1], a, side="left"))
    k = d.size - 1 - below  # deepest index with d_k >= a
    chain.within(k + n_max + 1, f"the horizon n_max = {n_max} from cell {k}")
    _key(seed)

    values = chain.pi1 * (d[k : k + n_max] + d[k + 1 : k + n_max + 1]
                          + chain.d_tail[k + 1 : k + n_max + 1])
    curve = RateCurve(np.arange(1, n_max + 1), values, ENTRANCE_ROUNDING * values)
    if fit_window is not None:
        fit = rate_fit(curve, fit_window)
    else:
        try:
            fit = rate_fit(curve, (max(2, n_max // 10), n_max))
        except PreconditionError:  # too few grid points, or a zero value
            fit = None
    return EntranceReport(curve=curve, fit=fit, a_effective=float(d[k]), k=k)


# ----------------------------------------------------------------------
# invariant density and the locally constant transfer matrix
# ----------------------------------------------------------------------

def invariant_density(chain, n: int | None = None) -> np.ndarray:
    """Step heights of the invariant density over the partition cells.

    ``h[i] = pi_1 d_{i-1} / p_i`` (entry 0 unused), normalized so that
    ``sum h_i p_i = 1``: cell i has width p_i and carries stationary mass
    pi_i.  Flat for a geometric law; grows roughly linearly for power
    tails, the usual divergence of intermittent densities at 0.
    """
    chain.stationary_law("the invariant density needs a normalizable level")
    support = _support_length(chain)
    if n is None:
        n = support
    n = _whole(n, "the cell count", least=1)
    if n > support:
        raise TruncationTooSmall("density requested beyond the law's support")
    h = np.zeros(n + 1)
    h[1:] = chain.pi1 * chain.d[:n] / chain.p[1 : n + 1]
    h.flags.writeable = False
    return h


@dataclass(frozen=True)
class TransferReport:
    """Fixed-point residuals of the locally constant transfer matrix.

    density_residual: worst interior defect of the density under the row
    action.  law_residual: worst defect of the return law under the
    column action, over descent rows (the top row aggregates the whole
    law and is settled by the survival mass instead).
    """

    density_residual: float
    law_residual: float
    dimension: int


def pf_check(chain, n: int = 500) -> TransferReport:
    """Measure how well the cell-to-cell transfer matrix M(i,j) = (p_i/p_j)
    P(i,j) fixes the density (row action) and the return law (column
    action).  Its only nonzero entries are the top row ``p_1`` and the
    subdiagonal ``p_{j+1}/p_j``, so the actions are
    ``(hM)_j = h_1 p_1 + h_{j+1} p_{j+1}/p_j`` and ``(Mp)_{j+1} = (p_{j+1}/p_j) p_j``,
    O(n) without forming M."""
    chain.stationary_law("the transfer check needs a normalizable level")
    n = min(_whole(n, "the cell count"), _support_length(chain))
    if n < 3:
        raise TruncationTooSmall("need at least three resolvable cells")
    p = chain.p[1 : n + 1]
    h = invariant_density(chain, n)[1:]
    sub = p[1:] / p[:-1]
    density_residual = float(np.abs(h[0] * p[0] + h[1:] * sub - h[:-1]).max())
    law_residual = float(np.abs(sub * p[:-1] - p[1:]).max())
    return TransferReport(density_residual, law_residual, n)
