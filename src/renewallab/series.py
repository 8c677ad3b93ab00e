"""Truncated power-series arithmetic on real coefficient prefixes.

A :class:`TruncatedSeries` stores the finite prefix ``c_0 .. c_N`` of a formal
power series together with its truncation order ``N``.  All binary operations
truncate to the shortest operand; nothing is ever zero-extended silently.
Every series quotient -- :func:`divide`, :func:`reciprocal` (a unit
numerator), the renewal sequence, the renewal deviation and the
first-passage laws -- runs the one relaxed quotient of :func:`_quotient`
in O(N log^2 N) time, and package code calls it on plain arrays.  It is as
accurate as the direct recursion it replaced, which the tests keep as its
oracle, though not equal to it to the last rounding.  One routine,
:func:`_products`, forms its far block products and those of the windows
of a long product (:func:`_window`) that the evolution curves read, each
piece with its rounding bound.  :func:`convolve` accumulates with
compensated (Kahan) summation; no package route uses it, so it serves as
an independent oracle.  Its loop allocates and copies nothing: five ufunc
passes per nonzero coefficient over two accumulators, which trade the
roles of sum and compensation at each step, and one scratch buffer,
bit-identical to the plain Kahan loop.  No symbolic algebra is used.

Coefficient indexing is from zero.  Sequences that are naturally indexed from
one (return-law probabilities ``p_1, p_2, ...``) are stored with ``coeffs[k]``
holding the ``(k+1)``-th term; :func:`tail_sums` documents this convention.
It is also the one tail-sum routine: :func:`renewallab.chain.build_chain`
takes the survival sums ``d`` and their tails ``d_tail`` from its array
form, with exact telescoping and no validating copies.

The module also holds the package's one rule for whole numbers: every
size, index, state, seed and grid point a caller passes is read through
:func:`_whole` or :func:`_as_grid`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadExponent,
    NegativeCoefficient,
    NonPositiveCoefficient,
    OutOfDomain,
    PreconditionViolated,
    ZeroLeadingCoefficient,
)

__all__ = [
    "TruncatedSeries",
    "convolve",
    "reciprocal",
    "divide",
    "tail_sums",
    "partial_sums",
    "kaluza_check",
    "convolution_power_probe",
    "zero_diagnostic",
]

#: Leading coefficients at or below this magnitude are treated as zero.
LEADING_FLOOR = 1e-300

#: Largest admissible |z| for evaluation: closed unit disk plus rounding slack.
EVAL_RADIUS = 1.0 + 1e-9


@dataclass(frozen=True)
class TruncatedSeries:
    """Finite prefix ``c_0 .. c_N`` of a power series.

    Parameters
    ----------
    coeffs : array_like
        Coefficients ``c_0 .. c_N``; must be finite reals.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a nonempty one-dimensional array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def __len__(self) -> int:
        return self.coeffs.size


def _as_series(x) -> TruncatedSeries:
    if isinstance(x, TruncatedSeries):
        return x
    return TruncatedSeries(np.asarray(x, dtype=float))


def convolve(a, b) -> TruncatedSeries:
    """Cauchy product truncated to the shorter operand.

    Each output coefficient ``(a*b)_n = sum_k a_k b_{n-k}`` is accumulated
    with Kahan compensation, vectorized over the output index, so results do
    not drift even for prefixes of length 1e4 and beyond.  The loop
    allocates nothing: each nonzero ``a_k`` makes five ufunc passes over
    two accumulators and one scratch buffer, the plain Kahan update in the
    same order, so every output is bit-identical to it.  The new sum goes
    into the buffer that held the compensation and the new compensation
    into the one that held the sum, so no pass copies; output ``j`` ends in
    the buffer given by the parity of the nonzero ``a_k`` with ``k <= j``
    and is gathered from it once.  A product that overflows is refused
    with :class:`OutOfDomain`.
    """
    a, b = _as_series(a), _as_series(b)
    n_out = min(len(a), len(b))
    ac, bc = a.coeffs[:n_out], b.coeffs
    out = s = np.zeros(n_out)
    odd = c = np.zeros(n_out)
    y = np.empty(n_out)
    nonzero = ac != 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in np.flatnonzero(nonzero).tolist():
            ym, sk, ck = y[: n_out - k], s[k:], c[k:]
            np.multiply(bc[: n_out - k], ac.item(k), out=ym)
            ym -= ck
            np.add(sk, ym, out=ck)
            np.subtract(ck, sk, out=sk)
            sk -= ym
            s, c = c, s
    # the sums of outputs after an odd count of nonzero a_k are in ``odd``
    np.copyto(out, odd, where=np.logical_xor.accumulate(nonzero))
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise OutOfDomain(f"the product overflows at coefficient {bad[0]}")
    return TruncatedSeries(out)


def _whole(value, what: str, error=PreconditionViolated, least=None) -> int:
    """``value`` as an int: the package's one rule for a size, an index, a
    state or a seed.  Integral floats and numpy integers are accepted;
    strings, bools, other values that are not whole numbers (None
    included) and, with ``least``, values below it raise ``error``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)) and not (
            isinstance(value, numbers.Real) and float(value).is_integer()):
        raise error(f"{what} must be a whole number, got {value!r}")
    n = int(value)
    if least is not None and n < least:
        raise error(f"{what} must be at least {least}, got {n}")
    return n


def _as_grid(n_grid) -> np.ndarray:
    """``n_grid`` as an int array, refusing with :class:`PreconditionViolated`
    anything but a nonempty, strictly increasing vector of whole numbers
    ``>= 0`` (integral floats and numpy integers included, bools refused)."""
    raw = np.asarray(n_grid)
    if raw.dtype.kind in "iuf" and raw.ndim == 1 and raw.size and (isinstance(n_grid, np.ndarray)
            or not any(isinstance(v, (bool, np.bool_)) for v in n_grid)):
        with np.errstate(invalid="ignore"):  # NaN, inf and overflow fail the comparison
            g = raw.astype(int, copy=False)
        if np.array_equal(g, raw) and g[0] >= 0 and np.all(np.diff(g) > 0):
            return g
    raise PreconditionViolated(
        "a grid must be a nonempty, strictly increasing vector of whole numbers >= 0")


#: Spacing of doubles at one; twice the unit roundoff.
EPS = float(np.finfo(float).eps)

#: Outputs per block of :func:`_quotient`, and the length of its shortest
#: far block of ``d``.
_BLOCK = 64

#: Far blocks at least this long multiply through ``rfft`` spectra,
#: shorter ones through ``np.convolve``.
_FFT_FROM = 512

#: Longest block of the right operand of :func:`_window`: past it, blocks
#: keep this length and transforms ``2 * FAR_BLOCK`` points (2048 and
#: 16384 timed slower on a distance curve at N = 8e4).
FAR_BLOCK = 4096


def _gamma(k: int) -> float:
    """Rounding factor of a sum of ``k`` rounded products.

    Higham's ``gamma_j = j eps / (1 - j eps)`` (*Accuracy and Stability of
    Numerical Algorithms*, ch. 3-4) over the ``j = k - 1`` additions.  As
    ``eps`` is twice the unit roundoff this covers the products too when
    ``k >= 2``; a single product is rounded like the value itself and
    adds nothing.
    """
    j = max(int(k) - 1, 0)
    return j * EPS / (1.0 - j * EPS)


def _fft_gamma(size: int) -> float:
    """Entrywise error factor of a convolution through power-of-two FFTs
    of ``size`` points: ``|error| <= factor * ||x||_2 ||y||_2`` (Percival,
    *Math. Comp.* 72, 2003, with unit roundoff eps/2 and twiddle factors
    good to eps)."""
    k = size.bit_length() - 1
    u = EPS / 2.0
    return math.expm1(3 * k * math.log1p(u) + (3 * k + 1) * math.log1p(u * math.sqrt(5.0))
                      + 3 * k * math.log1p(EPS))


def _dyadic_blocks(x: np.ndarray, stop: int, longest: int = 0) -> list:
    """``x`` from ``_BLOCK`` to ``stop`` in blocks ``(start, size, block,
    spectrum, norm, doubling)``, each cut at ``stop``: ``x[L : 2L)`` for
    ``L = _BLOCK, 2 _BLOCK, ...`` and, from a given ``longest`` on, blocks
    of that length, which are not ``doubling``.  From ``size >= _FFT_FROM``
    on, ``spectrum`` is the ``rfft`` at ``2 size`` points and ``norm`` the
    2-norm (None, 0 below)."""
    blocks, start = [], _BLOCK
    while start < stop:
        size = min(start, longest or start)
        block = x[start : min(start + size, stop)]
        spectrum = np.fft.rfft(block, 2 * size) if size >= _FFT_FROM else None
        norm = 0.0 if spectrum is None else float(np.linalg.norm(block))
        blocks.append((start, size, block, spectrum, norm, size != longest))
        start += size
    return blocks


def _products(pairs, y: np.ndarray, stop: int):
    """Pieces ``(at, prod, bound)`` of the products of :func:`_dyadic_blocks`
    blocks with chunks of ``y``, pair ``(block, lo)`` the block times
    ``y[lo : lo + size)``: ``prod[i]`` adds to output ``at + i < stop``,
    with an error of at most ``bound``.  Blocks below ``_FFT_FROM`` take
    ``np.convolve`` (bound 0: the caller's dot bound covers it), longer
    ones ``rfft`` spectra, which Percival bounds by ``_fft_gamma(2 size)
    ||block||_2 ||chunk||_2``, relative to the piece unless the chunk spans
    scales, as the head chunk ``lo = 0`` does: there a ``doubling`` block
    (alone of its size; its pieces come at once) sends ``y[:_BLOCK]``
    through ``np.convolve``.  Pairs of other blocks that land at one index
    come last and share one inverse transform and the rounding of its sum.
    """
    shared, chunks = {}, {}  # pairs of the blocks that are not doubling; their chunks
    for (start, size, block, spectrum, norm, doubling), lo in pairs:
        hi = min(lo + size, y.size)
        if spectrum is None or doubling and lo == 0 and hi > _BLOCK:
            cut = hi if spectrum is None else _BLOCK  # y[lo : cut) goes through np.convolve
            if start + lo < stop:
                yield start + lo, np.convolve(block, y[lo:cut])[: stop - start - lo], 0.0
            lo = cut
        top = min(stop - start - lo, block.size + hi - lo - 1)
        if lo < hi and not doubling:
            if (lo, size) not in chunks:  # a chunk meets several blocks: one transform
                chunks[lo, size] = np.fft.rfft(y[lo:hi], 2 * size), np.linalg.norm(y[lo:hi])
            shared.setdefault((start + lo, size), []).append((spectrum, norm, lo, top))
        elif lo < hi and top > 0:
            chunk = y[lo:hi]
            prod = np.fft.irfft(np.fft.rfft(chunk, 2 * size) * spectrum, 2 * size)[:top]
            yield start + lo, prod, _fft_gamma(2 * size) * norm * np.linalg.norm(chunk)
    for (at, size), members in shared.items():
        acc = sum(chunks[lo, size][0] * spectrum for spectrum, _, lo, _ in members)
        scale = sum(norm * chunks[lo, size][1] for _, norm, lo, _ in members)
        top = max(member[-1] for member in members)
        if top > 0:
            yield at, np.fft.irfft(acc, 2 * size)[:top], \
                (_fft_gamma(2 * size) + _gamma(len(members))) * scale


def _sliding(x: np.ndarray, y: np.ndarray, size: int) -> np.ndarray:
    """Entries ``len(x) - 1 .. len(x) - 2 + size`` of the convolution
    ``x * y``: ``x`` slid along ``y`` from their first full overlap, with
    ``y`` zero past its end.  Windows inside ``y`` are ``size`` dot products
    of ``len(x)`` terms; a window that runs past the end of ``y`` takes the
    full convolution, which its callers reach only with ``size`` above
    ``len(x)`` or with both operands at most ``_BLOCK`` long."""
    lo = x.size - 1
    if y.size >= lo + size:
        return np.correlate(y[: lo + size], x[::-1], "valid")
    full = np.convolve(x, y)[lo : lo + size]
    return np.pad(full, (0, size - full.size))


def _window(x: np.ndarray, y: np.ndarray, blocks: list, size: int):
    """The window of :func:`_sliding` by block products, and the summed
    rounding of its FFT pieces; ``blocks`` cut ``y`` from ``_BLOCK`` on
    (:func:`_dyadic_blocks`, at most ``FAR_BLOCK`` long).  ``y[:_BLOCK]``
    meets the last ``_BLOCK`` entries of ``x`` directly, each block
    ``[s, s + L)`` the ``L``-aligned chunks of ``x`` whose product reaches
    the window (:func:`_products`), each FFT piece with its bound."""
    n = x.size
    lo, stop = n - 1, n - 1 + size
    out = _sliding(x[max(n - _BLOCK, 0) :], y[:_BLOCK], size)
    # chunk c of block [s, s + L) reaches outputs s + c .. s + c + 2L - 2: lo from c > n - s - 2L
    pairs = [(b, c) for b in blocks
             for c in range(max(n - b[0] - b[1], 0) // b[1] * b[1], min(n, stop - b[0]), b[1])]
    err = 0.0
    for at, prod, bound in _products(pairs, x, stop):
        skip = max(lo - at, 0)
        if skip < prod.size:
            out[at + skip - lo : at + prod.size - lo] += prod[skip:]
            err += bound * (prod.size - skip)
    return out, err


def _quotient(e, d) -> np.ndarray:
    """Coefficients of ``E(z)/D(z)`` on the shorter of the two prefixes.

    They solve ``h_n = (e_n - sum_{k=1..min(n,K)} d_k h_{n-k}) / d_0``, with
    ``K`` the last nonzero index of ``d``, by a relaxed product (van der
    Hoeven, *Relax, but don't be too lazy*, JSC 2002).  With ``C = _BLOCK``:

    * near part ``d_0 .. d_{C-1}``: ``C`` outputs at a time, one product
      for the terms that cross from the previous block, then one LAPACK
      ``dtrtrs`` solve with the block's lower-triangular Toeplitz matrix;
    * far part, ``d`` in the dyadic blocks ``[L, 2L)`` of
      :func:`_dyadic_blocks`, ``L = C, 2C, ...`` up to ``K``: once the
      outputs below ``j`` are final and ``L`` divides ``j``, block ``L``
      times ``h[j-L : j)`` (:func:`_products`) leaves the right-hand
      sides ``j .. j+2L-2``.  A ``d`` with ``K < C`` has no far part.

    Each solve is the direct recursion in plain double, row by row: its
    outputs solve ``(T + dT) h = r`` with ``|dT| <= gamma_C |T|``,
    ``gamma_C = C u / (1 - C u)`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, Thm 8.5).  A zero ``d_0``, which the caller
    checks, raises :class:`ZeroLeadingCoefficient`.
    """
    from scipy.linalg.lapack import dtrtrs  # slow to import; only quotients need it

    n = min(len(e), len(d))
    c = min(_BLOCK, n)  # a shorter prefix is one block
    head = np.asarray(d[:c], dtype=float)  # zero past K
    lag = np.subtract.outer(np.arange(c), np.arange(c))
    upper = np.where(lag >= 0, head[lag], 0.0).T  # the Toeplitz matrix, Fortran-ordered
    cross = np.where(lag < 0, head[lag], 0.0)  # head[lag] is d_{C+lag}
    far = _dyadic_blocks(d, np.trim_zeros(d[1:n], "b").size + 1)  # up to d_K

    rhs = np.array(e[:n], dtype=float)
    h = np.zeros(c + n)  # h[C + i] holds h_i; the C leading zeros cross into block 0
    for j in range(0, n, c):
        pairs = []
        for block in far:  # block L meets h[j-L : j) while L divides j
            if not j or j % block[0]:
                break
            pairs.append((block, j - block[0]))
        for at, prod, _ in _products(pairs, h[c:], n) if pairs else ():
            rhs[at : at + prod.size] -= prod
        w = min(c, n - j)
        r = rhs[j : j + w] - cross[:w] @ h[j : j + c]
        h[c + j : c + j + w], info = dtrtrs(upper[:w, :w], r, lower=0, trans=1)
        if info:
            raise ZeroLeadingCoefficient("d_0 = 0: the quotient has no power series")
    return h[c:]


def reciprocal(d) -> TruncatedSeries:
    """Coefficients of ``1/D(z)`` on the stored prefix: :func:`divide` with
    a unit numerator, ``c_0 = 1/d_0``,
    ``c_n = -(1/d_0) * sum_{k=1..n} d_k c_{n-k}``.

    Parameters
    ----------
    d : TruncatedSeries or array_like
        Denominator prefix; ``|d_0|`` must exceed :data:`LEADING_FLOOR`.
    """
    d = _as_series(d)
    unit = np.zeros(len(d))
    unit[0] = 1.0
    return divide(unit, d)


def divide(e, d) -> TruncatedSeries:
    """Coefficients of ``E(z)/D(z)`` on the shorter of the two prefixes, the
    solution of ``h_n = (e_n - sum_{k=1..n} d_k h_{n-k}) / d_0`` by the
    relaxed quotient of :func:`_quotient`.  ``|d_0|`` must exceed
    :data:`LEADING_FLOOR`.
    """
    ec, dc = _as_series(e).coeffs, _as_series(d).coeffs
    if abs(dc[0]) <= LEADING_FLOOR:
        raise ZeroLeadingCoefficient(
            f"|d_0| = {abs(dc[0]):.3g} is at or below the floor {LEADING_FLOOR:.3g}"
        )
    return TruncatedSeries(_quotient(ec, dc))


def tail_sums(a, analytic_tail: float = 0.0) -> TruncatedSeries:
    """Inclusive tail sums of a sequence indexed from one.

    The input prefix is read in the return-law convention: ``coeffs[k]``
    holds the term with subscript ``k+1``.  The output has one more entry
    than the input, with

        ``result_n = sum of input terms with subscript > n  (+ analytic_tail)``

    so ``result_0`` is the total mass and ``result_{N+1} = analytic_tail``.
    For a probability prefix ``p_1..p_N`` this produces the survival sums
    ``d_n = P(return > n)``; applied to ``d_1, d_2, ...`` it produces the
    second-order tails.  The output is nonincreasing whenever the input is
    nonnegative, which is required.
    """
    return TruncatedSeries(_tail_sums(_as_series(a).coeffs, analytic_tail))


def _tail_sums(a: np.ndarray, analytic_tail: float) -> np.ndarray:
    """:func:`tail_sums` of a plain array into a fresh writable array: the
    same checks, raising the same errors, without validating copies."""
    lo, hi = a.min(), a.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("coefficients must be finite")
    if lo < 0.0:
        k = int(np.argmax(a < 0.0))
        raise NegativeCoefficient(f"coefficient {k} is negative: {a[k]!r}")
    if analytic_tail < 0.0:
        raise NegativeCoefficient(f"analytic tail is negative: {analytic_tail!r}")
    # One reverse cumulative sum seeded with the tail keeps the telescoping
    # out[n] == out[n+1] + a[n] exact in floating point, which the chain's
    # survival sums and downstream fixed-point checks rely on.
    out = np.empty(a.size + 1)
    out[:-1] = a
    out[-1] = analytic_tail
    with np.errstate(over="ignore"):  # an overflow is refused just below, not warned
        np.cumsum(out[::-1], out=out[::-1])
    if not math.isfinite(out[0]):
        raise ValueError("coefficients must be finite")
    return out


def partial_sums(c) -> TruncatedSeries:
    """Running sums ``s_n = c_0 + ... + c_n`` (plain sequential recurrence)."""
    c = _as_series(c)
    return TruncatedSeries(np.cumsum(c.coeffs))


def kaluza_check(p) -> bool:
    """Test strict decrease and strict log-convexity of a probability prefix.

    The input is read in the return-law convention (``coeffs[k]`` holds
    ``p_{k+1}``).  Returns True when the stored prefix is strictly
    decreasing and each consecutive ratio ``p_{n+1}/p_n`` strictly
    increases; a sequence passing both has a reciprocal with eventually
    monotone partial sums and a generating function whose only boundary
    singularity sits at ``z = 1``.  Geometric prefixes fail (ratios are
    constant, not strictly increasing); normalized power tails such as
    ``p_n prop n^-3`` pass.

    Raises
    ------
    NonPositiveCoefficient
        If any stored coefficient is not strictly positive.
    """
    p = _as_series(p)
    pc = p.coeffs
    if np.any(pc <= 0.0):
        k = int(np.argmax(pc <= 0.0))
        raise NonPositiveCoefficient(f"coefficient {k} is not positive: {pc[k]!r}")
    if not np.all(pc[:-1] > pc[1:]):
        return False
    # log-convexity as increasing ratios: unlike the products p_n^2 and
    # p_{n-1} p_{n+1}, a ratio of normal doubles cannot underflow to zero
    ratios = pc[1:] / pc[:-1]
    return bool(np.all(ratios[:-1] < ratios[1:]))


def convolution_power_probe(gamma: float, n: int):
    """Direct value of ``sum_{k=1..n-1} k^(1-gamma) (n-k)^(1-gamma)``.

    Returns the pair ``(value, regime)`` where ``regime`` names the decay
    class of the sum as ``n`` grows:

    * ``"n^(3-2g)"`` for ``1 < gamma < 2`` (the sum itself grows/levels),
    * ``"log(n)/n"`` for ``gamma == 2``,
    * ``"n^(1-g)"`` for ``gamma > 2`` (edge terms dominate).

    Raises :class:`BadExponent` for ``gamma <= 1``, where the sum does not
    decay at all, and :class:`OutOfDomain` for ``n < 2``, where it is empty.
    """
    if not gamma > 1.0:
        raise BadExponent(f"gamma must exceed 1, got {gamma!r}")
    n = _whole(n, "n", OutOfDomain, least=2)
    k = np.arange(1, n, dtype=float)
    value = float(np.sum(k ** (1.0 - gamma) * (n - k) ** (1.0 - gamma)))
    if gamma < 2.0:
        regime = "n^(3-2g)"
    elif gamma == 2.0:
        regime = "log(n)/n"
    else:
        regime = "n^(1-g)"
    return value, regime


#: Most Newton or bisection steps of :func:`_positive_root` after its
#: bracket is found, so that it ends on any input.  Bisection alone takes a
#: bracket ``[r, 2r]`` to adjacent doubles in 53 steps; chain prefixes took
#: at most 5 steps, and 5000 random inputs spanning 200 decades at most 17.
_ROOT_STEPS = 200

#: Most circle points that :func:`zero_diagnostic` evaluates in one
#: ``polyval``, so that its scan holds a few arrays of this length at any
#: ``points``.
_SCAN_CHUNK = 2 ** 16


def _positive_root(c0: float, k: np.ndarray, a: np.ndarray) -> float:
    """The one positive root of ``g(r) = c0 - sum_j a_j r^k_j``, for
    ``c0 > 0``, every ``a_j > 0`` and integer ``k_j >= 1``.

    ``g`` is concave and decreasing on ``r >= 0``, with ``g(0) = c0``.  Its
    root is bracketed by halving or doubling from ``r = 1`` (an overflow to
    ``-inf`` counts as ``g <= 0``), then refined by Newton steps from the
    end with the smaller ``|g|``.  A step that leaves the bracket, is not
    finite, or fails to halve the step before last is replaced by a
    bisection.  Each evaluation is one vectorized power and two dots.  The
    root is well conditioned: ``r |g'(r)| >= c0 - g(r)``, so a relative
    error ``delta`` in the sum moves the root by at most ``delta``
    relative.
    """
    ka = k * a

    def g(r: float):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            pw = r ** k
            return float(c0 - a @ pw), float(-(ka @ pw) / r)

    lo = hi = 1.0
    glo = ghi = g(1.0)[0]
    while ghi > 0.0:  # ends at the latest at r = inf, where g = -inf
        lo, glo = hi, ghi
        hi *= 2.0
        ghi = g(hi)[0]
    while not glo > 0.0:  # ends at the latest at r = 0, where g = c0
        hi, ghi = lo, glo
        lo *= 0.5
        glo = g(lo)[0]
    r = lo if abs(glo) < abs(ghi) else hi
    old = older = math.inf
    for _ in range(_ROOT_STEPS):
        gr, dg = g(r)
        if gr == 0.0:
            return r
        if gr > 0.0:
            lo = r
        else:
            hi = r
        # a slope that underflowed to 0 or overflowed gives no step
        nxt = r - gr / dg if -math.inf < dg < 0.0 else math.nan
        if abs(nxt - r) <= 4.0 * EPS * r:
            return nxt
        if not (lo < nxt < hi and abs(nxt - r) <= 0.5 * older):
            nxt = 0.5 * lo + 0.5 * hi
            if not lo < nxt < hi:  # lo and hi are adjacent doubles
                return r
        old, older = abs(nxt - r), old
        r = nxt
    return r


def zero_diagnostic(d, radii=None, points: int = 720):
    """Heuristic scan for small prefix-polynomial moduli inside the disk.

    Diagnostic only: a truncated prefix cannot certify anything about zeros
    of the full series.  Scans ``|D(z)|`` over circles ``|z| = r`` and
    reports the smallest root modulus of the prefix polynomial where O(n)
    time finds it: 0 when ``d_0 == 0``, and the ``1 - F(z)`` form of a
    chain.  There ``d_0 != 0`` and every later coefficient has the opposite
    sign, so the prefix is ``D(z) = sign(d_0) (|d_0| - F(z))`` with
    ``F(z) = sum_{k >= 1} |d_k| z^k``, and the modulus is the positive root
    ``r_0`` of ``F(r) = |d_0|``, found by :func:`_positive_root`: for
    ``|z| < r_0``, ``|F(z)| <= F(|z|) < |d_0|``, so no zero lies inside that
    circle, and ``r_0`` itself is one (Pringsheim's argument).

    The scan evaluates its ``len(radii) * points`` samples in radius-major
    order (sample ``k`` at radius ``k // points``, angle ``k % points``), in
    flat chunks of at most :data:`_SCAN_CHUNK`, so it holds O(chunk) memory
    beyond the angle grid at any ``points``.  It keeps the first sample of
    smallest ``np.abs`` modulus, a NaN value from an overflow skipped; a
    later chunk replaces it only when strictly smaller, so the pick does not
    depend on the chunk size.  Returns a dict with ``min_abs`` (``abs`` of
    the value there), ``argmin`` (that sample, radii in their given order) and
    ``smallest_root_modulus`` (None for any other prefix, a constant one
    included).  Empty ``radii``, a radius past :data:`EVAL_RADIUS` or NaN,
    and ``points`` not a whole number of at least 1 raise :class:`OutOfDomain`.
    """
    points = _whole(points, "points per circle", OutOfDomain, least=1)
    d = _as_series(d)
    if radii is None:
        radii = np.linspace(0.1, 1.0, 10)
    if len(radii) == 0:
        raise OutOfDomain("need at least one radius")
    if not all(abs(r) <= EVAL_RADIUS for r in radii):
        raise OutOfDomain(f"every radius must lie in the disk |z| <= {EVAL_RADIUS}")
    radii = np.asarray(radii)
    angles = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    size = radii.size * points
    best, low = (np.inf, 0.0 + 0.0j), np.inf
    for lo in range(0, size, _SCAN_CHUNK):
        k = np.arange(lo, min(lo + _SCAN_CHUNK, size))
        zs = radii[k // points] * np.exp(1j * angles[k % points])
        vals = np.polynomial.polynomial.polyval(zs, d.coeffs)
        mods = np.abs(vals)
        mods[np.isnan(mods)] = np.inf  # an overflowed value is no minimum
        at = np.argmin(mods)
        if mods[at] < low:
            low, best = mods[at], (abs(complex(vals[at])), complex(zs[at]))
    smallest_root = None
    trimmed = np.trim_zeros(d.coeffs, "b")
    if trimmed.size > 1:
        d0, rest = trimmed[0], trimmed[1:]
        if d0 == 0.0:
            smallest_root = 0.0
        elif np.all(math.copysign(1.0, d0) * rest <= 0.0):
            nonzero = np.flatnonzero(rest)
            smallest_root = _positive_root(abs(float(d0)), nonzero + 1.0, np.abs(rest[nonzero]))
    return {
        "min_abs": best[0],
        "argmin": best[1],
        "smallest_root_modulus": smallest_root,
    }
