"""Finite truncations of the transition operator and its factors.

Everything here is diagnostic: dense matrices at desk scale to verify the
exact operator factorization, an O(N) recursion for eigenvector candidates
read off the generating function, and pointwise generating-function
evaluation in closed form.  Each probe admits |z| <= ``EVAL_RADIUS``, the
closed disk of :mod:`renewallab.series`, and refuses a point past it.

Vectors act on matrices from the right, (xT)_j = sum_i x_i t_ij, matching
how distributions evolve.  The dense builders return plain N-by-N arrays
with entry (i, j) at ``[i-1, j-1]``, capped at N = 1000 since nothing here
needs more.  The bare shift Q of the factorization is never stored: it has
one 1 per row, so multiplying by I - zQ subtracts z times the matrix moved
down one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolated, SingularPoint, TruncationTooSmall
from .series import EVAL_RADIUS, _as_grid, _whole

__all__ = [
    "SpectralProbe",
    "transition_operator",
    "jump_operator",
    "factorization_residual",
    "eigen_from_gf",
    "partial_norm_scan",
    "disk_scan",
    "gf_evaluate",
]

#: Dense matrices stay at desk scale, here and in the cell matrices of
#: :mod:`renewallab.maps`; larger probes use structured actions.
DENSE_LIMIT = 1000

#: Largest share of ``|1 - F(z)|``, ``F`` the return law's transform over the
#: stored prefix, that the return mass past it may weigh in :func:`gf_evaluate`.
GF_TAIL_SHARE = 1e-6


def _check_dense_size(chain, n) -> int:
    """``n`` as a dense dimension on ``chain``'s stored prefix."""
    n = chain.within(_whole(n, "the dimension"), "the dense truncation")
    if n < 2:
        raise TruncationTooSmall("dense truncation needs N >= 2")
    if n > DENSE_LIMIT:
        raise PreconditionViolated(
            f"dense probes are capped at N = {DENSE_LIMIT}; use the structured routes"
        )
    return n


def transition_operator(chain, n: int) -> np.ndarray:
    """Dense N-by-N truncation of the transition operator: row 1 is the
    return law, row i >= 2 descends to i-1."""
    n = _check_dense_size(chain, n)
    m = np.zeros((n, n))
    m[0, :] = chain.p[1 : n + 1]
    idx = np.arange(1, n)
    m[idx, idx - 1] = 1.0
    return m


def jump_operator(chain, z: complex, n: int) -> np.ndarray:
    """Dense N-by-N return-jump block L_z, entry (i, j) = p_j z^i."""
    n = _check_dense_size(chain, n)
    powers = np.asarray(z, dtype=complex) ** np.arange(1, n + 1)
    return np.outer(powers, chain.p[1 : n + 1])


def factorization_residual(chain, z: complex, n: int) -> float:
    """Max entry defect of (I - zQ)(I - L_z) against (I - zP) with Q the
    bare shift and L_z the return-jump block, over the interior block
    (rows and columns up to N-1; the edge band is excluded because the
    truncated shift has nowhere to send the last state).

    Row i of (I - zQ)X is X_i - z X_{i-1}, so the product costs O(N^2)."""
    if not abs(z) <= EVAL_RADIUS:
        raise PreconditionViolated("factorization is probed on the closed unit disk")
    n = _check_dense_size(chain, n)
    # I - M as -M plus one on the diagonal, in place, with no identity
    # matrix: the values of np.eye(n) - M up to the sign of zeros, which
    # abs drops
    lhs = jump_operator(chain, z, n)
    np.negative(lhs, out=lhs)
    lhs.flat[:: n + 1] += 1.0
    lhs[1:] -= z * lhs[:-1]
    rhs = transition_operator(chain, n) * z
    np.negative(rhs, out=rhs)
    rhs.flat[:: n + 1] += 1.0
    lhs -= rhs
    return float(np.abs(lhs[: n - 1, : n - 1]).max())


# ----------------------------------------------------------------------
# eigenvector candidates from the generating-function coefficients
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralProbe:
    """Candidate eigenvector prefix for the transition operator.

    vector is complex, even at a real ``lam``, and subscript-aligned
    (entry 0 unused); residual is the l1 defect of the eigen relation on
    interior entries (j <= N-1, where the truncated matrix is exact);
    tail_note is the magnitude of the first coefficient beyond the prefix,
    the exact defect the truncation introduces at the edge.
    """

    lam: complex
    vector: np.ndarray
    residual: float
    tail_note: float

    def __post_init__(self):
        self.vector.flags.writeable = False


def eigen_from_gf(chain, lam: complex, n: int) -> SpectralProbe:
    """Coefficient recursion for the candidate left eigenvector at ``lam``.

    With x_1 = 1 the coefficients are x_k = lam^(k-1) - sum_{m<k} p_m
    lam^(k-1-m), computed by the stable one-term recursion
    x_{k+1} = lam x_k - p_k.  At lam = 1 this gives x_k = d_{k-1}, the
    invariant vector; inside the unit disk the prefix is summable and the
    edge defect decays with N; a ``lam`` outside the closed disk is refused.
    At a real ``lam`` the complex recursion keeps the bits of a real one.
    """
    n = chain.within(_whole(n, "the coefficient count"), "the coefficient recursion")
    if n < 3:
        raise TruncationTooSmall("need at least three coefficients")
    lam = complex(lam)
    if not abs(lam) <= EVAL_RADIUS:  # outside, the recursion grows like lam^k
        raise PreconditionViolated("eigenvector candidates are probed on the closed unit disk")
    x = np.zeros(n + 1, dtype=complex)
    x[1] = 1.0
    for k in range(1, n):
        x[k + 1] = lam * x[k] - chain.p[k]
    # interior residual of the row action: (xP)_j = x_1 p_j + x_{j+1}
    defect = lam * x[1 : n] - (x[1] * chain.p[1 : n] + x[2 : n + 1])
    return SpectralProbe(lam=lam, vector=x, residual=float(np.abs(defect).sum()),
                         tail_note=float(abs(lam * x[n] - chain.p[n])))


def partial_norm_scan(chain, lam: complex, n_list) -> np.ndarray:
    """Partial l1 norms of the coefficient vector at each prefix length.

    Inside the disk these settle; on the unit circle away from 1 they grow
    without bound, which is the diagnostic (not a proof) that the candidate
    fails to be a summable eigenvector there.
    """
    n_list = _as_grid(n_list)
    # the recursion needs three coefficients; shorter prefixes read its first ones
    probe = eigen_from_gf(chain, lam, max(n_list[-1], 3))
    return np.cumsum(np.abs(probe.vector))[n_list]


def disk_scan(chain, lams, n: int) -> list:
    """Residual and partial-norm diagnostics over a grid of disk points.

    Returns rows ``(re, im, residual, l1_partial_norm)``; diagnostic only.
    """
    probes = (eigen_from_gf(chain, lam, n) for lam in lams)
    return [(p.lam.real, p.lam.imag, p.residual, float(np.abs(p.vector).sum())) for p in probes]


# ----------------------------------------------------------------------
# generating-function evaluation
# ----------------------------------------------------------------------

def _law_transform(chain, z: complex, lo: int, hi: int) -> complex:
    """sum_{lo <= k < hi} p_k z^k over the stored prefix."""
    powers = np.asarray(z, dtype=complex) ** np.arange(lo, hi)
    return complex(np.dot(chain.p[lo:hi], powers))


def gf_evaluate(chain, i: int, j: int, z):
    """Pointwise values (P_ij(z), F_ij(z)) of the pair-visit and
    first-passage generating functions; for a sequence of points ``z``, a
    list of such pairs.

    Closed forms from the chain structure: descents are monomials, ascents
    go through the return row.  The renewal identity
    P_ij = F_ij P_jj + delta_ij couples the two values.  They read ``p``
    over the stored prefix; the mass past it moves ``F`` by at most ``d_N
    |z|^(N+1)``, which must stay within ``GF_TAIL_SHARE * |1 - F(z)|``.
    The tests check them against the series of P_ij, first passage over
    the return-renewal denominator, summed at points well inside the disk.

    Raises
    ------
    SingularPoint
        At z = 1, where P_jj diverges (the one root of the denominator on
        the closed disk).
    OutOfDomain via PreconditionViolated
        Outside the closed unit disk.
    TruncationTooSmall
        If ``j`` lies past the stored prefix, which has no returns to it,
        or near z = 1, where the return mass past the prefix is not
        negligible against ``1 - F(z)``.
    """
    i = _whole(i, "state i", least=1)  # a state i past the prefix descends to j without a draw
    j = chain.within(_whole(j, "state j", least=1), "the return to state j")
    values = []
    for point in np.atleast_1d(z):
        point = complex(point)
        if not abs(point) <= EVAL_RADIUS:
            raise PreconditionViolated("generating functions are evaluated on the closed disk")
        if point == 1.0:
            raise SingularPoint("z = 1 is the singular point of the pair-visit function")
        if point == 0.0:
            values.append(((1.0 if i == j else 0.0), 0.0))
            continue

        head = _law_transform(chain, point, 1, j)
        rest = _law_transform(chain, point, j, chain.truncation + 1)
        missing = chain.d[-1] * abs(point) ** (chain.truncation + 1)
        if missing > GF_TAIL_SHARE * abs(1.0 - head - rest):
            raise TruncationTooSmall(
                f"at z = {point!r} the return mass past the prefix ({missing:.3g}) is not "
                f"negligible against |1 - F(z)| = {abs(1.0 - head - rest):.3g}")
        f_jj = rest / (1.0 - head)
        if i > j:
            f_ij = point ** (i - j)
        else:
            f_ij = point ** (i - j) * f_jj
        p_jj = 1.0 / (1.0 - f_jj)
        p_ij = f_ij * p_jj + (1.0 if i == j else 0.0)
        values.append((p_ij.real, f_ij.real) if point.imag == 0.0 else (p_ij, f_ij))
    return values if np.ndim(z) else values[0]
