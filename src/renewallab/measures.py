"""Initial distributions and observables on the state space.

Distributions carry three things: a stored prefix of weights, the exact
mass sitting beyond that prefix, and an optional declaration of how the
tail decays.  The declaration is what rate and moment routines consult;
prefix arithmetic never tries to infer asymptotics from trailing floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotNormalized, PreconditionViolated
from .series import _whole

__all__ = [
    "TailDecl",
    "SignedDistribution",
    "Observable",
    "point_mass",
    "from_weights",
    "stationary",
    "indicator",
    "ones",
]

#: Tolerance of "the total mass is one", of a measure or of a return law.
MASS_TOL = 1e-10


@dataclass(frozen=True)
class TailDecl:
    """Declared asymptotic family of a nonnegative sequence.

    kind : 'finite' | 'geometric' | 'power'
        ``finite`` means identically zero beyond the prefix, ``geometric``
        means ``~ ratio^n``, ``power`` means ``~ amplitude * n^-exponent *
        log(n+1)^log_power``.  ``amplitude`` may be ``None`` when only the
        shape, not the constant, is known.
    """

    kind: str
    exponent: float | None = None
    log_power: float = 0.0
    ratio: float | None = None
    amplitude: float | None = None

    def __post_init__(self):
        if self.kind not in ("finite", "geometric", "power"):
            raise PreconditionViolated(f"unknown tail kind {self.kind!r}")
        if self.kind == "power" and (self.exponent is None or not self.exponent > -np.inf):
            raise PreconditionViolated(f"power tails need a real exponent, got {self.exponent!r}")
        if self.kind == "geometric" and not (self.ratio and 0.0 < self.ratio < 1.0):
            raise PreconditionViolated("geometric tails need a ratio in (0,1)")
        if not np.isfinite([self.log_power, self.amplitude or 0.0]).all():
            raise PreconditionViolated(f"log power and amplitude must be finite, "
                                       f"got {self.log_power!r} and {self.amplitude!r}")


@dataclass(frozen=True)
class SignedDistribution:
    """A signed measure of total mass one on states 1, 2, ...

    weights : ndarray, shape (N+1,)
        Subscript-aligned; ``weights[0]`` is zero and unused.  Entries may
        be negative; the total including ``tail_mass`` must be 1.
    tail_mass : float
        Mass beyond the prefix, tracked (not resolved by state) through
        evolution.
    tail : TailDecl or None
        Declared decay of ``weights[l]`` in ``l``; None means unknown.
    """

    weights: np.ndarray
    tail_mass: float = 0.0
    tail: TailDecl | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise PreconditionViolated("weights must be a vector with at least one state")
        if not np.all(np.isfinite(w)):
            raise PreconditionViolated("weights must be finite")
        if w[0] != 0.0:
            raise PreconditionViolated("weights[0] is a sentinel and must be zero")
        object.__setattr__(self, "weights", w)
        w.flags.writeable = False
        if not abs(self.total_mass - 1.0) <= MASS_TOL:  # a NaN mass fails too
            raise NotNormalized(f"total mass is {self.total_mass!r}, not 1")

    @property
    def size(self) -> int:
        return self.weights.size - 1

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum() + self.tail_mass)


def point_mass(state: int) -> SignedDistribution:
    """Unit mass at ``state``, on the prefix of states 1 .. ``state``."""
    state = _whole(state, "the state", least=1)
    w = np.zeros(state + 1)
    w[state] = 1.0
    return SignedDistribution(w, tail_mass=0.0, tail=TailDecl("finite"))


def from_weights(weights, tail_mass: float = 0.0) -> SignedDistribution:
    """Wrap an explicit weight vector (indexed from state 1) as a probability
    measure: total mass one, no negative entry and no declared tail.  A
    signed start, or one with a declared tail, is a :class:`SignedDistribution`.
    """
    w = np.asarray(weights, dtype=float)
    padded = np.zeros(w.size + 1)
    padded[1:] = w
    tail = TailDecl("finite") if tail_mass == 0.0 else None
    nu = SignedDistribution(padded, tail_mass=float(tail_mass), tail=tail)
    if np.any(nu.weights < 0.0) or nu.tail_mass < 0.0:
        raise NotNormalized("probability measure has negative entries")
    return nu


def stationary(chain) -> SignedDistribution:
    """Stationary law of a positive-recurrent chain, its weights the chain's
    read-only ``pi``, with a declared tail: the power exponent is one below
    the return law's, with the same logarithmic correction."""
    chain.stationary_law("a stationary start needs the stationary law")
    fam = chain.law.tail_family()
    if fam.kind == "power":
        decl = TailDecl("power", exponent=fam.exponent - 1.0, log_power=fam.log_power)
    else:
        decl = fam
    return SignedDistribution(chain.pi, chain.stationary_mass_beyond(chain.truncation), decl)


@dataclass(frozen=True)
class Observable:
    """Bounded function of the state, stored as a prefix plus eventual value.

    values : ndarray, shape (N+1,)
        ``values[l]`` is the observable at state ``l``; entry 0 unused.
    limit : float
        Value taken at every state beyond the prefix.
    """

    values: np.ndarray
    limit: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise PreconditionViolated("values must cover at least state 1")
        if not (np.all(np.isfinite(v)) and np.isfinite(self.limit)):
            raise PreconditionViolated("observable must be finite")
        object.__setattr__(self, "values", v)
        v.flags.writeable = False

    @property
    def size(self) -> int:
        return self.values.size - 1

    def at(self, state: int) -> float:
        return float(self.values[state]) if state <= self.size else self.limit


def indicator(states, size: int) -> Observable:
    """Indicator of a finite set of states."""
    idx = np.array([_whole(s, "a state", least=1)
                    for s in (states if np.ndim(states) else [states])], dtype=int)
    size = _whole(size, "the prefix length")
    if idx.size == 0 or np.any(idx > size):
        raise PreconditionViolated("need at least one state, each inside the prefix")
    v = np.zeros(size + 1)
    v[idx] = 1.0
    return Observable(v, limit=0.0)


def ones(size: int) -> Observable:
    """The constant observable 1."""
    return Observable(np.ones(_whole(size, "the prefix length", least=1) + 1), limit=1.0)
