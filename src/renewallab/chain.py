"""Renewal chains on the positive integers.

A chain is determined by a return law ``p = (p_1, p_2, ...)``: row one of the
transition matrix is ``p`` and every other row steps deterministically down
by one.  The module builds finite working prefixes of everything derived
from ``p`` -- survival sums ``d_n = P(return > n)``, the stationary law
``pi_n = pi_1 d_{n-1}``, first-passage laws between arbitrary states, and
return-time moments -- with analytic tail corrections beyond the stored
prefix.  Two law classes carry that arithmetic: :class:`GeometricLaw` in
closed form, and the explicit-prefix law :class:`FiniteLaw`, whose leftover
mass past its listed probabilities is a realized power tail
(:class:`ZetaTailLaw` is its case with an empty prefix).

Finiteness of moments is always decided from the tail family of the law,
never from floating-point underflow of a computed prefix.

Array convention: prefixes are subscript-aligned, ``p[n]`` holds ``p_n``
with ``p[0] = 0`` unused, so recursions read like the formulas they
implement.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BadExponent,
    ConfigError,
    DegreeTooSmall,
    NotNormalized,
    NotPositiveRecurrent,
    PeriodicSupport,
    PreconditionViolated,
    TruncationTooSmall,
    ZeroProbabilityBranch,
)
from .measures import MASS_TOL, SignedDistribution, TailDecl
from .series import TruncatedSeries, _quotient, _tail_sums, _whole

__all__ = [
    "GeometricLaw",
    "ZetaTailLaw",
    "FiniteLaw",
    "RenewalChain",
    "FirstPassageLaw",
    "MomentValue",
    "POrder",
    "CodivergenceProbe",
    "build_chain",
    "first_passage",
    "moment",
    "second_moment_identity",
    "p_order",
    "codivergence_probe",
]

#: Largest stored prefix :func:`build_chain` accepts: about 80 MB per
#: stored array, checked before anything is allocated.
MAX_TRUNCATION = 10_000_000

#: Largest degree of a realized tail, with or without a log power.  Every
#: tail of such a law is already 0 in double precision past a degree of about
#: 1075, so the cap drops no chain that differs from one inside it.  It keeps
#: one exit-2 boundary for both routes, well below 2**53, where ``degree + 2``
#: and ``s - 1`` stop being exact, and away from an infinite degree, where
#: the log-power quadrature returns NaN.
MAX_ZETA_DEGREE = 1e13

#: Length of the direct partial sums backing log-corrected zeta constants.
_ZETA_PARTIAL_TERMS = 100_000


# ----------------------------------------------------------------------
# zeta-family constants: Hurwitz zeta by Euler-Maclaurin summation, or
# (with a log power) direct partial sums plus Euler-Maclaurin tails
# ----------------------------------------------------------------------

#: ``(2j)! / B_2j`` for j = 1..12: the weights of the Bernoulli corrections
#: in Cephes' ``zeta.c`` (Moshier, *Methods and Programs for Mathematical
#: Functions*, 1989).
_BERNOULLI_WEIGHTS = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
)


def _hurwitz(s: float, q: float) -> float:
    """Hurwitz zeta ``sum_{k >= 0} (q+k)^-s`` for ``s > 1``, ``q >= 1``.

    Euler-Maclaurin summation as in Cephes (DLMF 25.11): the terms for
    k = 0..9, then at ``w = q + 10`` the integral ``w^(1-s)/(s-1)``, half
    the endpoint term and 12 Bernoulli corrections, all added by one
    ``math.fsum``.  Once ``w^-s`` underflows to 0 the corrections are 0 as
    well and are skipped, so no ``inf * 0`` can turn the sum NaN.
    """
    terms = [(q + k) ** -s for k in range(10)]
    w = q + 10.0
    b = w ** -s
    terms += (b, w ** (1.0 - s) / (s - 1.0), -0.5 * b)
    if b:
        a, k = s, s
        for weight in _BERNOULLI_WEIGHTS:
            b /= w
            terms.append(a * b / weight)
            a *= (k + 1.0) * (k + 2.0)
            b /= w
            k += 2.0
    return math.fsum(terms)


def _tail_integral(s: float, beta: float, a: float) -> float:
    """``int_a^inf x^-s log(x+1)^beta dx`` for ``beta > 0``, to near machine
    precision.

    The ``log(x)`` part is an upper incomplete gamma after ``t = log x``;
    the ``log(x+1) - log(x)`` remainder is a smooth finite-interval
    integral after ``u = a/x``, written through expm1/log1p so no
    cancellation occurs for large ``x``.  ``quad``'s roundoff warnings are
    silenced; its error estimate decides, :class:`BadExponent` past 1e-13.
    """
    # slow to import; only log-power tails need them
    from scipy.integrate import IntegrationWarning, quad
    from scipy.special import gamma, gammaincc

    y = (s - 1.0) * math.log(a)
    main = (s - 1.0) ** (-(beta + 1.0)) * gammaincc(beta + 1.0, y) * gamma(beta + 1.0)
    if math.isinf(main):  # the quadrature would only add warnings to it
        return main

    def rem(u):
        x = a / u
        lx = math.log(x)
        return u ** (s - 2.0) * lx ** beta * math.expm1(beta * math.log1p(math.log1p(1.0 / x) / lx))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        r, err = quad(rem, 0.0, 1.0, epsabs=1e-300, epsrel=1e-11, limit=200)
    total = main + a ** (1.0 - s) * r
    if not a ** (1.0 - s) * err <= 1e-13 * total:
        raise BadExponent(f"the log-power tail at s = {s:g}, beta = {beta:g} is not resolved")
    return total


def _weight_tail(s: float, beta: float, m: int) -> float:
    """``sum_{n > m} n^-s log(n+1)^beta`` for ``s > 1`` and ``beta > 0``:
    direct summation up to ``max(m, _ZETA_PARTIAL_TERMS)``, then the
    integral plus Euler-Maclaurin endpoint terms there.

    The corrections run through the third-derivative term; the neglected
    term is O(g^(5)) at an expansion point past 1e5, far below rounding.
    """
    top = max(m, _ZETA_PARTIAL_TERMS)
    n = np.arange(m + 1, top + 1, dtype=float)
    head = float(np.sum(n ** -s * np.log(n + 1.0) ** beta))
    a = float(top + 1)

    def g(x):
        return x ** -s * math.log(x + 1.0) ** beta

    def gprime(x):
        lg = math.log(x + 1.0)
        return x ** (-s - 1.0) * lg ** beta * (-s + beta * x / ((x + 1.0) * lg))

    # third derivative from a centered stencil; the /720 weight makes its
    # modest relative accuracy irrelevant
    h = a / 50.0
    g3 = (-g(a - 2 * h) + 2 * g(a - h) - 2 * g(a + h) + g(a + 2 * h)) / (2 * h ** 3)
    return head + (_tail_integral(s, beta, a) + 0.5 * g(a) - gprime(a) / 12.0 + g3 / 720.0)


@lru_cache(maxsize=4096)
def _zeta_tail(s: float, beta: float, n: int) -> float:
    """``sum_{k > n} k^-s log(k+1)^beta``, the one tail sum of the zeta
    family: ``inf`` for ``s <= 1``, Hurwitz zeta without a log power,
    otherwise :func:`_weight_tail`.  Cached per ``(s, beta, n)``."""
    if s <= 1.0:
        return math.inf
    if beta == 0.0:
        return _hurwitz(s, n + 1.0)
    return _weight_tail(s, beta, n)


# ----------------------------------------------------------------------
# return laws
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GeometricLaw:
    """``p_n = (1-q) q^(n-1)``: memoryless returns, ratio ``q`` in (0, 1)."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ZeroProbabilityBranch(f"geometric ratio must lie in (0,1), got {self.q!r}")

    def prefix(self, n: int) -> np.ndarray:
        p = np.zeros(n + 1)
        p[1:] = (1.0 - self.q) * self.q ** np.arange(0.0, n)
        return p

    def tail_beyond(self, n: int) -> float:
        return self.q ** n

    def second_tail_beyond(self, n: int) -> float:
        return self.q ** (n + 1) / (1.0 - self.q)

    def mean_return(self) -> float:
        return 1.0 / (1.0 - self.q)

    def degree(self) -> float:
        return math.inf

    def tail_family(self) -> TailDecl:
        return TailDecl("geometric", ratio=self.q)

    def describe(self) -> dict:
        return {"type": "geometric", "q": self.q}


@dataclass(frozen=True)
class FiniteLaw:
    """Explicit-prefix law: ``p_k = probs_k`` for ``k <= K``, then an optional
    realized power tail ``p_k = c k^-s log(k+1)^beta`` past ``K``.

    Without ``tail_exponent`` the law is finitely supported, its
    probabilities must sum to one and a nonzero ``tail_log_power`` raises
    :class:`ConfigError`.  With ``s = tail_exponent`` (ergodic
    degree ``s - 2``) and ``beta = tail_log_power``, the leftover mass
    ``1 - sum(probs)`` is the tail, which therefore must be positive; its
    amplitude is ``c = (1 - sum(probs)) / sum_{k > K} k^-s log(k+1)^beta``.
    That sum and every tail or moment sum past the prefix is one cached
    :func:`_zeta_tail`: a Hurwitz zeta value without a log power
    (:func:`_hurwitz`, which loads no scipy module), with one direct partial
    sums of 1e5 terms plus analytic tail integrals.
    :class:`ZetaTailLaw` is its case with an empty prefix.
    """

    probs: tuple
    tail_exponent: float = math.inf
    tail_log_power: float = 0.0
    degree_: float = field(default=math.inf, repr=False)  # s - 2, or a zeta law's own degree

    def __init__(self, probs, tail_exponent=math.inf, tail_log_power=0.0):
        arr = np.asarray(probs, dtype=float)
        if arr.ndim != 1 or np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise NotNormalized("probabilities must be a vector of finite nonnegative numbers")
        total, tailed = float(arr.sum()), tail_exponent != math.inf
        if tailed and not 1.0 - total > MASS_TOL:
            raise NotNormalized(f"probabilities sum to {total!r}, leaving no tail mass")
        if not tailed:
            if tail_log_power != 0.0:
                raise ConfigError(f"a tail_log_power ({tail_log_power!r}) needs a "
                                  f"tail_exponent")
            if abs(total - 1.0) > MASS_TOL:
                raise NotNormalized(f"probabilities sum to {total!r}, not 1")
            gcd = np.gcd.reduce(np.nonzero(arr)[0] + 1)
            if gcd != 1:
                raise PeriodicSupport(f"support gcd is {gcd}, chain would be periodic")
        s, mass = float(tail_exponent), 1.0 - total if tailed else 0.0
        self._realize(tuple(arr.tolist()), s, s - 2.0, float(tail_log_power), mass)

    def _realize(self, probs: tuple, s: float, degree: float, beta: float, mass: float):
        """Set the fields, refusing a tail (``mass > 0``) unless ``s > 1`` once
        rounded and ``degree <= MAX_ZETA_DEGREE``, and any ``beta < 0``."""
        # the next double above degree -1 rounds to s = 1, where the sums diverge
        if mass and not s > 1.0:
            raise ZeroProbabilityBranch(
                f"degree must exceed -1 for a normalizable law, got {degree!r}")
        if mass and degree > MAX_ZETA_DEGREE:
            raise BadExponent(f"degree must be at most {MAX_ZETA_DEGREE:g}, got {degree!r}")
        if not beta >= 0.0:
            raise ZeroProbabilityBranch(f"log_power must be >= 0, got {beta!r}")
        # frozen: the fields go straight into the instance dict
        self.__dict__.update(probs=probs, tail_exponent=s, tail_log_power=beta, degree_=degree,
                             tail_mass=mass)

    @cached_property
    def normalization(self) -> float:
        """``sum_{k > K} k^-s log(k+1)^beta``, which the tail mass is spread over."""
        return _zeta_tail(self.tail_exponent, self.tail_log_power, len(self.probs))

    def prefix(self, n: int) -> np.ndarray:
        p = np.zeros(n + 1)
        k = len(self.probs)
        p[1 : min(n, k) + 1] = self.probs[:n]
        if self.tail_mass and n > k:
            idx = np.arange(k + 1.0, n + 1.0)
            w = idx ** -self.tail_exponent
            if self.tail_log_power != 0.0:
                w *= np.log(idx + 1.0) ** self.tail_log_power
            p[k + 1 :] = w * self.tail_mass / self.normalization
        return p

    def tail_beyond(self, n: int) -> float:
        if n < len(self.probs):
            return float(sum(self.probs[n:])) + self.tail_mass
        if not self.tail_mass:
            return 0.0
        return self.tail_mass * _zeta_tail(
            self.tail_exponent, self.tail_log_power, n) / self.normalization

    def second_tail_beyond(self, n: int) -> float:
        """``sum_{k > n+1} (k - n - 1) p_k``."""
        if self.degree_ <= 0.0:
            return math.inf
        head = float(sum((k - n - 1) * pk for k, pk in enumerate(self.probs, start=1) if k > n + 1))
        if not self.tail_mass:
            return head
        m, s, beta = max(n + 1, len(self.probs)), self.tail_exponent, self.tail_log_power
        return head + self.tail_mass * (
            _zeta_tail(s - 1.0, beta, m) - (n + 1) * _zeta_tail(s, beta, m)) / self.normalization

    def mean_return(self) -> float:
        if self.degree_ <= 0.0:
            return math.inf
        head = float(sum(k * pk for k, pk in enumerate(self.probs, start=1)))
        if not self.tail_mass:
            return head
        return head + self.tail_mass * _zeta_tail(
            self.tail_exponent - 1.0, self.tail_log_power, len(self.probs)) / self.normalization

    def degree(self) -> float:
        return self.degree_

    def tail_family(self) -> TailDecl:
        if not self.tail_mass:
            return TailDecl("finite")
        return TailDecl("power", exponent=self.tail_exponent, log_power=self.tail_log_power,
                        amplitude=self.tail_mass / self.normalization)

    def describe(self) -> dict:
        out = {"type": "finite", "probs": list(self.probs)}
        if not self.tail_mass:
            return out
        return {**out, "type": "custom", "tail_exponent": self.tail_exponent,
                "tail_log_power": self.tail_log_power}


class ZetaTailLaw(FiniteLaw):
    """``p_n`` proportional to ``n^-(degree+2) log(n+1)^log_power``: the
    explicit-prefix law with an empty prefix and all its mass in the tail.

    ``degree`` is the polynomial ergodic degree of the resulting chain;
    values in (-1, 0] give a normalizable but null-recurrent law, and values
    above :data:`MAX_ZETA_DEGREE` raise :class:`BadExponent`.
    """

    def __init__(self, degree_: float, log_power: float = 0.0):
        self._realize((), degree_ + 2.0, degree_, log_power, 1.0)

    def __repr__(self) -> str:
        return f"ZetaTailLaw(degree_={self.degree_!r}, log_power={self.tail_log_power!r})"

    def describe(self) -> dict:
        return {"type": "zeta", "degree": self.degree_, "log_power": self.tail_log_power}


# ----------------------------------------------------------------------
# the chain
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RenewalChain:
    """Working prefix of a renewal chain (see :func:`build_chain`); every
    request that reads it past the truncation is refused by :meth:`within`.

    Attributes
    ----------
    law : return law object
    truncation : int, read off ``p``
        Length ``N`` of the stored prefix.
    p : ndarray, shape (N+1,)
        Return probabilities, subscript-aligned (``p[0] = 0``).
    d : ndarray, shape (N+1,)
        Survival sums ``d[n] = P(return > n)``; ``d[N]`` is the analytic
        tail beyond the prefix and ``d[0] == 1``.
    d_tail : ndarray or None
        ``d_tail[n] = sum_{l > n} d_l`` including the analytic part; None
        for null-recurrent chains where this diverges.
    m1 : float
        Mean return time, ``inf`` when null recurrent: ``positive_recurrent``
        and ``classification`` are read off it.
    pi1 : float or None, read off ``m1``
        ``1/m1``; None when null recurrent.
    pi : ndarray or None
        Stationary prefix ``pi[j] = pi1 * d[j-1]``; None when null recurrent.
    ergodic_degree : float, read off ``law``
        Polynomial moment degree of the return law: the supremum of ``g``
        with ``sum n^(g+1) p_n`` finite.  ``inf`` for geometric or finite laws.
    """

    law: object
    p: np.ndarray
    d: np.ndarray
    d_tail: np.ndarray | None
    m1: float
    pi: np.ndarray | None

    def __post_init__(self):
        for name in ("p", "d", "d_tail", "pi"):
            arr = getattr(self, name)
            if arr is not None:
                arr.flags.writeable = False

    @property
    def truncation(self) -> int:
        return self.p.size - 1

    @property
    def pi1(self) -> float | None:
        return 1.0 / self.m1 if self.positive_recurrent else None

    @property
    def ergodic_degree(self) -> float:
        return float(self.law.degree())

    @property
    def positive_recurrent(self) -> bool:
        return math.isfinite(self.m1)

    @property
    def classification(self) -> str:
        return "positive-recurrent" if self.positive_recurrent else "null-recurrent"

    def within(self, n: int, what: str) -> int:
        """``n`` if ``n <= truncation``: the one rule for a request past the
        stored prefix, which a larger truncation mends.  Past it,
        :class:`TruncationTooSmall` names ``what``, ``n`` and the truncation."""
        if n > self.truncation:
            raise TruncationTooSmall(
                f"{what} reads state {n}, past the stored prefix of {self.truncation} states")
        return n

    def stationary_law(self, why: str = "the operation needs the stationary law"):
        """The chain, if it has a stationary law: the one rule for a request that
        needs ``pi``.  Else :class:`NotPositiveRecurrent`, its message led by ``why``."""
        if not self.positive_recurrent:
            raise NotPositiveRecurrent(f"{why}, which a null-recurrent chain lacks")
        return self

    def stationary_mass_beyond(self, m: int) -> float:
        """Analytic stationary mass ``sum_{j > m} pi_j``."""
        self.stationary_law("the mass beyond m needs the stationary law")
        m = self.within(_whole(m, "m", least=0), "the mass beyond m")
        return self.pi1 * (self.d[m] + self.d_tail[m])

    def describe(self) -> dict:
        return {
            "law": self.law.describe(),
            "truncation": self.truncation,
            "classification": self.classification,
            "ergodic_degree": self.ergodic_degree,
            "m1": self.m1,
            "pi1": self.pi1,
        }


def build_chain(law, truncation: int) -> RenewalChain:
    """Materialize the working prefix of the chain defined by ``law``.

    Validates normalization (prefix plus analytic tail within 1e-10 of one)
    and aperiodicity, then builds the survival and stationary prefixes with
    exact telescoping so that downstream fixed-point residuals sit at the
    rounding level.

    Raises
    ------
    ConfigError
        If ``truncation`` is not a whole number or exceeds
        :data:`MAX_TRUNCATION`.
    BadExponent
        If the law's prefix, tail or mean overflows in double precision,
        or a positive degree rounds to an infinite mean.
    NotNormalized
        If the law's mass differs from one beyond tolerance.
    PeriodicSupport
        If the support of ``p`` has a common divisor larger than one.
    """
    n = _whole(truncation, "the truncation", ConfigError)
    if n < 2:
        raise TruncationTooSmall("truncation must be at least 2")
    if n > MAX_TRUNCATION:
        raise ConfigError(f"truncation {n} exceeds the cap of {MAX_TRUNCATION} states")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            p, tail, m1 = law.prefix(n), law.tail_beyond(n), law.mean_return()
    except OverflowError:
        p = None
    # the prefix and the tail are nonnegative: finite exactly when their sum is
    if p is None or not math.isfinite(p.sum() + tail) or (
            law.degree() > 0 and not math.isfinite(m1)):
        raise BadExponent(f"the law's prefix, tail or mean overflows in double precision, "
                          f"or its degree {law.degree():g} > 0 gives an infinite mean")
    # telescoping from the analytic tail rather than a closed form (q^k for
    # a geometric law) keeps d[k] == d[k+1] + p[k+1] exact in floats
    d = _tail_sums(p[1:], tail)
    if abs(d[0] - 1.0) > MASS_TOL:
        raise NotNormalized(f"prefix plus tail sums to {float(d[0])!r}, not 1")
    d[0] = 1.0

    pi = d_tail = None
    if math.isfinite(m1):
        d_tail = _tail_sums(d[1:], law.second_tail_beyond(n))
        pi = np.r_[0.0, (1.0 / m1) * d[:n]]
    return RenewalChain(law=law, p=p, d=d, d_tail=d_tail, m1=m1, pi=pi)


# ----------------------------------------------------------------------
# first passage and moments
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FirstPassageLaw:
    """First-passage time law from state ``i`` to state ``j``."""

    i: int
    j: int
    series: TruncatedSeries

    @property
    def prefix_mass(self) -> float:
        return float(self.series.coeffs.sum())


@dataclass(frozen=True)
class MomentValue:
    value: float
    gamma: float
    tail_estimate: float
    finite: bool


def first_passage(chain, i: int, j: int, trunc: int | None = None,
                  mass_tol: float = 1e-6) -> FirstPassageLaw:
    """First-passage law ``f^n_{ij}`` as a truncated series.

    Descending passages (``i > j``) are a point mass at ``i - j``.  For
    ``j >= i`` the law is the series quotient

        ``z^(i-j) P_j(z) / (1 - sum_{0<n<j} p_n z^n)``

    with ``P_j(z) = sum_{n>=j} p_n z^n``, evaluated coefficientwise.

    Raises
    ------
    TruncationTooSmall
        If the requested horizon needs unavailable ``p`` entries, or if the
        captured mass falls short of ``1 - mass_tol``.
    """
    i, j = _whole(i, "state i", least=1), _whole(j, "state j", least=1)
    if i <= j:  # before the default horizon N - (j - i), which j > N makes meaningless
        chain.within(j, f"the passage {i}->{j}")
    if trunc is None:
        n = chain.truncation - max(0, j - i)
    else:
        n = _whole(trunc, "the horizon", least=0)
    if i > j:
        if i - j > n:
            raise TruncationTooSmall(f"descent {i}->{j} takes {i - j} steps > horizon {n}")
        coeffs = np.zeros(n + 1)
        coeffs[i - j] = 1.0
        return FirstPassageLaw(i, j, TruncatedSeries(coeffs))

    chain.within(j + max(n - i, 0), f"the passage {i}->{j} to horizon {n}")
    num = np.zeros(n + 1)
    num[i:] = chain.p[j : j + (n - i) + 1]
    den = np.zeros(n + 1)
    den[0] = 1.0
    den[1 : min(j, n + 1)] = -chain.p[1 : min(j, n + 1)]
    f = FirstPassageLaw(i, j, TruncatedSeries(_quotient(num, den)))
    if not f.prefix_mass >= 1.0 - mass_tol:  # a NaN tolerance fails too
        raise TruncationTooSmall(
            f"captured first-passage mass {f.prefix_mass:.12g} below 1 - {mass_tol:g}; "
            "increase the horizon or loosen mass_tol"
        )
    return f


def _moment_finite(chain, i: int, j: int, gamma: float) -> bool:
    if i > j:
        return True
    return gamma < chain.ergodic_degree + 1.0


def _moment_tail_estimate(chain, f: FirstPassageLaw, gamma: float) -> float:
    """Crude analytic continuation of the moment sum beyond the horizon,
    calibrated on the last stored coefficient and the declared family; a
    finite law's passage laws still running there decay geometrically, at
    the ratio of their last two positive coefficients."""
    fam = chain.law.tail_family()
    c = f.series.coeffs
    n = c.size - 1
    last = float(c[-1])
    if last <= 0.0 or f.i > f.j:
        return 0.0
    if fam.kind == "power":
        s = fam.exponent
        if gamma + 1.0 >= s:
            return math.inf
        return last * n ** (gamma + 1.0) / (s - gamma - 1.0)
    if fam.kind == "geometric":
        q = fam.ratio
    else:
        m = np.flatnonzero(c[:-1] > 0.0)
        q = float(last / c[m[-1]]) ** (1.0 / (n - int(m[-1]))) if m.size else 1.0
    return last * n ** gamma * q / (1.0 - q) if q < 1.0 else math.inf


def moment(chain, i: int, j: int, gamma: float) -> MomentValue:
    """Truncated moment ``sum_n n^gamma f^n_{ij}`` with a declared-tail
    estimate of the missing mass and a finiteness flag derived from the
    law's tail family (never from underflow)."""
    if not math.isfinite(gamma):
        raise PreconditionViolated(f"the moment order must be finite, got {gamma!r}")
    f = first_passage(chain, i, j, mass_tol=math.inf)
    n = np.arange(f.series.coeffs.size, dtype=float)
    n[0] = 1.0  # 0^gamma guard; coefficient there is zero anyway
    value = float(np.dot(n ** gamma, f.series.coeffs))
    return MomentValue(
        value=value,
        gamma=gamma,
        tail_estimate=_moment_tail_estimate(chain, f, gamma),
        finite=_moment_finite(chain, i, j, gamma),
    )


def second_moment_identity(chain, i: int):
    """Two-route check of the second return-time moment at state ``i``.

    The direct route sums ``n^2 f^n_{ii}``; the closed route expresses the
    same quantity through the state-1 moment:

        ``(pi_1/pi_i) * (M2_11 + 2 * sum_{n<i} n p_n / pi_i)``.

    Returns ``(lhs, rhs, gap)`` with ``gap`` the relative disagreement.

    Raises
    ------
    DegreeTooSmall
        If the declared degree makes the second moment infinite.
    """
    if chain.ergodic_degree <= 1.0:  # a null-recurrent chain has degree <= 0
        raise DegreeTooSmall(
            f"degree {chain.ergodic_degree} <= 1: second return-time moments diverge"
        )
    i = _whole(i, "the state", least=1)
    if i > chain.truncation or chain.pi[i] == 0.0:
        raise PreconditionViolated(f"state {i} has no stored stationary mass")
    lhs = moment(chain, i, i, 2.0).value
    m2_11 = moment(chain, 1, 1, 2.0).value
    pi_i = chain.pi[i]
    head = float(np.dot(np.arange(1.0, i), chain.p[1:i]))
    rhs = (chain.pi1 / pi_i) * (m2_11 + 2.0 * head / pi_i)
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    return lhs, rhs, gap


# ----------------------------------------------------------------------
# stationarity order of an initial distribution
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class POrder:
    """Largest moment order the pairing of ``nu`` with first-passage laws
    supports.  ``boundary`` is set when a declared logarithmic correction
    makes attainment at the supremum ambiguous."""

    value: float
    boundary: bool


def p_order(chain, nu: SignedDistribution) -> POrder:
    """Supremum of ``g > 0`` with ``sum_l |nu_l| * (g-moment of passage l->i)``
    finite, decided from declared tails: the same at every target state ``i``.

    The chain contributes the ceiling ``degree + 1`` (through-state-1
    passages); ``nu`` contributes ``a - 1`` when its tail is declared as a
    power ``l^-a``.  Mass beyond the prefix of ``nu`` without a declared
    tail raises :class:`PreconditionViolated`: its order is unknown.
    """
    ceiling = chain.ergodic_degree + 1.0
    if nu.tail is None and nu.tail_mass != 0.0:
        raise PreconditionViolated("the order of nu's tail mass is unknown: declare its tail")
    decl = nu.tail if nu.tail is not None else TailDecl("finite")
    if decl.kind in ("finite", "geometric"):
        nu_part, nu_binding_log = math.inf, False
    else:
        nu_part = decl.exponent - 1.0
        nu_binding_log = decl.log_power != 0.0
    value = min(ceiling, nu_part)
    boundary = nu_binding_log and nu_part <= ceiling
    return POrder(value=value, boundary=boundary)


# ----------------------------------------------------------------------
# codivergence of moment routes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CodivergenceProbe:
    """Partial-sum curves of the two moment routes and the declared verdict.

    ``partial_direct[n]`` accumulates ``m^(gamma+1) f^m_ii``;
    ``partial_paired[n]`` accumulates ``pi_l x (gamma-moment of l -> i)``.
    Both converge exactly when ``gamma`` is below the ergodic degree.
    """

    gamma: float
    i: int
    partial_direct: np.ndarray
    partial_paired: np.ndarray
    predicted_convergent: bool


def codivergence_probe(chain, gamma: float, i: int = 1, n_max: int | None = None) -> CodivergenceProbe:
    """Build both truncated moment routes side by side to the horizon ``n_max``,
    by default ``N - i + 1``, the longest that keeps every passage ``l -> i`` stored.

    Raises
    ------
    NotPositiveRecurrent
        On null-recurrent chains, where the paired route has no stationary
        weights to pair with.
    """
    chain.stationary_law("codivergence pairing needs the stationary law")
    if not math.isfinite(gamma):
        raise PreconditionViolated(f"the moment order must be finite, got {gamma!r}")
    i = chain.within(_whole(i, "the state", least=1), "the target state")
    n = chain.truncation - i + 1 if n_max is None else chain.within(_whole(n_max, "n_max"), "n_max")

    # from l < i the chain descends to 1 first, so f_li = z^(l-1) f_1i
    f1 = first_passage(chain, 1, i, trunc=n, mass_tol=math.inf).series.coeffs
    f = f1 if i == 1 else first_passage(chain, i, i, trunc=n, mass_tol=math.inf).series.coeffs
    m = np.arange(n + 1, dtype=float)
    m[0] = 1.0
    direct = np.cumsum(m ** (gamma + 1.0) * f)

    paired_terms = np.zeros(n + 1)
    powers = m ** gamma
    for l in range(1, min(i, n + 1)):
        paired_terms[l] = chain.pi[l] * np.dot(powers[l - 1 :], f1[: n - l + 2])
    paired_terms[i + 1 :] = chain.pi[i + 1 : n + 1] * np.arange(1.0, n - i + 1) ** gamma
    paired = np.cumsum(paired_terms)

    return CodivergenceProbe(
        gamma=gamma,
        i=i,
        partial_direct=direct,
        partial_paired=paired,
        predicted_convergent=bool(gamma < chain.ergodic_degree),
    )
