"""Distribution evolution and convergence-rate measurement.

The transition matrix never exists here.  One evolution step is the exact
two-term recurrence (nu P)_j = nu_1 p_j + nu_{j+1}; :func:`step` applies it
and stays as the reference for everything else.  The curves do not iterate
it.  They use its renewal structure: the law at time n is the descent of
nu plus the return law convolved with ``a_m``, the mass at state 1 at time
m, and ``a = nu * e`` with ``e`` the renewal sequence.  Written against the
stationary law, ``a_m - pi_1 (mass reached) = nu * (e - pi_1)``, whose
deviation sequence comes from the cancellation-free quotient
``E(z) / (m1 D(z))``.  One evaluator builds that form from the start and
gives the entries of ``nu P^n - pi`` on a window of the prefix (direct or
block products, each with its own error bound) and the mass lost beyond
it: distances sum their absolute values over the whole prefix,
correlations pair the first ``K`` of them with an observable read at its
stored size, ``K`` its last state off its constant continuation.

Mass that would land beyond the stored prefix is a conservative
``tail_mass`` term, exactly as iterated steps would carry it, and is
reported as the truncation uncertainty of every curve value.  Reported
bounds add a rounding term for the sums behind each value; a value that
its rounding term could account for raises instead of being returned.

Rate curves pair a strictly increasing integer grid with values (and,
where truncation matters, with reported bounds).  Fits are ordinary least
squares on log n versus log |value|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergentPairing,
    InfiniteDegree,
    NotNullRecurrent,
    PreconditionViolated,
    TruncationTooSmall,
    ZeroValueInWindow,
)
from .measures import Observable, SignedDistribution, indicator, point_mass
from .series import (FAR_BLOCK, EPS, _as_grid, _dyadic_blocks, _gamma, _quotient, _sliding,
                     _whole, _window)

__all__ = [
    "RateCurve",
    "RateFit",
    "step",
    "renewal_sequence",
    "distance_curve",
    "correlation_curve",
    "deviation_tail_ratio",
    "rate_fit",
    "correlation_constant",
    "null_recurrent_ratio",
    "nonuniformity_probe",
    "log_grid",
]


@dataclass(frozen=True)
class RateCurve:
    """Values a_n on a strictly increasing integer grid.

    ``bounds`` reports the truncation uncertainty of each value plus the
    rounding of its sums (distance, correlation and constant curves), or
    the rounding alone (:func:`~renewallab.maps.entrance_tail`); None means
    no bound is reported, not an exact curve (renewal sequence, lemma-2
    and null-recurrent ratios).
    """

    n_grid: np.ndarray
    values: np.ndarray
    bounds: np.ndarray | None = None

    def __post_init__(self):
        g = _as_grid(self.n_grid)
        v = np.asarray(self.values, dtype=float)
        if v.shape != g.shape:
            raise PreconditionViolated("grid and values must be matching vectors")
        if not np.all(np.isfinite(v)):
            raise PreconditionViolated("curve values must be finite")
        object.__setattr__(self, "n_grid", g)
        object.__setattr__(self, "values", v)
        g.flags.writeable = False
        v.flags.writeable = False
        if self.bounds is not None:
            b = np.asarray(self.bounds, dtype=float)
            if b.shape != v.shape:
                raise PreconditionViolated("bounds must match values")
            object.__setattr__(self, "bounds", b)
            b.flags.writeable = False

    def at(self, n: int) -> float:
        idx = np.searchsorted(self.n_grid, n)
        if idx >= self.n_grid.size or self.n_grid[idx] != n:
            raise KeyError(f"n = {n} not on the curve grid")
        return float(self.values[idx])


@dataclass(frozen=True)
class RateFit:
    """Least-squares power-law fit ``|a_n| ~ exp(intercept) * n^exponent``."""

    exponent: float
    intercept: float
    window: tuple
    rms_residual: float


def log_grid(lo: int, hi: int, count: int = 30) -> np.ndarray:
    """Strictly increasing integer grid, roughly log-uniform on [lo, hi]."""
    if not 1 <= lo <= hi:
        raise PreconditionViolated("need 1 <= lo <= hi")
    raw = np.logspace(math.log10(lo), math.log10(hi), _whole(count, "the point count", least=1))
    return np.unique(np.round(raw).astype(int))


# ----------------------------------------------------------------------
# the elementary step
# ----------------------------------------------------------------------

def _last(x: np.ndarray) -> int:
    """Index of the last nonzero entry of ``x``, 0 if there is none."""
    nz = np.flatnonzero(x)
    return int(nz[-1]) if nz.size else 0


def _check_horizon(chain, nu: SignedDistribution, n_max: int):
    # the largest stored index carrying mass; measures that already carry
    # tail mass get no support guarantee and rely on the reported bound
    need = 2 * n_max + (0 if nu.tail_mass != 0.0 else _last(nu.weights))
    if chain.truncation < need:
        raise TruncationTooSmall(
            f"horizon {n_max} needs truncation >= {need}, chain stores {chain.truncation}"
        )


def step(chain, nu: SignedDistribution) -> SignedDistribution:
    """One exact evolution step of a signed distribution.

    Entry j of the result is ``nu_1 p_j + nu_{j+1}``; the unknown inflow
    from state N+1 is what the tail term accounts for.  The result keeps the
    chain's full prefix length.  Mass sent beyond the prefix joins
    ``tail_mass``; the declared tail family is inherited.
    """
    n = chain.truncation
    w = np.zeros(n + 1)
    w[: chain.within(nu.size, "the measure") + 1] = nu.weights
    nu1 = w[1]
    out = np.empty_like(w)
    out[0] = 0.0
    out[1:n] = w[2 : n + 1]
    out[n] = 0.0
    tail = nu.tail_mass
    if nu1 != 0.0:
        out[1:] += nu1 * chain.p[1:]
        tail += nu1 * chain.d[n]
    return SignedDistribution(out, tail_mass=tail, tail=nu.tail)


# ----------------------------------------------------------------------
# renewal recursion
# ----------------------------------------------------------------------

def renewal_sequence(chain, n_max: int) -> RateCurve:
    """The return-probability sequence e_n starting from e_0 = 1.

    The quotient ``1 / (1 - P(z))``, that is the solution of
    e_n = sum_{k<=n} p_k e_{n-k}, by the relaxed quotient of
    :func:`renewallab.series._quotient` in O(n_max log^2 n_max) time.  For
    positive-recurrent chains e_n approaches 1/m1.
    """
    n_max = chain.within(_whole(n_max, "n_max", least=1), "the renewal recursion")
    unit = np.zeros(n_max + 1)
    unit[0] = 1.0
    one_less_p = np.r_[1.0, -chain.p[1 : n_max + 1]]
    return RateCurve(np.arange(n_max + 1), _quotient(unit, one_less_p))


def _deviation(chain, n_max: int) -> np.ndarray:
    """``e_n - pi_1`` for n = 0..n_max without cancellation.

    The generating function of the deviation is ``E(z) / (m1 D(z))`` with
    ``D`` the survival series (``d_0 = 1``) and ``E_n = d_tail[n]``, so
    ``dev_n = E_n / m1 - sum_{k=1..n} d_k dev_{n-k}``: every term is of the
    size of the result.  Null-recurrent chains have ``pi_1 = 0`` and get
    ``e_n`` itself.
    """
    chain.within(n_max, "the renewal recursion")
    if not chain.positive_recurrent:
        return renewal_sequence(chain, max(n_max, 1)).values[: n_max + 1]
    return _quotient(chain.d_tail[: n_max + 1] / chain.m1, chain.d[: n_max + 1])


# ----------------------------------------------------------------------
# the renewal engine: nu P^n without iterating the step
# ----------------------------------------------------------------------

#: A window of ``J`` entries at grid point ``n`` is ``J`` direct dot
#: products while ``n * J`` stays at or below this, block products beyond.
DIRECT_WORK = 1 << 24


def _excess(nu: SignedDistribution) -> float:
    """Total mass of ``nu`` minus one, correctly rounded."""
    return math.fsum(np.append(nu.weights[1:], (nu.tail_mass, -1.0)))


def _entries(chain, nu: SignedDistribution, g: np.ndarray, J: int, dev=None):
    """Entries ``1..J`` of ``nu P^n - pi`` on the stored prefix, for each
    grid point ``n`` in turn, with a bound on their summed rounding error,
    the number of roundings that bound counts for a unit mass and the mass
    ``tail_n`` lost beyond the prefix; ``dev`` may pass in
    ``_deviation(chain, g[-1] - 1)`` when several measures share it.

    With ``a_m`` the mass at state 1 at time ``m`` and ``p~`` the return
    law cut at the prefix, the renewal form of ``nu P^n`` is

        (nu P^n)_j = nu_{j+n} + sum_{m<n} a_m p~_{j+n-1-m},
        tail_n     = nu.tail_mass + d_N sum_{m<n} a_m,

    which is what iterating :func:`step` computes, lost mass included.
    ``a = nu * e`` splits as ``a_m = pi_1 S_m + b_m`` with
    ``S_m = sum_{i<=m+1} nu_i`` and ``b = nu * (e - pi_1)``, so no entry
    subtracts two nearly equal numbers (``pi_1 = 0`` and ``b = a`` on
    null-recurrent chains).  Entry ``j`` is then ``nu_{j+n} + x_j - pi_1 y_j
    + pi_1 d_{j-1} (S - 1) - pi_1 d_N S`` with
    ``x_j = sum_{m<n} b_m p~_{j+n-1-m}``, ``y_j = sum_{i<=n} nu_i d~_{j+n-i}``
    and ``S = sum_{i<=n} nu_i``.  ``x`` is a window of direct dot products
    while ``n J <= DIRECT_WORK`` and beyond the block-product window of
    ``b[:n]`` and ``p~`` from :func:`renewallab.series._window`.  The rounding
    bound is the dot bound of ``x`` summed over the window (beyond, with one
    addition per block piece and the FFT bounds), plus ``gamma(i + 4)``
    times the summed sizes of all the terms, which covers ``y`` and the few
    roundings that assemble an entry.  A start at the stationary law moves
    only by the defect at the prefix edge: it is ``-pi_1 d_N`` on the top
    ``n`` states of the prefix.
    """
    chain.within(nu.size, "the measure")
    N = chain.truncation
    n_max = int(g[-1])
    w = nu.weights[: _last(nu.weights) + 1]  # nu_0..nu_s
    s = w.size - 1
    d = chain.d
    d_n = float(d[N])
    pi1 = chain.pi1 if chain.positive_recurrent else 0.0
    stationary = chain.positive_recurrent and np.array_equal(nu.weights, chain.pi)
    head = w[1 : min(s, n_max) + 1]
    if stationary or head.size == 0:
        b = b_abs = np.zeros(n_max)
        lead = g * (pi1 if stationary else 0.0)
    else:
        if dev is None:
            dev = _deviation(chain, n_max - 1)
        b = np.convolve(head, dev)[:n_max]
        # b summed over absolute values, for rounding terms
        b_abs = b if np.all(head >= 0.0) and np.all(dev >= 0.0) else \
            np.convolve(np.abs(head), np.abs(dev))[:n_max]
        # sum_{m<n} a_m = sum_{m<n} b_m + pi_1 sum_{m<n} S_m
        mass = np.cumsum(head)
        h = np.minimum(g, head.size)
        lead = np.concatenate(([0.0], np.cumsum(b)))[g] + pi1 * (
            np.concatenate(([0.0], np.cumsum(mass)))[h] + (g - h) * mass[-1])
    tails = nu.tail_mass + d[N] * lead
    rest = np.append(np.cumsum(w[:0:-1])[::-1], 0.0)  # sum_{i>n} nu_i, n <= s
    # sum_{i<=n} nu_i - 1 on the grid
    s_less_1s = _excess(nu) - (nu.tail_mass + rest[np.minimum(g, s)])
    pt = chain.p[1:]
    # summed over the window, p~_{j+l} gives d_l - d_{l+J}, or at most d_l
    # where l + J reaches the prefix edge
    far = d[J:N][:n_max]
    window = d[:n_max] - np.pad(far, (0, n_max - far.size))
    d_head = float(d[:J].sum())
    blocks = None
    for k, n in enumerate(g):
        count = n + s + 4 * (min(n, s) + 4)  # the dot, then 4 unit-size groups
        if stationary:  # pi_1 d_N has left each of the top n states
            yield np.where(np.arange(J) < N - n, 0.0, -pi1 * d_n), 0.0, count, tails[k]
            continue
        z, x_err = np.zeros(J), 0.0
        x_size = np.dot(b_abs[:n], window[:n][::-1])
        if n * J > DIRECT_WORK:
            blocks = blocks or _dyadic_blocks(pt, min(n_max + J - 1, N), FAR_BLOCK)  # built once
            z, x_err = _window(b[:n], pt, blocks, J)
            pieces = 3 * len(blocks) + 1  # the most pieces an entry sums
            x_err = (1.0 + _gamma(pieces)) * x_err + _gamma(n + s + pieces) * x_size
        elif n:
            z = _sliding(b[:n], pt[: n + J - 1], J)
            x_err = _gamma(n + s - 1) * x_size
        i = min(n, s)
        y_size = 0.0
        if i and pi1:
            # d~_l = d_l - d_N below the prefix edge, zero from it on
            z -= pi1 * _sliding(w[1 : i + 1], d[n - i + 1 : min(n + J, N)] - d_n, J)
            # summed over the window, each d~_{j+n-i'} is at most the
            # window sum that starts lowest, at i' = i
            y_size = pi1 * np.abs(w[1 : i + 1]).sum() \
                * d[n - i + 1 : min(n - i + J + 1, N)].sum()
        shifted = w[n + 1 : n + 1 + J]
        z[: shifted.size] += shifted
        s_less_1 = s_less_1s[k]
        if s_less_1:
            z += (pi1 * s_less_1) * d[:J]
        z -= pi1 * d_n * (1.0 + s_less_1)
        sizes = x_size + y_size + np.abs(shifted).sum() \
            + pi1 * (abs(s_less_1) * d_head + J * d_n * abs(1.0 + s_less_1))
        yield z, x_err + _gamma(i + 4) * sizes, count, tails[k]


def _resolved(g: np.ndarray, values: np.ndarray, bounds: np.ndarray,
              rounding: np.ndarray, counts: np.ndarray, scale: float = 1.0) -> RateCurve:
    """The curve, unless rounding alone could account for one of its values.

    A value is refused when its rounding term exceeds it and also exceeds
    ``gamma(count) * scale``, the rounding its bound counts for a start of
    unit mass paired with an observable of sup norm ``scale``.  Below that
    level the value is zero within its bound (a chain that is stationary
    after finitely many steps), not cancellation.
    """
    floor = scale * np.array([_gamma(c) for c in counts])
    lost = rounding > np.maximum(np.abs(values), floor)
    if np.any(lost):
        k = int(np.argmax(lost))
        raise TruncationTooSmall(
            f"at n = {int(g[k])} the rounding bound {rounding[k]:.3g} exceeds the "
            f"value {values[k]:.3g}: no digit of it is reliable"
        )
    return RateCurve(g, values, bounds)


# ----------------------------------------------------------------------
# distance and correlation curves
# ----------------------------------------------------------------------

def _stored(chain, u: Observable) -> np.ndarray:
    """``u`` at states ``1 .. min(u.size, N)``, ``u_inf`` past them;
    :class:`TruncationTooSmall` if ``u - u_inf`` is nonzero past ``N``."""
    N = chain.truncation
    off = np.flatnonzero(u.values[N + 1 :] != u.limit)
    if off.size:
        raise TruncationTooSmall(f"u != u_inf at state {N + 1 + off[0]}, past the prefix")
    return u.values[1 : min(u.size, N) + 1]


def distance_curve(chain, nu: SignedDistribution, n_grid) -> RateCurve:
    """Total-variation-style l1 distance ``||nu P^n - pi||_1`` on a grid.

    The value sums the stored prefix and adds the analytic stationary mass
    beyond it.  The reported bound is the evolved measure's unaccounted
    tail mass, a rigorous two-sided truncation error, plus the rounding
    term of the entries and of their l1 sum.

    Raises
    ------
    TruncationTooSmall
        If the horizon needs a longer prefix, or if the rounding term
        exceeds a value.
    """
    chain.stationary_law()
    g = _as_grid(n_grid)
    _check_horizon(chain, nu, int(g[-1]))
    n = chain.truncation
    gaps, rounding, counts, tails = map(np.array, zip(*(
        (np.abs(z, out=z).sum(), *rest) for z, *rest in _entries(chain, nu, g, n))))
    # the l1 sum adds n rounded entries
    rounding += _gamma(n) * gaps
    values = gaps + chain.stationary_mass_beyond(n)
    return _resolved(g, values, np.abs(tails) + rounding, rounding, counts)


def correlation_curve(chain, nu: SignedDistribution, u: Observable, n_grid) -> RateCurve:
    """Pairing ``(nu P^n - pi) . u`` on a grid.

    Exact on the prefix; the constant continuation of ``u`` lets the two
    tail masses pair exactly, so the truncation bound is the tail mass
    times the oscillation of ``u`` past the point lost mass can reach.  The
    reported bound adds the rounding term of the entries, times the largest
    ``|u - u_inf|``, and ``gamma * sum |terms|`` of the pairing.

    Raises
    ------
    TruncationTooSmall
        If the horizon needs a longer prefix, if ``u - u_inf`` is nonzero
        at a stored state past it, or if the rounding term exceeds a value.
    """
    return _paired(chain.stationary_law(), nu, u, _as_grid(n_grid))


def _paired(chain, nu: SignedDistribution, u: Observable, g: np.ndarray, dev=None) -> RateCurve:
    """:func:`correlation_curve` on the grid ``g`` of any chain; ``dev`` as for :func:`_entries`."""
    _check_horizon(chain, nu, int(g[-1]))
    n = chain.truncation
    vals = _stored(chain, u)
    centered = vals - u.limit
    # mass lost at step k can descend to state N - (n_max - k) at worst,
    # so only oscillation of u beyond that point contributes uncertainty
    reach = n - int(g[-1])
    osc = float(np.max(np.abs(centered[max(reach, 1) - 1 :]), initial=0.0))
    uk = centered[: _last(centered) + 1]
    pairs, sizes, errs, counts, tails = map(np.array, zip(*(
        (np.dot(uk, z), np.dot(np.abs(uk), np.abs(z)), *rest)
        for z, *rest in _entries(chain, nu, g, uk.size, dev))))
    # the total masses of nu P^n and pi pair with the constant u_inf
    excess = _excess(nu)
    values = pairs + u.limit * excess
    rounding = np.max(np.abs(uk)) * errs + _gamma(uk.size + 1) * sizes \
        + EPS * abs(u.limit * excess)
    scale = np.abs(np.append(vals, u.limit) if u.size < n else vals).max()
    return _resolved(g, values, np.abs(tails) * osc + rounding, rounding,
                     counts + uk.size, float(scale))


# ----------------------------------------------------------------------
# asymptotic-ratio curves
# ----------------------------------------------------------------------

def deviation_tail_ratio(chain, n_grid) -> RateCurve:
    """Sharp deviation asymptotics: m1^2 (e_n - pi_1) / E_n with
    E_n = sum_{l > n} d_l; the ratio approaches 1 for chains of finite
    positive degree.

    Raises
    ------
    NotPositiveRecurrent
        For a degree ``d <= 0``, where the chain is null-recurrent.
    InfiniteDegree
        For geometric or finite laws, where the deviation vanishes at
        super-polynomial speed and the ratio is degenerate.
    """
    chain.stationary_law("the ratio compares against pi_1")
    if math.isinf(chain.ergodic_degree):
        raise InfiniteDegree("deviation-to-tail ratio needs a finite ergodic degree")
    g = _as_grid(n_grid)
    if g[0] < 1:
        raise PreconditionViolated("ratio is defined for n >= 1")
    dev = _deviation(chain, int(g[-1]))
    if chain.d_tail[g[-1]] == 0.0:
        raise PreconditionViolated(f"the tail E_n underflows to zero by n = {int(g[-1])}")
    return RateCurve(g, chain.m1 ** 2 * dev[g] / chain.d_tail[g])


def rate_fit(curve: RateCurve, window) -> RateFit:
    """Least-squares fit of log |a_n| against log n over a grid window.

    Raises
    ------
    ZeroValueInWindow
        If any value in the window vanishes exactly, making the log fit
        meaningless.
    """
    lo, hi = _whole(window[0], "the fit window's start"), _whole(window[1], "its end")
    mask = (curve.n_grid >= lo) & (curve.n_grid <= hi)
    if mask.sum() < 2:
        raise PreconditionViolated(f"window [{lo}, {hi}] holds fewer than two grid points")
    n = curve.n_grid[mask].astype(float)
    a = np.abs(curve.values[mask])
    if np.any(a == 0.0):
        raise ZeroValueInWindow("curve vanishes inside the fit window")
    if n[0] < 1:
        raise PreconditionViolated("fit window must start at n >= 1")
    x = np.log(n)
    y = np.log(a)
    coeffs = np.polynomial.polynomial.polyfit(x, y, 1)
    intercept, exponent = float(coeffs[0]), float(coeffs[1])
    fitted = intercept + exponent * x
    rms = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return RateFit(exponent=exponent, intercept=intercept, window=(lo, hi), rms_residual=rms)


def _check_nu_negligible(chain, nu: SignedDistribution):
    """The sharp-constant asymptotics need nu_i = o(pi_i): compactly
    supported measures qualify, as do declared tails strictly lighter
    than the stationary one."""
    decl = nu.tail
    if nu.tail_mass == 0.0 and (decl is None or decl.kind == "finite"):
        return
    fam = chain.law.tail_family()
    if fam.kind == "power" and decl is not None:
        if decl.kind == "geometric":
            return
        if decl.kind == "power" and decl.exponent > fam.exponent - 1.0:
            return
    raise PreconditionViolated(
        "initial law must be negligible against pi (compact support or a "
        "strictly lighter declared tail); cancellations otherwise change the rate"
    )


def correlation_constant(chain, nu: SignedDistribution, u: Observable, n_grid):
    """Scaled correlation curve C_n and its predicted limit.

    C_n = ((nu P^n - pi) . u) * n^d / L(n) with L(n) the law's slowly
    varying tail factor (amplitude times the log power); the prediction is

        C = (pi . u)(nu . 1) / (d (d+1) m1).

    Returns ``(curve, predicted)``.

    Raises
    ------
    PreconditionViolated
        If ``u`` does not vanish at infinity, ``nu`` is not negligible
        against pi, or ``pi . u = 0`` (the prediction vanishes, so no
        relative gap exists).
    InfiniteDegree
        For geometric or finite laws (the rate is not polynomial).
    """
    chain.stationary_law()
    if math.isinf(chain.ergodic_degree):
        raise InfiniteDegree("polynomial scaling needs a finite ergodic degree")
    if u.limit != 0.0:
        raise PreconditionViolated("observable must vanish at infinity (u_inf = 0)")
    _check_nu_negligible(chain, nu)
    fam = chain.law.tail_family()
    d = chain.ergodic_degree
    g = _as_grid(n_grid)
    if g[0] < 1:
        raise PreconditionViolated("scaling is defined for n >= 1")
    vals = _stored(chain, u)
    pi_dot_u = float(np.dot(chain.pi[1 : vals.size + 1], vals))
    if pi_dot_u == 0.0:
        raise PreconditionViolated("pi . u vanishes: the predicted constant is zero")
    corr = correlation_curve(chain, nu, u, g)
    ns = g.astype(float)
    slow = fam.amplitude * np.log(ns + 1.0) ** fam.log_power
    with np.errstate(over="ignore"):
        power = ns ** d
    if np.isinf(power[-1]):
        raise PreconditionViolated(f"n^d overflows on the grid at degree {d}")
    curve = RateCurve(g, corr.values * power / slow, corr.bounds * power / slow)
    predicted = pi_dot_u * nu.total_mass / (d * (d + 1.0) * chain.m1)
    return curve, predicted


def null_recurrent_ratio(chain, nu: SignedDistribution, u: Observable, n_grid) -> RateCurve:
    """Ratio of ``nu P^n . u`` to its predicted null-recurrent asymptote
    ``(nu . 1)(u . v) e_n`` with v_j = d_{j-1} the invariant vector.

    ``e_n = (delta_1 P^n)_1`` comes from the same evolution arithmetic as
    the numerator, so for nu = delta_1 and u = indicator(1) the ratio is
    exactly one at every n.

    Raises
    ------
    NotNullRecurrent
        If the chain has a stationary law (the asymptote is a
        null-recurrent statement).
    DivergentPairing
        If ``u . v`` diverges under the declared tails (u_inf != 0).
    TruncationTooSmall
        If the horizon or a nonzero ``u`` lies past the prefix, or rounding exceeds a value.
    """
    if chain.positive_recurrent:
        raise NotNullRecurrent("chain is positive recurrent; use distance or correlation curves")
    if u.limit != 0.0:
        raise DivergentPairing(
            "u pairs with the invariant vector v_j = d_{j-1}, whose sum diverges; "
            "u must vanish at infinity"
        )
    g = _as_grid(n_grid)
    vals = _stored(chain, u)
    scale = nu.total_mass * float(np.dot(vals, chain.d[: vals.size]))
    if scale == 0.0:
        raise DivergentPairing("(nu . 1)(u . v) vanishes; ratio undefined")
    e = _deviation(chain, g[-1] - 1) if g[-1] else None
    return RateCurve(g, _paired(chain, nu, u, g, e).values
                     / (scale * _paired(chain, point_mass(1), indicator(1, 1), g, e).values))


def nonuniformity_probe(chain, i_list, n: int) -> dict:
    """Distance to stationarity after ``n`` steps started from each point
    mass in ``i_list``, exhibiting the lack of a uniform-in-state rate.

    States beyond the horizon are exact by pure descent:
    ``delta_i P^n = delta_{i-n}`` gives distance ``2 (1 - pi_{i-n})``.
    """
    chain.stationary_law()
    n = _whole(n, "the step count", least=0)
    out = {}
    for i in i_list:
        i = chain.within(_whole(i, "a state", least=1), "a start")
        if i > n:
            out[i] = 2.0 * (1.0 - chain.pi[i - n])
        else:
            curve = distance_curve(chain, point_mass(i), [n])
            out[i] = float(curve.values[0])
    return out
