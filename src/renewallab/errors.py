"""Exception hierarchy.

Three families, matching the three failure modes a caller can act on:

* :class:`ConfigError` -- the request itself is malformed (bad coefficients,
  non-normalized law, unknown config keys).
* :class:`PreconditionError` -- the request is well formed but mathematically
  inapplicable (wrong chain class, divergent pairing, singular point).
* :class:`TruncationError` -- the request needs a longer prefix or a looser
  tolerance than supplied.
"""


class RenewalLabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RenewalLabError):
    """Malformed input: bad values, bad shapes, bad configuration."""


class PreconditionError(RenewalLabError):
    """Input is valid but outside the mathematical scope of the operation."""


class TruncationError(RenewalLabError):
    """Stored prefix is too short for the requested computation."""


# -- series ------------------------------------------------------------

class ZeroLeadingCoefficient(ConfigError):
    """Reciprocal or division requested for a series with c_0 = 0."""


class NegativeCoefficient(ConfigError):
    """Operation requires nonnegative coefficients."""


class NonPositiveCoefficient(ConfigError):
    """Operation requires strictly positive coefficients."""


class BadExponent(ConfigError):
    """Exponent outside the admissible range."""


class OutOfDomain(ConfigError):
    """Argument outside its admissible domain: an evaluation point beyond
    the disk, or a probe size below its minimum."""


class UnknownConfigKey(ConfigError):
    """Config descriptor contains a key the schema does not define."""


# -- chain -------------------------------------------------------------

class PeriodicSupport(ConfigError):
    """Return-law support has gcd > 1, so the chain is not aperiodic."""


class NotNormalized(ConfigError):
    """Return-law probabilities do not sum to one within tolerance."""


class DegreeTooSmall(PreconditionError):
    """Requested moment exceeds what the ergodic degree allows."""


class InfiniteDegree(PreconditionError):
    """Operation requires a finite ergodic degree (polynomial tail)."""


class TruncationTooSmall(TruncationError):
    """Prefix too short: requested horizon or mass tolerance unattainable."""


# -- evolve ------------------------------------------------------------

class ZeroValueInWindow(PreconditionError):
    """Log-log fit window contains an exact zero."""


class PreconditionViolated(PreconditionError):
    """Declared hypotheses of an asymptotic statement do not hold."""


class NotNullRecurrent(PreconditionError):
    """Operation requires a null-recurrent chain."""


class NotPositiveRecurrent(PreconditionError):
    """Operation requires a positive-recurrent chain."""


class DivergentPairing(PreconditionError):
    """Observable pairs divergently with the harmonic tail vector."""


# -- spectral ----------------------------------------------------------

class SingularPoint(PreconditionError):
    """Generating function evaluated at a pole."""


# -- dynsys ------------------------------------------------------------

class ZeroProbabilityBranch(ConfigError):
    """Return law assigns zero mass inside its support; no valid branch."""


class SymbolCapExceeded(TruncationError):
    """Point lies below the finest resolvable partition cell."""
