"""Numerical laboratory for convergence rates of countable renewal chains.

The package studies Markov chains on the positive integers whose first row
is a probability law ``p`` and whose remaining rows step deterministically
down by one.  Everything observable about such a chain (stationary law,
return-time moments, polynomial convergence rates, spectral structure, the
conjugate interval map) is computed from the single sequence ``p`` through
a handful of exactly specified routes, each of which is implemented twice
or checked against a closed form wherever the mathematics allows it.
"""

from . import chain, errors, evolve, maps, measures, series, spectral
from .errors import *
from .series import *
from .measures import *
from .chain import *
from .maps import *
from .spectral import *
from .evolve import *

__version__ = "0.1.0"

#: Every public name of the submodules: the exception classes and each
#: module's own ``__all__``.
__all__ = [
    *(name for name in vars(errors) if not name.startswith("_")),
    *series.__all__,
    *measures.__all__,
    *chain.__all__,
    *maps.__all__,
    *spectral.__all__,
    *evolve.__all__,
    "__version__",
]
