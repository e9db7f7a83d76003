"""Exact arithmetic for poly-Bernoulli numbers and their identities.

Everything here is computed over ``fractions.Fraction`` / ``int`` — no
floating point anywhere.  The package provides Stirling, Bernoulli and
Genocchi numbers, poly-Bernoulli numbers and polynomials (with independent
closed-form and generating-function routes), truncated exact power series in
one and two variables, and a registry of mechanically verified identities.
"""

from . import combinatorics, series, polybernoulli
from .combinatorics import *  # the names of each module's __all__
from .series import *
from .polybernoulli import *
from .identities import (
    Counterexample,
    IDENTITY_IDS,
    ParameterError,
    VerificationReport,
    verify_all,
    verify_one,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *combinatorics.__all__,
    *series.__all__,
    *polybernoulli.__all__,
    "Counterexample",
    "IDENTITY_IDS",
    "ParameterError",
    "VerificationReport",
    "verify_all",
    "verify_one",
]
