"""Exact arithmetic for poly-Bernoulli numbers and their identities.

Everything here is computed over ``fractions.Fraction`` / ``int`` — no
floating point anywhere.  The package provides Stirling, Bernoulli and
Genocchi numbers, poly-Bernoulli numbers and polynomials (with independent
closed-form and generating-function routes), truncated exact power series in
one and two variables, and a registry of mechanically verified identities.
"""

from .combinatorics import (
    binomial,
    factorial,
    format_rational,
    rising_factorial,
    stirling_first,
    stirling_second,
)
from .series import (
    DomainError,
    Series1,
    Series2,
    egf_coefficient,
    polylog_over_argument,
    product_xy,
)
from .polybernoulli import (
    RationalPolynomial,
    bernoulli,
    egf_bernoulli,
    egf_poly_bernoulli_B,
    egf_poly_bernoulli_C,
    egf_poly_bernoulli_polynomial,
    genocchi,
    poly_bernoulli_B,
    poly_bernoulli_C,
    poly_bernoulli_at_integer,
    poly_bernoulli_polynomial,
    script_B_closed,
    script_B_def,
)
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
    # combinatorics
    "binomial",
    "factorial",
    "format_rational",
    "rising_factorial",
    "stirling_first",
    "stirling_second",
    # series
    "DomainError",
    "Series1",
    "Series2",
    "egf_coefficient",
    "polylog_over_argument",
    "product_xy",
    # poly-Bernoulli
    "RationalPolynomial",
    "bernoulli",
    "egf_bernoulli",
    "egf_poly_bernoulli_B",
    "egf_poly_bernoulli_C",
    "egf_poly_bernoulli_polynomial",
    "genocchi",
    "poly_bernoulli_B",
    "poly_bernoulli_C",
    "poly_bernoulli_at_integer",
    "poly_bernoulli_polynomial",
    "script_B_closed",
    "script_B_def",
    # identities
    "Counterexample",
    "IDENTITY_IDS",
    "ParameterError",
    "VerificationReport",
    "verify_all",
    "verify_one",
]
