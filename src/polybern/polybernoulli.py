"""Poly-Bernoulli numbers and polynomials, Bernoulli and Genocchi numbers.

Two independent computation routes are provided on purpose:

* closed-form / recursive routes built on Stirling numbers (fast, the
  default for scalar queries), and
* generating-function routes built on truncated exact power series
  (`egf_*` builders), which the test-suite and the identity checker use
  as cross-checks.

All values are exact: `int` where integrality is guaranteed, `Fraction`
otherwise.  Bernoulli numbers use the convention with second value -1/2.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cache
from math import comb, factorial

from .combinatorics import stirling_first, stirling_second
from .series import Series1, polylog_over_argument


class RationalPolynomial:
    """A polynomial with exact coefficients, stored lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        trimmed = list(coeffs)
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        self.coeffs = tuple(trimmed) if trimmed else (0,)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)  # hash(n) == hash(Fraction(n))

    def __repr__(self) -> str:
        return f"RationalPolynomial({list(self.coeffs)!r})"


_bern_cache: list[Fraction] = [Fraction(1)]
_bern_lock = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """The n-th Bernoulli number, with bernoulli(1) == -1/2."""
    if n < 0:
        raise ValueError("index must be non-negative")
    if n >= len(_bern_cache):
        with _bern_lock:
            for m in range(len(_bern_cache), n + 1):
                acc = Fraction(0)
                for j in range(m):
                    acc += comb(m + 1, j) * _bern_cache[j]
                _bern_cache.append(-acc / (m + 1))
    return _bern_cache[n]


def genocchi(n: int) -> int:
    """The n-th Genocchi number 2*(1 - 2**n)*bernoulli(n); always an integer."""
    value = 2 * (1 - 2**n) * bernoulli(n)
    if value.denominator != 1:
        raise AssertionError(f"Genocchi value at {n} is not integral: {value}")
    return value.numerator


@cache
def poly_bernoulli_at_integer(m: int, k: int, n: int):
    """The degree-m poly-Bernoulli polynomial of order k evaluated at integer n.

    Computed by the finite double sum over Stirling numbers of both kinds;
    the n = 0 column gives the B-type numbers and n = 1 the C-type numbers.
    Returns an int when k <= 0, a Fraction otherwise.
    """
    if m < 0 or n < 0:
        raise ValueError("degree and evaluation point must be non-negative")
    acc = 0
    for q in range(1, m + 2):
        if k > 0:
            weight = Fraction(factorial(q - 1), q**k)
        else:
            weight = factorial(q - 1) * q ** (-k)
        for i in range(n + 1):
            s1 = stirling_first(n, i)
            if not s1:
                continue
            s2 = stirling_second(m + i, n + q - 1)
            if not s2:
                continue
            term = weight * s1 * s2
            if (m + n + q - i - 1) % 2:
                acc -= term
            else:
                acc += term
    return acc


def poly_bernoulli_B(n: int, k: int):
    """B-type poly-Bernoulli number of degree n and integer order k."""
    return poly_bernoulli_at_integer(n, k, 0)


def poly_bernoulli_polynomial(n: int, k: int) -> RationalPolynomial:
    """The degree-n poly-Bernoulli polynomial of order k in one variable."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    coeffs = [
        (-1) ** d * comb(n, d) * poly_bernoulli_B(n - d, k) for d in range(n + 1)
    ]
    return RationalPolynomial(coeffs)


def poly_bernoulli_C(n: int, k: int):
    """C-type poly-Bernoulli number: the polynomial evaluated at one."""
    return poly_bernoulli_polynomial(n, k)(1)


def script_B_def(m: int, l: int, n: int):
    """Stirling-weighted sum of B-type values: the defining route.

    sum over j of stirling_first(n, j) * B_m^(-l-j)(n).  Symmetric in
    (l, m), reduces to B_m^(-l) at n = 0 and to C_m^(-l-1) at n = 1.
    """
    if m < 0 or l < 0 or n < 0:
        raise ValueError("all three indices must be non-negative")
    return sum(
        stirling_first(n, j) * poly_bernoulli_at_integer(m, -l - j, n)
        for j in range(n + 1)
    )


@cache
def script_B_closed(m: int, l: int, n: int) -> int:
    """Closed form of script_B_def as a single positive sum; always an integer."""
    if m < 0 or l < 0 or n < 0:
        raise ValueError("all three indices must be non-negative")
    n_fact = factorial(n)
    acc = 0
    for j in range(min(l, m) + 1):
        acc += (
            n_fact
            * factorial(j) ** 2
            * comb(j + n, n)
            * stirling_second(l + 1, j + 1)
            * stirling_second(m + 1, j + 1)
        )
    return acc


# ---------------------------------------------------------------------------
# Generating-function routes (truncated exact power series in t).


def _one_minus_exp_neg(order: int) -> Series1:
    t = Series1.variable(order)
    return 1 - (-t).exp()


def egf_poly_bernoulli_B(k: int, order: int) -> Series1:
    """EGF of the B-type numbers: Li_k(1 - e^-t) / (1 - e^-t), truncated."""
    return polylog_over_argument(k, _one_minus_exp_neg(order))


def egf_poly_bernoulli_C(k: int, order: int) -> Series1:
    """EGF of the C-type numbers: Li_k(1 - e^-t) / (e^t - 1), truncated.

    Uses e^t - 1 = (1 - e^-t) * e^t, so this is the B-type EGF times e^-t.
    """
    t = Series1.variable(order)
    return egf_poly_bernoulli_B(k, order) * (-t).exp()


def egf_poly_bernoulli_polynomial(k: int, x, order: int) -> Series1:
    """EGF of the poly-Bernoulli polynomials at a fixed rational argument x."""
    t = Series1.variable(order)
    return (t * (-Fraction(x))).exp() * egf_poly_bernoulli_B(k, order)


def egf_bernoulli(order: int) -> Series1:
    """EGF t/(e^t - 1) of the Bernoulli numbers (second value -1/2)."""
    expm1_over_t = Series1(
        [Fraction(1, factorial(i + 1)) for i in range(order + 1)], order
    )
    return expm1_over_t.inverse()


def egf_genocchi(order: int) -> Series1:
    """EGF 2t/(e^t + 1) of the Genocchi numbers."""
    t = Series1.variable(order)
    return (2 * t) * (t.exp() + 1).inverse()


__all__ = [
    "RationalPolynomial",
    "bernoulli",
    "genocchi",
    "poly_bernoulli_at_integer",
    "poly_bernoulli_B",
    "poly_bernoulli_C",
    "poly_bernoulli_polynomial",
    "script_B_def",
    "script_B_closed",
    "egf_poly_bernoulli_B",
    "egf_poly_bernoulli_C",
    "egf_poly_bernoulli_polynomial",
    "egf_bernoulli",
    "egf_genocchi",
]
