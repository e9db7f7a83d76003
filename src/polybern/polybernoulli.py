"""Poly-Bernoulli numbers and polynomials, Bernoulli and Genocchi numbers.

Two independent computation routes are provided on purpose:

* closed-form routes on integers, built on Stirling numbers and, for
  Bernoulli and Genocchi numbers, on tangent numbers (fast, the default
  for scalar queries), and
* generating-function routes built on truncated exact power series
  (`egf_*` builders), which the test-suite and the identity checker use
  as cross-checks.

All values are exact: `int` where integrality is guaranteed, `Fraction`
otherwise.  Bernoulli numbers use the convention with second value -1/2.
The caches are typed, so that an answer never depends on what they hold:
`2.0` equals `2` and hashes alike, but is not served the answer for `2`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from .combinatorics import _FIRST, _SECOND, _GrowingTable
from .series import Series1, polylog_over_argument


class RationalPolynomial:
    """A polynomial with int or Fraction coefficients, stored lowest degree first.

    The coefficients are also kept as integer numerators over one common
    denominator, so a value at p/q is Horner's rule on ints followed by one
    Fraction.  Instances are immutable and may be shared.
    """

    __slots__ = ("_coeffs", "_numerators", "_denominator", "_integral")

    def __init__(self, coeffs) -> None:
        trimmed = list(coeffs)
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        self._coeffs = tuple(trimmed) if trimmed else (0,)
        for c in self._coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficients must be int or Fraction, got {c!r}")
        self._integral = all(isinstance(c, int) for c in self._coeffs)
        den = lcm(*(c.denominator for c in self._coeffs))
        # Highest degree first, the order in which Horner's rule reads them.
        self._numerators = tuple(c.numerator * (den // c.denominator) for c in self._coeffs[::-1])
        self._denominator = den

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def __call__(self, x):
        """The value at an int or Fraction x: an int when x and every coefficient are ints."""
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"argument must be int or Fraction, got {x!r}")
        p, q = x.numerator, x.denominator
        # sum_i a_i p^i q^(d-i), read from the top coefficient down.
        numerators = iter(self._numerators)
        acc, scale = next(numerators), 1
        for a in numerators:
            scale *= q
            acc = acc * p + a * scale
        if self._integral and isinstance(x, int):
            return acc
        return Fraction(acc, self._denominator * scale)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)  # hash(n) == hash(Fraction(n))

    def __repr__(self) -> str:
        return f"RationalPolynomial({list(self._coeffs)!r})"


def _tangent_numbers(m: int) -> list[int]:
    """[0, T_1, ..., T_m], where tan x = sum of T_k x^(2k-1) / (2k-1)!.

    Brent and Harvey's all-int O(m^2) recurrence (Fast computation of
    Bernoulli, Tangent and Secant numbers, arXiv:1108.0286).
    """
    t = [0, 1]
    for k in range(2, m + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _bernoulli_genocchi_rows(rows, stop: int) -> list:
    """The rows (B_i, G_i) for i = len(rows)..stop-1, i >= 2, from the tangent numbers."""
    tangent = _tangent_numbers((stop - 1) // 2)
    zero = Fraction(0)
    new = []
    for i in range(len(rows), stop):
        if i % 2:
            new.append((zero, 0))
        else:
            k = i // 2
            # G_2k = (-1)^k k T_k / 4^(k-1), and B_n = G_n / (2 (1 - 2^n)).
            g = (-1) ** k * k * tangent[k] // 4 ** (k - 1)
            new.append((Fraction(g, 2 * (1 - 4**k)), g))
    return new


# Row n is the pair (B_n, G_n).
_BERNOULLI_GENOCCHI = _GrowingTable(
    [(Fraction(1), 0), (Fraction(-1, 2), 1)], _bernoulli_genocchi_rows
)


def bernoulli(n: int) -> Fraction:
    """The n-th Bernoulli number, with bernoulli(1) == -1/2."""
    return _BERNOULLI_GENOCCHI.row(n)[0]


def genocchi(n: int) -> int:
    """The n-th Genocchi number 2*(1 - 2**n)*bernoulli(n); always an integer."""
    return _BERNOULLI_GENOCCHI.row(n)[1]


@lru_cache(maxsize=None, typed=True)
def _stirling_vector(m: int, n: int) -> tuple[int, ...]:
    """v[q-1] = (q-1)! sum_i (-1)^(m+n+q-i-1) [n i] {m+i, n+q-1}, q = 1..m+1.

    The part of poly_bernoulli_at_integer(m, k, n) that does not depend on k.
    """
    first = _FIRST.row(n)
    signed = [-c if i % 2 else c for i, c in enumerate(first)]
    second = [_SECOND.row(m + i) for i in range(n + 1)]
    vector = []
    weight = -1 if (m + n) % 2 else 1  # (-1)^(m+n+q-1) (q-1)!
    for q in range(1, m + 2):
        j = n + q - 1
        inner = sum(signed[i] * second[i][j] for i in range(max(0, j - m), n + 1))
        vector.append(weight * inner)
        weight *= -q
    return tuple(vector)


@lru_cache(maxsize=None, typed=True)
def poly_bernoulli_at_integer(m: int, k: int, n: int):
    """The degree-m poly-Bernoulli polynomial of order k evaluated at integer n.

    The finite double sum over Stirling numbers of both kinds, as the dot
    product of the cached k-free vector _stirling_vector(m, n) with q^(-k);
    the n = 0 column gives the B-type numbers and n = 1 the C-type numbers.
    Returns an int when k <= 0, a Fraction over lcm(1..m+1)^k otherwise.
    """
    if not isinstance(k, int):
        raise TypeError(f"order must be an int, got {k!r}")
    if m < 0 or n < 0:
        raise ValueError("degree and evaluation point must be non-negative")
    vector = _stirling_vector(m, n)
    if k <= 0:
        return sum(v * q**-k for q, v in enumerate(vector, 1))
    base = lcm(*range(1, m + 2))
    return Fraction(sum(v * (base // q) ** k for q, v in enumerate(vector, 1)), base**k)


def poly_bernoulli_B(n: int, k: int):
    """B-type poly-Bernoulli number of degree n and integer order k."""
    return poly_bernoulli_at_integer(n, k, 0)


@lru_cache(maxsize=None, typed=True)
def poly_bernoulli_polynomial(n: int, k: int) -> RationalPolynomial:
    """The degree-n poly-Bernoulli polynomial of order k in one variable.

    One shared, immutable instance per (n, k).
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    coeffs = [
        (-1) ** d * comb(n, d) * poly_bernoulli_B(n - d, k) for d in range(n + 1)
    ]
    return RationalPolynomial(coeffs)


def poly_bernoulli_C(n: int, k: int):
    """C-type poly-Bernoulli number: the polynomial evaluated at one."""
    return poly_bernoulli_at_integer(n, k, 1)


@lru_cache(maxsize=None, typed=True)
def script_B_def(m: int, l: int, n: int):
    """Stirling-weighted sum of B-type values: the defining route.

    sum over j of stirling_first(n, j) * B_m^(-l-j)(n).  Symmetric in
    (l, m), reduces to B_m^(-l) at n = 0 and to C_m^(-l-1) at n = 1.
    Cached by (m, l, n) as given, so the two sides of the duality
    script_B_def(m, l, n) = script_B_def(l, m, n) are computed apart.
    """
    if not isinstance(l, int):  # else the check of the order -l - j would name that
        raise TypeError(f"l must be an int, got {l!r}")
    if m < 0 or l < 0 or n < 0:
        raise ValueError("all three indices must be non-negative")
    return sum(
        s * poly_bernoulli_at_integer(m, -l - j, n) for j, s in enumerate(_FIRST.row(n))
    )


@lru_cache(maxsize=None, typed=True)
def script_B_closed(m: int, l: int, n: int) -> int:
    """Closed form of script_B_def as a single positive sum; always an integer.

    sum over j of j! (j+n)! {l+1, j+1} {m+1, j+1}.
    """
    if m < 0 or l < 0 or n < 0:
        raise ValueError("all three indices must be non-negative")
    row_l, row_m = _SECOND.row(l + 1), _SECOND.row(m + 1)
    acc, weight = 0, factorial(n)  # weight = j! (j+n)!
    for j in range(min(l, m) + 1):
        acc += weight * row_l[j + 1] * row_m[j + 1]
        weight *= (j + 1) * (j + n + 1)
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
