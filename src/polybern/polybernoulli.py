"""Poly-Bernoulli numbers and polynomials, Bernoulli and Genocchi numbers.

Two independent computation routes are provided on purpose:

* closed-form routes on integers, built on Stirling numbers and, for
  Bernoulli and Genocchi numbers, on tangent numbers (fast, the default
  for scalar queries), and
* generating-function routes (`egf_*` builders) on truncated exact power
  series, which the test-suite and the identity checker use as
  cross-checks.  The B-type, C-type and polynomial EGFs all come from
  Kaneko's recurrence, the last two through one integer binomial transform.

All values are exact: `int` where integrality is guaranteed, `Fraction`
otherwise.  Bernoulli numbers use the convention with second value -1/2.
The caches are typed, so that an answer never depends on what they hold:
`2.0` equals `2` and hashes alike, but is not served the answer for `2`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import repeat
from math import comb, factorial, lcm
from operator import add, floordiv, mul

from .combinatorics import _FIRST, _SECOND, _GrowingTable
from .series import Series1, _numerators, _value


class RationalPolynomial:
    """A polynomial with int or Fraction coefficients.

    The coefficients are kept only as integer numerators over one common
    denominator, highest degree first, so a value at p/q is Horner's rule on
    ints followed by one Fraction.  `coeffs` rebuilds them lowest degree
    first: ints when every given coefficient was an int (a bool counts),
    Fractions otherwise.  The denominator is the lcm of the reduced ones, so
    equal polynomials have equal numerators and denominator, however their
    coefficients were spelled.  Instances are immutable and may be shared.
    """

    __slots__ = ("_numerators", "_denominator", "_integral")

    def __init__(self, coeffs) -> None:
        trimmed = list(coeffs) or [0]
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        for c in trimmed:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficients must be int or Fraction, got {c!r}")
        self._integral = all(isinstance(c, int) for c in trimmed)
        numerators, self._denominator = _numerators(trimmed[::-1])
        self._numerators = tuple(numerators)

    @property
    def coeffs(self) -> tuple:
        ints = self._numerators[::-1]
        return ints if self._integral else tuple(Fraction(a, self._denominator) for a in ints)

    @property
    def degree(self) -> int:
        return len(self._numerators) - 1

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
        return (self._numerators, self._denominator) == (other._numerators, other._denominator)

    def __hash__(self):
        return hash((self._numerators, self._denominator))

    def __repr__(self) -> str:
        return f"RationalPolynomial({list(self.coeffs)!r})"


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


# Row n is the pair (B_n, G_n).  The stored rows are the table's own list,
# which only grows in place, so the readers index it and call row() only to
# grow the table or to raise; a negative index goes to row(), since the list
# would wrap it to the last stored row.
_BERNOULLI_GENOCCHI = _GrowingTable(
    [(Fraction(1), 0), (Fraction(-1, 2), 1)], _bernoulli_genocchi_rows
)
_BERNOULLI_GENOCCHI_ROWS = _BERNOULLI_GENOCCHI.rows(0)


def bernoulli(n: int) -> Fraction:
    """The n-th Bernoulli number, with bernoulli(1) == -1/2."""
    if n >= 0:
        try:
            return _BERNOULLI_GENOCCHI_ROWS[n][0]
        except IndexError:
            pass
    return _BERNOULLI_GENOCCHI.row(n)[0]


def genocchi(n: int) -> int:
    """The n-th Genocchi number 2*(1 - 2**n)*bernoulli(n); always an integer."""
    if n >= 0:
        try:
            return _BERNOULLI_GENOCCHI_ROWS[n][1]
        except IndexError:
            pass
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


def _powers(K: int, rows, stop: int) -> list[int]:
    """Rows len(rows)..stop-1 of the power table of K, whose row q-1 is q^K."""
    return list(map(pow, range(len(rows) + 1, stop + 1), repeat(K)))


# Table K holds 1^K, 2^K, ..., shared by every (m, n) and by both signs of k.
_POWER_TABLES: dict[int, _GrowingTable] = {}


def _power_row(K: int, width: int) -> list[int]:
    """The stored rows [1^K, 2^K, ..., w^K] of table K, w >= width, each power computed once."""
    table = _POWER_TABLES.get(K)
    if table is None:
        table = _POWER_TABLES.setdefault(K, _GrowingTable([1], partial(_powers, K)))
    return table.rows(width)


@lru_cache(maxsize=None, typed=True)
def poly_bernoulli_at_integer(m: int, k: int, n: int):
    """The degree-m poly-Bernoulli polynomial of order k evaluated at integer n.

    The finite double sum over Stirling numbers of both kinds, as the dot
    product of the cached k-free vector _stirling_vector(m, n) with the
    shared row of q^|k|; the n = 0 column gives the B-type numbers and
    n = 1 the C-type numbers.  Returns an int when k <= 0, a Fraction over
    L^k, L = lcm(1..m+1), otherwise, whose numerator reads q^(-k) as
    L^k // q^k.
    """
    if not isinstance(k, int):
        raise TypeError(f"order must be an int, got {k!r}")
    if m < 0 or n < 0:
        raise ValueError("degree and evaluation point must be non-negative")
    vector = _stirling_vector(m, n)
    powers = _power_row(abs(k), m + 1)
    if k <= 0:
        return sum(map(mul, vector, powers))
    scale = lcm(*range(1, m + 2)) ** k
    return Fraction(sum(map(mul, vector, map(floordiv, repeat(scale), powers))), scale)


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
def _weighted_stirling_vector(m: int, n: int) -> tuple[int, ...]:
    """w[i] = (i-1)! (i-1+n)! {m+1, i} for i = 1..m+1, and w[0] = 0.

    The part of script_B_closed(m, l, n) that does not depend on l, indexed
    like the Stirling row {l+1, i} it is dotted with.
    """
    vector, weight = [0], factorial(n)  # weight = (i-1)! (i-1+n)!
    for i, s in enumerate(_SECOND.row(m + 1)[1:], 1):
        vector.append(weight * s)
        weight *= i * (i + n)
    return tuple(vector)


@lru_cache(maxsize=None, typed=True)
def script_B_closed(m: int, l: int, n: int) -> int:
    """Closed form of script_B_def as a single positive sum; always an integer.

    sum over j of j! (j+n)! {l+1, j+1} {m+1, j+1}, the dot product of the
    cached l-free vector _weighted_stirling_vector(m, n) with {l+1, j+1},
    which stops with the shorter of the two at j = min(l, m).
    """
    if m < 0 or l < 0 or n < 0:
        raise ValueError("all three indices must be non-negative")
    return sum(map(mul, _weighted_stirling_vector(m, n), _SECOND.row(l + 1)))


# ---------------------------------------------------------------------------
# Generating-function routes (truncated exact power series in t).


def egf_poly_bernoulli_B(k: int, order: int) -> Series1:
    """EGF of the B-type numbers: Li_k(1 - e^-t) / (1 - e^-t), the polynomial EGF at zero."""
    return egf_poly_bernoulli_polynomial(k, 0, order)


def egf_poly_bernoulli_C(k: int, order: int) -> Series1:
    """EGF of the C-type numbers: Li_k(1 - e^-t) / (e^t - 1), the polynomial EGF at one."""
    return egf_poly_bernoulli_polynomial(k, 1, order)


def egf_poly_bernoulli_polynomial(k: int, x, order: int) -> Series1:
    """EGF e^(-xt) Li_k(1 - e^-t) / (1 - e^-t) of the poly-Bernoulli polynomials, truncated.

    x is a fixed int, Fraction or rational string.  The B-type numbers
    B_n^(k) = N_n / L^k, L = lcm(1..order+1) for k > 0 and 1 otherwise, come
    from Kaneko's recurrence (J. Theor. Nombres Bordeaux 9 (1997) 221-228),
    which reads no Stirling numbers:
    (n+1) B_n^(j) = B_n^(j-1) - sum_{m=1..n-1} C(n, m-1) B_m^(j), B_n^(0) = 1,
    down on ints for k < 0, up for k > 0 on numerators over lcm(1..order+1)^j,
    which clears every denominator: each division by n+1 is exact or raises.
    With x = p/q, n! [t^n] is the binomial transform
    T_n = sum_i C(n, i) N_i q^i (-p)^(n-i) over L^k q^n.  Step s = 1..order,
    d_i <- q d_i - p d_(i-1) for i >= s, from d = N, leaves T_s in d_s for
    good; at x = 0 every step is the identity, so none is run.
    """
    if not isinstance(x, (int, Fraction, str)):
        raise TypeError(f"argument must be int, Fraction or a rational string, got {x!r}")
    try:
        x = Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"x must be a finite rational, got {x!r}") from None
    if not isinstance(k, int):
        raise TypeError(f"order must be an int, got {k!r}")
    weights, row = [], [1]  # weights[n][m] = C(n, m-1) for 0 < m < n, weights[n][0] = 0
    for n in range(order + 1):
        weights.append([0, *row[: n - 1]])
        row = [1, *map(add, row, row[1:]), 1]
    nums, base = [1] * (order + 1), lcm(*range(1, order + 2))
    for _ in range(-k):
        nums = [(n + 1) * nums[n] + sum(map(mul, w, nums)) for n, w in enumerate(weights)]
    for j in range(1, k + 1):
        prev, nums = nums, []
        for n, w in enumerate(weights):
            v, r = divmod(base * prev[n] - sum(map(mul, w, nums)), n + 1)
            if r:
                raise ArithmeticError(f"B_{n}^({j}) is not a multiple of 1/lcm(1..{order + 1})^{j}")
            nums.append(v)
    p, q = x.numerator, x.denominator
    for s in range(1, order + 1) if p else ():
        nums[s:] = [q * a - p * b for a, b in zip(nums[s:], nums[s - 1 :])]
    den = base ** max(k, 0)
    return Series1([_value(Fraction(v, den * q**n * factorial(n))) for n, v in enumerate(nums)], order)


def egf_bernoulli(order: int) -> Series1:
    """EGF t/(e^t - 1) of the Bernoulli numbers (second value -1/2)."""
    return Series1(Series1.exponential(1, order + 1).coeffs[1:], order).inverse()


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
]
