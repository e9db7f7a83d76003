"""Truncated formal power series over exact rationals, in one and two variables.

Coefficients are exact numbers: the constructors reject anything but an int
or a Fraction with TypeError.  Exponents above the truncation order are
discarded, never approximated.  Series1 is dense in a single variable.
Series2 truncates by TOTAL degree: coefficients are kept for exponent pairs
(i, j) with i + j <= order, stored as Series1 rows (row i of order
order - i), so every bivariate operation but the product and the inverse is
the Series1 operation on its rows.

Every operation returns a fresh series (pure value semantics).  Binary
operations truncate the result to the smaller operand order.  Products and
Series2.inverse run on integer numerators over one common denominator per
operand and reduce each output coefficient once, not once per term (each row
of Series2.inverse by its gcd); Series1.inverse is one power-series division
(_quotient).  Every linear combination sum(c * term) is one integer sum per
row (_combination).  compose, exp and the polylog sum are one Horner
evaluation of a scalar sequence at a series argument on shrinking orders
(_evaluate).  These kernels and Series1.exponential give an int exactly where
the value is an integer; the element-wise operations (+, -, negation, scalar
*, derivative) keep Python's types.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import factorial, gcd, lcm

_SCALARS = (int, Fraction)


class DomainError(ValueError):
    """An operand violates a series-domain precondition (e.g. constant term)."""


def _quotient(num, den, n) -> list:
    """Coefficients e_0..e_n of num/den, for coefficient sequences with den_0 != 0.

    e_m = (num_m - sum_{k=1..m} den_k e_(m-k)) / den_0 over the nonzero den_k:
    power-series division (Knuth, TAOCP vol. 2, 4.7), each e_m an int exactly
    when its value is one.
    """
    taps = [(k, d) for k, d in enumerate(den[1 : n + 1], 1) if d]
    e = []
    for m, acc in enumerate(Series1(num, n).coeffs):  # num cut or zero-padded to n
        for k, d in taps:
            if k > m:
                break
            acc -= d * e[m - k]
        e.append(Fraction(acc, den[0]) if acc % den[0] else acc // den[0])
    return e


def _numerators(coeffs):
    """(ints, den) with coeffs[i] == ints[i] / den, den the lcm of the denominators.

    An all-int sequence comes back as it is, with den 1.
    """
    for c in coeffs:
        if type(c) is not int:
            break
    else:
        return coeffs, 1
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _int_rows(rows, n):
    """Series1 rows cut to total degree n as int rows over one common denominator."""
    flat, den = _numerators([c for i in range(n + 1) for c in rows[i].coeffs[: n - i + 1]])
    it = iter(flat)
    return [list(islice(it, n - i + 1)) for i in range(n + 1)], den


def _over(ints, den) -> list:
    """The numbers ints[i] / den, each an int exactly when its value is one."""
    if den == 1:
        return ints
    return [Fraction(v, den) if v % den else v // den for v in ints]


def _linear_sum(rows, scalars, order) -> "Series1":
    """sum(c * row) over coefficient rows cut to order and int or Fraction scalars c,
    one integer sum over the common denominator of the rows with a nonzero c."""
    width = order + 1
    parts = [(*_numerators(row[:width]), c) for row, c in zip(rows, scalars, strict=True) if c]
    den = lcm(*(d * c.denominator for _, d, c in parts))
    out = [0] * width
    for ints, d, c in parts:
        scale = c.numerator * (den // (d * c.denominator))
        for j, v in enumerate(ints):
            if v:
                out[j] += v * scale
    return Series1(_over(out, den), order)


def _combination(terms, scalars):
    """sum(c * term) over Series1 or Series2 terms and int or Fraction scalars c.

    The result has the smallest order among the terms, and each of its rows
    is one _linear_sum of the terms' rows.
    """
    n = min(t.order for t in terms)
    if isinstance(terms[0], Series1):
        return _linear_sum([t.coeffs for t in terms], scalars, n)
    return Series2._of_rows(
        _linear_sum([t.rows[i].coeffs for t in terms], scalars, n - i) for i in range(n + 1)
    )


def _combination_xy(xs, ys, scalars):
    """sum(c * x(x) * y(y)) over pairs of Series1 and int or Fraction scalars c.

    The result has the smallest order among the factors.  Row i is the
    combination of the y with the scalars c * x[i], so no product is formed
    per term.
    """
    n = min(s.order for s in (*xs, *ys))
    rows = [y.coeffs for y in ys]
    return Series2._of_rows(
        _linear_sum(rows, [c * x.coeffs[i] for c, x in zip(scalars, xs, strict=True)], n - i)
        for i in range(n + 1)
    )


def _convolve(out, a, b, n) -> None:
    """Add the product of coefficient sequences a and b into out, up to index n."""
    for i in range(n + 1):
        x = a[i]
        if x:
            for j in range(n + 1 - i):
                y = b[j]
                if y:
                    out[i + j] += x * y


def _evaluate(coeffs, z):
    """sum_{j<=n} coeffs[j] * z**j at z's order n, for Series1 or Series2 z
    with zero constant term, by Horner's rule on shrinking orders.

    The partial sum acc_j = coeffs[j] + ... + coeffs[n] z^(n-j) is later
    multiplied by z^j, so it is needed only to order n - j: each step pads
    acc_(j+1) with zeros to that order (exact, as z has zero constant term)
    and multiplies it by z cut to it.  That is n series products, but for
    Series1 about n^3/6 coefficient products instead of n^3/2.
    """
    if z.constant_term != 0:
        raise DomainError("series evaluation needs an argument with zero constant term")
    cls, n = type(z), z.order
    acc = cls.constant(coeffs[n], 0)
    for j in range(n - 1, -1, -1):
        acc = cls(acc.coeffs, n - j) * cls(z.coeffs, n - j) + coeffs[j]
    return acc


def _value(q: Fraction):
    """q, as an int when it is one."""
    return q if q.denominator > 1 else q.numerator


# Ring methods shared by Series1 and Series2.  Each class binds them into its
# own namespace, so patching a method on one class leaves the other alone.


def _zero(cls, order: int):
    return cls.constant(0, order)


def _one(cls, order: int):
    return cls.constant(1, order)


def _sub(self, other):
    return self + (-other)


def _rsub(self, other):
    return (-self) + other


def _pow(self, exponent: int):
    return self.power(exponent)


def _truncate(self, order: int):
    if order > self.order:
        raise ValueError("cannot extend a truncated series")
    return type(self)(self.coeffs, order)  # both constructors cut to width


def _eq(self, other) -> bool:
    if not isinstance(other, type(self)):
        return NotImplemented
    return self.coeffs == other.coeffs  # the shape fixes the order


def _hash(self):
    return hash((self.order, self.coeffs))  # hash(n) == hash(Fraction(n))


def _power(self, exponent: int):
    """self**exponent by repeated squaring; a negative one inverts the power."""
    if exponent < 0:
        return self.power(-exponent).inverse()
    result = type(self).one(self.order)
    base = self
    e = exponent
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def _exp(self):
    """exp(self) = sum_j self**j / j!; needs zero constant term."""
    return _evaluate([_value(Fraction(1, factorial(j))) for j in range(self.order + 1)], self)


class Series1:
    """sum(c[i] * x**i for i <= order), coefficients exact."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, _SCALARS):
                raise TypeError(f"coefficients must be int or Fraction, got {c!r}")
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be non-negative")
        if len(coeffs) < order + 1:
            coeffs.extend([0] * (order + 1 - len(coeffs)))
        self.order = order
        self.coeffs = tuple(coeffs[: order + 1])

    zero = classmethod(_zero)
    one = classmethod(_one)

    @classmethod
    def constant(cls, value, order: int) -> "Series1":
        return cls([value], order)

    @classmethod
    def monomial(cls, coeff, exponent: int, order: int) -> "Series1":
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        c = [0] * (order + 1)
        if exponent <= order:
            c[exponent] = coeff
        return cls(c, order)

    @classmethod
    def exponential(cls, c, order: int) -> "Series1":
        """exp(c*x) from its coefficients c^m/m!, each an int exactly when its value is one."""
        if not isinstance(c, _SCALARS):
            raise TypeError(f"exponential needs an int or Fraction, got {c!r}")
        term, coeffs = Fraction(1), [1]  # term = c^m/m!
        for m in range(1, order + 1):
            term = term * c / m
            coeffs.append(_value(term))
        return cls(coeffs, order)

    @classmethod
    def variable(cls, order: int) -> "Series1":
        return cls.monomial(1, 1, order)

    @property
    def constant_term(self):
        return self.coeffs[0]

    def __getitem__(self, exponent: int):
        if not 0 <= exponent <= self.order:
            raise IndexError(f"exponent {exponent} beyond truncation order {self.order}")
        return self.coeffs[exponent]

    truncate = _truncate
    __eq__ = _eq
    __hash__ = _hash

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order >= 6 else ""
        return f"Series1(order={self.order}, [{head}{tail}])"

    def __add__(self, other) -> "Series1":
        if isinstance(other, Series1):
            n = min(self.order, other.order)
            return Series1([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], n)
        if not isinstance(other, _SCALARS):
            return NotImplemented
        c = list(self.coeffs)
        c[0] += other
        return Series1(c, self.order)

    __radd__ = __add__

    __sub__ = _sub
    __rsub__ = _rsub

    def __neg__(self) -> "Series1":
        return Series1([-c for c in self.coeffs], self.order)

    def __mul__(self, other) -> "Series1":
        if isinstance(other, Series1):
            n = min(self.order, other.order)
            a, da = _numerators(self.coeffs[: n + 1])
            b, db = _numerators(other.coeffs[: n + 1])
            out = [0] * (n + 1)
            _convolve(out, a, b, n)
            return Series1(_over(out, da * db), n)
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return Series1([c * other for c in self.coeffs], self.order)

    __rmul__ = __mul__
    __pow__ = _pow
    power = _power

    def inverse(self) -> "Series1":
        """Multiplicative inverse; requires a nonzero constant term."""
        if self.coeffs[0] == 0:
            raise DomainError("cannot invert a series with zero constant term")
        b, den = _numerators(self.coeffs)  # self = b / den, so 1/self = den / b
        return Series1(_quotient((den,), b, self.order), self.order)

    exp = _exp

    def derivative(self) -> "Series1":
        """Formal derivative; the order drops by one (floored at zero)."""
        if self.order == 0:
            return Series1.zero(0)
        return Series1(
            [(i + 1) * self.coeffs[i + 1] for i in range(self.order)], self.order - 1
        )

    def compose(self, inner: "Series1") -> "Series1":
        """self(inner) at the smaller order, by _evaluate; inner needs zero constant term."""
        return _evaluate(self.coeffs, Series1(inner.coeffs, min(self.order, inner.order)))

    def mobius_substitution(self, c) -> "Series1":
        """Substitute x -> x/(1 - c*x), i.e. compose with sum_{j>=1} c^(j-1) x^j."""
        return self.compose(Series1(_quotient((0, 1), (1, -c), self.order), self.order))


class Series2:
    """Bivariate truncation by total degree, stored as Series1 rows.

    rows[i] is the coefficient of x**i, a Series1 in y of order order - i, so
    coeffs[i][j] (the coefficient of x**i y**j) is kept for i + j <= order.
    """

    __slots__ = ("order", "rows")

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.order = order
        self.rows = tuple(
            Series1(coeffs[i] if i < len(coeffs) else (), order - i) for i in range(order + 1)
        )

    @classmethod
    def _of_rows(cls, rows) -> "Series2":
        """The series whose row i is rows[i], already of order len(rows) - 1 - i."""
        s = cls.__new__(cls)
        s.rows = tuple(rows)
        s.order = len(s.rows) - 1
        return s

    zero = classmethod(_zero)
    one = classmethod(_one)

    @classmethod
    def constant(cls, value, order: int) -> "Series2":
        return cls([[value]], order)

    @classmethod
    def embed(cls, series: Series1, index: int) -> "Series2":
        """Lift a univariate series into variable 0 or 1 of a bivariate ring of its order."""
        if index == 0:
            return cls([[c] for c in series.coeffs], series.order)
        if index == 1:
            return cls([series.coeffs], series.order)
        raise ValueError("variable index must be 0 or 1")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as a triangle of row tuples: coeffs[i][j] for i + j <= order."""
        return tuple(r.coeffs for r in self.rows)

    @property
    def constant_term(self):
        return self.rows[0].coeffs[0]

    def __getitem__(self, exponents):
        i, j = exponents
        if i < 0 or j < 0 or i + j > self.order:
            raise IndexError(
                f"exponent pair ({i}, {j}) beyond truncation order {self.order}"
            )
        return self.rows[i].coeffs[j]

    truncate = _truncate
    __eq__ = _eq
    __hash__ = _hash

    def __repr__(self) -> str:
        return f"Series2(order={self.order}, constant={self.constant_term})"

    def __add__(self, other) -> "Series2":
        if isinstance(other, Series2):
            return Series2._of_rows(a + b for a, b in zip(self.rows, other.rows))
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return Series2._of_rows((self.rows[0] + other, *self.rows[1:]))

    __radd__ = __add__

    __sub__ = _sub
    __rsub__ = _rsub

    def __neg__(self) -> "Series2":
        return Series2._of_rows(-r for r in self.rows)

    def __mul__(self, other) -> "Series2":
        if isinstance(other, Series2):
            n = min(self.order, other.order)
            a, da = _int_rows(self.rows, n)
            b, db = _int_rows(other.rows, n)
            rows = [[0] * (n - i + 1) for i in range(n + 1)]
            for i1 in range(n + 1):
                for i2 in range(n - i1 + 1):
                    _convolve(rows[i1 + i2], a[i1], b[i2], n - i1 - i2)
            return Series2([_over(row, da * db) for row in rows], n)
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return Series2._of_rows(r * other for r in self.rows)

    __rmul__ = __mul__
    __pow__ = _pow
    power = _power

    def inverse(self) -> "Series2":
        """Inverse, row by row in the first variable; needs a nonzero constant term.

        With self = a / den on integer rows a, the rows of f = 1/self are
        f_0 = 1/self_0 and f_m = -f_0 * sum_{k=1..m} a_k f_(m-k) / den.  Each
        f_m is an integer row over its own denominator, reduced once by the
        gcd of the row; the sum runs on integers over the lcm of the
        denominators of f_0..f_(m-1).
        """
        n = self.order
        a, den = _int_rows(self.rows, n)
        f0, d0 = _numerators(self.rows[0].inverse().coeffs)
        nums, dens, common = [f0], [d0], d0
        rows = [Series1(_over(f0, d0), n)]
        for m in range(1, n + 1):
            width = n - m + 1
            acc = [0] * width
            for k in range(1, m + 1):
                f, scale = nums[m - k], common // dens[m - k]
                if scale != 1:
                    f = [v * scale for v in f[:width]]
                _convolve(acc, a[k], f, width - 1)
            row = [0] * width
            _convolve(row, f0, acc, width - 1)
            d = d0 * common * den
            g = gcd(d, *row)
            row, d = [-v // g for v in row], d // g
            nums.append(row)
            dens.append(d)
            common = lcm(common, d)
            rows.append(Series1(_over(row, d), width - 1))
        return Series2._of_rows(rows)

    exp = _exp

    def derivative(self, index: int) -> "Series2":
        """Partial derivative in variable 0 or 1; the order drops by one."""
        if index not in (0, 1):
            raise ValueError("variable index must be 0 or 1")
        if self.order == 0:
            return Series2.zero(0)
        if index == 0:
            return Series2._of_rows(r * i for i, r in enumerate(self.rows[1:], 1))
        return Series2._of_rows(r.derivative() for r in self.rows[:-1])


def product_xy(sx: Series1, sy: Series1) -> Series2:
    """The separable product sx(x) * sy(y) as a bivariate series."""
    return _combination_xy([sx], [sy], [1])


def polylog_over_argument(k: int, z):
    """Li_k(z)/z = sum_{m>=1} z**(m-1) / m**k, exact for every integer k.

    Only finitely many powers contribute because z must have zero constant
    term; the shift by one power keeps the division exact even though z
    itself is not invertible.  Works for Series1 and Series2 alike: at
    order n it evaluates sum_{j<=n} z**j / (j+1)**k (_evaluate).
    """
    if not isinstance(k, int):
        raise TypeError(f"order must be an int, got {k!r}")
    return _evaluate([_value(Fraction(j + 1) ** -k) for j in range(z.order + 1)], z)


def egf_coefficient(series, exponents):
    """Coefficient times the factorial(s) of the exponent(s): EGF-normalized value."""
    if isinstance(series, Series1):
        n = exponents
        return series[n] * factorial(n)
    i, j = exponents
    return series[i, j] * factorial(i) * factorial(j)


__all__ = [
    "DomainError",
    "Series1",
    "Series2",
    "product_xy",
    "polylog_over_argument",
    "egf_coefficient",
]
