"""Truncated exact power-series engine: ring laws, analytic ops, truncation."""

from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polybern.series import (
    DomainError,
    Series1,
    Series2,
    _combination,
    _combination_xy,
    _quotient,
    egf_coefficient,
    polylog_over_argument,
    product_xy,
)

from value_types import assert_value_typed

ORDER = 8

coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
series1 = st.lists(coeff, min_size=ORDER + 1, max_size=ORDER + 1).map(
    lambda cs: Series1(cs, ORDER)
)
unit1 = series1.filter(lambda s: s.constant_term != 0)
nilpotent1 = series1.map(lambda s: s - Series1.constant(s.constant_term, ORDER))


def coordinate(index, order):
    """The bivariate coordinate series x (index 0) or y (index 1)."""
    return Series2.embed(Series1.variable(order), index)


def polylog(k, inner):
    """Li_k(inner) = sum_{m>=1} inner**m / m**k, as inner times Li_k(inner)/inner."""
    return inner * polylog_over_argument(k, inner)


def random_series2(draw_coeffs):
    rows = []
    it = iter(draw_coeffs)
    for i in range(ORDER + 1):
        rows.append([next(it) for _ in range(ORDER - i + 1)])
    return Series2(rows, ORDER)


n2 = (ORDER + 1) * (ORDER + 2) // 2
series2 = st.lists(coeff, min_size=n2, max_size=n2).map(random_series2)


@st.composite
def series2_any_order(draw, coeffs=coeff):
    order = draw(st.integers(0, ORDER))
    rows = [
        draw(st.lists(coeffs, min_size=order - i + 1, max_size=order - i + 1))
        for i in range(order + 1)
    ]
    return Series2(rows, order)


# Coefficients for the integer-numerator product kernel: plain ints, the small
# fractions above, and fractions whose denominators (up to 10**6) make the
# common denominator of an operand large.
int_coeff = st.integers(-50, 50)
big_coeff = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
kernel_coeff = st.one_of(int_coeff, coeff, big_coeff)


@st.composite
def series1_any_order(draw, coeffs=kernel_coeff):
    order = draw(st.integers(0, ORDER))
    return Series1(draw(st.lists(coeffs, min_size=order + 1, max_size=order + 1)), order)


unit2 = series2_any_order().filter(lambda s: s.constant_term != 0)
nilpotent2 = series2_any_order().map(lambda s: s - s.constant_term)


# ---------------------------------------------------------------------------
# construction and access


def test_constructors_and_getitem():
    s = Series1([1, 2, 3], 5)
    assert s[0] == 1 and s[2] == 3 and s[5] == 0
    with pytest.raises(IndexError):
        s[6]
    assert Series1.monomial(7, 2, 4)[2] == 7
    assert Series1.variable(3) == Series1([0, 1], 3)
    t = Series2.embed(Series1.variable(3), 1)
    assert t[0, 1] == 1 and t[1, 0] == 0
    assert t.rows == (Series1([0, 1], 3), Series1.zero(2), Series1.zero(1), Series1.zero(0))
    assert t.coeffs == ((0, 1, 0, 0), (0, 0, 0), (0, 0), (0,))
    with pytest.raises(IndexError):
        t[2, 2]
    assert Series2.embed(Series1.variable(0), 0) == Series2.zero(0)
    with pytest.raises(ValueError):
        Series2.embed(Series1.variable(3), 2)


def test_monomial_rejects_a_negative_exponent():
    assert Series1.monomial(3, 0, 2) == Series1([3], 2)
    assert Series1.monomial(3, 5, 2) == Series1.zero(2)
    for exponent in (-1, -3):
        with pytest.raises(ValueError, match="non-negative"):
            Series1.monomial(1, exponent, 5)


def test_constructors_reject_inexact_coefficients():
    # Bivariate rows go through Series1, so Series2 rejects them too.
    message = r"^coefficients must be int or Fraction, got "
    with pytest.raises(TypeError, match=message + r"0\.5$"):
        Series1([0.5, 1])
    with pytest.raises(TypeError, match=message + r"0\.5$"):
        Series1([0, 0.5, 0])  # would reach compose as a float coefficient
    with pytest.raises(TypeError, match=message + r"'a'$"):
        Series1(["a"])
    with pytest.raises(TypeError, match=message + r"0\.5$"):
        Series2([[0, 0.5]], 1)
    with pytest.raises(TypeError, match=message + r"0\.5$"):
        Series2.constant(0.5, 2)
    with pytest.raises(TypeError):
        Series1([0, 1]) + 0.5
    assert Series1([True, Fraction(1, 2)]).coeffs == (1, Fraction(1, 2))


def test_equality_requires_same_order():
    assert Series1.one(3) != Series1.one(4)
    assert Series1([1, 2], 3) == Series1([1, 2, 0, 0], 3)
    assert Series2.one(3) != Series2.one(4)
    # hash consistency across int/Fraction coefficient spellings
    assert hash(Series1([1, Fraction(1, 2)], 2)) == hash(Series1([Fraction(1), Fraction(2, 4)], 2))
    assert hash(Series2([[1, Fraction(1, 2)], [3]], 1)) == hash(
        Series2([[Fraction(1), Fraction(2, 4)], [Fraction(3)]], 1)
    )
    assert Series1.one(3) != Series2.one(3)


def test_truncate():
    s = Series1([1, 2, 3, 4], 3)
    assert s.truncate(1) == Series1([1, 2], 1)
    with pytest.raises(ValueError):
        s.truncate(4)
    b = Series2.embed(s, 0)
    assert b.truncate(2)[2, 0] == 3
    with pytest.raises(ValueError):
        b.truncate(9)


# ---------------------------------------------------------------------------
# ring laws (hypothesis)


@given(series1, series1, series1)
@settings(max_examples=60, deadline=None)
def test_ring_laws_1d(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Series1.zero(ORDER) == a
    assert a * Series1.one(ORDER) == a
    assert a - a == Series1.zero(ORDER)


def dense_series2(seed):
    """An order-ORDER Series2 with every coefficient nonzero."""
    return Series2(
        [
            [
                (-1) ** (i + j) * Fraction(i + 2 * j + seed, 1 + (i + j + seed) % 3)
                for j in range(ORDER - i + 1)
            ]
            for i in range(ORDER + 1)
        ],
        ORDER,
    )


# The fixed example has every coefficient nonzero, so a broken product fails
# on it at once instead of after minutes of shrinking.
@given(series2, series2, series2)
@example(dense_series2(1), dense_series2(2), dense_series2(3))
@settings(max_examples=25, deadline=None)
def test_ring_laws_2d(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * Series2.one(ORDER) == a


@given(series1, series1)
@settings(max_examples=60, deadline=None)
def test_mul_matches_schoolbook_convolution(a, b):
    prod = a * b
    for n in range(ORDER + 1):
        assert prod[n] == sum(a[k] * b[n - k] for k in range(n + 1))


@given(series2_any_order(), series2_any_order())
@example(
    Series2([[1, -2, Fraction(1, 2), 3], [Fraction(-2, 3), 4, 1], [2, Fraction(3, 4)], [-1]], 3),
    Series2(
        [[2, 1, -1, Fraction(1, 3), 5], [Fraction(1, 2), -3, 2, 1], [1, Fraction(-2, 5), 3],
         [4, -1], [Fraction(3, 2)]],
        4,
    ),
)
@settings(max_examples=40, deadline=None)
def test_mul_2d_matches_schoolbook_convolution(a, b):
    n = min(a.order, b.order)
    expected = [[0] * (n - i + 1) for i in range(n + 1)]
    for i1 in range(n + 1):
        for j1 in range(n + 1 - i1):
            for i2 in range(n + 1 - i1 - j1):
                for j2 in range(n + 1 - i1 - j1 - i2):
                    expected[i1 + i2][j1 + j2] += a[i1, j1] * b[i2, j2]
    prod = a * b
    assert prod.order == n
    assert prod == Series2(expected, n)


def assert_coefficients_2d(result, order, formula):
    assert result.order == order
    for i in range(order + 1):
        for j in range(order - i + 1):
            assert result[i, j] == formula(i, j), (i, j)


@given(series2_any_order(), series2_any_order(), st.one_of(int_coeff, coeff))
@settings(max_examples=40, deadline=None)
def test_linear_ops_2d_match_coefficient_formulas(a, b, s):
    def at_origin(i, j):
        return s if (i, j) == (0, 0) else 0

    n = min(a.order, b.order)
    assert_coefficients_2d(a + b, n, lambda i, j: a[i, j] + b[i, j])
    assert_coefficients_2d(-a, a.order, lambda i, j: -a[i, j])
    assert_coefficients_2d(a * s, a.order, lambda i, j: a[i, j] * s)
    assert_coefficients_2d(a + s, a.order, lambda i, j: a[i, j] + at_origin(i, j))
    assert_coefficients_2d(s - a, a.order, lambda i, j: at_origin(i, j) - a[i, j])
    if a.order == 0:
        assert a.derivative(0) == a.derivative(1) == Series2.zero(0)
    else:
        m = a.order - 1
        assert_coefficients_2d(a.derivative(0), m, lambda i, j: (i + 1) * a[i + 1, j])
        assert_coefficients_2d(a.derivative(1), m, lambda i, j: (j + 1) * a[i, j + 1])


@given(series1_any_order(), series1_any_order())
@settings(max_examples=40, deadline=None)
def test_mul_exact_for_large_denominators(a, b):
    n = min(a.order, b.order)
    prod = a * b
    assert prod.order == n
    for m in range(n + 1):
        assert prod[m] == sum(a[k] * b[m - k] for k in range(m + 1))


@given(series2_any_order(kernel_coeff), series2_any_order(kernel_coeff))
@settings(max_examples=40, deadline=None)
def test_mul_2d_exact_for_large_denominators(a, b):
    n = min(a.order, b.order)
    prod = a * b
    for i in range(n + 1):
        for j in range(n - i + 1):
            assert prod[i, j] == sum(
                a[i1, j1] * b[i - i1, j - j1] for i1 in range(i + 1) for j1 in range(j + 1)
            )


@given(
    series1_any_order(int_coeff),
    series1_any_order(int_coeff),
    series2_any_order(int_coeff),
    series2_any_order(int_coeff),
)
@settings(max_examples=40, deadline=None)
def test_mul_of_int_operands_stays_int(a, b, c, d):
    assert all(type(x) is int for x in (a * b).coeffs)
    assert all(type(x) is int for row in (c * d).coeffs for x in row)


@given(
    st.lists(kernel_coeff, min_size=0, max_size=ORDER),
    st.sampled_from((1, -1, Fraction(3, 7), Fraction(-5, 2), 4)),
)
@settings(max_examples=40, deadline=None)
def test_inverse_exact_for_unit_and_nonunit_scaled_constant(tail, lead):
    # lead = ±1 becomes ±1/L, with L the common denominator of the tail, so the
    # constant term scaled to integer numerators is ±1; the other leads are not.
    if lead in (1, -1):
        lead = Fraction(lead, lcm(*(c.denominator for c in tail)))
    a = Series1([lead, *tail], len(tail))
    inv = a.inverse()
    assert inv[0] == 1 / lead
    assert a * inv == Series1.one(a.order)
    assert inv * a == Series1.one(a.order)


def test_mul_truncates_to_min_order():
    a = Series1([1, 1], 5)
    b = Series1([1, 1], 3)
    assert (a * b).order == 3
    assert (a + b).order == 3


# ---------------------------------------------------------------------------
# inverse / power / exp


@given(unit1)
@settings(max_examples=50, deadline=None)
def test_inverse_is_two_sided(a):
    inv = a.inverse()
    assert a * inv == Series1.one(ORDER)
    assert inv * a == Series1.one(ORDER)


# Power-series division, checked by multiplying back: the oracle divides nothing.

sparse_coeff = st.one_of(st.just(0), kernel_coeff)


@given(
    st.lists(kernel_coeff, min_size=1, max_size=ORDER + 3),
    st.sampled_from((1, -1, 3, -4, Fraction(2, 3), Fraction(-5, 2))),
    st.lists(sparse_coeff, max_size=ORDER + 3),
    st.integers(0, ORDER),
)
@example([1], 3, [0, 0, 0, 0, 0, -2], ORDER)  # numerator shorter than a sparse denominator
@example([5, 0, 0, 0, 0, 0, 0, 1], -4, [0, 1], 5)  # numerator longer, cut to the order
@example([Fraction(1, 2), 3], Fraction(2, 3), [0, Fraction(-7, 3), 0, 1], ORDER)
@settings(max_examples=60, deadline=None)
def test_quotient_times_denominator_is_the_numerator(num, lead, tail, n):
    den = [lead, *tail]
    got = Series1(_quotient(num, den, n), n)
    assert got * Series1(den, n) == Series1(num, n)
    assert_value_typed(got)


@given(unit2)
@settings(max_examples=40, deadline=None)
def test_inverse_2d_is_two_sided(a):
    inv = a.inverse()
    assert a * inv == Series2.one(a.order)
    assert inv * a == Series2.one(a.order)


def inverse_by_row_recurrence(s):
    """1/s for a Series2 by f_m = -f_0 * sum_{k=1..m} s_k f_(m-k) on Series1 rows.

    Every term is a Series1 product and a Fraction sum: the independent oracle
    of the integer-row kernel.
    """
    f = [s.rows[0].inverse()]
    for m in range(1, s.order + 1):
        acc = 0
        for k in range(1, m + 1):
            acc += s.rows[k] * f[m - k]
        f.append(-f[0] * acc)
    return Series2([row.coeffs for row in f], s.order)


def dense_fractions(order):
    """A dense Series2 of Fraction coefficients with constant term 5."""
    return Series2(
        [[Fraction(3 * i - 2 * j + 5, i + 2 * j + 1) for j in range(order - i + 1)]
         for i in range(order + 1)],
        order,
    )


def kernel_denominator(order):
    """1 - e^u (1 - e^t), inverted by kernel_series: row 0 is e^t."""
    eu = Series2.embed(Series1.variable(order).exp(), 0)
    et = Series2.embed(Series1.variable(order).exp(), 1)
    return 1 - eu * (1 - et)


@pytest.mark.parametrize("build", [dense_fractions, kernel_denominator])
def test_inverse_2d_matches_row_recurrence(build):
    # At order 16 the inverse of kernel_denominator's row 0, e^-t, has
    # denominators up to 16!.
    for order in (*range(9), 16):
        s = build(order)
        got, expected = s.inverse(), inverse_by_row_recurrence(s)
        assert got == expected and got.order == order, order
        assert_value_typed(got)
    for s in (build(6) - build(6).constant_term, build(0) - build(0).constant_term):
        with pytest.raises(DomainError):
            s.inverse()


def test_inverse_2d_gives_an_integral_row_as_ints():
    # Row 1 of the inverse is the integer 3, from factors with denominators.
    # The kernel reduces the row once, the row recurrence forms it by a
    # Series1 product; both give the int.
    s = Series2([[Fraction(-1, 2), Fraction(-7, 5)], [Fraction(-3, 4)]], 1)
    got, expected = s.inverse(), inverse_by_row_recurrence(s)
    assert got == expected and got[1, 0] == 3
    assert type(got[1, 0]) is int and type(expected[1, 0]) is int


@pytest.mark.parametrize("e", range(1, 5))
def test_negative_power_is_the_power_of_the_inverse(e):
    for s in (
        Series1([2, Fraction(-1, 3), 5, 0, Fraction(7, 2)], 4),
        Series1([1, -1], 6),
        Series1.variable(8).exp(),
        dense_fractions(5),
        kernel_denominator(6),
    ):
        assert s.power(-e) == s.inverse().power(e)
        assert s ** -e == s.power(-e)
    for s in (Series1.variable(4), coordinate(0, 4), kernel_denominator(4) - 1):
        with pytest.raises(DomainError):
            s.power(-e)


def test_geometric_series():
    inv = Series1([1, -1], 6).inverse()
    assert inv == Series1([1] * 7, 6)
    with pytest.raises(DomainError):
        Series1.variable(4).inverse()
    with pytest.raises(DomainError):
        coordinate(0, 4).inverse()


@given(unit1, st.integers(-4, 4))
@settings(max_examples=40, deadline=None)
def test_power_matches_repeated_multiplication(a, e):
    direct = a.power(e)
    acc = Series1.one(ORDER)
    base = a if e >= 0 else a.inverse()
    for _ in range(abs(e)):
        acc = acc * base
    assert direct == acc
    assert a ** 2 == a * a


@given(nilpotent1, nilpotent1)
@settings(max_examples=40, deadline=None)
def test_exp_is_a_homomorphism(a, b):
    assert (a + b).exp() == a.exp() * b.exp()


@given(nilpotent1, st.sampled_from((0, 1)))
@settings(max_examples=40, deadline=None)
def test_exp_2d_matches_embedded_1d(s, index):
    assert Series2.embed(s, index).exp() == Series2.embed(s.exp(), index)


@given(nilpotent2, nilpotent2)
@settings(max_examples=40, deadline=None)
def test_exp_2d_is_a_homomorphism(a, b):
    assert (a + b).exp() == a.exp() * b.exp()


def test_exp_explicit():
    e = Series1.variable(6).exp()
    for n in range(7):
        assert e[n] == Fraction(1, factorial(n))
    with pytest.raises(DomainError):
        Series1.one(3).exp()
    with pytest.raises(DomainError):
        Series2.one(3).exp()
    # 2D: exp(x + y) = exp(x) exp(y)
    x, y = coordinate(0, 6), coordinate(1, 6)
    ex = Series1.variable(6).exp()
    assert (x + y).exp() == product_xy(ex, ex)


@pytest.mark.parametrize("c", [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
@pytest.mark.parametrize("order", [0, 1, 5, 40, 256])
def test_exponential_matches_the_exp_recurrence(c, order):
    got = Series1.exponential(c, order)
    assert got == (Series1.variable(order) * c).exp()
    assert_value_typed(got)


def test_exponential_explicit():
    assert Series1.exponential(2, 3).coeffs == (1, 2, 2, Fraction(4, 3))
    with pytest.raises(TypeError, match=r"^exponential needs an int or Fraction, got 0\.5$"):
        Series1.exponential(0.5, 3)


@given(series1, series1)
@settings(max_examples=40, deadline=None)
def test_derivative_is_leibniz(a, b):
    lhs = (a * b).derivative()
    rhs = a.derivative() * b.truncate(ORDER - 1) + a.truncate(ORDER - 1) * b.derivative()
    assert lhs == rhs


def test_derivative_2d_mixed_partials_commute():
    ex = Series1.variable(6).exp()
    s = product_xy(ex, ex + 1) + coordinate(0, 6) * 3
    assert s.derivative(0).derivative(1) == s.derivative(1).derivative(0)
    assert s.derivative(0).order == 5


@pytest.mark.parametrize("order", [0, 1, 4])
@pytest.mark.parametrize("index", [-1, 2, 7])
def test_derivative_2d_rejects_unknown_variable_at_every_order(order, index):
    with pytest.raises(ValueError, match="variable index must be 0 or 1"):
        Series2.zero(order).derivative(index)


# ---------------------------------------------------------------------------
# composition


def test_compose_golden():
    # x^2 ∘ (x/(1-x)) = x^2 + 2x^3 + 3x^4 + ...
    square = Series1.monomial(1, 2, 6)
    inner = Series1.variable(6) * Series1([1, -1], 6).inverse()
    out = square.compose(inner)
    assert out == Series1([0, 0, 1, 2, 3, 4, 5], 6)


@given(nilpotent1)
@settings(max_examples=40, deadline=None)
def test_compose_identity(a):
    x = Series1.variable(ORDER)
    assert a.compose(x) == a
    assert x.compose(a) == a


@given(series1, nilpotent1, nilpotent1)
@settings(max_examples=25, deadline=None)
def test_compose_is_associative(f, g, h):
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


def compose_by_full_order_horner(f, inner):
    """f(inner) by Horner with every partial sum kept to the common order."""
    n = min(f.order, inner.order)
    inner = inner.truncate(n)
    acc = Series1.constant(f.coeffs[n], n)
    for k in range(n - 1, -1, -1):
        acc = acc * inner + f.coeffs[k]
    return acc


def assert_same_as_full_order_horner(f, inner):
    got, expected = f.compose(inner), compose_by_full_order_horner(f, inner)
    assert got == expected and got.order == expected.order
    # Both add each scalar a_k to a product, whose coefficients are typed by
    # value, so equal values have equal types whatever the partial-sum orders.
    for a, b in zip(got.coeffs, expected.coeffs):
        assert type(a) is type(b), (a, b)


# The fixed examples have every coefficient nonzero, so a broken compose
# fails on them at once instead of after minutes of shrinking.
@given(series1, nilpotent1)
@example(
    Series1([1, -2, Fraction(1, 2), 3, Fraction(-2, 3), 4, Fraction(3, 4), -1, 2], ORDER),
    Series1([0, 1, Fraction(-1, 2), 2, Fraction(1, 3), -3, 1, Fraction(2, 5), -1], ORDER),
)
@settings(max_examples=60, deadline=None)
def test_compose_matches_full_order_horner(f, inner):
    assert_same_as_full_order_horner(f, inner)


@given(series1_any_order(), series1_any_order())
@example(
    Series1([1, -2, Fraction(1, 2), 3, Fraction(-2, 3), 4, Fraction(3, 4), -1], 7),
    Series1([5, 1, Fraction(-1, 2), 2, Fraction(1, 3), -3], 5),
)
@settings(max_examples=60, deadline=None)
def test_compose_matches_full_order_horner_at_unequal_orders(f, inner):
    assert_same_as_full_order_horner(f, inner - inner.constant_term)


def test_compose_requires_nilpotent_inner():
    with pytest.raises(DomainError):
        Series1.variable(4).compose(Series1.one(4))


def test_mobius_substitution():
    f = Series1([0, 1, 1, 1, 1, 1, 1], 6)
    once = f.mobius_substitution(1).mobius_substitution(1)
    assert once == f.mobius_substitution(2)
    # x/(1-cx) with c=0 is the identity substitution
    assert f.mobius_substitution(0) == f
    # direct check: x ∘ mobius(1) = x + x^2 + x^3 + ...
    x = Series1.variable(5)
    assert x.mobius_substitution(1) == Series1([0, 1, 1, 1, 1, 1], 5)


# ---------------------------------------------------------------------------
# polylog substitution and EGF extraction


def test_polylog_log_oracle():
    # Li_1(z) = -log(1-z) = sum z^m / m
    z = Series1.variable(10)
    li1 = polylog(1, z)
    assert li1 == Series1([0] + [Fraction(1, m) for m in range(1, 11)], 10)
    # and its derivative is 1/(1-z)
    assert li1.derivative() == Series1([1, -1], 9).inverse()


def test_polylog_k0_is_geometric_ratio():
    z = Series1.variable(9)
    li0 = polylog(0, z)  # z/(1-z)
    assert li0 == z * Series1([1, -1], 9).inverse()
    # Li_0(1 - e^{-t}) = e^t - 1
    t = Series1.variable(9)
    arg = 1 - (-t).exp()
    assert polylog(0, arg) == t.exp() - 1


def test_polylog_negative_k_integer_coefficients():
    z = Series1.variable(8)
    li = polylog(-2, z)  # sum m^2 z^m
    assert li == Series1([0] + [m * m for m in range(1, 9)], 8)
    with pytest.raises(DomainError):
        polylog(2, Series1.one(4))
    with pytest.raises(TypeError, match=r"^order must be an int, got 1\.0$"):
        polylog_over_argument(1.0, Series1.variable(3))
    # bivariate argument: sum m^2 (x+y)^m
    w = coordinate(0, 6) + coordinate(1, 6)
    li2 = polylog(-2, w)
    assert all(
        li2[i, j] == comb(i + j, i) * (i + j) ** 2 for i in range(7) for j in range(7 - i)
    )
    with pytest.raises(DomainError):
        polylog(2, Series2.one(4))


def polylog_over_argument_by_direct_sum(k, z):
    """sum_{m>=1} z**(m-1) / m**k, one full-order product per power."""
    acc = type(z).constant(Fraction(1), z.order)
    power = type(z).one(z.order)
    for m in range(2, z.order + 2):
        power = power * z
        acc = acc + power * Fraction(m) ** (-k)
    return acc


@pytest.mark.parametrize("k", range(-3, 4))
def test_polylog_over_argument_matches_direct_sum(k):
    # Orders 0..15 take in order 0, where the evaluator takes no step, orders
    # that cut `mixed` below its degree 5, and orders that pad it with zeros.
    for order in range(16):
        t = Series1.variable(order)
        mixed = Series1([0, 3, Fraction(-1, 2), 0, 2, Fraction(5, 3)], order)
        for z in (1 - (-t).exp(), mixed):
            got, expected = polylog_over_argument(k, z), polylog_over_argument_by_direct_sum(k, z)
            assert got == expected and got.order == order, (k, order)
            assert_value_typed(got)
    x, y = coordinate(0, 7), coordinate(1, 7)
    w = x + 2 * y + x * y * Fraction(1, 3) - y * y
    got, expected = polylog_over_argument(k, w), polylog_over_argument_by_direct_sum(k, w)
    assert got == expected
    assert_value_typed(got)


# ---------------------------------------------------------------------------
# the linear-combination kernel


def combination_by_terms(terms, scalars):
    """sum(c * term) added term by term from zero, at the smallest order."""
    assert len(terms) == len(scalars)
    n = min(t.order for t in terms)
    acc = type(terms[0]).zero(n)
    for term, c in zip(terms, scalars):
        acc = acc + term.truncate(n) * c
    return acc


def assert_same_series(got, expected):
    assert got == expected and got.order == expected.order
    assert_value_typed(got)


# Zero, Fraction(v, 1) and proper-fraction scalars next to plain ints.
scalar = st.one_of(int_coeff, st.builds(Fraction, st.integers(-5, 5)), coeff)


@given(st.lists(st.tuples(series1_any_order(), scalar), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_combination_1d_matches_term_by_term_sum(pairs):
    terms, scalars = [t for t, _ in pairs], [c for _, c in pairs]
    assert_same_series(_combination(terms, scalars), combination_by_terms(terms, scalars))


@given(st.lists(st.tuples(series2_any_order(kernel_coeff), scalar), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_combination_2d_matches_term_by_term_sum(pairs):
    terms, scalars = [t for t, _ in pairs], [c for _, c in pairs]
    assert_same_series(_combination(terms, scalars), combination_by_terms(terms, scalars))


@pytest.mark.parametrize(
    "terms,scalars,types",
    [
        # a term with a zero scalar is not read, so its Fraction leaves no trace
        ([Series1([1, Fraction(1, 2)], 1), Series1([2, 3], 1)], [0, 1], [int, int]),
        # a Fraction(v, 1) scalar gives ints where the values are integers
        ([Series1([1, 2], 1), Series1([0, 1], 3)], [Fraction(3), 2], [int, int]),
        # Fraction terms whose halves and thirds cancel give ints
        (
            [Series1([0, Fraction(1, 2), 0, 3], 3), Series1([1, 0, Fraction(2, 3), 0], 4)],
            [2, 3],
            [int, int, int, int],
        ),
        (
            [Series1([Fraction(1, 2), 0], 1), Series1([Fraction(1, 2), 1], 1)],
            [2, -2],
            [int, int],
        ),
        # a value that is not an integer stays a Fraction next to an integral one
        (
            [Series1([Fraction(1, 2), Fraction(1, 3)], 1), Series1([Fraction(1, 2), 0], 1)],
            [1, 1],
            [int, Fraction],
        ),
    ],
)
def test_combination_coefficient_types(terms, scalars, types):
    got = _combination(terms, scalars)
    assert_same_series(got, combination_by_terms(terms, scalars))
    assert [type(c) for c in got.coeffs] == types
    rows = [Series2([t.coeffs, [Fraction(1, 3)]], t.order) for t in terms]
    assert_same_series(_combination(rows, scalars), combination_by_terms(rows, scalars))


@given(
    st.lists(
        st.tuples(series1_any_order(), series1_any_order(), scalar), min_size=1, max_size=4
    )
)
@settings(max_examples=60, deadline=None)
def test_combination_xy_matches_sum_of_products(triples):
    xs, ys, scalars = (list(column) for column in zip(*triples))
    expected = combination_by_terms([product_xy(x, y) for x, y in zip(xs, ys)], scalars)
    assert_same_series(_combination_xy(xs, ys, scalars), expected)


def test_combination_rejects_unequal_lengths():
    a, b = Series1([1, 2], 1), Series1([Fraction(1, 2), 3], 1)
    with pytest.raises(ValueError):
        _combination([a, b], [1])
    with pytest.raises(ValueError):
        _combination([Series2.embed(a, 0)], [1, 2])
    with pytest.raises(ValueError):
        _combination_xy([a, b], [b], [1, 2])
    with pytest.raises(ValueError):
        _combination_xy([a], [b, a], [1, 2])
    with pytest.raises(ValueError):
        _combination_xy([a], [b], [1, 2])


def test_egf_coefficient():
    e = Series1.variable(7).exp()
    assert all(egf_coefficient(e, n) == 1 for n in range(8))
    ex = Series1.variable(5).exp()
    b = product_xy(ex, ex * 2)
    assert egf_coefficient(b, (2, 3)) == 2  # 2 * (1/2!)(1/3!) * 2! * 3!


def test_product_xy_matches_embeddings():
    a = Series1([1, 2, 3, 4], 3)
    b = Series1([5, 6, 7, 8], 3)
    assert product_xy(a, b) == Series2.embed(a, 0) * Series2.embed(b, 1)


@given(series1_any_order(), series1_any_order())
@settings(max_examples=40, deadline=None)
def test_product_xy_is_the_coefficientwise_product(a, b):
    n = min(a.order, b.order)
    expected = Series2([[a[i] * b[j] for j in range(n - i + 1)] for i in range(n + 1)], n)
    assert_same_series(product_xy(a, b), expected)


def test_embed_round_trip():
    s = Series1([3, 1, 4, 1, 5], 4)
    e0 = Series2.embed(s, 0)
    for i in range(5):
        assert e0[i, 0] == s[i]
        if i:
            assert e0[0, i] == 0


# ---------------------------------------------------------------------------
# coefficient types: an integer kernel gives an int exactly for an integral value

# Each fixed example has integral values over operands with denominators, where
# typing by the common denominator would give Fraction(v, 1).


@given(series1_any_order(), series1_any_order(), scalar)
@example(Series1([Fraction(1, 2)] * 2, 1), Series1([2, 2], 1), Fraction(2))
@example(Series1([2, 4]), Series1([1]), 1)  # the inverse is (Fraction(1, 2), -1)
@example(Series1([0, 2], 3), Series1([1]), 1)  # exp is (1, 2, 2, Fraction(4, 3))
@settings(max_examples=40, deadline=None)
def test_series1_kernels_are_value_typed(a, b, c):
    assert_value_typed(a * b)
    if a.constant_term:
        assert_value_typed(a.inverse())
    assert_value_typed((a - a.constant_term).exp())
    assert_value_typed(product_xy(a, b))
    assert_value_typed(_combination([a, b], [c, 1]))
    assert_value_typed(_combination_xy([a, b], [b, a], [1, c]))


@given(series2_any_order(kernel_coeff), unit2)
@example(
    Series2([[Fraction(1, 2), Fraction(1, 2)], [Fraction(3, 2)]], 1),
    Series2([[2, 4], [6]], 1),
)
@example(
    Series2([[2, 4], [2]], 1),
    Series2([[Fraction(-1, 2), Fraction(-7, 5)], [Fraction(-3, 4)]], 1),
)
@settings(max_examples=40, deadline=None)
def test_series2_kernels_are_value_typed(a, u):
    assert_value_typed(a * u)
    assert_value_typed(u.inverse())
    assert_value_typed((a - a.constant_term).exp())
    assert_value_typed(_combination([a, u], [2, 1]))


@given(st.integers(-3, 3), st.one_of(series1_any_order(), series2_any_order(kernel_coeff)))
@example(-1, Series1([0, Fraction(1, 2)], 1))
@example(-1, Series1([0, Fraction(1, 2), Fraction(1, 4), 0], 3))
@example(-2, Series2([[0, Fraction(1, 4)], [Fraction(1, 2)]], 1))
@settings(max_examples=40, deadline=None)
def test_polylog_over_argument_is_value_typed(k, z):
    assert_value_typed(polylog_over_argument(k, z - z.constant_term))
