"""Number-theory layer: route cross-checks, dualities, classical reductions.

The double-sum closed form is the primary route; the generating-function
expansions built on the series engine act as the independent oracle, since
they share no code path with the Stirling double sum.
"""

import re
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybern.polybernoulli import (
    RationalPolynomial,
    bernoulli,
    egf_bernoulli,
    egf_genocchi,
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
from polybern.series import egf_coefficient

BERNOULLI_ORACLE = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
    Fraction(0),
    Fraction(-691, 2730),
]
GENOCCHI_ORACLE = [0, 1, -1, 0, 1, 0, -3, 0, 17, 0, -155, 0]


def test_bernoulli_oracle():
    assert [bernoulli(n) for n in range(13)] == BERNOULLI_ORACLE
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_genocchi_oracle():
    assert [genocchi(n) for n in range(12)] == GENOCCHI_ORACLE
    assert all(isinstance(genocchi(n), int) for n in range(12))


def test_classical_egfs_extract_back():
    eb = egf_bernoulli(12)
    eg = egf_genocchi(12)
    for n in range(13):
        assert egf_coefficient(eb, n) == bernoulli(n)
        assert egf_coefficient(eg, n) == genocchi(n)


def test_double_sum_against_egf_oracle():
    for k in range(-3, 4):
        series_b = egf_poly_bernoulli_B(k, 12)
        series_c = egf_poly_bernoulli_C(k, 12)
        for n in range(13):
            assert egf_coefficient(series_b, n) == poly_bernoulli_B(n, k), (n, k)
            assert egf_coefficient(series_c, n) == poly_bernoulli_C(n, k), (n, k)


def test_readme_series_snippet():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"Series work the same way:\s*```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(snippet.group(1), namespace)
    assert namespace["egf"][3] * factorial(3) == poly_bernoulli_B(3, 2)


def test_polynomial_egf_against_coefficient_route():
    for k in (-2, 0, 1, 3):
        for x in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2, 3)):
            series = egf_poly_bernoulli_polynomial(k, x, 10)
            for n in range(11):
                assert egf_coefficient(series, n) == poly_bernoulli_polynomial(n, k)(x)


def test_hand_computed_values():
    assert poly_bernoulli_B(1, 1) == Fraction(1, 2)
    assert poly_bernoulli_C(1, 1) == Fraction(-1, 2)
    assert poly_bernoulli_B(1, -1) == 2
    assert poly_bernoulli_B(2, -1) == 4
    assert poly_bernoulli_C(2, -1) == 1
    assert poly_bernoulli_B(0, 5) == 1


def test_powers_of_two_families():
    # B_m^(-1) = 2^m and C_n^(-2) = 2^{n+1} - 1, each matched both against
    # the closed form and the series oracle.
    series_b = egf_poly_bernoulli_B(-1, 15)
    series_c = egf_poly_bernoulli_C(-2, 15)
    for n in range(16):
        assert poly_bernoulli_B(n, -1) == 2 ** n
        assert egf_coefficient(series_b, n) == 2 ** n
        assert poly_bernoulli_C(n, -2) == 2 ** (n + 1) - 1
        assert egf_coefficient(series_c, n) == 2 ** (n + 1) - 1


def test_small_dualities():
    for m in range(21):
        for l in range(21):
            assert poly_bernoulli_B(m, -l) == poly_bernoulli_B(l, -m)
            assert poly_bernoulli_C(m, -l - 1) == poly_bernoulli_C(l, -m - 1)


def test_integrality_for_nonpositive_upper_index():
    for k in range(-6, 1):
        for n in range(13):
            b = poly_bernoulli_B(n, k)
            c = poly_bernoulli_C(n, k)
            assert b == int(b) and c == int(c), (n, k)


def test_classical_reductions():
    # upper index 0: the B flavor collapses to 1, the C flavor to delta_{n,0}
    for n in range(12):
        assert poly_bernoulli_B(n, 0) == 1
        assert poly_bernoulli_C(n, 0) == (1 if n == 0 else 0)
    # upper index 1: C_n^(1) = B_n and B_n^(1) = (-1)^n B_n
    for n in range(13):
        assert poly_bernoulli_C(n, 1) == bernoulli(n)
        assert poly_bernoulli_B(n, 1) == (-1) ** n * bernoulli(n)


def test_polynomial_interpolates_both_flavors():
    for k in range(-3, 4):
        for n in range(9):
            p = poly_bernoulli_polynomial(n, k)
            assert p(0) == poly_bernoulli_B(n, k)
            assert p(1) == poly_bernoulli_C(n, k)
            assert p.degree == n


def test_polynomial_at_integer_matches_double_sum():
    for k in range(-3, 3):
        for m in range(7):
            p = poly_bernoulli_polynomial(m, k)
            for n in range(7):
                assert p(n) == poly_bernoulli_at_integer(m, k, n)


def test_script_b_routes_agree():
    for m in range(9):
        for l in range(9):
            for n in range(5):
                assert script_B_def(m, l, n) == script_B_closed(m, l, n)


def test_script_b_boundary_rows():
    # at n = 0 the sum collapses to B_m^(-l); at n = 1 to C_m^(-l-1)
    for m in range(12):
        for l in range(12):
            assert script_B_def(m, l, 0) == poly_bernoulli_B(m, -l)
            assert script_B_def(m, l, 1) == poly_bernoulli_C(m, -l - 1)
    # and at m = l = 0 the closed form gives n!
    for n in range(8):
        assert script_B_closed(0, 0, n) == factorial(n)


@given(st.integers(0, 14), st.integers(0, 14), st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_script_b_symmetry_property(m, l, n):
    assert script_B_closed(m, l, n) == script_B_closed(l, m, n)
    assert script_B_closed(m, l, n) > 0


def test_rational_polynomial_basics():
    p = RationalPolynomial([Fraction(1, 2), 0, 3])
    assert p.degree == 2
    assert p(2) == Fraction(25, 2)
    assert p == RationalPolynomial([Fraction(1, 2), 0, 3, 0])
    assert hash(p) == hash(RationalPolynomial([Fraction(1, 2), 0, 3]))
    # int and Fraction spellings of the same polynomial are equal, hash equal
    q = RationalPolynomial([1, 2])
    spelled = RationalPolynomial([Fraction(1), Fraction(4, 2)])
    assert q == spelled and hash(q) == hash(spelled)
    assert q != RationalPolynomial([1, 2, 3])
    zero = RationalPolynomial([])
    assert zero.degree == 0 and zero(5) == 0
