"""Coefficient types of series results, shared by the series and identity tests.

A coefficient that an integer series kernel computes (a product, an inverse of
a Series2, a linear combination, the polylog sum) is an int exactly when its
value is an integer; ``assert_value_typed`` checks that of a result.
"""

from fractions import Fraction

from polybern.series import Series2


def coefficient_rows(s):
    """The coefficient rows of a Series1 (one row) or a Series2."""
    return s.coeffs if isinstance(s, Series2) else (s.coeffs,)


def coefficient_types(s):
    """The type of every coefficient of s, row by row."""
    return [[type(c) for c in row] for row in coefficient_rows(s)]


def assert_value_typed(s):
    """Every coefficient of s is an int if its value is an integer, else a Fraction."""
    for row in coefficient_rows(s):
        for c in row:
            assert type(c) is (int if c.denominator == 1 else Fraction), (c, s)
