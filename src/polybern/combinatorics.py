"""Exact integer combinatorics: Stirling triangles, binomials, factorials.

All values are plain Python ints (arbitrary precision), so everything here
is exact at any index reachable in practice.  The two Stirling triangles are
growing tables, memoized for the process lifetime and grown on demand under
a lock, so concurrent readers always see a consistent triangle;
``polybernoulli`` keeps the Bernoulli and Genocchi numbers, and the powers
q^K of each exponent K, in tables of the same type.  A table's list of
stored rows is only ever extended in place, never replaced, so
``stirling_first`` and ``stirling_second`` index it directly, as
``bernoulli`` and ``genocchi`` index theirs, and call ``row()`` only to grow
the table or to raise.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial, prod


class _GrowingTable:
    """Rows 0, 1, 2, ... of an exact table, built on demand for the process lifetime.

    ``build(rows, stop)`` returns the rows ``len(rows)`` to ``stop - 1``,
    and may read the rows before them.  The table grows by at least half its
    size at a time, so that the queries 0, 1, 2, ... build only O(log n)
    times and it never holds more than 1.5 times the rows asked for.
    Growth runs under a lock, and its rows are published by one
    ``list.extend`` once all are built, so a reader never sees a partial
    growth.  The list is only ever extended in place, never replaced, so a
    reader may bind ``rows(0)`` once and index it without the lock: the
    Stirling, Bernoulli and Genocchi readers do, and call ``row()`` only to
    grow the table or to raise.  Rows are immutable values, tuples or ints,
    so a lookup hands out the stored row itself; the stored rows handed out
    are read-only.
    """

    def __init__(self, rows, build):
        self._rows = list(rows)
        self._build = build
        self._lock = threading.Lock()

    def row(self, n: int) -> tuple:
        rows = self._rows
        if 0 <= n < len(rows):
            return rows[n]
        if n < 0:
            raise ValueError("index must be non-negative")
        with self._lock:
            if n >= len(rows):
                rows.extend(self._build(rows, max(n + 1, len(rows) + len(rows) // 2)))
        return rows[n]

    def rows(self, n: int) -> list:
        """The stored rows, at least n of them: the table's own list, to be read only."""
        if n > len(self._rows):
            self.row(n - 1)
        return self._rows


def _stirling_triangle(first: bool) -> _GrowingTable:
    """Unsigned Stirling numbers of one kind; row n holds the values for m = 0..n.

    The first kind satisfies [k m] = [k-1 m-1] + (k-1) [k-1 m], the second
    kind {k m} = {k-1 m-1} + m {k-1 m}, both with a single 1 in row 0.
    """

    def build(rows, stop):
        new, prev = [], rows[-1]
        for k in range(len(rows), stop):
            above = (*prev, 0)
            prev = (
                0,
                *(above[m - 1] + (k - 1 if first else m) * above[m] for m in range(1, k + 1)),
            )
            new.append(prev)
        return new

    return _GrowingTable([(1,)], build)


_FIRST = _stirling_triangle(first=True)
_SECOND = _stirling_triangle(first=False)
# The tables' own lists of stored rows; a negative index is rejected before
# they are read, since it would wrap to the last stored row.
_FIRST_ROWS = _FIRST.rows(0)
_SECOND_ROWS = _SECOND.rows(0)


def stirling_first(n: int, m: int) -> int:
    """Unsigned Stirling number of the first kind [n m]; 0 when m > n."""
    if n < 0 or m < 0:
        raise ValueError("Stirling indices must be non-negative")
    if m > n:
        return 0
    try:
        return _FIRST_ROWS[n][m]
    except IndexError:
        return _FIRST.row(n)[m]


def stirling_second(n: int, m: int) -> int:
    """Stirling number of the second kind {n m}; 0 when m > n."""
    if n < 0 or m < 0:
        raise ValueError("Stirling indices must be non-negative")
    if m > n:
        return 0
    try:
        return _SECOND_ROWS[n][m]
    except IndexError:
        return _SECOND.row(n)[m]


def binomial(n: int, k: int) -> int:
    """C(n, k) for n, k >= 0; 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be non-negative")
    return comb(n, k)


def rising_factorial(x, n: int):
    """(x)_n = x (x+1) ... (x+n-1); the empty product for n = 0.

    Accepts int or Fraction and returns the same flavour of exact number;
    any other x raises TypeError.  Equals sum_j stirling_first(n, j) * x**j.
    """
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"rising_factorial needs an int or Fraction x, got {x!r}")
    if n < 0:
        raise ValueError("rising factorial length must be non-negative")
    return prod((x + i for i in range(n)), start=x**0)  # x**0 is one of x's type


def format_rational(value) -> str:
    """Render an exact number as 'p/q' in lowest terms, or 'p' for integers."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"format_rational needs an int or Fraction, got {value!r}")
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


__all__ = [
    "stirling_first",
    "stirling_second",
    "binomial",
    "factorial",
    "rising_factorial",
    "format_rational",
]
