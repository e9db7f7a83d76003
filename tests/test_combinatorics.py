"""Stirling/binomial layer: oracles, recurrences, orthogonality, threading."""

import subprocess
import sys
import threading
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybern.combinatorics import (
    _stirling_triangle,
    binomial,
    format_rational,
    rising_factorial,
    stirling_first,
    stirling_second,
)

# Frozen oracle rows (standard unsigned triangles).
STIRLING1_ROW5 = [24, 50, 35, 10, 1]  # [5 m] for m = 1..5
STIRLING2_ROW5 = [1, 15, 25, 10, 1]  # {5 m} for m = 1..5


def stirling2_inclusion_exclusion(n: int, m: int) -> int:
    """Independent route: {n m} = (1/m!) sum_i (-1)^i C(m,i) (m-i)^n."""
    if n == m == 0:
        return 1
    if m == 0 or m > n:
        return 0
    total = sum((-1) ** i * comb(m, i) * (m - i) ** n for i in range(m + 1))
    assert total % factorial(m) == 0
    return total // factorial(m)


def test_frozen_rows():
    assert [stirling_first(5, m) for m in range(1, 6)] == STIRLING1_ROW5
    assert [stirling_second(5, m) for m in range(1, 6)] == STIRLING2_ROW5
    assert stirling_second(6, 3) == 90
    assert stirling_first(0, 0) == stirling_second(0, 0) == 1
    assert stirling_first(4, 0) == stirling_second(4, 0) == 0
    assert stirling_first(3, 7) == stirling_second(3, 7) == 0


def test_second_kind_against_inclusion_exclusion():
    for n in range(13):
        for m in range(n + 2):
            assert stirling_second(n, m) == stirling2_inclusion_exclusion(n, m)


def test_recurrences_rebuilt_from_scratch():
    # [n+1 m] = [n m-1] + n [n m];  {n+1 m} = {n m-1} + m {n m}
    for n in range(25):
        for m in range(1, n + 2):
            assert stirling_first(n + 1, m) == stirling_first(n, m - 1) + n * stirling_first(n, m)
            assert (
                stirling_second(n + 1, m)
                == stirling_second(n, m - 1) + m * stirling_second(n, m)
            )


def test_first_kind_row_sums_are_factorials():
    for n in range(41):
        assert sum(stirling_first(n, m) for m in range(n + 1)) == factorial(n)


def test_rising_factorial_is_first_kind_ogf():
    # (x)_n = sum_j [n j] x^j at several exact points
    for x in (0, 1, -1, Fraction(1, 2), Fraction(-3, 7)):
        for n in range(26):
            expected = sum(stirling_first(n, j) * Fraction(x) ** j for j in range(n + 1))
            assert rising_factorial(x, n) == expected


def test_rising_factorial_type_and_edges():
    assert rising_factorial(3, 0) == 1
    assert isinstance(rising_factorial(2, 3), int)
    assert isinstance(rising_factorial(Fraction(1, 2), 3), Fraction)
    assert rising_factorial(1, 5) == factorial(5)
    with pytest.raises(ValueError):
        rising_factorial(1, -1)
    with pytest.raises(TypeError):
        rising_factorial(2.5, 2)


def orthogonality_check(n: int, m: int) -> int:
    """sum_{l=0}^{n} (-1)^l [n l] {l m}, which contracts to (-1)^n delta_{m,n}."""
    return sum((-1) ** l * stirling_first(n, l) * stirling_second(l, m) for l in range(n + 1))


def test_orthogonality():
    for n in range(26):
        for m in range(26):
            expected = (-1) ** n if n == m else 0
            assert orthogonality_check(n, m) == expected


def test_binomial():
    for n in range(12):
        for k in range(14):
            assert binomial(n, k) == comb(n, k)
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


def test_format_rational():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-3, 9)) == "-1/3"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(7) == "7"
    assert format_rational(Fraction(0)) == "0"


def test_format_rational_refuses_what_is_not_an_int_or_fraction():
    # a float would be rendered as its binary value, 0.1 as 3602879701896397/2^55
    for value in (0.1, 0.5, "1/2", None):
        with pytest.raises(TypeError, match="^format_rational needs an int or Fraction, got "):
            format_rational(value)


@given(st.integers(0, 60), st.integers(0, 60))
@settings(max_examples=120, deadline=None)
def test_triangle_support(n, m):
    # zero strictly above the diagonal, positive on 1 <= m <= n
    for fn in (stirling_first, stirling_second):
        value = fn(n, m)
        if m > n:
            assert value == 0
        elif m == 0:
            assert value == (1 if n == 0 else 0)
        else:
            assert value > 0


def test_tables_are_thread_safe():
    # Fresh tables, each grown and read by more threads than cores released at
    # once, with a short switch interval so that they interleave inside growth.
    def hammer(table, start, seed, errors):
        try:
            start.wait(60)
            for n in range(seed, 300, 7):
                expected = stirling_second(n, min(n, 3))
                assert table.row(n)[min(n, 3)] == expected
        except Exception as exc:  # pragma: no cover - only on race
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            table, start, errors = _stirling_triangle(first=False), threading.Barrier(8), []
            threads = [
                threading.Thread(target=hammer, args=(table, start, s, errors)) for s in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            assert not errors
    finally:
        sys.setswitchinterval(interval)


def stirling_rows_by_recurrence(n_max: int, first: bool) -> list[list[int]]:
    """Rows 0..n_max of one unsigned triangle, each row in full, by its recurrence."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        above = rows[-1] + [0]
        rows.append(
            [0] + [above[m - 1] + (n - 1 if first else m) * above[m] for m in range(1, n + 1)]
        )
    return rows


def test_stirling_readers_agree_under_concurrent_queries():
    # Cold tables in a fresh process and a short switch interval: six threads
    # (more than the cores) read rows of both kinds through the public
    # readers, which index the stored rows and grow the tables only on a miss,
    # half of them from the top index down and half from the bottom up.
    code = (
        "import sys, threading\n"
        "from polybern import stirling_first, stirling_second\n"
        "sys.setswitchinterval(1e-6)\n"
        "out = {}\n"
        "def work(w):\n"
        "    ns = range(w, 121, 6)\n"
        "    out[w] = [(n, [stirling_first(n, m) for m in range(n + 1)],\n"
        "               [stirling_second(n, m) for m in range(n + 1)])\n"
        "              for n in (ns[::-1] if w % 2 else ns)]\n"
        "threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(60)\n"
        "print(sum(t.is_alive() for t in threads))\n"
        "for w in sorted(out):\n"
        "    for n, first, second in out[w]:\n"
        "        print(n, *first, '|', *second)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    alive, *lines = proc.stdout.splitlines()
    assert alive == "0"
    first = stirling_rows_by_recurrence(120, first=True)
    second = stirling_rows_by_recurrence(120, first=False)
    assert sorted(lines) == sorted(
        " ".join(map(str, [n, *first[n], "|", *second[n]])) for n in range(121)
    )


def test_table_row_copies_are_isolated():
    # A lookup hands out the stored row, a tuple, so no caller can change it.
    table = _stirling_triangle(first=True)
    row = table.row(6)
    with pytest.raises(TypeError):
        row[0] = 999
    assert table.row(6) is row
    assert row == (0, 120, 274, 225, 85, 15, 1)
