"""Number-theory layer: route cross-checks, dualities, classical reductions.

The double-sum closed form is the primary route; the generating-function
expansions built on the series engine act as the independent oracle, since
they share no code path with the Stirling double sum.
"""

import re
import shlex
import subprocess
import sys
from fractions import Fraction
from functools import partial
from math import comb, factorial, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybern import cli, combinatorics, polybernoulli
from polybern.combinatorics import _FIRST, _SECOND, stirling_first, stirling_second
from polybern.polybernoulli import (
    _BERNOULLI_GENOCCHI,
    _POWER_TABLES,
    RationalPolynomial,
    _power_row,
    _stirling_vector,
    _weighted_stirling_vector,
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
from polybern.series import Series1, egf_coefficient, polylog_over_argument

from value_types import assert_value_typed, coefficient_types

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


def bernoulli_by_recurrence(n):
    """B_0..B_n from sum_{j<=m} C(m+1, j) B_j = 0, one Fraction at a time."""
    values = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * values[j]
        values.append(-acc / (m + 1))
    return values


def test_tangent_route_matches_bernoulli_recurrence():
    expected = bernoulli_by_recurrence(300)
    for n, value in enumerate(expected):
        got = bernoulli(n)
        assert type(got) is Fraction and got == value, n
        g = genocchi(n)
        assert type(g) is int and g == 2 * (1 - 2**n) * value, n
    with pytest.raises(ValueError):
        genocchi(-1)


def test_tables_grow_from_cold_in_any_order():
    # A fresh process, so the tables start empty and grow by at least half
    # their size from whichever index comes first.
    indices = [5, 300, 37, 0, 1, 2, 301, 3]
    code = (
        "import sys\n"
        "from polybern import bernoulli, genocchi\n"
        "for n in map(int, sys.argv[1:]):\n"
        "    print(repr(bernoulli(n)), genocchi(n))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, indices)],
        capture_output=True,
        text=True,
        check=True,
    )
    expected = bernoulli_by_recurrence(max(indices))
    lines = proc.stdout.splitlines()
    assert lines == [f"{expected[n]!r} {2 * (1 - 2**n) * expected[n]}" for n in indices]


def test_tables_hold_at_most_half_again_the_rows_asked():
    # Queries 0..300 of the Bernoulli table in a fresh process, and widths
    # 1..301 of one cleared power table: growing by half, neither table holds
    # more than 1.5 times the 301 rows asked; doubling would build 512.
    code = (
        "from polybern.polybernoulli import (\n"
        "    _BERNOULLI_GENOCCHI, _POWER_TABLES, _power_row, bernoulli)\n"
        "for n in range(301):\n"
        "    bernoulli(n)\n"
        "_POWER_TABLES.clear()\n"
        "for w in range(1, 302):\n"
        "    _power_row(5, w)\n"
        "print(len(_BERNOULLI_GENOCCHI.rows(0)), len(_POWER_TABLES[5].rows(0)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    sizes = list(map(int, proc.stdout.split()))
    assert len(sizes) == 2 and all(301 <= size <= 301 * 3 // 2 for size in sizes), sizes


def test_tables_grow_consistently_under_concurrent_queries():
    # Cold tables in a fresh process and a short switch interval: six threads
    # (more than the cores) grow and read both tables at once, half of them
    # from the top index down and half from the bottom up.
    code = (
        "import sys, threading\n"
        "from polybern import bernoulli, genocchi\n"
        "sys.setswitchinterval(1e-6)\n"
        "out = {}\n"
        "def work(w):\n"
        "    ns = range(w, 241, 6)\n"
        "    out[w] = [(n, bernoulli(n), genocchi(n)) for n in (ns[::-1] if w % 2 else ns)]\n"
        "threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(60)\n"
        "print(sum(t.is_alive() for t in threads))\n"
        "for w in sorted(out):\n"
        "    for n, b, g in out[w]:\n"
        "        print(n, repr(b), g)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    alive, *lines = proc.stdout.splitlines()
    assert alive == "0"
    expected = bernoulli_by_recurrence(240)
    assert sorted(lines) == sorted(
        f"{n} {expected[n]!r} {2 * (1 - 2**n) * expected[n]}" for n in range(241)
    )


def egf_genocchi(order: int) -> Series1:
    """EGF 2t/(e^t + 1) of the Genocchi numbers."""
    t = Series1.variable(order)
    return (2 * t) * (t.exp() + 1).inverse()


def test_classical_egfs_extract_back():
    eb = egf_bernoulli(12)
    eg = egf_genocchi(12)
    assert_value_typed(eb)  # 1 and the zero odd-index values are ints
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


@pytest.mark.parametrize("k", range(-6, 7))
def test_b_egf_matches_the_polylog_sum(k):
    # The polylog sum at order 64, cut to each order, is the sum at that order.
    oracle = polylog_over_argument(k, 1 - Series1.exponential(-1, 64))
    for order in range(65):
        got, expected = egf_poly_bernoulli_B(k, order), oracle.truncate(order)
        assert got == expected and got.order == order, (k, order)
        assert coefficient_types(got) == coefficient_types(expected), (k, order)


def test_egf_builders_read_no_stirling_numbers(monkeypatch):
    # Stirling numbers would make the generating functions a restatement of
    # the closed formula that every check compares them against.
    def build():
        return [
            (egf_poly_bernoulli_B(k, 20), egf_poly_bernoulli_C(k, 20),
             egf_poly_bernoulli_polynomial(k, Fraction(1, 2), 20))
            for k in (-3, 0, 3)
        ]

    def poisoned(n):
        raise AssertionError(f"a generating function read Stirling row {n}")

    class PoisonedRows:
        # stirling_first and stirling_second index the stored rows directly
        # and call row() only to grow the table.
        def __getitem__(self, n):
            poisoned(n)

    expected = build()
    for table in (_FIRST, _SECOND):
        # setitem, not setattr: undoing it removes the instance attributes
        # rather than leaving the bound methods behind on the tables.
        monkeypatch.setitem(vars(table), "row", poisoned)
        monkeypatch.setitem(vars(table), "rows", poisoned)
    monkeypatch.setattr(combinatorics, "_FIRST_ROWS", PoisonedRows())
    monkeypatch.setattr(combinatorics, "_SECOND_ROWS", PoisonedRows())
    assert build() == expected


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
README_COMMANDS = [
    line.split("#")[0].strip()
    for block in re.findall(r"```sh\n(.*?)```", README, re.S)
    for line in block.splitlines()
    if line.startswith("polybern ")
]


def run_readme_python_block(after: str) -> tuple[dict, str]:
    """Run the first python block after the text ``after``: its namespace and its text."""
    block = re.search(re.escape(after) + r"\s*```python\n(.*?)```", README, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    return namespace, block


def check_readme_quickstart():
    # A line `expression  # value` claims that value, when the comment up to
    # its first double space is itself an expression.
    namespace, block = run_readme_python_block("## Library quickstart")
    claimed = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            value = eval(comment.strip().split("  ")[0], namespace)
        except (SyntaxError, NameError):
            continue
        got = eval(code, namespace)
        assert type(got) is type(value) and got == value, line
        claimed.append(code.strip())
    assert claimed == [
        "bernoulli(12)",
        "genocchi(8)",
        "poly_bernoulli_B(5, -1)",
        "poly_bernoulli_C(5, -2)",
        "report.passed",
        "report.checked_count",
    ]


def test_readme_series_snippet():
    namespace, _ = run_readme_python_block("Series work the same way:")
    assert namespace["egf"][3] * factorial(3) == poly_bernoulli_B(3, 2)


def check_readme_command(command):
    assert cli.run(shlex.split(command)[1:]) == 0


README_EXAMPLES = {
    "quickstart": check_readme_quickstart,
    **{command: partial(check_readme_command, command) for command in README_COMMANDS},
}


@pytest.mark.parametrize("example", README_EXAMPLES)
def test_readme_examples(example):
    README_EXAMPLES[example]()


def test_polynomial_egf_against_coefficient_route():
    for k in (-2, 0, 1, 3):
        for x in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2, 3)):
            series = egf_poly_bernoulli_polynomial(k, x, 10)
            for n in range(11):
                assert egf_coefficient(series, n) == poly_bernoulli_polynomial(n, k)(x)


@pytest.mark.parametrize(
    "egf,args",
    [
        (egf_poly_bernoulli_B, (3,)),
        (egf_poly_bernoulli_C, (3,)),
        (egf_poly_bernoulli_polynomial, (Fraction(1, 2), 3)),
    ],
)
def test_egf_builders_name_an_inexact_order(egf, args):
    with pytest.raises(TypeError, match=r"^order must be an int, got 1\.0$"):
        egf(1.0, *args)


def test_polynomial_egf_takes_exact_arguments_only():
    # A rational string, as the CLI passes it, is the exact number it names;
    # a float is refused, as the polynomial itself refuses it.
    assert egf_poly_bernoulli_polynomial(1, "-1/3", 6) == egf_poly_bernoulli_polynomial(
        1, Fraction(-1, 3), 6
    )
    for x in (0.1, 0.5, None):
        with pytest.raises(TypeError, match="^argument must be int, Fraction or a rational"):
            egf_poly_bernoulli_polynomial(1, x, 3)


def test_polynomial_egf_names_a_string_that_is_not_a_finite_rational():
    for x in ("1/0", "-3/0", "abc", "inf", "nan", ""):
        with pytest.raises(ValueError, match=r"^x must be a finite rational, got "):
            egf_poly_bernoulli_polynomial(1, x, 3)


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


def at_integer_by_double_sum(m, k, n):
    """The Stirling double sum, one Stirling lookup per term."""
    acc = 0
    for q in range(1, m + 2):
        weight = Fraction(factorial(q - 1), q**k) if k > 0 else factorial(q - 1) * q ** (-k)
        for i in range(n + 1):
            term = weight * stirling_first(n, i) * stirling_second(m + i, n + q - 1)
            acc += -term if (m + n + q - i - 1) % 2 else term
    return acc


def test_stirling_vector_route_matches_double_sum():
    for m in range(13):
        for n in range(5):
            for k in range(-6, 5):
                got = poly_bernoulli_at_integer(m, k, n)
                assert type(got) is (Fraction if k > 0 else int), (m, k, n)
                assert got == at_integer_by_double_sum(m, k, n), (m, k, n)


def test_c_numbers_match_polynomial_at_one():
    for n in range(16):
        for k in range(-8, 6):
            got = poly_bernoulli_C(n, k)
            expected = poly_bernoulli_polynomial(n, k)(1)
            assert type(got) is type(expected) and got == expected, (n, k)
    with pytest.raises(ValueError):
        poly_bernoulli_C(-1, 0)


def test_polynomial_at_integer_matches_double_sum():
    for k in range(-3, 3):
        for m in range(7):
            p = poly_bernoulli_polynomial(m, k)
            for n in range(7):
                assert p(n) == poly_bernoulli_at_integer(m, k, n)


def at_integer_by_term_loop(m, k, n):
    """poly_bernoulli_at_integer by one power per term of the Stirling vector."""
    vector = _stirling_vector(m, n)
    if k <= 0:
        return sum(v * q**-k for q, v in enumerate(vector, 1))
    base = lcm(*range(1, m + 2))
    return Fraction(sum(v * (base // q) ** k for q, v in enumerate(vector, 1)), base**k)


def script_b_closed_by_term_loop(m, l, n):
    """script_B_closed by one product of two Stirling numbers per term."""
    acc, weight = 0, factorial(n)  # weight = j! (j+n)!
    for j in range(min(l, m) + 1):
        acc += weight * stirling_second(l + 1, j + 1) * stirling_second(m + 1, j + 1)
        weight *= (j + 1) * (j + n + 1)
    return acc


def assert_at_integer_matches_term_loop(m, k, n):
    got = poly_bernoulli_at_integer(m, k, n)
    assert type(got) is (Fraction if k > 0 else int), (m, k, n)
    assert got == at_integer_by_term_loop(m, k, n), (m, k, n)


def test_at_integer_matches_the_term_loop_on_the_session_box():
    for n in (0, 1):
        for m in range(41):
            for k in range(-60, 13):
                assert_at_integer_matches_term_loop(m, k, n)
    for n in range(2, 9):
        for m in range(9):
            for k in range(-20, 9):
                assert_at_integer_matches_term_loop(m, k, n)


def test_script_b_closed_matches_the_term_loop():
    for n in range(9):
        for m in range(34):
            for l in range(34):
                got = script_B_closed(m, l, n)
                assert type(got) is int and got == script_b_closed_by_term_loop(m, l, n), (m, l, n)


@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(-60, 12), st.integers(0, 8)),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_power_rows_grow_from_any_query_order(queries):
    # Cold rows asked in random order: a row starts at the width of whichever
    # degree comes first and is then extended from the middle.
    poly_bernoulli_at_integer.cache_clear()
    _POWER_TABLES.clear()
    for m, k, n in queries:
        assert_at_integer_matches_term_loop(m, k, n)


def test_power_rows_are_one_stored_list_per_exponent():
    # Every width reads the same growing list of table K, never a copy.
    row = _power_row(7, 3)
    assert _power_row(7, 1) is row and _power_row(7, 50) is row
    assert row[:50] == [q**7 for q in range(1, 51)]


def test_power_rows_grow_consistently_under_concurrent_queries():
    # Cold rows in a fresh process and a short switch interval: six threads
    # ask the same exponents at widths growing in one thread and shrinking in
    # the next, and every row handed out must hold exact powers.
    code = (
        "import sys, threading\n"
        "from polybern.polybernoulli import _power_row\n"
        "sys.setswitchinterval(1e-6)\n"
        "bad = []\n"
        "def work(w):\n"
        "    widths = range(1 + w, 200, 6)\n"
        "    for width in widths[::-1] if w % 2 else widths:\n"
        "        for K in range(0, 40, 3):\n"
        "            row = _power_row(K, width)\n"
        "            if len(row) < width or any(r != q**K for q, r in enumerate(row, 1)):\n"
        "                bad.append((K, width))\n"
        "threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(60)\n"
        "print(sum(t.is_alive() for t in threads), len(bad))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    assert proc.stdout.split() == ["0", "0"]


def test_script_b_def_caches_each_argument_order_apart():
    # The duality check compares script_B_def(m, l, n) with script_B_def(l, m, n):
    # a key that sorted m and l would compare one cached value with itself.
    script_B_def.cache_clear()
    assert script_B_def(2, 5, 3) == script_B_def(5, 2, 3)
    info = script_B_def.cache_info()
    assert (info.hits, info.misses) == (0, 2)


CACHED_ROUTES = (
    poly_bernoulli_at_integer,
    poly_bernoulli_polynomial,
    script_B_def,
    script_B_closed,
    _stirling_vector,
    _weighted_stirling_vector,
)


# The float in each argument tuple is the inexact index, at its position.
@pytest.mark.parametrize(
    "route,args",
    [
        (poly_bernoulli_at_integer, (2.0, 1, 1)),
        (poly_bernoulli_at_integer, (2.0, -1, 0)),
        (poly_bernoulli_polynomial, (2.0, 1)),
        (script_B_def, (2.0, 1, 1)),
        (script_B_closed, (2.0, 1, 1)),
        (poly_bernoulli_at_integer, (2, -1.0, 0)),
        (poly_bernoulli_at_integer, (2, 1.0, 1)),
        (poly_bernoulli_C, (3, -2.0)),
        (script_B_def, (2, 1.0, 0)),
        (script_B_closed, (2, 1, 1.0)),
        (_weighted_stirling_vector, (2.0, 1)),
        (_weighted_stirling_vector, (2, 1.0)),
    ],
)
def test_cached_route_answers_alike_cold_and_warm(route, args):
    # 2.0 equals 2 and hashes alike, but it is no index: it must raise
    # TypeError whether or not the cache already holds the answer for 2,
    # at every position and for negative and positive orders alike.
    exact = tuple(int(a) for a in args)
    for cached in CACHED_ROUTES:
        cached.cache_clear()
    with pytest.raises(TypeError):
        route(*args)
    value = route(*exact)
    with pytest.raises(TypeError):
        route(*args)
    assert route(*exact) == value


# The uncached table readers, each with one inexact index.
@pytest.mark.parametrize(
    "reader,args",
    [
        ("bernoulli", (2.0,)),
        ("genocchi", (2.0,)),
        ("stirling_first", (3.0, 1)),
        ("stirling_second", (3, 1.0)),
    ],
)
def test_table_reader_rejects_an_inexact_index_cold_and_warm(reader, args):
    # A fresh process, so the row for the exact index is not yet stored: the
    # inexact index must raise TypeError both before and after it is, while
    # the bool True still reads as the index 1.
    code = (
        "import polybern\n"
        f"reader, args = polybern.{reader}, {args!r}\n"
        "def inexact():\n"
        "    try:\n"
        "        reader(*args)\n"
        "    except TypeError:\n"
        "        return 'TypeError'\n"
        "    return 'no error'\n"
        "cold = inexact()\n"
        "reader(*map(int, args))\n"
        "print(cold, inexact(), polybern.bernoulli(True) == polybern.bernoulli(1))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    assert proc.stdout.split() == ["TypeError", "TypeError", "True"]


# Each uncached table reader as a function of its row n, the entry of a
# stored row that it reads, its table, and the module name bound to the
# table's list of stored rows.
STORED_ROW_READERS = {
    "stirling_first": (
        lambda n: stirling_first(n, n // 2), lambda row, n: row[n // 2],
        _FIRST, combinatorics, "_FIRST_ROWS",
    ),
    "stirling_second": (
        lambda n: stirling_second(n, n // 2), lambda row, n: row[n // 2],
        _SECOND, combinatorics, "_SECOND_ROWS",
    ),
    "bernoulli": (
        bernoulli, lambda row, n: row[0],
        _BERNOULLI_GENOCCHI, polybernoulli, "_BERNOULLI_GENOCCHI_ROWS",
    ),
    "genocchi": (
        genocchi, lambda row, n: row[1],
        _BERNOULLI_GENOCCHI, polybernoulli, "_BERNOULLI_GENOCCHI_ROWS",
    ),
}


@pytest.mark.parametrize("reader", STORED_ROW_READERS)
def test_warm_reads_index_the_stored_rows(reader, monkeypatch):
    # A stored row is read from the table's own list, without a call of
    # row(); a read one past the stored rows grows the table through row(),
    # which extends that same list in place.
    read, entry, table, module, binding = STORED_ROW_READERS[reader]
    table.row(40)
    calls = []
    unpatched = table.row

    def counted(n):
        calls.append(n)
        return unpatched(n)

    monkeypatch.setitem(vars(table), "row", counted)
    rows = table.rows(0)
    assert getattr(module, binding) is rows
    assert [read(n) for n in range(len(rows))] == [entry(row, n) for n, row in enumerate(rows)]
    assert calls == []
    n = len(rows)
    value = read(n)
    assert calls == [n]
    assert len(rows) > n and value == entry(table.row(n), n)
    assert getattr(module, binding) is table.rows(0) is rows


@pytest.mark.parametrize("reader,table", [(stirling_first, _FIRST), (stirling_second, _SECOND)])
def test_stirling_is_zero_above_the_diagonal_without_a_read(reader, table):
    # m past the stored row n, and n past the stored rows: 0, and no growth.
    stored = len(table.rows(0))
    assert reader(3, 7) == 0
    assert reader(3, stored + 7) == 0
    assert reader(stored + 1, stored + 2) == 0
    assert len(table.rows(0)) == stored


def test_script_b_def_names_the_inexact_l_cold_and_warm():
    script_B_def.cache_clear()
    with pytest.raises(TypeError, match=r"^l must be an int, got 1\.0$"):
        script_B_def(2, 1.0, 0)
    script_B_def(2, 1, 0)
    with pytest.raises(TypeError, match=r"^l must be an int, got 1\.0$"):
        script_B_def(2, 1.0, 0)


@pytest.mark.parametrize(
    "fn,args,message",
    [
        (stirling_first, (-1, 0), "Stirling indices must be non-negative"),
        (stirling_second, (0, -1), "Stirling indices must be non-negative"),
        (stirling_first, (2, -3), "Stirling indices must be non-negative"),
        (bernoulli, (-1,), "index must be non-negative"),
        (genocchi, (-1,), "index must be non-negative"),
        (poly_bernoulli_at_integer, (-1, 0, 0), "degree and evaluation point must be non-negative"),
        (poly_bernoulli_at_integer, (0, 0, -1), "degree and evaluation point must be non-negative"),
        (poly_bernoulli_C, (-1, 0), "degree and evaluation point must be non-negative"),
        (poly_bernoulli_polynomial, (-1, 0), "degree must be non-negative"),
        (script_B_def, (-1, 0, 0), "all three indices must be non-negative"),
        (script_B_closed, (0, -1, 0), "all three indices must be non-negative"),
        (stirling_second, (-1, -1), "Stirling indices must be non-negative"),
    ],
)
def test_negative_index_raises_value_error(fn, args, message):
    # On warm tables: the table readers index their stored lists, which
    # would wrap -1 to the last stored row.
    bernoulli(30)
    stirling_first(30, 0)
    stirling_second(30, 0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        fn(*args)


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


def value_by_horner(coeffs, x):
    """The value of a coefficient list at x by Horner's rule on the numbers as given."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


POLYNOMIAL_COEFFS = [
    [],
    [0],
    [-3],
    [1, -2, 0, 5],
    [Fraction(1, 2), 0, -3],
    [2, Fraction(3, 1)],
    [Fraction(4, 1), Fraction(-2, 1)],
    [Fraction(-1, 3), Fraction(5, 6), Fraction(7, 4), 2, Fraction(-9, 10)],
]
POLYNOMIAL_POINTS = [0, 1, -1, 3, -7, True, False, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 1)]


def test_polynomial_values_and_types_match_horner_on_the_numbers():
    # The value comes from integer numerators; it must equal Horner's rule on
    # the coefficients themselves, and be an int exactly when that is.
    polynomials = [RationalPolynomial(cs) for cs in POLYNOMIAL_COEFFS]
    polynomials += [poly_bernoulli_polynomial(n, k) for n in range(12) for k in (-3, 0, 2)]
    for p in polynomials:
        for x in POLYNOMIAL_POINTS:
            got, expected = p(x), value_by_horner(p.coeffs, x)
            assert type(got) is type(expected) and got == expected, (p, x)
    assert type(RationalPolynomial([1, 2])(3)) is int
    assert type(RationalPolynomial([1, Fraction(2, 1)])(3)) is Fraction
    assert type(RationalPolynomial([1, 2])(Fraction(3, 1))) is Fraction


def test_polynomial_with_bool_and_whole_fraction_coefficients():
    # Neither bool nor Fraction(n, 1) is exactly an int, so both take the
    # common-denominator route; bool still counts as int for the value type.
    flags = RationalPolynomial([True, False, True])  # 1 + x^2
    assert flags.coeffs == (True, False, True)
    assert type(flags(3)) is int and flags(3) == 10
    assert type(flags(Fraction(1, 2))) is Fraction and flags(Fraction(1, 2)) == Fraction(5, 4)
    whole = RationalPolynomial([Fraction(2, 1), True, Fraction(-3, 1)])  # 2 + x - 3x^2
    assert type(whole(3)) is Fraction and whole(3) == -22
    assert type(whole(Fraction(-1, 3))) is Fraction and whole(Fraction(-1, 3)) == Fraction(4, 3)


def test_polynomial_rejects_inexact_numbers():
    with pytest.raises(TypeError):
        RationalPolynomial([1, 2])(0.5)
    with pytest.raises(TypeError):
        RationalPolynomial([1, 0.5])
    with pytest.raises(TypeError):
        RationalPolynomial([1, 2])("1/2")


def polynomial_by_coefficient_formula(n, k):
    """sum_d (-1)^d C(n, d) B_(n-d)^(k) x^d, the coefficients built afresh."""
    return RationalPolynomial(
        [(-1) ** d * comb(n, d) * poly_bernoulli_B(n - d, k) for d in range(n + 1)]
    )


def test_poly_bernoulli_polynomial_is_one_shared_immutable_instance():
    for n in range(10):
        for k in range(-4, 4):
            p = poly_bernoulli_polynomial(n, k)
            assert p is poly_bernoulli_polynomial(n, k)
            expected = polynomial_by_coefficient_formula(n, k)
            assert p == expected
            assert [type(c) for c in p.coeffs] == [type(c) for c in expected.coeffs]
    with pytest.raises(AttributeError):
        p.coeffs = (1,)
