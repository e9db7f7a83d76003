"""Identity-verification layer: every check passes, and every check can fail.

Each verifier is exercised twice — once clean, once with a single +1
injected into one compared left-hand side by ``faults.run_mutated`` — so a
check that silently compares nothing (or compares a value with itself)
cannot slip through.  ``test_route_faults.py`` faults the routes each side
reads.
"""

import inspect
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybern import identities as idn
from polybern.identities import (
    IDENTITY_IDS,
    REGISTRY,
    Counterexample,
    ParameterError,
    VerificationReport,
    verify_all,
    verify_one,
)
from polybern.combinatorics import rising_factorial, stirling_first
from polybern.polybernoulli import bernoulli, genocchi, poly_bernoulli_B
from polybern.series import DomainError, Series1, Series2, product_xy

from faults import run_mutated
from value_types import coefficient_types

# Moderate bounds keep the clean+mutated double pass quick.
SMALL = {
    "duality": dict(max_l=8, max_m=8, max_n=3),
    "egf": dict(n=2, order=8),
    "ogf": dict(n=2, order=8),
    "trivariate": dict(order=5),
    "stirling-expansion": dict(n=2, r=4, order=8),
    "kernel-closed-form": dict(n=2, order=8),
    "alternating-b-sum": dict(max_n=12),
    "genocchi-sum": dict(max_n=12),
    "beta1-funceq": dict(order=16),
    "g1-funceq": dict(order=16),
    "f2-funceq": dict(order=16),
    "funceq-remainder": dict(n=2, order=16),
    "uniqueness-recursion": dict(max_m=16),
}

# One representative checked location per compared coefficient family.
MUTATIONS = [
    ("duality", SMALL["duality"], (("l", 0), ("m", 0), ("n", 0))),
    ("duality", SMALL["duality"], (("l", 2), ("m", 1), ("n", 3))),
    ("egf", SMALL["egf"], (("l", 0), ("m", 0))),
    ("ogf", SMALL["ogf"], (("part", "q-route"), ("j", 0), ("i", 0))),
    ("ogf", SMALL["ogf"], (("part", "sum"), ("l", 0), ("m", 0))),
    ("trivariate", SMALL["trivariate"], (("n", 0), ("i", 0), ("j", 0))),
    ("trivariate", SMALL["trivariate"], (("n", 2), ("i", 1), ("j", 1))),
    ("stirling-expansion", SMALL["stirling-expansion"], (("part", "A"), ("m", 0))),
    ("stirling-expansion", SMALL["stirling-expansion"], (("part", "B"), ("m", 3))),
    ("kernel-closed-form", SMALL["kernel-closed-form"], (("i", 0), ("j", 0))),
    ("alternating-b-sum", SMALL["alternating-b-sum"], (("n", 1),)),
    ("genocchi-sum", SMALL["genocchi-sum"], (("part", "main"), ("n", 0))),
    ("genocchi-sum", SMALL["genocchi-sum"], (("part", "variant"), ("n", 4))),
    ("beta1-funceq", SMALL["beta1-funceq"], (("i", 0),)),
    ("g1-funceq", SMALL["g1-funceq"], (("i", 5),)),
    ("f2-funceq", SMALL["f2-funceq"], (("part", "bridge"), ("i", 0))),
    ("f2-funceq", SMALL["f2-funceq"], (("part", "f1-form"), ("i", 2))),
    ("f2-funceq", SMALL["f2-funceq"], (("part", "f2-form"), ("i", 0))),
    ("funceq-remainder", SMALL["funceq-remainder"], (("i", 0),)),
    (
        "funceq-remainder",
        dict(n=2, mode="sample"),
        (("x", Fraction(1, 100)),),
    ),
    ("uniqueness-recursion", SMALL["uniqueness-recursion"], (("part", "recursion"), ("m", 2))),
    ("uniqueness-recursion", SMALL["uniqueness-recursion"], (("part", "rewritten"), ("m", 2))),
    ("uniqueness-recursion", SMALL["uniqueness-recursion"], (("part", "unique"), ("n", 1))),
]


@pytest.mark.parametrize("identity_id", IDENTITY_IDS)
def test_each_identity_passes(identity_id):
    report = verify_one(identity_id, **SMALL[identity_id])
    assert report.passed
    assert report.counterexample is None
    assert report.checked_count > 0
    assert report.identity_id == identity_id


@pytest.mark.parametrize("identity_id,kwargs,location", MUTATIONS)
def test_mutation_flips_to_located_failure(monkeypatch, identity_id, kwargs, location):
    mutated = run_mutated(monkeypatch, identity_id, kwargs, location)
    assert not mutated.passed
    assert isinstance(mutated.counterexample, Counterexample)
    assert mutated.counterexample.location == location
    assert mutated.counterexample.lhs != mutated.counterexample.rhs


@pytest.mark.parametrize(
    "location",
    [
        (("i", 99),),  # index beyond the compared range
        (("j", 0),),  # key the verifier never uses
    ],
)
def test_mutation_of_uncompared_location_is_rejected(monkeypatch, location):
    with pytest.raises(AssertionError, match="not a compared location"):
        run_mutated(monkeypatch, "beta1-funceq", dict(order=10), location)


@pytest.mark.parametrize(
    "identity_id,kwargs", [*SMALL.items(), ("funceq-remainder", dict(n=2, mode="sample"))]
)
def test_report_parameters_are_what_bind_returns(identity_id, kwargs):
    entry = REGISTRY[identity_id]
    assert entry.runner(**kwargs).parameters == entry.bind(**kwargs)


def test_remainder_bind_returns_the_arguments_of_its_mode():
    bind = REGISTRY["funceq-remainder"].bind
    assert bind() == {"n": 4, "mode": "series", "order": 30}
    default_points = ["1/100", "1/97", "-1/101"]
    assert bind(mode="sample") == {"n": 4, "mode": "sample", "points": default_points}
    points = [Fraction(2, 100), "-3/27", 2]
    assert bind(2, "sample", points=points)["points"] == ["1/50", "-1/9", "2"]


def test_reports_are_deterministic():
    a = verify_one("duality", max_l=5, max_m=5, max_n=2)
    b = verify_one("duality", max_l=5, max_m=5, max_n=2)
    assert a == b
    # the wall time is reported but not compared
    assert all(isinstance(r.elapsed_s, float) and r.elapsed_s >= 0 for r in (a, b))


def test_unknown_identity_and_parameter():
    with pytest.raises(ParameterError, match="valid ids"):
        verify_one("nonsense")
    with pytest.raises(ParameterError, match="does not accept"):
        verify_one("duality", order=5)
    with pytest.raises(ParameterError, match="does not accept"):
        verify_one("beta1-funceq", mutate_at=(("i", 0),))
    # the registered verifier itself checks its argument names
    with pytest.raises(ParameterError, match="^identity 'duality' does not accept parameter"):
        idn.verify_duality(order=5)
    with pytest.raises(ParameterError, match="does not accept parameter 'mutate_at'"):
        idn.verify_beta1_funceq(10, mutate_at=(("i", 0),))


def test_each_run_binds_its_arguments_once(monkeypatch):
    # Counted by the point parses of funceq-remainder's check: one bind in
    # sample mode parses the three default points.
    parsed = []
    parse = idn._sample_point
    monkeypatch.setattr(idn, "_sample_point", lambda point: parsed.append(point) or parse(point))
    for run, binds in (
        (lambda: idn.verify_funceq_remainder(mode="sample"), 1),
        (lambda: verify_one("funceq-remainder", mode="sample"), 1),
        (lambda: verify_all({"funceq-remainder": {"mode": "sample"}}), 2),  # checked up front
    ):
        parsed.clear()
        assert run()
        assert len(parsed) == 3 * binds
    with pytest.raises(
        ParameterError, match="^identity 'beta1-funceq' does not accept parameter 'mutate_at'$"
    ):
        verify_one("beta1-funceq", mutate_at=(("i", 0),))


@pytest.mark.parametrize(
    "identity_id,kwargs",
    [
        ("egf", dict(order=1)),
        ("ogf", dict(order=0)),
        ("trivariate", dict(order=0)),
        ("stirling-expansion", dict(n=5, r=3)),
        ("stirling-expansion", dict(r=-1)),
        ("beta1-funceq", dict(order=1)),
        ("g1-funceq", dict(order=2)),
        ("f2-funceq", dict(order=3)),
        ("uniqueness-recursion", dict(max_m=1)),
        ("alternating-b-sum", dict(max_n=0)),
        ("duality", dict(max_l=-1)),
        ("funceq-remainder", dict(mode="fourier")),
        ("funceq-remainder", dict(mode="sample", points=())),
        ("kernel-closed-form", dict(n=True)),
        ("funceq-remainder", dict(mode="sample", points=(0.1,))),
        ("funceq-remainder", dict(mode="sample", points=("abc",))),
        ("funceq-remainder", dict(mode="sample", points="1/50")),
        ("funceq-remainder", dict(mode="sample", order=0)),
        ("funceq-remainder", dict(mode="sample", order=30)),
        ("funceq-remainder", dict(points=(Fraction(1, 100),))),
        ("duality", dict(max_l=0, max_m=0)),  # compares script_B_def(0, 0, n) with itself
    ],
)
def test_out_of_contract_parameters(identity_id, kwargs):
    with pytest.raises(ParameterError):
        verify_one(identity_id, **kwargs)


# ---------------------------------------------------------------------------
# sample mode for the remainder identity


def test_remainder_sample_mode_default_points():
    report = verify_one("funceq-remainder", n=3, mode="sample")
    assert report.passed and report.checked_count == 3
    assert report.parameters["points"] == ["1/100", "1/97", "-1/101"]


def test_remainder_sample_mode_custom_points():
    points = (Fraction(1, 50), Fraction(-1, 64), Fraction(3, 101))
    report = verify_one("funceq-remainder", n=2, mode="sample", points=points)
    assert report.passed and report.checked_count == 3
    mixed = verify_one("funceq-remainder", n=2, mode="sample", points=("1/50", 2))
    assert mixed.passed and mixed.parameters["points"] == ["1/50", "2"]
    # -1/(n+3) is no pole: 1-(n+3)x vanishes at +1/(n+3) only
    near_poles = verify_one("funceq-remainder", n=4, mode="sample", points=("-1/7", "1/8"))
    assert near_poles.passed and near_poles.checked_count == 2


@pytest.mark.parametrize(
    "x,factor",
    [
        (Fraction(1, 2), "1-2x"),
        (Fraction(1), "1-x"),
        (Fraction(-1, 3), "1+3x"),
        (Fraction(1, 7), "1-7x"),
        (Fraction(-1), "1+x"),
        (Fraction(-1, 6), "1+6x"),
    ],
)
def test_remainder_sample_mode_rejects_poles(x, factor):
    message = f"^sample point {re.escape(str(x))} is a pole of factor {re.escape(factor)}$"
    with pytest.raises(DomainError, match=message):
        verify_one("funceq-remainder", n=4, mode="sample", points=(x,))


def test_remainder_guard_rejects_exactly_the_poles_of_the_identity():
    unguarded = REGISTRY["funceq-remainder"].runner.__wrapped__  # the guard is in bind
    for n in range(9):
        for v in range(1, 16):
            for x in (Fraction(1, v), Fraction(-1, v)):
                try:
                    list(unguarded(n=n, mode="sample", points=[x]))
                    pole = False
                except (DomainError, ZeroDivisionError):
                    pole = True
                try:
                    idn._guard_sample_point(x, n)
                    message = None
                except DomainError as error:
                    message = str(error)
                assert (message is not None) == pole, (n, x)
                if pole:  # the message names a factor that vanishes at x
                    factor = f"1{'+' if x < 0 else '-'}{v if v > 1 else ''}x"
                    assert message == f"sample point {x} is a pole of factor {factor}"


def f1_term_at_by_loop(j, x):
    """a_j(x) evaluated factor by factor, as f1_term_at was written on its own."""
    x = Fraction(x)
    value = Fraction((-1) ** j * factorial(j) * factorial(j + 1)) * x ** (2 * j + 2)
    for v in range(1, j + 2):
        lower, upper = 1 - v * x, 1 + v * x
        if lower == 0 or upper == 0:
            raise DomainError(f"sample point {x} is a pole of a_{j}")
        value /= lower * upper
    return value


def test_f1_term_at_matches_its_loop_and_raises_domain_error_at_poles():
    points = (0, 2, Fraction(1, 100), Fraction(-3, 7), Fraction(5, 2), "-1/101", "9/8")
    for j in range(7):
        for x in points:
            got, expected = idn.f1_term_at(j, x), f1_term_at_by_loop(j, x)
            assert got == expected and type(got) is type(expected) is Fraction
        for v in range(1, j + 2):
            for x in (Fraction(1, v), Fraction(-1, v)):
                with pytest.raises(DomainError):  # never ZeroDivisionError
                    idn.f1_term_at(j, x)


@given(st.integers(-12, 12), st.integers(1, 12), st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_remainder_sample_mode_passes_or_raises_domain_error(p, q, n):
    # a pole of the identity must surface as DomainError, never ZeroDivisionError
    try:
        report = verify_one("funceq-remainder", n=n, mode="sample", points=(Fraction(p, q),))
    except DomainError:
        return
    assert report.passed


def test_remainder_series_valuation():
    # the mismatch between the truncated sum and the inhomogeneity starts
    # exactly at degree 2n+5
    order = 24
    for n in (2, 3, 4):
        lhs, _ = remainder_sides_term_by_term(n, order)
        assert all(lhs[i] == 0 for i in range(2 * n + 5))
        assert lhs[2 * n + 5] != 0


# ---------------------------------------------------------------------------
# cross-checks on the shared builders


def test_q_series_routes_agree():
    for j in range(7):
        assert idn.q_series(j, 12, "stirling") == idn.q_series(j, 12, "rational")
    with pytest.raises(ParameterError):
        idn.q_series(2, 8, "guess")
    for route in ("rational", "stirling"):
        with pytest.raises(ValueError):
            idn.q_series(-1, 4, route)


def test_g1_inhomogeneity_expansion():
    # 2x^3(x-2)/(1-x)^2 = -2 sum_{m>=2} m x^{m+1}
    series = idn.g1_inhomogeneity(12)
    assert series[0] == series[1] == series[2] == 0
    for m in range(2, 12):
        assert series[m + 1] == -2 * m


def test_kernel_derivative_recurrence():
    # d/du G_n = e^{-t} G_{n+1} - n G_n  (variables: index 0 = u, index 1 = t)
    order = 7
    for n in (0, 1, 2):
        gn = idn.kernel_family(n, order)
        gn1 = idn.kernel_family(n + 1, order)
        e_neg_t = Series2.embed((-Series1.variable(order)).exp(), 1)
        rhs = e_neg_t * gn1 - gn * n
        assert gn.derivative(0) == rhs.truncate(order - 1)


# The builders' sums added term by term, as they were written before they
# went through the series kernel, and the rational functions with one inverse
# per factor or power, as they were written before _rational: references for
# values and coefficient types.


def ogf_series_by_loop(n, order):
    acc = Series2.zero(order)
    for j in range(order + 1):
        qj = idn.q_series(j, order)
        acc = acc + product_xy(qj, qj) * (factorial(j) * factorial(j + n))
    return acc


def kernel_family_by_loop(n, order):
    deriv = idn.kernel_series(order + n)
    acc = Series2.zero(order)
    for j in range(n + 1):
        if j:
            deriv = deriv.derivative(0)
        acc = acc + deriv.truncate(order) * stirling_first(n, j)
    return Series2.embed((Series1.variable(order) * n).exp(), 1) * acc


def kernel_family_closed_by_loop(n, order):
    e_neg = (-Series1.variable(order)).exp()
    one_minus = 1 - e_neg
    acc = Series2.zero(order)
    u_pow = Series1.one(order)
    t_pow = Series1.one(order)
    for m in range(1, order + 2):
        t_pow = t_pow * e_neg
        if m > 1:
            u_pow = u_pow * one_minus
        acc = acc + product_xy(u_pow, t_pow) * rising_factorial(m, n)
    return Series2.embed((Series1.variable(order) * (-n)).exp(), 0) * acc


def f1_series_by_loop(order):
    acc = Series1.zero(order)
    for j in range(max(order - 2, 0) // 2 + 1):
        acc = acc + idn.f1_term(j, order)
    return acc


def q_series_by_denominator_loop(j, order):
    if j > order:
        return Series1.zero(order)
    denom = Series1.one(order)
    for v in range(1, j + 2):
        denom = denom * Series1([1, -v], order)
    return Series1.monomial(1, j, order) * denom.inverse()


def f1_term_by_denominator_loop(j, order):
    if 2 * j + 2 > order:
        return Series1.zero(order)
    denom = Series1.one(order)
    for v in range(1, j + 2):
        denom = denom * Series1([1, 0, -v * v], order)
    lead = (-1) ** j * factorial(j) * factorial(j + 1)
    return Series1.monomial(lead, 2 * j + 2, order) * denom.inverse()


def g1_inhomogeneity_by_powers(order):
    return Series1([0, 0, 0, -4, 2], order) * Series1([1, -1], order).power(-2)


def f1_inhomogeneity_by_powers(order):
    return (
        Series1([0, 0, 0, 6, -12, 4], order)
        * Series1([1, -1], order).power(-2)
        * Series1([1, -2], order).inverse()
    )


def remainder_sides_term_by_term(n, order):
    """Both series sides of funceq-remainder, each a_j substituted on its own."""
    lhs = Series1.zero(order)
    for j in range(n + 1):
        a = idn.f1_term(j, order)
        lhs = lhs + a.mobius_substitution(2) - Series1([1, -2], order) * a
    lhs = lhs - idn.f1_inhomogeneity(order)
    rhs = (
        Series1([0, -2], order)
        * Series1([1, -1], order).inverse()
        * Series1([1, n + 2], order)
        * Series1([1, -(n + 3)], order).inverse()
        * Series1([2 * n + 5, -(4 * n + 10), n + 3], order)
        * idn.f1_term(n + 1, order)
    )
    return lhs, rhs


@pytest.mark.parametrize("order", (5, 9))
def test_builders_match_their_term_by_term_sums(order):
    pairs = [(idn.f1_series(order), f1_series_by_loop(order))]
    for n in (0, 1, 3):
        pairs += [
            (idn.ogf_series(n, order), ogf_series_by_loop(n, order)),
            (idn.kernel_family(n, order), kernel_family_by_loop(n, order)),
            (idn.kernel_family_closed(n, order), kernel_family_closed_by_loop(n, order)),
        ]
    for j in range(order + 2):
        pairs += [
            (idn.q_series(j, order), q_series_by_denominator_loop(j, order)),
            (idn.f1_term(j, order), f1_term_by_denominator_loop(j, order)),
        ]
    pairs += [
        (idn.g1_inhomogeneity(order), g1_inhomogeneity_by_powers(order)),
        (idn.f1_inhomogeneity(order), f1_inhomogeneity_by_powers(order)),
    ]
    remainder_pairs = REGISTRY["funceq-remainder"].runner.__wrapped__
    for n in (0, 1, 3):
        compared = list(remainder_pairs(n=n, mode="series", order=order))
        lhs, rhs = remainder_sides_term_by_term(n, order)
        pairs += [
            (Series1([value for _, value, _ in compared], order), lhs),
            (Series1([value for _, _, value in compared], order), rhs),
        ]
    for got, expected in pairs:
        assert got == expected and got.order == expected.order == order
        assert coefficient_types(got) == coefficient_types(expected)


def test_kernel_closed_form_truncation_is_tight():
    # dropping the (order+1)-st term of the closed-form m-sum must break the
    # comparison: its u-valuation is exactly `order`
    order = 6
    full = idn.kernel_family_closed(0, order)
    truncated_sum = full - _last_closed_term(0, order)
    assert full == idn.kernel_family(0, order)
    assert truncated_sum != idn.kernel_family(0, order)


def _last_closed_term(n, order):
    from math import factorial as fact

    e_neg = (-Series1.variable(order)).exp()
    one_minus = 1 - e_neg
    m = order + 1
    weight = 1
    for i in range(n):
        weight *= m + i
    term = product_xy(one_minus.power(m - 1), e_neg.power(m)) * weight
    exp_neg_nu = Series2.embed((Series1.variable(order) * (-n)).exp(), 0)
    return exp_neg_nu * term


def test_alternating_sums_match_direct_computation():
    # recompute both alternating sums straight from poly-Bernoulli values
    from polybern.polybernoulli import poly_bernoulli_C

    for n in range(10):
        main = sum((-1) ** l * poly_bernoulli_C(n - l, -l - 1) for l in range(n + 1))
        assert main == -genocchi(n + 2)
        variant = sum((-1) ** l * poly_bernoulli_C(n - l, -l) for l in range(n + 1))
        assert variant == genocchi(n + 1)
    for n in range(1, 10):
        vanishing = sum((-1) ** l * poly_bernoulli_B(n - l, -l) for l in range(n + 1))
        assert vanishing == 0


def test_uniqueness_recursion_rewritten_form():
    # sum_{n<=m} C(m,n) 2^{m-n} B_n = m + B_m for m >= 2
    from math import comb

    for m in range(2, 20):
        total = sum(comb(m, n) * 2 ** (m - n) * bernoulli(n) for n in range(m + 1))
        assert total == m + bernoulli(m)


# ---------------------------------------------------------------------------
# registry surface


# Every identity's signature defaults, in registry order.
DEFAULTS = {
    "duality": (("max_l", 20), ("max_m", 20), ("max_n", 6)),
    "egf": (("n", 4), ("order", 14)),
    "ogf": (("n", 4), ("order", 14)),
    "trivariate": (("order", 6),),
    "stirling-expansion": (("n", 3), ("r", 6), ("order", 12)),
    "kernel-closed-form": (("n", 3), ("order", 10)),
    "alternating-b-sum": (("max_n", 30),),
    "genocchi-sum": (("max_n", 30),),
    "beta1-funceq": (("order", 30),),
    "g1-funceq": (("order", 30),),
    "f2-funceq": (("order", 30),),
    "funceq-remainder": (("n", 4), ("mode", "series"), ("order", 30), ("points", None)),
    "uniqueness-recursion": (("max_m", 40),),
}


def test_registry_shape():
    assert len(IDENTITY_IDS) == 13
    assert IDENTITY_IDS == tuple(DEFAULTS)
    for identity_id, entry in REGISTRY.items():
        assert entry.identity_id == identity_id
        # The benchmark tracer rebinds registry entries by runner identity.
        assert entry.runner is getattr(idn, "verify_" + identity_id.replace("-", "_"))
        assert entry.defaults == DEFAULTS[identity_id]
        signature = inspect.signature(entry.runner)
        assert tuple(signature.parameters) == tuple(name for name, _ in entry.defaults)
        assert signature.return_annotation == "VerificationReport"


def test_verify_all_runs_in_registry_order():
    reports = verify_all(
        {identity_id: SMALL[identity_id] for identity_id in IDENTITY_IDS}
    )
    assert [r.identity_id for r in reports] == list(IDENTITY_IDS)
    assert all(r.passed for r in reports)
    again = verify_all({identity_id: SMALL[identity_id] for identity_id in IDENTITY_IDS})
    assert reports == again
    assert all(isinstance(r.elapsed_s, float) and r.elapsed_s >= 0 for r in reports + again)


def test_verify_all_partial_config_and_errors():
    reports = verify_all({"duality": dict(max_l=3, max_m=3, max_n=1)})
    by_id = {r.identity_id: r for r in reports}
    assert by_id["duality"].checked_count == 32  # 4*4*2
    with pytest.raises(ParameterError):
        verify_all({"no-such-identity": {}})
    with pytest.raises(ParameterError):
        verify_all({"duality": {"order": 4}})
    with pytest.raises(ParameterError, match="^duality requires max_l >= 1 or max_m >= 1"):
        verify_all({"duality": {"max_l": 0, "max_m": 0}})
    # one off-diagonal index is enough: (l, m) = (0, 0) and (0, 1), for n <= 6
    report = verify_one("duality", max_l=0, max_m=1)
    assert report.passed and report.checked_count == 14
