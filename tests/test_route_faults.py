"""Route faults: each side of each identity reads a route of its own.

A comparison fault (``faults.run_mutated``) shows that a check is sensitive
to its left-hand side.  This matrix shows that the two sides are computed
apart: it faults one route that one side reads, through a monkeypatch that
adds 1 to one output at one argument or adds 1 to one coefficient of every
result of one series kernel, and asserts that the report fails at a location
where the faulted side changed and the other side did not.  A collapse of
the two sides onto one route, such as a builder that starts reading the
value it is checked against, makes a row pass and this test fail.

Where both sides share a route by design, a row faults what tells them
apart and its comment says so; ``NO_ROUTE_OF_ITS_OWN`` names the sides that
read nothing the other side does not, and why.
"""

from fractions import Fraction
from typing import Callable, NamedTuple

import pytest

from polybern import identities as idn
from polybern.identities import IDENTITY_IDS, REGISTRY
from polybern.series import Series1, Series2


def output(name, *args):
    """Add 1 to ``polybern.identities.<name>(*args)``, as the verifiers call it."""

    def apply(monkeypatch):
        route = getattr(idn, name)
        monkeypatch.setattr(idn, name, lambda *a: route(*a) + 1 if a == args else route(*a))

    apply.label = f"{name}{args}"
    return apply


def coefficient(owner, name, at):
    """Add 1 to the coefficient ``at`` of every series ``owner.<name>`` returns."""

    def apply(monkeypatch):
        kernel = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: _plus_one_at(kernel(*a), at))

    apply.label = f"{getattr(owner, '__name__', owner)}.{name}[{at}]"
    return apply


def _plus_one_at(series, at):
    if isinstance(series, Series1):
        return series + Series1([0] * at + [1], series.order)  # monomial may be the fault
    i, j = at
    return series + Series2([[]] * i + [[0] * j + [1]], series.order)


class RouteFault(NamedTuple):
    identity_id: str
    kwargs: dict
    fault: Callable
    side: str  # the side whose value the fault changes: "lhs" or "rhs"
    location: tuple  # where the report fails


ROUTE_FAULTS = [
    # Both sides read script_B_def; they differ in the argument order, so a
    # fault off the diagonal l = m changes one side of a location.  On the
    # diagonal both read one value and no fault can show.
    RouteFault(
        "duality", dict(max_l=3, max_m=3, max_n=2),
        output("script_B_def", 2, 1, 1), "lhs", (("l", 1), ("m", 2), ("n", 1)),
    ),
    RouteFault(
        "duality", dict(max_l=3, max_m=3, max_n=2),
        output("script_B_def", 1, 2, 1), "rhs", (("l", 1), ("m", 2), ("n", 1)),
    ),
    RouteFault(
        "egf", dict(n=2, order=6),
        coefficient(Series2, "inverse", (0, 2)), "lhs", (("l", 0), ("m", 2)),
    ),
    RouteFault(
        "egf", dict(n=2, order=6),
        output("script_B_closed", 1, 2, 2), "rhs", (("l", 2), ("m", 1)),
    ),
    RouteFault(
        "ogf", dict(n=2, order=6),
        output("q_series", 3, 6, "rational"), "lhs", (("part", "q-route"), ("j", 3), ("i", 0)),
    ),
    RouteFault(
        "ogf", dict(n=2, order=6),
        output("stirling_second", 3, 2), "rhs", (("part", "q-route"), ("j", 1), ("i", 2)),
    ),
    RouteFault(
        "ogf", dict(n=2, order=6),
        coefficient(idn, "_combination_xy", (1, 2)), "lhs",
        (("part", "sum"), ("l", 1), ("m", 2)),
    ),
    RouteFault(
        "ogf", dict(n=2, order=6),
        output("script_B_closed", 1, 2, 2), "rhs", (("part", "sum"), ("l", 2), ("m", 1)),
    ),
    # Both sides read denominator_series D, product_xy, the Series2 product and
    # inverse: the right side raises D to a power, the left multiplies by 1/D
    # n + 1 times.  D^-k is D^k inverted, so the fault enters twice; the two
    # cancel at y^2 and the difference shows at y^4.
    RouteFault(
        "trivariate", dict(order=4),
        coefficient(Series2, "power", (0, 2)), "rhs", (("n", 0), ("i", 0), ("j", 4)),
    ),
    RouteFault(
        "stirling-expansion", dict(n=2, r=4, order=8),
        output("_exp_shift_power", 2, 2, 8), "lhs", (("part", "A"), ("m", 0)),
    ),
    RouteFault(
        "stirling-expansion", dict(n=2, r=4, order=8),
        output("stirling_first", 2, 1), "rhs", (("part", "A"), ("m", 3)),
    ),
    RouteFault(
        "kernel-closed-form", dict(n=2, order=6),
        output("stirling_first", 2, 1), "lhs", (("i", 0), ("j", 0)),
    ),
    RouteFault(
        "kernel-closed-form", dict(n=2, order=6),
        output("rising_factorial", 1, 2), "rhs", (("i", 0), ("j", 0)),
    ),
    RouteFault(
        "alternating-b-sum", dict(max_n=6),
        output("poly_bernoulli_B", 2, -1), "lhs", (("n", 3),),
    ),
    RouteFault(
        "genocchi-sum", dict(max_n=6),
        output("poly_bernoulli_C", 1, -2), "lhs", (("part", "main"), ("n", 2)),
    ),
    RouteFault(
        "genocchi-sum", dict(max_n=6),
        output("genocchi", 4), "rhs", (("part", "main"), ("n", 2)),
    ),
    RouteFault(
        "beta1-funceq", dict(order=10),
        coefficient(Series1, "mobius_substitution", 3), "lhs", (("i", 3),),
    ),
    # The x^2 term is the right side's own; beta1_series feeds both sides.
    RouteFault(
        "beta1-funceq", dict(order=10),
        coefficient(Series1, "monomial", 5), "rhs", (("i", 5),),
    ),
    # A wrong Bernoulli number feeds both sides; the substitution spreads it.
    RouteFault(
        "beta1-funceq", dict(order=10),
        output("bernoulli", 3), "lhs", (("i", 5),),
    ),
    RouteFault(
        "g1-funceq", dict(order=10),
        coefficient(Series1, "mobius_substitution", 3), "lhs", (("i", 3),),
    ),
    RouteFault(
        "g1-funceq", dict(order=10),
        output("g1_inhomogeneity", 10), "rhs", (("i", 0),),
    ),
    RouteFault(
        "f2-funceq", dict(order=10),
        output("f1_term", 0, 10), "lhs", (("part", "bridge"), ("i", 1)),
    ),
    RouteFault(
        "f2-funceq", dict(order=10),
        output("genocchi", 4), "rhs", (("part", "bridge"), ("i", 5)),
    ),
    # Both sides read f1_term: the left the terms j <= n, the right j = n + 1.
    RouteFault(
        "funceq-remainder", dict(n=2, order=12),
        output("f1_inhomogeneity", 12), "lhs", (("i", 0),),
    ),
    RouteFault(
        "funceq-remainder", dict(n=2, order=12),
        output("f1_term", 3, 12), "rhs", (("i", 1),),
    ),
    RouteFault(
        "funceq-remainder", dict(n=2, mode="sample", points=("1/100",)),
        output("f1_term_at", 3, Fraction(1, 100)), "rhs", (("x", Fraction(1, 100)),),
    ),
    RouteFault(
        "uniqueness-recursion", dict(max_m=8),
        output("binomial", 2, 1), "lhs", (("part", "recursion"), ("m", 2)),
    ),
]

NO_ROUTE_OF_ITS_OWN = {
    ("trivariate", "lhs"): "every kernel it reads, the right side reads too",
    ("alternating-b-sum", "rhs"): "the constant 0",
    ("uniqueness-recursion", "rhs"): "closed forms in bernoulli, which the left sums read first",
}


def _clean_value(row):
    """The value both sides take at the row's location in a clean run."""
    entry = REGISTRY[row.identity_id]
    pairs = entry.runner.__wrapped__(**entry.bind(**row.kwargs))
    return next(lhs for location, lhs, _ in pairs if location == row.location)


def _clear_builder_caches():
    for builder in vars(idn).values():
        if hasattr(builder, "cache_clear") and builder.__module__ == idn.__name__:
            builder.cache_clear()


@pytest.mark.parametrize(
    "row", ROUTE_FAULTS, ids=[f"{r.identity_id}-{r.side}-{r.fault.label}" for r in ROUTE_FAULTS]
)
def test_route_fault_fails_on_its_side(monkeypatch, row):
    clean = _clean_value(row)
    _clear_builder_caches()  # a cached clean series would hide a kernel fault
    row.fault(monkeypatch)
    try:
        report = REGISTRY[row.identity_id].runner(**row.kwargs)
    finally:
        _clear_builder_caches()  # and no faulted one may outlive the test
    assert not report.passed
    assert report.counterexample.location == row.location
    faulted, other = report.counterexample.lhs, report.counterexample.rhs
    if row.side == "rhs":
        faulted, other = other, faulted
    assert other == clean != faulted


def test_every_side_of_every_identity_has_a_route_fault():
    for identity_id in IDENTITY_IDS:
        for side in ("lhs", "rhs"):
            faulted = any(r.identity_id == identity_id and r.side == side for r in ROUTE_FAULTS)
            assert faulted != ((identity_id, side) in NO_ROUTE_OF_ITS_OWN), (identity_id, side)
