"""Acceptance gate: the eleven primary criteria, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines on a clean run (pytest also replays captured output for
any failing criterion).  Every criterion is exact — no tolerances — and
carries the agreed wall-clock budget, asserted after the check itself.
"""

import functools
import time
from fractions import Fraction

import pytest

from polybern.identities import REGISTRY, verify_one
from polybern.polybernoulli import (
    egf_poly_bernoulli_B,
    egf_poly_bernoulli_C,
    genocchi,
    poly_bernoulli_B,
    poly_bernoulli_C,
    script_B_closed,
    script_B_def,
)
from polybern.series import egf_coefficient

from faults import run_mutated


def criterion(num, limit_seconds, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            started = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num:02d} FAIL: {description}")
                raise
            elapsed = time.perf_counter() - started
            print(f"ACCEPTANCE {num:02d} PASS ({elapsed:6.2f}s / {limit_seconds}s): {description}")
            assert elapsed < limit_seconds, (
                f"criterion {num} exceeded its {limit_seconds}s budget ({elapsed:.1f}s)"
            )
        return wrapper
    return decorate


@criterion(1, 1, "Genocchi golden values 0..11")
def test_criterion_01():
    golden = [0, 1, -1, 0, 1, 0, -3, 0, 17, 0, -155, 0]
    assert [genocchi(n) for n in range(12)] == golden


@criterion(2, 60, "generalized duality, definition route, m,l <= 20, n <= 6")
def test_criterion_02():
    report = verify_one("duality", max_l=20, max_m=20, max_n=6)
    assert report.passed and report.checked_count == 21 * 21 * 7


@criterion(3, 30, "route equivalence definition = closed form, m,l <= 12, n <= 6")
def test_criterion_03():
    for m in range(13):
        for l in range(13):
            for n in range(7):
                assert script_B_def(m, l, n) == script_B_closed(m, l, n), (m, l, n)


@criterion(4, 60, "bivariate EGF closed form, n <= 4, total degree <= 14")
def test_criterion_04():
    for n in range(5):
        report = verify_one("egf", n=n, order=14)
        assert report.passed


@criterion(5, 60, "bivariate OGF j-sum and both Q_j routes, n <= 4, degree <= 14")
def test_criterion_05():
    for n in range(5):
        report = verify_one("ogf", n=n, order=14)
        assert report.passed


@criterion(6, 10, "alternating C-sums equal Genocchi numbers, n <= 30")
def test_criterion_06():
    report = verify_one("genocchi-sum", max_n=30)
    assert report.passed and report.checked_count == 62


@criterion(7, 10, "alternating B-sum vanishes, 1 <= n <= 30")
def test_criterion_07():
    report = verify_one("alternating-b-sum", max_n=30)
    assert report.passed and report.checked_count == 30


@criterion(8, 60, "functional-equation suite at truncation order 30")
def test_criterion_08():
    assert verify_one("beta1-funceq", order=30).passed
    assert verify_one("g1-funceq", order=30).passed
    assert verify_one("f2-funceq", order=30).passed
    for n in range(5):
        assert verify_one("funceq-remainder", n=n, mode="series", order=30).passed
    assert verify_one("uniqueness-recursion", max_m=40).passed


@criterion(9, 60, "Stirling expansion 0 <= n <= r <= 6 and kernel closed form n <= 3")
def test_criterion_09():
    for r in range(7):
        for n in range(r + 1):
            assert verify_one("stirling-expansion", n=n, r=r, order=12).passed
    for n in range(4):
        assert verify_one("kernel-closed-form", n=n, order=10).passed


@criterion(10, 30, "mutation sensitivity: every check fails under a +1 perturbation")
def test_criterion_10():
    probes = {
        "duality": (dict(max_l=6, max_m=6, max_n=2), (("l", 0), ("m", 0), ("n", 0))),
        "egf": (dict(n=2, order=6), (("l", 0), ("m", 0))),
        "ogf": (dict(n=2, order=6), (("part", "sum"), ("l", 0), ("m", 0))),
        "trivariate": (dict(order=4), (("n", 0), ("l", 0), ("m", 0))),
        "stirling-expansion": (dict(n=2, r=4, order=6), (("part", "A"), ("m", 0))),
        "kernel-closed-form": (dict(n=2, order=6), (("i", 0), ("j", 0))),
        "alternating-b-sum": (dict(max_n=8), (("n", 1),)),
        "genocchi-sum": (dict(max_n=8), (("part", "main"), ("n", 0))),
        "beta1-funceq": (dict(order=10), (("i", 0),)),
        "g1-funceq": (dict(order=10), (("i", 0),)),
        "f2-funceq": (dict(order=10), (("part", "bridge"), ("i", 0))),
        "funceq-remainder": (dict(n=2, order=12), (("i", 0),)),
        "uniqueness-recursion": (dict(max_m=10), (("part", "recursion"), ("m", 2))),
    }
    assert set(probes) == set(REGISTRY)
    for identity_id, (kwargs, location) in probes.items():
        assert REGISTRY[identity_id].runner(**kwargs).passed, identity_id
        with pytest.MonkeyPatch.context() as monkeypatch:
            mutated = run_mutated(monkeypatch, identity_id, kwargs, location)
        assert not mutated.passed, identity_id
        assert mutated.counterexample.location == location


@criterion(11, 10, "small dualities m,l <= 20; power families vs series oracles, n <= 15")
def test_criterion_11():
    for m in range(21):
        for l in range(21):
            assert poly_bernoulli_B(m, -l) == poly_bernoulli_B(l, -m)
            assert poly_bernoulli_C(m, -l - 1) == poly_bernoulli_C(l, -m - 1)
    oracle_b = egf_poly_bernoulli_B(-1, 15)
    oracle_c = egf_poly_bernoulli_C(-2, 15)
    for n in range(16):
        assert poly_bernoulli_B(n, -1) == 2 ** n == egf_coefficient(oracle_b, n)
        assert poly_bernoulli_C(n, -2) == 2 ** (n + 1) - 1 == egf_coefficient(oracle_c, n)
