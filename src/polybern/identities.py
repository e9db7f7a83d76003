"""Mechanical verification of the library's identity inventory.

Each identity is a pair generator declared with
``@_verifier(identity_id, check=None, **minimums)``: it takes the identity's
parameters and returns the ``(location, lhs, rhs)`` equalities it compares
over exact rationals.  ``minimums`` gives the least value of each integer
parameter; ``check`` rejects other out-of-contract arguments and may choose
the ones the generator runs with.  The decorator registers it in
:data:`REGISTRY` as the ``verify_*`` runner, which runs it with exactly what
its entry's ``bind`` returns, reports that as the parameters of its
:class:`VerificationReport`, and stops at the first failing equality.
The tests inject their faults from outside, by patching :func:`_compare`
or a route that one side reads.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial, wraps
from math import factorial, prod
from time import perf_counter
from typing import Callable, Iterable, Iterator, Optional

from .combinatorics import binomial, format_rational, rising_factorial
from .combinatorics import stirling_first, stirling_second
from .polybernoulli import (
    bernoulli,
    genocchi,
    poly_bernoulli_B,
    poly_bernoulli_C,
    script_B_closed,
    script_B_def,
)
from .series import DomainError, Series1, Series2, egf_coefficient, product_xy
from .series import _combination, _combination_xy, _quotient


class ParameterError(ValueError):
    """A verification was requested with out-of-contract parameters."""


Location = tuple
CheckPair = tuple  # (location, lhs, rhs)


@dataclass(frozen=True)
class Counterexample:
    location: Location
    lhs: object
    rhs: object


@dataclass(frozen=True)
class VerificationReport:
    identity_id: str
    parameters: dict
    passed: bool
    counterexample: Optional[Counterexample]
    checked_count: int
    elapsed_s: Optional[float] = field(default=None, compare=False)  # wall time of the run


@dataclass(frozen=True)
class IdentityEntry:
    identity_id: str
    runner: Callable[..., VerificationReport]
    defaults: tuple  # ((name, value), ...) — kept immutable
    bind: Callable[..., dict]  # the arguments the generator runs with, checked; runs nothing


REGISTRY: dict[str, IdentityEntry] = {}


def _compare(
    identity_id: str, pairs: Iterable[CheckPair]
) -> tuple[Optional[Counterexample], int]:
    """The first failing equality (or None) and the number of equalities compared."""
    checked = 0
    for location, lhs, rhs in pairs:
        checked += 1
        if lhs != rhs:
            return Counterexample(location, lhs, rhs), checked
    if checked == 0:
        raise ParameterError(f"{identity_id}: empty check range")
    return None, checked


def _verifier(
    identity_id: str,
    *,
    check: Optional[Callable[..., Optional[dict]]] = None,
    **minimums: int,
):
    """Make a pair generator the registered verifier of ``identity_id``.

    This is the one place that checks a verifier's arguments, and the check
    is the registry entry's ``bind``, which runs nothing.  An unknown name or
    an integer below its minimum raises ParameterError.  Then
    ``check(given, **arguments)``, given the caller's named arguments and all
    the bound ones, raises ParameterError (or DomainError, for a point on a
    pole) for a combination out of contract.  It returns the arguments that
    the generator runs with and the runner reports, or None to keep the
    bound ones; ``bind`` returns exactly those.
    """

    def register(pairs_of: Callable[..., Iterable[CheckPair]]):
        signature = inspect.signature(pairs_of)
        defaults = tuple((p.name, p.default) for p in signature.parameters.values())
        accepted = dict(defaults)

        def bind(*args, **given) -> dict:
            for name in given:
                if name not in accepted:
                    raise ParameterError(
                        f"identity {identity_id!r} does not accept parameter {name!r}"
                    )
            if args:
                given = signature.bind(*args, **given).arguments
            arguments = {**accepted, **given}
            for name, minimum in minimums.items():
                _require_index(name, arguments[name], minimum)
            if check is not None:
                chosen = check(given, **arguments)
                if chosen is not None:
                    return chosen
            return arguments

        @wraps(pairs_of)
        def runner(*args, **kwargs) -> VerificationReport:
            started = perf_counter()
            parameters = bind(*args, **kwargs)
            counterexample, checked = _compare(identity_id, pairs_of(**parameters))
            elapsed = perf_counter() - started
            return VerificationReport(
                identity_id, parameters, counterexample is None, counterexample, checked, elapsed
            )

        runner.__signature__ = signature.replace(return_annotation="VerificationReport")
        REGISTRY[identity_id] = IdentityEntry(identity_id, runner, defaults, bind)
        return runner

    return register


def _coefficient_pairs(lhs, rhs, *prefix) -> Iterator[CheckPair]:
    """Pair the coefficients of two same-shape series, located after prefix."""
    if isinstance(lhs, Series1):
        for i in range(lhs.order + 1):
            yield (*prefix, ("i", i)), lhs[i], rhs[i]
        return
    for i in range(lhs.order + 1):
        for j in range(lhs.order - i + 1):
            yield (*prefix, ("i", i), ("j", j)), lhs[i, j], rhs[i, j]


def _require_index(name: str, value, minimum: int = 0) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


# ---------------------------------------------------------------------------
# Shared series builders.  All are pure; the bivariate ones are cached since
# several verifiers reuse the same expansions.


@cache
def denominator_series(order: int) -> Series2:
    """e^x + e^y - e^{x+y} as a bivariate series (constant term 1)."""
    ex = Series1.exponential(1, order)
    return Series2.embed(ex, 0) + Series2.embed(ex, 1) - product_xy(ex, ex)


@cache
def egf_closed_form(n: int, order: int) -> Series2:
    """n! * e^{x+y} / (e^x + e^y - e^{x+y})^{n+1}, truncated at total degree."""
    ex = Series1.exponential(1, order)
    numerator = product_xy(ex, ex) * factorial(n)
    return numerator * denominator_series(order).power(-(n + 1))


def _rational(function, order: int) -> Series1:
    """The expansion to the order of a rational function, stated as the pair
    (numerator factors, denominator factors) of integer coefficient lists, lowest
    degree first: the product of the numerator factors divided by each
    denominator factor (nonzero constant term) in turn, one _quotient per factor."""
    numerators, denominators = function
    coeffs = prod(Series1(factor, order) for factor in numerators).coeffs
    for factor in denominators:
        coeffs = _quotient(coeffs, factor, order)
    return Series1(coeffs, order)


def _rational_at(function, x) -> Fraction:
    """The exact value at x = p/q of the rational function that _rational expands:
    each factor f of degree d = len(f) - 1 is the integer q^d f(p/q) over q^d, and
    the one quotient of integers is reduced once.  DomainError at a pole."""
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    parts = [1, 1]  # the numerator and the denominator of the value
    for side, factors in enumerate(function):
        for f in factors:
            d = len(f) - 1
            parts[side] *= sum(c * p**k * q ** (d - k) for k, c in enumerate(f) if c)
            parts[1 - side] *= q**d
    top, bottom = parts
    if bottom == 0:
        raise DomainError(f"point {x} is a pole: a denominator factor vanishes there")
    return Fraction(top, bottom)


def _a(j: int):
    """a_j(x) = (-1)^j j!(j+1)! x^{2j+2} / prod_{v=1..j+1}(1-vx)(1+vx)."""
    lead = (-1) ** j * factorial(j) * factorial(j + 1)
    return [[0] * (2 * j + 2) + [lead]], [[1, 0, -v * v] for v in range(1, j + 2)]


def _f1_partial_sum(n: int):
    """sum_{j<=n} a_j(x) over the denominator of a_n, whose numerator S_n follows
    S_j = S_(j-1) (1 - (j+1)^2 x^2) + lead_j x^{2j+2} from S_(-1) = 0."""
    s = [0]
    for j in range(n + 1):
        (top,), denominators = _a(j)
        s = [u - (j + 1) ** 2 * v + w for u, v, w in zip(s + [0, 0], [0, 0] + s, top)]
    return [s], denominators


_F1_INHOMOGENEITY = [[0, 0, 0, 6, -12, 4]], [[1, -1], [1, -1], [1, -2]]  # see f1_inhomogeneity


def _remainder_prefactor(n: int):
    """-(2x/(1-x)) * ((1+(n+2)x)/(1-(n+3)x)) * ((n+3)(x-1)^2-(n+2)(2x-1))."""
    return [[0, -2], [1, n + 2], [2 * n + 5, -(4 * n + 10), n + 3]], [[1, -1], [1, -(n + 3)]]


def q_series(j: int, order: int) -> Series1:
    """Q_j(X) = X^j / prod_{v=1..j+1}(1 - vX) = sum_{l>=j} {l+1 brace j+1} X^l."""
    _require_index("j", j)
    return _rational(([[0] * j + [1]], [[1, -v] for v in range(1, j + 2)]), order)


def ogf_series(n: int, order: int) -> Series2:
    """sum_j j!(j+n)! Q_j(x) Q_j(y) with ordinary (non-EGF) coefficients."""
    qs = [q_series(j, order) for j in range(order + 1)]
    return _combination_xy(qs, qs, [factorial(j) * factorial(j + n) for j in range(order + 1)])


@cache
def kernel_series(order: int) -> Series2:
    """e^u / (1 - e^u (1 - e^t)) in variables (u, t); the denominator is a unit."""
    eu = Series2.embed(Series1.exponential(1, order), 0)
    et = Series2.embed(Series1.exponential(1, order), 1)
    return eu * (1 - eu * (1 - et)).inverse()


def kernel_family(n: int, order: int) -> Series2:
    """e^{nt} * sum_j [n j] d^j/du^j of the kernel, built from the definition."""
    derivs = [kernel_series(order + n)]  # the j-th derivative has order order + n - j
    for _ in range(n):
        derivs.append(derivs[-1].derivative(0))
    acc = _combination(derivs, [stirling_first(n, j) for j in range(n + 1)])
    exp_nt = Series2.embed(Series1.exponential(n, order), 1)
    return exp_nt * acc


def kernel_family_closed(n: int, order: int) -> Series2:
    """e^{-nu} * sum_{m>=1} ((m+n-1)!/(m-1)!) e^{-mt} (1-e^{-u})^{m-1}.

    The m-th term has u-valuation m-1, so the sum truncates exactly at
    m = order + 1 for a total-degree-``order`` comparison.
    """
    one_minus = 1 - Series1.exponential(-1, order)
    u_pows = [Series1.one(order)]  # (1-e^{-u})^{m-1} for m = 1..order+1, one product each
    for _ in range(order):
        u_pows.append(u_pows[-1] * one_minus)
    t_pows = [Series1.exponential(-m, order) for m in range(1, order + 2)]  # e^{-mt}
    acc = _combination_xy(u_pows, t_pows, [rising_factorial(m, n) for m in range(1, order + 2)])
    exp_neg_nu = Series2.embed(Series1.exponential(-n, order), 0)
    return exp_neg_nu * acc


def _exp_shift_power(a: int, r: int, order: int) -> Series1:
    """e^{at} (e^t - 1)^r / r! as a univariate series in t."""
    expm1 = Series1.exponential(1, order) - 1
    return Series1.exponential(a, order) * expm1.power(r) * Fraction(1, factorial(r))


def beta1_series(order: int) -> Series1:
    """sum_n B_n x^{n+1} — the shifted ordinary generating function."""
    return Series1([0] + [bernoulli(n) for n in range(order)], order)


def g1_series(order: int) -> Series1:
    """sum_n (2^{n+1} - 2) B_n x^{n+1}; equals -sum_n G_n x^{n+1}."""
    return Series1([0] + [(2 ** (n + 1) - 2) * bernoulli(n) for n in range(order)], order)


def g1_inhomogeneity(order: int) -> Series1:
    """2x^3 (x - 2) / (1 - x)^2, which expands as -2 sum_{m>=2} m x^{m+1}."""
    return _rational(([[0, 0, 0, -4, 2]], [[1, -1]] * 2), order)


def f1_term(j: int, order: int) -> Series1:
    """a_j(x) = (-1)^j j!(j+1)! x^{2j+2} / prod_{v=1..j+1}(1-vx)(1+vx)."""
    return _rational(_a(j), order)


def f1_series(order: int) -> Series1:
    """sum_j a_j(x); only j <= (order-2)/2 contribute below the truncation."""
    return _rational(_f1_partial_sum(max(order - 2, 0) // 2), order)


def f1_inhomogeneity(order: int) -> Series1:
    """2x^3 (3 - 6x + 2x^2) / ((1-x)^2 (1-2x))."""
    return _rational(_F1_INHOMOGENEITY, order)


def f1_term_at(j: int, x) -> Fraction:
    """a_j evaluated exactly at a rational point; DomainError at a pole."""
    return _rational_at(_a(j), x)


def _guard_sample_point(x: Fraction, n: int) -> None:
    """Reject the poles {1/v : v <= n+3} ∪ {-1/v : v <= n+2} of the remainder identity."""
    v = x.denominator
    if abs(x.numerator) == 1 and v <= (n + 2 if x < 0 else n + 3):
        factor = f"1{'+' if x < 0 else '-'}{v if v > 1 else ''}x"
        raise DomainError(f"sample point {x} is a pole of factor {factor}")


# ---------------------------------------------------------------------------
# Verifiers.


def _require_off_diagonal(given, max_l: int, max_m: int, **_) -> None:
    if max_l == max_m == 0:
        raise ParameterError(
            "duality requires max_l >= 1 or max_m >= 1: "
            "at l = m = 0 it compares script_B_def(0, 0, n) with itself"
        )


@_verifier("duality", check=_require_off_diagonal, max_l=0, max_m=0, max_n=0)
def verify_duality(max_l: int = 20, max_m: int = 20, max_n: int = 6) -> Iterator[CheckPair]:
    """script_B_def(m, l, n) = script_B_def(l, m, n) on the full index box."""
    for l in range(max_l + 1):
        for m in range(max_m + 1):
            for n in range(max_n + 1):
                yield (
                    (("l", l), ("m", m), ("n", n)),
                    script_B_def(m, l, n),
                    script_B_def(l, m, n),
                )


def _closed_form_pairs(coefficient, n: int, order: int, *prefix) -> Iterator[CheckPair]:
    """Pair coefficient((l, m)) with script_B_closed(m, l, n) for l + m <= order."""
    for l in range(order + 1):
        for m in range(order - l + 1):
            yield (*prefix, ("l", l), ("m", m)), coefficient((l, m)), script_B_closed(m, l, n)


@_verifier("egf", n=0, order=2)
def verify_egf(n: int = 4, order: int = 14) -> Iterator[CheckPair]:
    """EGF coefficients of n!e^{x+y}/(e^x+e^y-e^{x+y})^{n+1} vs script_B_closed."""
    series = egf_closed_form(n, order)
    yield from _closed_form_pairs(partial(egf_coefficient, series), n, order)


@_verifier("ogf", n=0, order=1)
def verify_ogf(n: int = 4, order: int = 14) -> Iterator[CheckPair]:
    """Ordinary coefficients of sum_j j!(j+n)! Q_j(x)Q_j(y) vs script_B_closed.

    Also pins the Q_j expansion (division by the factors) against the
    Stirling-coefficient identity, coefficient by coefficient, before using
    it in the double sum.
    """
    for j in range(order + 1):
        yield from _coefficient_pairs(
            q_series(j, order),
            Series1([stirling_second(l + 1, j + 1) for l in range(order + 1)], order),
            ("part", "q-route"),
            ("j", j),
        )
    series = ogf_series(n, order)
    yield from _closed_form_pairs(series.__getitem__, n, order, ("part", "sum"))


@_verifier("trivariate", order=1)
def verify_trivariate(order: int = 6) -> Iterator[CheckPair]:
    """z-expansion of e^{x+y}/(e^x+e^y-e^{x+y}-z): n! times its z^n coefficient,
    n! e^{x+y} (1/D)^{n+1}, has the EGF coefficients script_B_closed(m, l, n)."""
    inverse_d = denominator_series(order).inverse()
    ex = Series1.exponential(1, order)
    term = product_xy(ex, ex) * inverse_d  # n! e^{x+y} (1/D)^{n+1}, one factor 1/D per n
    for n in range(order + 1):
        yield from _closed_form_pairs(partial(egf_coefficient, term), n, order, ("n", n))
        term = term * inverse_d * (n + 1)


def _require_r_at_least_n(given, n: int, r: int, **_) -> None:
    if r < n:
        raise ParameterError(f"requires r >= n, got n={n}, r={r}")


@_verifier("stirling-expansion", check=_require_r_at_least_n, n=0, r=0, order=1)
def verify_stirling_expansion(n: int = 3, r: int = 6, order: int = 12) -> Iterator[CheckPair]:
    """Two expansions with mixed Stirling weights, valid for r >= n >= 0:

    A:  e^{nt}(e^t-1)^{r-n}/(r-n)!  =  sum_m [sum_i (-1)^{n-i} [n i] {m+i brace r}] t^m/m!
    B:  sum_i {n brace i} e^{it}(e^t-1)^{r-i}/(r-i)!  =  sum_m {m+n brace r} t^m/m!
    """
    lhs_a = _exp_shift_power(n, r - n, order)
    for m in range(order + 1):
        rhs = sum(
            (-1) ** (n - i) * stirling_first(n, i) * stirling_second(m + i, r)
            for i in range(n + 1)
        )
        yield (("part", "A"), ("m", m)), egf_coefficient(lhs_a, m), rhs
    lhs_b = _combination(
        [_exp_shift_power(i, r - i, order) for i in range(n + 1)],
        [stirling_second(n, i) for i in range(n + 1)],
    )
    for m in range(order + 1):
        yield (
            (("part", "B"), ("m", m)),
            egf_coefficient(lhs_b, m),
            stirling_second(m + n, r),
        )


@_verifier("kernel-closed-form", n=0, order=1)
def verify_kernel_closed_form(n: int = 3, order: int = 10) -> Iterator[CheckPair]:
    """The Stirling-weighted derivative family of e^u/(1-e^u(1-e^t)) equals its
    closed form e^{-nu} sum_m ((m+n-1)!/(m-1)!) e^{-mt} (1-e^{-u})^{m-1}."""
    return _coefficient_pairs(kernel_family(n, order), kernel_family_closed(n, order))


@_verifier("alternating-b-sum", max_n=1)
def verify_alternating_b_sum(max_n: int = 30) -> Iterator[CheckPair]:
    """sum_{l=0}^n (-1)^l B_{n-l}^(-l) = 0 for every n >= 1."""
    for n in range(1, max_n + 1):
        value = sum((-1) ** l * poly_bernoulli_B(n - l, -l) for l in range(n + 1))
        yield (("n", n),), value, 0


@_verifier("genocchi-sum", max_n=0)
def verify_genocchi_sum(max_n: int = 30) -> Iterator[CheckPair]:
    """sum_{l=0}^n (-1)^l C_{n-l}^(-l-1) = -G_{n+2}, plus the shifted variant
    sum_{l=0}^n (-1)^l C_{n-l}^(-l) = G_{n+1}."""
    for n in range(max_n + 1):
        value = sum((-1) ** l * poly_bernoulli_C(n - l, -l - 1) for l in range(n + 1))
        yield (("part", "main"), ("n", n)), value, -genocchi(n + 2)
    for n in range(max_n + 1):
        value = sum((-1) ** l * poly_bernoulli_C(n - l, -l) for l in range(n + 1))
        yield (("part", "variant"), ("n", n)), value, genocchi(n + 1)


@_verifier("beta1-funceq", order=2)
def verify_beta1_funceq(order: int = 30) -> Iterator[CheckPair]:
    """beta1(x/(1-x)) = beta1(x) + x^2 for beta1(x) = sum B_n x^{n+1}."""
    beta1 = beta1_series(order)
    rhs = beta1 + Series1.monomial(1, 2, order)
    return _coefficient_pairs(beta1.mobius_substitution(1), rhs)


@_verifier("g1-funceq", order=3)
def verify_g1_funceq(order: int = 30) -> Iterator[CheckPair]:
    """g1(x/(1-2x)) = g1(x) + 2x^3(x-2)/(1-x)^2 for g1 = sum (2^{n+1}-2)B_n x^{n+1}."""
    g1 = g1_series(order)
    return _coefficient_pairs(g1.mobius_substitution(2), g1 + g1_inhomogeneity(order))


@_verifier("f2-funceq", order=4)
def verify_f2_funceq(order: int = 30) -> Iterator[CheckPair]:
    """The series f2 = x*f1(x) - x^2 built from the duality generating function
    satisfies the g1 functional equation; f1 satisfies its own equivalent form;
    and f2 matches -sum G_n x^{n+1} coefficientwise (the Genocchi bridge)."""
    f1 = f1_series(order)
    f2 = f1 * Series1.variable(order) - Series1.monomial(1, 2, order)
    genocchi_sum = Series1([0] + [-genocchi(i - 1) for i in range(1, order + 1)], order)
    yield from _coefficient_pairs(f2, genocchi_sum, ("part", "bridge"))
    yield from _coefficient_pairs(
        f1.mobius_substitution(2),
        (1 - 2 * Series1.variable(order)) * f1 + f1_inhomogeneity(order),
        ("part", "f1-form"),
    )
    yield from _coefficient_pairs(
        f2.mobius_substitution(2), f2 + g1_inhomogeneity(order), ("part", "f2-form")
    )


_DEFAULT_SAMPLE_POINTS = (Fraction(1, 100), Fraction(1, 97), Fraction(-1, 101))


def _sample_point(point) -> Fraction:
    """A sample point given exactly: an int, a Fraction or a rational string."""
    if isinstance(point, (int, Fraction, str)) and not isinstance(point, bool):
        try:
            return Fraction(point)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParameterError(
        f"sample point must be an int, a Fraction or a rational string, got {point!r}"
    )


def _remainder_arguments(given, n: int, mode: str, order: int, points) -> dict:
    """The ``check`` of ``funceq-remainder``: the arguments its mode runs with.

    Series mode runs with ``order`` and sample mode with ``points``; giving
    the other mode's parameter is an error.  The sample points must be a
    tuple or a list of at least one point, none a pole of the identity, and
    run as strings in lowest terms, which the verifier parses back exactly.
    """
    if mode not in ("series", "sample"):  # a tuple, so an unhashable mode is reported too
        raise ParameterError(f"mode must be 'series' or 'sample', got {mode!r}")
    unused = "points" if mode == "series" else "order"
    if unused in given:
        raise ParameterError(f"{unused} is not used in {mode} mode")
    if mode == "series":
        return {"n": n, "mode": mode, "order": order}
    if points is None:
        points = _DEFAULT_SAMPLE_POINTS
    if not isinstance(points, (tuple, list)):
        raise ParameterError(f"points must be a tuple or a list, got {points!r}")
    if not points:
        raise ParameterError("sample mode needs at least one point")
    sample_points = [_sample_point(p) for p in points]
    for x in sample_points:
        _guard_sample_point(x, n)
    return {"n": n, "mode": mode, "points": [format_rational(x) for x in sample_points]}


@_verifier("funceq-remainder", check=_remainder_arguments, n=0, order=1)
def verify_funceq_remainder(
    n: int = 4, mode: str = "series", order: int = 30, points=None
) -> Iterator[CheckPair]:
    """Exact remainder after n+1 terms of the f1 functional equation:

    sum_{j<=n}(a_j(x/(1-2x)) - (1-2x)a_j(x)) - 2x^3(3-6x+2x^2)/((1-x)^2(1-2x))
      = -(2x/(1-x)) * ((1+(n+2)x)/(1-(n+3)x)) * ((n+3)(x-1)^2-(n+2)(2x-1)) * a_{n+1}(x)

    The left side reads the partial sum sum_{j<=n} a_j as one rational function
    and substitutes it once (substitution is linear).  ``mode='series'``
    compares truncated expansions to the given order; ``mode='sample'``
    evaluates both sides exactly at rational points away from every pole of
    the identity.  Giving ``points`` in series mode or ``order`` in sample
    mode raises ParameterError.
    """
    partial_sum = _f1_partial_sum(n)
    if mode == "series":
        expanded = _rational(partial_sum, order)
        lhs = expanded.mobius_substitution(2) - (1 - 2 * Series1.variable(order)) * expanded
        rhs = _rational(_remainder_prefactor(n), order) * f1_term(n + 1, order)
        yield from _coefficient_pairs(lhs - f1_inhomogeneity(order), rhs)
        return
    for x in map(Fraction, points):
        shifted = x / (1 - 2 * x)
        lhs = _rational_at(partial_sum, shifted) - (1 - 2 * x) * _rational_at(partial_sum, x)
        rhs = _rational_at(_remainder_prefactor(n), x) * f1_term_at(n + 1, x)
        yield (("x", x),), lhs - _rational_at(_F1_INHOMOGENEITY, x), rhs


@_verifier("uniqueness-recursion", max_m=2)
def verify_uniqueness_recursion(max_m: int = 40) -> Iterator[CheckPair]:
    """The recursion sum_{n<m} C(m,n) 2^{m-n} (2^{n+1}-2) B_n = -2m for m >= 2,
    its rewriting sum_{n<m} C(m,n) 2^{m-n} B_n = m, and the forward solve:
    the recursion with d_0 = 0 reproduces d_n = (2^{n+1}-2) B_n.
    It reads B_0..B_{max_m-1}, each in an equality that a wrong value of it fails."""
    for m in range(2, max_m + 1):
        value = sum(
            binomial(m, k) * 2 ** (m - k) * (2 ** (k + 1) - 2) * bernoulli(k)
            for k in range(m)
        )
        yield (("part", "recursion"), ("m", m)), value, -2 * m
    for m in range(2, max_m + 1):
        value = sum(binomial(m, k) * 2 ** (m - k) * bernoulli(k) for k in range(m))
        yield (("part", "rewritten"), ("m", m)), value, m
    solved = [Fraction(0)]
    for m in range(2, max_m + 1):
        acc = sum(binomial(m, k) * 2 ** (m - k) * solved[k] for k in range(m - 1))
        solved.append(Fraction(-2 * m - acc, 2 * m))
    for k in range(max_m):
        yield (
            (("part", "unique"), ("n", k)),
            solved[k],
            (2 ** (k + 1) - 2) * bernoulli(k),
        )


# ---------------------------------------------------------------------------
# Registry lookups and the all-in-one runner.


IDENTITY_IDS = tuple(REGISTRY)


def _registered(identity_id: str) -> IdentityEntry:
    if identity_id not in REGISTRY:
        raise ParameterError(
            f"unknown identity {identity_id!r}; valid ids: {', '.join(IDENTITY_IDS)}"
        )
    return REGISTRY[identity_id]


def verify_one(identity_id: str, **overrides) -> VerificationReport:
    """Run a single registered identity check with parameter overrides."""
    return _registered(identity_id).runner(**overrides)


def verify_all(config: Optional[dict] = None) -> list[VerificationReport]:
    """Run every registered identity in the fixed registry order.

    ``config`` maps identity id -> {parameter: value} overrides; unknown ids
    or parameters raise ParameterError before anything runs.
    """
    config = dict(config or {})
    for identity_id, overrides in config.items():
        _registered(identity_id).bind(**overrides)
    return [
        verify_one(identity_id, **config.get(identity_id, {}))
        for identity_id in IDENTITY_IDS
    ]


__all__ = [
    "ParameterError",
    "Counterexample",
    "VerificationReport",
    "IdentityEntry",
    "REGISTRY",
    "IDENTITY_IDS",
    "verify_one",
    "verify_all",
    "verify_duality",
    "verify_egf",
    "verify_ogf",
    "verify_trivariate",
    "verify_stirling_expansion",
    "verify_kernel_closed_form",
    "verify_alternating_b_sum",
    "verify_genocchi_sum",
    "verify_beta1_funceq",
    "verify_g1_funceq",
    "verify_f2_funceq",
    "verify_funceq_remainder",
    "verify_uniqueness_recursion",
    "denominator_series",
    "egf_closed_form",
    "ogf_series",
    "q_series",
    "kernel_series",
    "kernel_family",
    "kernel_family_closed",
    "beta1_series",
    "g1_series",
    "g1_inhomogeneity",
    "f1_series",
    "f1_term",
    "f1_term_at",
    "f1_inhomogeneity",
]
