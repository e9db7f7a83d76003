"""The package surface: the names ``polybern`` exports, each one resolving."""

import polybern

EXPORTED = [
    "Counterexample", "DomainError", "IDENTITY_IDS", "ParameterError", "RationalPolynomial",
    "Series1", "Series2", "VerificationReport", "__version__", "bernoulli", "binomial",
    "egf_bernoulli", "egf_coefficient", "egf_poly_bernoulli_B", "egf_poly_bernoulli_C",
    "egf_poly_bernoulli_polynomial", "factorial", "format_rational", "genocchi",
    "poly_bernoulli_B", "poly_bernoulli_C", "poly_bernoulli_at_integer",
    "poly_bernoulli_polynomial", "polylog_over_argument", "product_xy", "rising_factorial",
    "script_B_closed", "script_B_def", "stirling_first", "stirling_second", "verify_all",
    "verify_one",
]


def test_package_exports_exactly_its_surface():
    assert sorted(polybern.__all__) == EXPORTED
    assert len(set(polybern.__all__)) == len(polybern.__all__)


def test_every_exported_name_resolves():
    namespace = {}
    exec("from polybern import *", namespace)
    for name in EXPORTED:
        assert namespace[name] is getattr(polybern, name)
