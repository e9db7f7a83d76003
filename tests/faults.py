"""Comparison faults for the identity tests, injected from outside the library.

``run_mutated`` adds 1 to one compared left-hand side by wrapping
``polybern.identities._compare``, which every registered runner calls, so a
check that compares nothing at a location (or compares a value with itself)
cannot pass unnoticed.
"""

from polybern import identities as idn


def run_mutated(monkeypatch, identity_id, kwargs, location):
    """Run a registered verifier with 1 added to the left-hand side at ``location``.

    The patch lasts as long as ``monkeypatch``; the call fails the test
    unless the verifier compared ``location``.
    """
    compared = []
    compare = idn._compare

    def mutated_compare(identity_id, pairs):
        def mutated():
            for at, lhs, rhs in pairs:
                compared.append(at)
                yield at, lhs + 1 if at == location else lhs, rhs

        return compare(identity_id, mutated())

    monkeypatch.setattr(idn, "_compare", mutated_compare)
    report = idn.REGISTRY[identity_id].runner(**kwargs)
    assert location in compared, f"{location!r} is not a compared location of {identity_id!r}"
    return report
