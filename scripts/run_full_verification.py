#!/usr/bin/env python3
"""Run the complete identity inventory and print a timing table.

Handy before a release: exercises every verifier at its default bounds
(or scaled-down bounds with --quick) and reports per-identity wall time.
Exits non-zero if anything fails, so it slots into CI directly.
"""

import argparse
import sys
import time

from polybern.identities import IDENTITY_IDS, verify_one

QUICK = {
    "duality": dict(max_l=8, max_m=8, max_n=3),
    "egf": dict(n=2, order=8),
    "ogf": dict(n=2, order=8),
    "trivariate": dict(order=4),
    "stirling-expansion": dict(n=2, r=4, order=8),
    "kernel-closed-form": dict(n=2, order=6),
    "alternating-b-sum": dict(max_n=12),
    "genocchi-sum": dict(max_n=12),
    "beta1-funceq": dict(order=16),
    "g1-funceq": dict(order=16),
    "f2-funceq": dict(order=16),
    "funceq-remainder": dict(n=2, order=16),
    "uniqueness-recursion": dict(max_m=16),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="use reduced bounds")
    args = parser.parse_args()

    failures = 0
    total_started = time.perf_counter()
    print(f"{'identity':24s} {'status':8s} {'checked':>8s} {'seconds':>8s}  parameters")
    for identity_id in IDENTITY_IDS:
        overrides = QUICK[identity_id] if args.quick else {}
        started = time.perf_counter()
        report = verify_one(identity_id, **overrides)
        elapsed = time.perf_counter() - started
        status = "ok" if report.passed else "FAIL"
        failures += not report.passed
        params = " ".join(f"{k}={v}" for k, v in report.parameters.items())
        print(f"{identity_id:24s} {status:8s} {report.checked_count:8d} {elapsed:8.2f}  {params}")
        if not report.passed:
            print(f"    counterexample: {report.counterexample}")
    total = time.perf_counter() - total_started
    print(f"\n{len(IDENTITY_IDS) - failures}/{len(IDENTITY_IDS)} identities verified "
          f"in {total:.2f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
