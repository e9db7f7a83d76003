"""One pass of the ``sequence-session`` workload, run as its own process.

A long-lived caller: one interpreter answers a seeded stream of row queries
against the public sequence functions, one query at a time, with the
library's caches warming as it goes.  Sizes are drawn uniformly from ranges
wide enough that cache misses continue for the whole stream.

Prints one JSON object: the stream's wall time, each query's latency, the
process's peak resident memory at the end of the stream, a short digest of
each answer, and (with ``--check``) the queries whose answers disagree with
an independent route of the library, checked after the timed stream.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from fractions import Fraction
from math import factorial

import polybern as pb

# Queries in one pass: enough that a pass takes a few seconds and the tail
# percentile has hundreds of samples beyond it.
QUERIES = 8000

POLY_POINTS = (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3), Fraction(5, 4))

# Inclusive ranges of each query kind's parameters.  Negative poly-Bernoulli
# orders are checked by duality and positive ones through the generating
# function, which is why the positive side is narrower.  Stirling rows stay
# short: the triangles grow by doubling, so a long row would make memory
# depend on the order in which row lengths arrive.
SHAPES = {
    "B": ((-60, 12), (0, 40)),
    "C": ((-60, 12), (0, 40)),
    "scriptB": ((0, 32), (0, 32), (0, 8)),
    "scriptB-def": ((0, 10), (0, 10), (0, 5)),
    "bernoulli": ((0, 300),),
    "genocchi": ((0, 300),),
    "stirling1": ((0, 60),),
    "stirling2": ((0, 60),),
    "poly": ((0, 24), (-8, 8), (0, len(POLY_POINTS) - 1)),
}
KINDS = tuple(SHAPES)


def generate(seed: int, count: int = QUERIES) -> list[tuple]:
    """The query stream for ``seed``; the same seed gives the same stream.

    Every kind gets an equal share of the stream, and each parameter takes
    values spread evenly over its range, in a seeded random order.  Seeds
    therefore differ in the order and pairing of sizes, which decides what
    the caches hold, but not in the amount of work asked for.
    """
    rng = random.Random(seed)
    queries = []
    for i, (kind, ranges) in enumerate(SHAPES.items()):
        share = count // len(SHAPES) + (i < count % len(SHAPES))
        columns = []
        for lo, hi in ranges:
            values = [lo + j * (hi - lo + 1) // share for j in range(share)]
            rng.shuffle(values)
            columns.append(values)
        for params in zip(*columns):
            if kind == "poly":
                params = params[:2] + (POLY_POINTS[params[2]],)
            queries.append((kind, *params))
    rng.shuffle(queries)
    return queries


def answer(query: tuple) -> list:
    kind = query[0]
    if kind == "B":
        return [pb.poly_bernoulli_B(n, query[1]) for n in range(query[2] + 1)]
    if kind == "C":
        return [pb.poly_bernoulli_C(n, query[1]) for n in range(query[2] + 1)]
    if kind in ("scriptB", "scriptB-def"):
        fn = pb.script_B_closed if kind == "scriptB" else pb.script_B_def
        _, big_m, big_l, n = query
        return [fn(m, l, n) for m in range(big_m + 1) for l in range(big_l + 1)]
    if kind == "bernoulli":
        return [pb.bernoulli(n) for n in range(query[1] + 1)]
    if kind == "genocchi":
        return [pb.genocchi(n) for n in range(query[1] + 1)]
    if kind in ("stirling1", "stirling2"):
        fn = pb.stirling_first if kind == "stirling1" else pb.stirling_second
        return [fn(query[1], m) for m in range(query[1] + 1)]
    _, n, k, x = query
    return [pb.poly_bernoulli_polynomial(n, k)(x)]


def digest(values: list) -> str:
    return hashlib.blake2b(";".join(map(str, values)).encode(), digest_size=8).hexdigest()


class Checker:
    """Expected answers from routes independent of the ones the stream used.

    * B rows: duality ``B_n^(k) = B_{-k}^(-n)`` for k <= 0, the generating
      function for k > 0;
    * C rows: ``C_n^(k) = scriptB(n, -k-1, 1)`` for k < 0, the generating
      function for k >= 0;
    * scriptB boxes against ``script_B_def`` and the reverse;
    * Bernoulli numbers from the EGF ``t/(e^t-1)``; Genocchi numbers as
      ``2(1-2^n) B_n`` with those Bernoulli numbers;
    * Stirling rows by ``sum_m [n m] x^m = x(x+1)...(x+n-1)`` and
      ``sum_m {n m} x(x-1)...(x-m+1) = x^n`` at ``x = n + 1``;
    * polynomial values from the polynomial EGF at the same point.

    Generating functions are expanded once per parameter, to the largest
    order the stream asks for.
    """

    def __init__(self, queries):
        self.orders = {}
        for q in queries:
            if q[0] in ("B", "C"):
                key, order = (q[0], q[1]), q[2]
            elif q[0] in ("bernoulli", "genocchi"):
                key, order = ("bernoulli",), q[1]
            elif q[0] == "poly":
                key, order = ("poly", q[2], q[3]), q[1]
            else:
                continue
            self.orders[key] = max(self.orders.get(key, 0), order)
        self._egf = {}
        self._script_b_values = {}

    def _coefficient(self, key, n):
        if key not in self._egf:
            order = self.orders[key]
            if key[0] == "B":
                series = pb.egf_poly_bernoulli_B(key[1], order)
            elif key[0] == "C":
                series = pb.egf_poly_bernoulli_C(key[1], order)
            elif key[0] == "bernoulli":
                series = pb.egf_bernoulli(order)
            else:
                series = pb.egf_poly_bernoulli_polynomial(key[1], key[2], order)
            self._egf[key] = [pb.egf_coefficient(series, i) for i in range(order + 1)]
        return self._egf[key][n]

    def _script_b(self, route, m, l, n):
        key = (route, m, l, n)
        if key not in self._script_b_values:
            fn = pb.script_B_def if route == "def" else pb.script_B_closed
            self._script_b_values[key] = fn(m, l, n)
        return self._script_b_values[key]

    def ok(self, query: tuple, values: list) -> bool:
        kind = query[0]
        if kind == "B":
            k = query[1]
            if k <= 0:
                expected = [pb.poly_bernoulli_B(-k, -n) for n in range(query[2] + 1)]
            else:
                expected = [self._coefficient(("B", k), n) for n in range(query[2] + 1)]
        elif kind == "C":
            k = query[1]
            if k < 0:
                expected = [pb.script_B_closed(n, -k - 1, 1) for n in range(query[2] + 1)]
            else:
                expected = [self._coefficient(("C", k), n) for n in range(query[2] + 1)]
        elif kind in ("scriptB", "scriptB-def"):
            route = "def" if kind == "scriptB" else "closed"
            _, big_m, big_l, n = query
            expected = [
                self._script_b(route, m, l, n) for m in range(big_m + 1) for l in range(big_l + 1)
            ]
        elif kind == "bernoulli":
            expected = [self._coefficient(("bernoulli",), n) for n in range(query[1] + 1)]
        elif kind == "genocchi":
            expected = [
                2 * (1 - 2**n) * self._coefficient(("bernoulli",), n) for n in range(query[1] + 1)
            ]
        elif kind == "stirling1":
            n = query[1]
            return len(values) == n + 1 and sum(c * 2**m for m, c in enumerate(values)) == (
                factorial(n + 1)
            )
        elif kind == "stirling2":
            n = query[1]
            x = n + 1
            total, falling = 0, 1
            for m, c in enumerate(values):
                total += c * falling
                falling *= x - m
            return len(values) == n + 1 and total == x**n
        else:
            _, n, k, x = query
            expected = [self._coefficient(("poly", k, x), n)]
        return values == expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--check", action="store_true", help="check every answer afterwards")
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    args = parser.parse_args(argv)

    queries = generate(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    clock = time.perf_counter
    answers, latencies, errors = [], [], {}
    start = clock()
    for i, query in enumerate(queries):
        t0 = clock()
        try:
            values = answer(query)
        except (ArithmeticError, ValueError) as exc:
            values = None
            errors[i] = repr(exc)
        latencies.append(clock() - t0)
        answers.append(values)
    stream_s = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "stream_s": stream_s,
        "latencies": latencies,
        "peak_rss_mb": peak_rss_mb,
        "digests": [None if a is None else digest(a) for a in answers],
        "failed": sorted(errors),
        "errors": list(errors.values())[:3],
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    if args.check:
        checker = Checker(queries)
        wrong = [
            i
            for i, (query, values) in enumerate(zip(queries, answers))
            if values is not None and not checker.ok(query, values)
        ]
        result["failed"] = sorted(set(result["failed"]) | set(wrong))
        result["errors"] += [f"mismatch in {queries[i]!r}" for i in wrong[:3]]
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
