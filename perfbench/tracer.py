"""Outside-in tracer for the five polybern layers.

The tracer wraps each layer module's public callables from outside the
package, so nothing under ``src/`` knows it exists.  Two details keep it from
missing calls:

* ``from .polybernoulli import bernoulli`` gives ``identities`` and ``cli``
  their own binding of the same function, so every wrapper is rebound in
  every module namespace that holds the original (and in the identity
  registry, whose entries hold the verifier functions directly).
* ``Series1``/``Series2`` methods are patched on the class, so calls the
  series layer makes to itself (``power`` calling ``__mul__``) are seen too.
  ``__rmul__``/``__radd__`` were bound to the original functions when the
  class was created and are pointed at the new wrappers.

A span's self time is its duration minus the time covered by child spans.
Spans are folded into per-callable totals in memory as they close; nothing
is written until :meth:`Tracer.summary` is called at the end of the process.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from fractions import Fraction

LAYERS = ("combinatorics", "series", "polybernoulli", "identities", "cli")

# Series kernels reported one by one: (class name or None, attribute) -> name.
KERNELS = {
    ("Series1", "__mul__"): "s1_mul",
    ("Series1", "inverse"): "s1_inverse",
    ("Series1", "exp"): "s1_exp",
    ("Series1", "compose"): "s1_compose",
    ("Series1", "mobius_substitution"): "s1_mobius",
    ("Series1", "power"): "s1_power",
    ("Series2", "__mul__"): "s2_mul",
    ("Series2", "inverse"): "s2_inverse",
    ("Series2", "exp"): "s2_exp",
    ("Series2", "power"): "s2_power",
    (None, "polylog_substitute"): "polylog",
}

# Further arithmetic patched on the series classes, so that its time counts
# for the series layer rather than for whichever layer called it.  Indexing
# and construction stay unwrapped: they are cheap and far too frequent.
# ``__pow__`` reaches ``power`` through the class, so it needs no wrapper.
SERIES_METHODS = ("__add__", "__sub__", "__rsub__", "__neg__", "derivative", "truncate", "__eq__")

# Process-lifetime caches read through their public ``cache_info()``.
LAYER_CACHES = {
    "polybernoulli": ("poly_bernoulli_at_integer", "script_B_closed"),
    "identities": ("egf_closed_form", "kernel_series", "denominator_series"),
}


def _coeff_bits(series) -> int:
    rows = series.coeffs if isinstance(series.coeffs[0], tuple) else (series.coeffs,)
    best = 0
    for row in rows:
        for c in row:
            if isinstance(c, Fraction):
                best = max(best, abs(c.numerator).bit_length(), c.denominator.bit_length())
            else:
                best = max(best, abs(c).bit_length())
    return best


class Tracer:
    """Per-callable call counts, total time and self time for one process."""

    def __init__(self):
        self._stack = [[0.0]]  # child time covered inside each open span
        self.stats = {}  # "layer.callable" -> [calls, self_s]
        self.max_order = {}  # kernel name -> largest output order
        self.coeff_bits_max = 0
        self.checks = 0
        self.originals = {}  # "layer.callable" -> unwrapped object

    def wrap(self, key, fn, kernel=None, on_result=None):
        clock = time.perf_counter
        stack = self._stack
        stat = self.stats.setdefault(key, [0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += span - frame[0]
                stack[-1][0] += span
            if result is not NotImplemented and (kernel is not None or on_result is not None):
                # Book-keeping time is charged to no layer: it is added to the
                # parent's covered time, so the parent's self time excludes it.
                start = clock()
                if kernel is not None:
                    self.max_order[kernel] = max(self.max_order.get(kernel, 0), result.order)
                    self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(result))
                if on_result is not None:
                    on_result(result)
                stack[-1][0] += clock() - start
            return result

        return traced

    def install(self):
        """Wrap every public callable of the five layers, in place."""
        import polybern

        modules = {layer: importlib.import_module(f"polybern.{layer}") for layer in LAYERS}
        series, identities = modules["series"], modules["identities"]
        replaced = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # imported from elsewhere; wrapped where defined
                kernel = KERNELS.get((None, name))
                on_result = None
                if layer == "identities" and name.startswith("verify_") and name not in (
                    "verify_one",
                    "verify_all",
                ):
                    on_result = self._count_checks
                key = f"{layer}.{name}"
                self.originals[key] = obj
                replaced[id(obj)] = self.wrap(key, obj, kernel, on_result)

        for cls in (series.Series1, series.Series2):
            kernel_attrs = [attr for owner, attr in KERNELS if owner == cls.__name__]
            for attr in kernel_attrs + list(SERIES_METHODS):
                kernel = KERNELS.get((cls.__name__, attr))
                key = f"series.{kernel or cls.__name__ + '.' + attr}"
                setattr(cls, attr, self.wrap(key, vars(cls)[attr], kernel))
            cls.__rmul__ = cls.__mul__
            cls.__radd__ = cls.__add__
        polynomial = modules["polybernoulli"].RationalPolynomial
        key = "polybernoulli.RationalPolynomial.__call__"
        polynomial.__call__ = self.wrap(key, polynomial.__call__)

        for module in (polybern, *modules.values()):
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced and not name.startswith("__"):
                    setattr(module, name, replaced[id(obj)])
        for identity_id, entry in identities.REGISTRY.items():
            identities.REGISTRY[identity_id] = dataclasses.replace(
                entry, runner=replaced[id(entry.runner)]
            )

    def _count_checks(self, report):
        self.checks += report.checked_count

    def _cache_counts(self, layer):
        hits = misses = entries = 0
        for name in LAYER_CACHES[layer]:
            info = self.originals[f"{layer}.{name}"].cache_info()
            hits += info.hits
            misses += info.misses
            entries += info.currsize
        return hits, misses, entries

    def summary(self) -> dict:
        """Raw per-process totals; :func:`layer_metrics` turns them into metrics."""
        return {
            "stats": self.stats,
            "max_order": self.max_order,
            "coeff_bits_max": self.coeff_bits_max,
            "checks": self.checks,
            "caches": {layer: self._cache_counts(layer) for layer in LAYER_CACHES},
        }


def merge(summaries) -> dict:
    """Sum the raw totals of several processes (the processes of one pass)."""
    out = {"stats": {}, "max_order": {}, "coeff_bits_max": 0, "checks": 0, "caches": {}}
    for s in summaries:
        for key, (calls, self_s) in s["stats"].items():
            acc = out["stats"].setdefault(key, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for kernel, order in s["max_order"].items():
            out["max_order"][kernel] = max(out["max_order"].get(kernel, 0), order)
        out["coeff_bits_max"] = max(out["coeff_bits_max"], s["coeff_bits_max"])
        out["checks"] += s["checks"]
        for layer, counts in s["caches"].items():
            acc = out["caches"].setdefault(layer, [0, 0, 0])
            for i, value in enumerate(counts):
                acc[i] += value
    return out


def _ratio(hits, misses) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(summary: dict, bytes_out: int = 0) -> dict:
    """Per-layer metric values, named ``<layer>.<metric>``, from merged totals."""
    stats = summary["stats"]

    def total(prefix, index):
        return sum(v[index] for k, v in stats.items() if k.startswith(prefix))

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (total(layer + ".", 1), "s")
        if layer != "cli":
            metrics[f"{layer}.calls"] = (total(layer + ".", 0), "count")
    for kernel in KERNELS.values():
        calls, self_s = stats.get(f"series.{kernel}", (0, 0.0))
        metrics[f"series.{kernel}.self_s"] = (self_s, "s")
        metrics[f"series.{kernel}.calls"] = (calls, "count")
        metrics[f"series.{kernel}.max_order"] = (summary["max_order"].get(kernel, 0), "count")
    metrics["series.coeff_bits_max"] = (summary["coeff_bits_max"], "bits")
    metrics["polybernoulli.bernoulli.self_s"] = (
        stats.get("polybernoulli.bernoulli", (0, 0.0))[1],
        "s",
    )
    caches = summary["caches"]
    hits, misses, entries = caches.get("polybernoulli", (0, 0, 0))
    metrics["polybernoulli.cache_hit_ratio"] = (_ratio(hits, misses), "ratio")
    metrics["polybernoulli.cache_entries"] = (entries, "count")
    metrics["identities.checks"] = (summary["checks"], "count")
    hits, misses, _ = caches.get("identities", (0, 0, 0))
    metrics["identities.cache_hit_ratio"] = (_ratio(hits, misses), "ratio")
    metrics["cli.invocations"] = (stats.get("cli.run", (0, 0.0))[0], "count")
    metrics["cli.bytes_out"] = (bytes_out, "bytes")
    return metrics
