"""Layer tracing from outside the program.

Tracer.install() replaces every public function of the traced qbloch modules,
and the public methods of their classes, with a timing wrapper.  It patches
every namespace that holds a reference, because cli, classify and fseries use
`from .series import ...`.  A call opens a span only when it crosses into
another layer, so a layer's self time is the time spent in it minus the part
of that interval its child spans (other layers) cover.  Calls and the counts
derived from their arguments are recorded on every call.

Spans are kept in memory as (id, parent, name, start_ns, end_ns) and written
when the run ends.  Work done in --workers processes is invisible here: the
parent's span covers the time it waits for the pool.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "series", "pentagonal", "closed_form", "fseries", "classify", "oracle")
#: Operator methods traced besides the public ones.
DUNDERS = ("__mul__", "__add__", "__sub__", "__neg__", "__eq__")

#: Per-layer metric -> the traced names whose self time it sums.
TIME_GROUPS = {
    "series.pochhammer_ms": ("series.pochhammer",),
    "series.mul_ms": ("series.TruncSeries.__mul__",),
    "series.max_abs_ms": ("series.TruncSeries.max_abs",),
    "pentagonal.pnt_series_ms": ("pentagonal.pnt_series",),
    "pentagonal.locate_ms": ("pentagonal.locate_block_a", "pentagonal.locate_block_b"),
    "closed_form.coeff_ms": ("closed_form.a_coeff", "closed_form.b_coeff"),
    "fseries.F_direct_ms": ("fseries.F_direct",),
    "fseries.identities_ms": ("fseries.recurrence_check", "fseries.one_mod_k_identity_check",
                              "fseries.f1_base_identity_check", "fseries.F_backsolve",
                              "fseries.tail_split", "fseries.TailSplit.reconstruct",
                              "fseries.TailSplit.tail"),
    "classify.s_table_ms": ("classify.build_s_table", "classify.conjecture_scan",
                            "classify.poch_class"),
    "classify.shat_table_ms": ("classify.build_shat_table", "classify.eden_class"),
    "classify.window_ms": ("classify.window_check", "classify.window_detail"),
    "oracle.enum_ms": ("oracle.signed_distinct_sum", "oracle.distinct_partitions",
                       "oracle.eden_count", "oracle.eden_signed_sum",
                       "oracle.one_mod_k_signed_sum"),
    "oracle.table_ms": ("oracle.signed_distinct_table", "oracle.count_distinct_table"),
}
#: Per-layer metric -> the traced names whose calls it counts.
CALL_GROUPS = {
    "series.pochhammer_calls": ("series.pochhammer",),
    "pentagonal.locate_calls": ("pentagonal.locate_block_a", "pentagonal.locate_block_b"),
    "closed_form.calls": ("closed_form.a_coeff", "closed_form.b_coeff"),
    "fseries.F_direct_calls": ("fseries.F_direct",),
}


def _binomial_runs(start, step, count, length):
    """Coefficient updates of `count` binomial passes (1 - q^d), d = start,
    start+step, ..., each touching the length - d terms past d."""
    count = max(0, min(count, (length - 1 - start) // step + 1 if length > start else 0))
    return count * length - count * start - step * count * (count - 1) // 2


def _pochhammer_ops(start, step, L, N):
    return _binomial_runs(start, step, N if L is None else L, N + 1)


def _f_direct_ops(k, M, N):
    count = N // k if M is None else min(N // k, M)
    return _binomial_runs(1, 1, count, N + 1)


def _one_mod_k_ops(k, M):
    N = (M + 1) + k * M * (M + 1) // 2
    return _binomial_runs(1, k, M, N + 1)


def _binomial_method_ops(series, d, *_rest):
    return max(0, series.order + 1 - d)


#: Traced name -> coefficient updates its binomial multiplies and divides
#: make, computed from the call's arguments.
COEFF_OPS = {
    "series.pochhammer": _pochhammer_ops,
    "series.TruncSeries.mul_binomial": _binomial_method_ops,
    "series.TruncSeries.div_binomial": _binomial_method_ops,
    "fseries.F_direct": _f_direct_ops,
    "fseries.one_mod_k_identity_check": _one_mod_k_ops,
}


def _s_subjects(H, *_rest, **_kw):
    return (H + 2) * (6 * H + 17) + 1


def _shat_subjects(K, *_rest, **_kw):
    return K


#: Traced name -> (counter, subjects classified by the call).
SUBJECTS = {
    "classify.build_s_table": ("classify.s_subjects", _s_subjects),
    "classify.build_shat_table": ("classify.shat_subjects", _shat_subjects),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self._stack = [None]  # (span id, layer) of the open spans
        self._next_id = 0

    # -- installation -----------------------------------------------------

    def install(self, package: str = "qbloch") -> None:
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        replace = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[obj] = self._wrap(obj, layer, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, f"{layer}.{name}")
        namespaces = list(modules.values()) + [importlib.import_module(package)]
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(module, name, replace[obj])

    def _wrap_class(self, cls, layer, qualname):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            if isinstance(attr, classmethod):
                wrapped = self._wrap(attr.__func__, layer, f"{qualname}.{name}")
                setattr(cls, name, classmethod(wrapped))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, f"{qualname}.{name}"))

    def _wrap(self, fn, layer, name):
        ops = COEFF_OPS.get(name)
        subjects = SUBJECTS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if ops is not None:
                self.counters["series.coeff_ops"] += ops(*args, **kwargs)
            if subjects is not None:
                self.counters[subjects[0]] += subjects[1](*args, **kwargs)
            if self._stack[-1] is not None and self._stack[-1][1] == layer:
                return fn(*args, **kwargs)
            return self._span(layer, name, fn, args, kwargs)

        return traced

    def _wrap_generator(self, fn, layer, name):
        """Each resumption of the generator is a span of its own."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = self._span(layer, name, next, (gen,), {})
                except StopIteration:
                    return
                yield item

        return traced

    def _span(self, layer, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append((span_id, layer))
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, parent[0] if parent else -1, name, start, end))

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        """Traced name -> summed self time in ns."""
        child = defaultdict(int)
        for _sid, parent, _name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(int)
        for sid, _parent, name, start, end in self.spans:
            out[name] += end - start - child[sid]
        return out

    def layer_metrics(self, passes: int, out_bytes: int) -> dict:
        """Every per-layer metric, per pass over the traced command list."""
        selfs = self.self_times()
        metrics = {}

        def put(name, value, unit):
            metrics[name] = {"value": value / passes, "unit": unit}

        put("cli.self_ms", sum(v for k, v in selfs.items() if k.startswith("cli.")) / 1e6, "ms")
        put("cli.out_bytes", out_bytes, "bytes")
        for layer in LAYERS[1:]:
            put(f"{layer}.self_ms",
                sum(v for k, v in selfs.items() if k.startswith(layer + ".")) / 1e6, "ms")
        for metric, names in TIME_GROUPS.items():
            put(metric, sum(selfs.get(n, 0) for n in names) / 1e6, "ms")
        for metric, names in CALL_GROUPS.items():
            put(metric, sum(self.calls.get(n, 0) for n in names), "count")
        for metric in ("series.coeff_ops", "classify.s_subjects", "classify.shat_subjects"):
            put(metric, self.counters.get(metric, 0), "count")
        return metrics

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")
