"""In-memory span recorder and the outside instrumentation of harmonicdisk.

The benchmark times each library layer without touching library code: while
``instrumented(tracer)`` is active, every public function of each layer
module (and a few hot methods) is replaced by a wrapper that records a span.
``from .series import eval_many`` creates a second binding of the same
function in the importing module, so the wrapper is rebound in every
``harmonicdisk`` module that holds the original; leaving the context restores
every binding.

A span is ``[name, start_ns, end_ns, parent, item]``: ``parent`` is the index
of the enclosing span (``-1`` at top level) and ``item`` the id of the
benchmark item the span belongs to.  Counters that need the call's arguments
(operation counts, repeated work) are kept beside the spans, keyed by the
same item id.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

#: Library modules whose public functions are wrapped, in dependency order.
LAYERS = (
    "series",
    "sampling",
    "maps",
    "membership",
    "bounds",
    "closure",
    "radii",
    "geometry",
    "serialize",
    "svgplot",
    "cli",
)

#: Methods wrapped besides the module functions: (layer, class, method).
METHODS = (
    ("series", "TruncatedSeries", "derivative"),
    ("series", "TruncatedSeries", "evaluate"),
    ("sampling", "PolarGrid", "points"),
    ("maps", "HarmonicMap", "analytic_slice"),
    ("maps", "HarmonicMap", "evaluate"),
)

#: The checks whose margin obeys the minimum principle, so only the outer
#: ring of their grid can hold the minimum.
OUTER_RING_CHECKS = (
    "membership.membership_sampled",
    "membership.slice_membership_sampled",
    "membership.close_to_convex_check",
    "membership.half_plane_check",
)

CIRCLE_TESTS = ("geometry.starlike_on_circle", "geometry.convex_on_circle")
GROWTH_SERIES = ("bounds.growth_upper", "bounds.growth_lower")
SERIALIZE_LOAD = ("serialize.load_map", "serialize.document_to_map")
SERIALIZE_DUMP = ("serialize.save_map", "serialize.map_to_document", "serialize.dumps_document")

#: Bytes of n-by-n intermediates that the dense pair scan in
#: ``injective_on_circle`` computes per segment pair: two complex difference
#: arrays (16 B each), three float temporaries per cross product (8 B each,
#: two cross products), the float product q (8 B), the int64 gap array and
#: its absolute value (8 B each) and eight boolean masks (1 B each).
INJECTIVE_BYTES_PER_PAIR = 2 * 16 + 2 * 3 * 8 + 8 + 2 * 8 + 8 * 1


class Tracer:
    """Records spans and keyed counters; does nothing until instrumented."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._seen: set = set()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.item])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def repeat(self, metric: str, key) -> None:
        """Count a call, and count it again as a repeat if *key* was seen in this item."""
        key = (metric, self.item, key)
        self.counts[metric + ".keyed"] += 1
        if key in self._seen:
            self.counts[metric + ".repeats"] += 1
        else:
            self._seen.add(key)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._seen.clear()
        self._stack.clear()


# -- argument hooks -------------------------------------------------------------


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _hook_eval_many(tr, name, pos, args, kwargs, result):
    series, z = args[0], args[1]
    tr.counts["series.horner_terms"] += int(getattr(z, "size", 1)) * len(series.coeffs)


def _hook_derivative(tr, name, pos, args, kwargs, result):
    series = args[0]
    k = _arg(args, kwargs, 1, "k", 1)
    tr.repeat("series.derivative", (series.coeffs.tobytes(), k))


def _hook_points(tr, name, pos, args, kwargs, result):
    tr.repeat("sampling.points", args[0])


def _hook_verdict(tr, name, pos, args, kwargs, result):
    tr.counts["sampling.margins_reduced"] += int(getattr(args[0], "size", 1))


def _hook_outer_ring(tr, name, pos, args, kwargs, result):
    from harmonicdisk.sampling import PolarGrid

    grid = _arg(args, kwargs, pos["grid"], "grid") or PolarGrid()
    tr.counts["sampling.grid_points"] += grid.n_radii * grid.n_angles
    tr.counts["sampling.outer_points"] += grid.n_angles
    tr.counts["sampling.witnesses"] += 1
    if abs(abs(result.witness) - grid.max_radius) <= 1e-9 * grid.max_radius:
        tr.counts["sampling.outer_witnesses"] += 1


def _hook_growth(tr, name, pos, args, kwargs, result):
    key = (name, args[0], float(_arg(args, kwargs, 1, "r")), result.n_terms)
    tr.repeat("bounds.growth_series", key)


def _hook_circle_test(tr, name, pos, args, kwargs, result):
    tr.counts["geometry.circle_points"] += int(_arg(args, kwargs, pos["n"], "n", 1024))


def _hook_injective(tr, name, pos, args, kwargs, result):
    n = int(_arg(args, kwargs, pos["n"], "n", 1024))
    tr.counts["geometry.injective.pairs"] += n * n
    tr.counts["geometry.injective.bytes_computed"] += INJECTIVE_BYTES_PER_PAIR * n * n


def _hook_load(tr, name, pos, args, kwargs, result):
    source = args[0]
    if isinstance(source, (str, os.PathLike)):
        tr.counts["serialize.bytes"] += os.path.getsize(source)


def _hook_dumps(tr, name, pos, args, kwargs, result):
    tr.counts["serialize.bytes"] += len(result.encode("utf-8"))


HOOKS = {
    "series.eval_many": _hook_eval_many,
    "series.derivative": _hook_derivative,
    "sampling.points": _hook_points,
    "sampling.verdict_from_margins": _hook_verdict,
    "bounds.growth_upper": _hook_growth,
    "bounds.growth_lower": _hook_growth,
    "geometry.injective_on_circle": _hook_injective,
    "serialize.load_map": _hook_load,
    "serialize.dumps_document": _hook_dumps,
    **{name: _hook_outer_ring for name in OUTER_RING_CHECKS},
    **{name: _hook_circle_test for name in CIRCLE_TESTS},
}


def _wrap(tracer: Tracer, name: str, fn):
    hook = HOOKS.get(name)
    pos = {p: i for i, p in enumerate(inspect.signature(fn).parameters)}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, name, pos, args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route every layer's public functions through *tracer* inside the block."""
    layers = {layer: importlib.import_module(f"harmonicdisk.{layer}") for layer in LAYERS}
    package = [m for n, m in sys.modules.items() if n.split(".")[0] == "harmonicdisk"]
    restore = []
    try:
        for layer, mod in layers.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = _wrap(tracer, f"{layer}.{attr}", fn)
                for m in package:
                    if vars(m).get(attr) is fn:
                        restore.append((m, attr, fn))
                        setattr(m, attr, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(layers[layer], cls_name)
            fn = vars(cls)[method]
            restore.append((cls, method, fn))
            setattr(cls, method, _wrap(tracer, f"{layer}.{method}", fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(restore):
            setattr(owner, attr, fn)


# -- reduction of spans to layer metrics -----------------------------------------


def span_times(spans: list[list]) -> tuple[list[int], list[int]]:
    """Duration and self time (duration minus child-span time) of every span, in ns."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def _outermost(spans: list[list], i: int, group) -> bool:
    """True when no enclosing span of span *i* belongs to *group*."""
    p = spans[i][3]
    while p >= 0:
        if group(spans[p][0]):
            return False
        p = spans[p][3]
    return True


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, times and ratios of everything *tracer* recorded."""
    spans = tracer.spans
    dur, self_ns = span_times(spans)
    calls: Counter = Counter()
    total_ns: Counter = Counter()
    layer_self: Counter = Counter()
    for i, (name, *_rest) in enumerate(spans):
        calls[name] += 1
        total_ns[name] += dur[i]
        layer_self[name.split(".")[0]] += self_ns[i]

    def busy(group) -> float:
        """Seconds covered by spans in *group*, counting nested ones once."""
        ns = sum(dur[i] for i, s in enumerate(spans) if group(s[0]) and _outermost(spans, i, group))
        return ns / 1e9

    def in_layer(layer):
        return lambda name: name.split(".")[0] == layer

    def among(names):
        return lambda name: name in names

    oracle_probes = sum(
        1
        for i, s in enumerate(spans)
        if s[0] in CIRCLE_TESTS and not _outermost(spans, i, among(("radii.numeric_radius_oracle",)))
    )
    c = tracer.counts

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "series.eval_many.calls": calls["series.eval_many"],
        "series.eval_many.s": total_ns["series.eval_many"] / 1e9,
        "series.horner_terms": c["series.horner_terms"],
        "series.derivative.calls": calls["series.derivative"],
        "sampling.points.calls": calls["sampling.points"],
        "sampling.points.s": total_ns["sampling.points"] / 1e9,
        "sampling.verdict.calls": calls["sampling.verdict_from_margins"],
        "sampling.verdict.s": total_ns["sampling.verdict_from_margins"] / 1e9,
        "sampling.margins_reduced": c["sampling.margins_reduced"],
        "membership.busy_s": busy(in_layer("membership")),
        "membership.self_s": layer_self["membership"] / 1e9,
        "maps.busy_s": busy(in_layer("maps")),
        "maps.self_s": layer_self["maps"] / 1e9,
        "maps.analytic_slice.calls": calls["maps.analytic_slice"],
        "bounds.growth_series.calls": sum(calls[n] for n in GROWTH_SERIES),
        "bounds.busy_s": busy(in_layer("bounds")),
        "bounds.self_s": layer_self["bounds"] / 1e9,
        "radii.oracle.calls": calls["radii.numeric_radius_oracle"],
        "radii.oracle.probes": oracle_probes,
        "radii.oracle.busy_s": total_ns["radii.numeric_radius_oracle"] / 1e9,
        "radii.self_s": layer_self["radii"] / 1e9,
        "geometry.circle_test.calls": sum(calls[n] for n in CIRCLE_TESTS),
        "geometry.circle_test.busy_s": busy(among(CIRCLE_TESTS)),
        "geometry.circle_points": c["geometry.circle_points"],
        "geometry.injective.busy_s": total_ns["geometry.injective_on_circle"] / 1e9,
        "geometry.injective.pairs": c["geometry.injective.pairs"],
        "geometry.injective.bytes_computed": c["geometry.injective.bytes_computed"],
        "closure.busy_s": busy(in_layer("closure")),
        "serialize.load.busy_s": busy(among(SERIALIZE_LOAD)),
        "serialize.dump.busy_s": busy(among(SERIALIZE_DUMP)),
        "serialize.bytes": c["serialize.bytes"],
        "svgplot.busy_s": busy(in_layer("svgplot")),
    }
    m["series.derivative.dup_frac"] = frac(c["series.derivative.repeats"], c["series.derivative.keyed"])
    m["sampling.points.dup_frac"] = frac(c["sampling.points.repeats"], c["sampling.points.keyed"])
    m["sampling.outer_ring_frac"] = frac(c["sampling.outer_points"], c["sampling.grid_points"])
    m["sampling.witness_outer_frac"] = frac(c["sampling.outer_witnesses"], c["sampling.witnesses"])
    m["bounds.growth_series.dup_frac"] = frac(
        c["bounds.growth_series.repeats"], c["bounds.growth_series.keyed"]
    )
    return m

