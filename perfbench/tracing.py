"""In-memory span tracer for the benchmark's traced run.

Spans are recorded at dvsubset's layer boundaries: each function that one
dvsubset module imports from another (finder -> coloring, rainbow, geometry;
coloring -> geometry; cli -> finder, geometry), plus the two module-internal
calls the per-layer metrics need, `rainbow.find_bad_edge` and
`finder.verify_subset`.  Python resolves a module's global names at call
time, so replacing the module attribute reaches every call.  Only this
process is patched, and only between `install()` and `uninstall()`, so the
untraced solves of the same run execute the unmodified code.

A span is named after the module that defines the function, so
`geometry.edge_gram_det` is one name whether coloring or finder called it.
Each span keeps its start, end, parent span and solve id until the run ends.
"""

import inspect
import time
from collections import Counter
from math import comb

# rng and bounds cost microseconds per solve: no spans, rng is counted instead
UNSPANNED = ("dvsubset.rng", "dvsubset.bounds")
BOUNDARY_MODULES = ("finder", "coloring", "rainbow", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve")

    def __init__(self, name, start, end, parent, solve):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into the span list, None for a root
        self.solve = solve


def self_times(spans):
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


class Patches:
    """Module attributes to swap in on install() and restore on uninstall()."""

    def __init__(self):
        self._items = []

    def add(self, owner, attr, replacement):
        self._items.append((owner, attr, getattr(owner, attr), replacement))

    def install(self):
        for owner, attr, _, replacement in self._items:
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _ in self._items:
            setattr(owner, attr, original)


class Tracer(Patches):
    def __init__(self):
        super().__init__()
        self.spans = []
        self.counts = Counter()
        self.solve = None
        self._open = []

    def span(self, name, fn, hook=None):
        """fn wrapped to record one span per call, then hook(counts, args, kwargs, result)."""
        spans, open_, counts = self.spans, self._open, self.counts

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), None, open_[-1] if open_ else None, self.solve)
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def counter(self, fn, hook):
        """fn wrapped to run hook(counts, args, kwargs, result) after each call, no span."""
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(counts, args, kwargs, result)
            return result

        return counted


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_edges(counts, args, kwargs, result):
    counts["coloring.edges_colored"] += comb(len(_arg(args, kwargs, 0, "pset")), _arg(args, kwargs, 1, "a"))


def _count_verify(counts, args, kwargs, result):
    counts["finder.verify_edges"] += comb(len(_arg(args, kwargs, 1, "subset")), _arg(args, kwargs, 2, "a"))


def _count_accept(counts, args, kwargs, result):
    # t <= a returns the first t ids without drawing a sample
    if type(result).__name__ == "RainbowResult" and _arg(args, kwargs, 1, "t") > _arg(args, kwargs, 0, "coloring").a:
        counts["rainbow.accepted"] += 1


def _count_sample(counts, args, kwargs, result):
    counts["rainbow.samples"] += 1


def _count_pairs(counts, args, kwargs, result):
    counts["rainbow.conflict_pairs"] += len(result[0])


HOOKS = {
    "coloring.build_coloring": _count_edges,
    "finder.verify_subset": _count_verify,
    "rainbow.extract_rainbow": _count_accept,
    "rainbow.extract_rainbow_fast": _count_accept,
}


def instrument(tracer, modules, api, api_spans):
    """Register every boundary patch on the tracer.

    modules maps short names ("finder", ...) to the imported dvsubset
    modules; api is the benchmark's own namespace of entry points, whose
    attributes named in api_spans become the root spans of a solve.
    """
    for short in BOUNDARY_MODULES:
        mod = modules[short]
        for attr, obj in list(vars(mod).items()):
            source = getattr(obj, "__module__", "")
            if (
                inspect.isfunction(obj)
                and source.startswith("dvsubset.")
                and source not in (mod.__name__, *UNSPANNED)
            ):
                name = f"{source.rsplit('.', 1)[1]}.{obj.__name__}"
                tracer.add(mod, attr, tracer.span(name, obj, HOOKS.get(name)))
    for short, attr in (("rainbow", "find_bad_edge"), ("finder", "verify_subset")):
        mod = modules[short]
        if hasattr(mod, attr):
            name = f"{short}.{attr}"
            tracer.add(mod, attr, tracer.span(name, getattr(mod, attr), HOOKS.get(name)))
    rainbow = modules["rainbow"]
    # every extraction attempt derives one sample seed
    if hasattr(rainbow, "derive_seed"):
        tracer.add(rainbow, "derive_seed", tracer.counter(rainbow.derive_seed, _count_sample))
    if hasattr(rainbow, "_conflicts_within"):
        tracer.add(rainbow, "_conflicts_within", tracer.counter(rainbow._conflicts_within, _count_pairs))
    for attr, name in api_spans.items():
        tracer.add(api, attr, tracer.span(name, getattr(api, attr)))
