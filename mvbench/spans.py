"""Per-layer spans for the benchmark, recorded from outside the package.

``Tracer.install`` replaces every public module-level function of each layer
module, and the ``WeylGroup`` methods ``kpf``, ``braid_graph`` and
``word_data``, with a wrapper that records a span: its key, its parent span,
its duration and the part of it not covered by child spans (self time).
Module globals are looked up at call time, so wrapping ``bz.edge_length`` also
catches the calls ``bz.validate`` makes to it.  A name bound elsewhere with
``from module import name`` keeps the unwrapped function; its time counts to
the span that called it.

Spans are folded into counters as they close rather than kept one by one: a
D4 assembly opens thousands of them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

from mvpolytopes.weyl import WeylGroup

# The package's modules, one layer each.  cartan and cli are thin and get no
# metrics of their own; their time counts to the span that called them.
LAYERS = (
    "weyl",
    "_kernels",
    "lusztig",
    "bz",
    "polytope",
    "rep",
    "cones",
    "primes",
    "sln",
    "serialize",
    "draw",
)
WEYL_METHODS = ("kpf", "braid_graph", "word_data")

# A call to a cached function counts as a hit when its span has no child span
# in these layers, which is where a miss does its work.
CACHED = ("polytope.enumerate_mv", "weyl.kpf")
MISS_LAYERS = frozenset({"bz", "lusztig", "_kernels"})

KERNELS = (
    "_kernels.count_nonneg_combinations",
    "_kernels.enumerate_nonneg_combinations",
    "_kernels.filter_box_points",
)


class _Frame:
    __slots__ = ("key", "layer", "child_s", "child_layers", "child_rows")

    def __init__(self, key: str, layer: str):
        self.key = key
        self.layer = layer
        self.child_s = 0.0
        self.child_layers: set[str] = set()
        self.child_rows = 0


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far; installed wrappers stay."""
        self.calls: Counter = Counter()  # span key -> spans closed
        self.self_s: Counter = Counter()  # span key -> summed self time
        self.entries: Counter = Counter()  # layer -> spans entered from outside it
        self.edges: Counter = Counter()  # (parent key, key) -> spans
        self.hits: Counter = Counter()  # key in CACHED -> spans that were hits
        self.counts: Counter = Counter()  # work counts read from return values

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"mvpolytopes.{layer}")
            for name, obj in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                self._patch(mod, name, self._wrap(f"{layer}.{name}", layer, obj))
        for name in WEYL_METHODS:
            fn = vars(WeylGroup)[name]
            self._patch(WeylGroup, name, self._wrap(f"weyl.{name}", "weyl", fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, key: str, layer: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(key, layer)
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                self._close(frame, parent, duration, result)

        return traced

    def _close(self, frame: _Frame, parent: _Frame | None, duration: float, result) -> None:
        key = frame.key
        self.calls[key] += 1
        self.self_s[key] += duration - frame.child_s
        if key in CACHED and not frame.child_layers & MISS_LAYERS:
            self.hits[key] += 1
        if result is not None:
            self._count_work(frame, parent, result)
        if parent is None:
            self.entries[frame.layer] += 1
            return
        parent.child_s += duration
        parent.child_layers.add(frame.layer)
        self.edges[parent.key, key] += 1
        if parent.layer != frame.layer:
            self.entries[frame.layer] += 1

    def _count_work(self, frame: _Frame, parent: _Frame | None, result) -> None:
        key = frame.key
        if key in KERNELS:
            rows = result if isinstance(result, int) else len(result)
            self.counts["kernel_rows"] += rows
            if parent is not None:
                parent.child_rows += rows
        elif key == "cones.hilbert_basis" and frame.child_rows:
            # the zero vector is always in the box and never a candidate
            self.counts["hilbert_basis"] += len(result)
            self.counts["hilbert_candidates"] += frame.child_rows - 1
        elif key == "primes.build_catalog":
            self.counts["catalog_choices"] += result.n_choices
            self.counts["catalog_maximal"] += result.n_maximal
        elif key == "serialize.canonical_json":
            self.counts["serialized_bytes"] += len(result.encode())

    # -- reading -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, s in self.self_s.items():
            out[key.split(".", 1)[0]] += s
        return out

    def top_spans(self, limit: int = 12) -> list[tuple[str, int, float]]:
        """(key, calls, self seconds) of the spans with the most self time."""
        ranked = sorted(self.self_s.items(), key=lambda kv: -kv[1])[:limit]
        return [(key, self.calls[key], s) for key, s in ranked]


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when the layer did no such work."""
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    op_s: float,
    setup_weyl_s: float,
    setup_word_data_calls: int,
    overhead_frac: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    Times and counts cover the timed ops, except ``weyl.setup_s`` (weyl self
    time during set-up) and ``weyl.word_data.calls`` (set-up and ops).
    ``*.share`` is self time over traced op time; ``*.calls`` counts spans
    entered from outside the layer.
    """
    t = tracer
    self_s = t.layer_self_s()
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        p = layer.lstrip("_")  # metric names start with a letter: _kernels -> kernels
        m[f"{p}.calls"] = (t.entries[layer], "count")
        m[f"{p}.self_s"] = (self_s[layer], "s")
        m[f"{p}.share"] = (_ratio(self_s[layer], op_s), "ratio")
    assemblies = t.calls["bz.from_lusztig"]
    m.update(
        {
            "weyl.setup_s": (setup_weyl_s, "s"),
            "weyl.word_data.calls": (setup_word_data_calls + t.calls["weyl.word_data"], "count"),
            "weyl.kpf.calls": (t.calls["weyl.kpf"], "count"),
            "weyl.kpf.hit_ratio": (_ratio(t.hits["weyl.kpf"], t.calls["weyl.kpf"]), "ratio"),
            "kernels.rows": (t.counts["kernel_rows"], "count"),
            "lusztig.transitions_per_assembly": (
                _ratio(t.edges["bz.from_lusztig", "lusztig.braid_transition"], assemblies),
                "count",
            ),
            "lusztig.partial_maps_per_assembly": (
                _ratio(t.edges["bz.from_lusztig", "lusztig.n_to_partial_M"], assemblies),
                "count",
            ),
            "bz.assemblies": (assemblies, "count"),
            "bz.validations": (t.calls["bz.validate"], "count"),
            "polytope.enumerate_mv.calls": (t.calls["polytope.enumerate_mv"], "count"),
            "polytope.enumerate_mv.hit_ratio": (
                _ratio(t.hits["polytope.enumerate_mv"], t.calls["polytope.enumerate_mv"]),
                "ratio",
            ),
            "cones.nullspace.calls": (t.calls["cones.nullspace"], "count"),
            "cones.extreme_rays.calls": (t.calls["cones.extreme_rays"], "count"),
            "cones.hilbert_basis.calls": (t.calls["cones.hilbert_basis"], "count"),
            "cones.hilbert_basis.useful_ratio": (
                _ratio(t.counts["hilbert_basis"], t.counts["hilbert_candidates"]),
                "ratio",
            ),
            "primes.catalog_builds": (t.calls["primes.build_catalog"], "count"),
            "primes.maximal_ratio": (
                _ratio(t.counts["catalog_maximal"], t.counts["catalog_choices"]),
                "ratio",
            ),
            "primes.decompositions": (t.calls["primes.decompose"], "count"),
            "serialize.bytes": (t.counts["serialized_bytes"], "count"),
            "trace.overhead_frac": (overhead_frac, "ratio"),
        }
    )
    return m
