"""Spans around the calls one coronacolor module makes into another.

The tracer patches names in the calling module's namespace (for example
``coronacolor.construct.base_coloring``), so calls inside a module are not
split and nothing under ``src/`` changes.  A span is ``[name, start, end,
parent, work]``: ``parent`` is the index of the enclosing span or -1, and
``work`` is a count taken at the boundary (elements handed to a search,
bytes emitted, classes enumerated), or ``None``.

A layer's self time is the time inside its spans minus the time inside
their child spans, so the self times of all layers, plus the benchmark's own
``bench`` span, add up to the traced pass.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

LAYERS = ("graph", "search", "edgecolor", "construct", "verify", "graphio", "enumeration", "cli")


def graph_size(g) -> int:
    return g.n + len(g.edges)


def _arg0_size(args, result):
    return graph_size(args[0])


def _result0_size(args, result):
    return graph_size(result[0])


def _result_len(args, result):
    return len(result)


def component_counts(h, trace) -> list[int]:
    """[components, structured, isolated, empty_h, verify_failed] of one result.

    Every component of G with two or more vertices gets a structured coloring
    when H has a vertex; it is tagged Fallback afterwards only when that
    coloring failed verification.
    """
    comps = trace.component_cases
    if h.n == 0:
        return [len(comps), 0, 0, len(comps), 0]
    isolated = sum(1 for comp, _ in comps if len(comp) == 1)
    failed = sum(1 for comp, tag in comps if len(comp) > 1 and tag == "Fallback")
    return [len(comps), len(comps) - isolated, isolated, 0, failed]


def _color_counts(args, result):
    return component_counts(args[1], result.trace)


# (module the call is made from, attribute, span name, work counter)
PATCHES = (
    ("construct", "base_coloring", "search.base_coloring", _arg0_size),
    ("construct", "npdtc_search", "search.npdtc_search", _arg0_size),
    ("construct", "corona", "graph.corona", _result0_size),
    ("construct", "subgraph", "graph.subgraph", None),
    ("construct", "edge_index", "graph.edge_index", None),
    ("construct", "connected_components", "graph.connected_components", None),
    ("construct", "verify_npd", "verify.verify_npd", _arg0_size),
    ("construct", "vizing_color", "edgecolor.vizing_color", None),
    ("construct", "color_corona", "construct.color_corona", _color_counts),
    ("search", "subgraph", "graph.subgraph", None),
    ("cli", "color_corona", "construct.color_corona", _color_counts),
    ("cli", "chi_prod_exact", "search.chi_prod_exact", None),
    ("cli", "enumerate_subcubic", "enumeration.enumerate_subcubic", _result_len),
    ("cli", "parse_graph6", "graphio.parse_graph6", None),
    ("cli", "coloring_document", "graphio.coloring_document", None),
    ("cli", "emit_coloring_json", "graphio.emit_coloring_json", _result_len),
    ("cli", "emit_graph6", "graphio.emit_graph6", _result_len),
)


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, work=None, **kwargs):
        spans = self.spans
        idx = len(spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if work is not None:
            span[4] = work(args, result)
        return result

    def adopt(self, spans: list[list]) -> None:
        """Take spans recorded by a child process under the current span;
        perf_counter is the system-wide monotonic clock, so times line up."""
        offset = len(self.spans)
        root = self._stack[-1] if self._stack else -1
        for name, start, end, parent, work in spans:
            self.spans.append([name, start, end, offset + parent if parent >= 0 else root, work])

    def _wrap(self, name: str, fn, work):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, work=work, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for modname, attr, name, work in PATCHES:
            mod = importlib.import_module(f"coronacolor.{modname}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, work))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    Of the verify_npd calls under one color_corona call, the last is the
    final whole-corona check; the others are per-component checks.
    """
    own = self_times(spans)
    m: dict[str, float] = defaultdict(float)
    last_verify: dict[int, int] = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name == "verify.verify_npd":
            last_verify[parent] = i
    finals = set(last_verify.values())
    for i, (name, _, _, parent, work) in enumerate(spans):
        layer = name.split(".", 1)[0]
        m[f"{layer}.self_s"] += own[i]
        if name == "search.base_coloring":
            m["search.base_s"] += own[i]
            m["search.base_elements"] += work
        elif name == "search.npdtc_search":
            m["search.fallback_s"] += own[i]
            m["search.fallback_calls"] += 1
            m["search.fallback_elements"] += work
        elif name == "search.chi_prod_exact":
            m["search.oracle_s"] += own[i]
            m["search.oracle_calls"] += 1
        elif name == "graph.subgraph":
            m["graph.subgraph_s"] += own[i]
            m["graph.subgraph_calls"] += 1
        elif name == "graph.corona":
            m["graph.corona_s"] += own[i]
            m["graph.corona_elements"] += work
        elif name == "verify.verify_npd" and i in finals:
            m["verify.final_s"] += own[i]
            m["verify.final_elements"] += work
        elif name == "verify.verify_npd":
            m["verify.component_s"] += own[i]
            m["verify.component_calls"] += 1
        elif name == "edgecolor.vizing_color":
            m["edgecolor.vizing_s"] += own[i]
            m["edgecolor.vizing_calls"] += 1
        elif name == "graphio.parse_graph6":
            m["graphio.parse_s"] += own[i]
        elif name.startswith("graphio.emit") or name == "graphio.coloring_document":
            m["graphio.emit_s"] += own[i]
            m["graphio.bytes_out"] += work or 0
        elif name == "enumeration.enumerate_subcubic":
            m["enumeration.enumerate_s"] += own[i]
            m["enumeration.classes"] += work
        elif name == "construct.color_corona":
            if parent >= 0 and spans[parent][0] == "cli.main":
                m["cli.records"] += 1
            for key, count in zip(
                ("components", "structured_components", "fallback_isolated",
                 "fallback_empty_h", "fallback_verify_failed"),
                work,
            ):
                m[f"construct.{key}"] += count
    structured = m["construct.structured_components"]
    m["construct.structured_pass_ratio"] = (
        (structured - m["construct.fallback_verify_failed"]) / structured if structured else 1.0
    )
    m["trace.layer_self_sum_s"] = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    return m
