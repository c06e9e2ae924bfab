"""Independent checker for proper total colorings and neighbor distinction.

All products are exact Python integers and reports are exhaustive: every
clash and every collision is listed, not just the first.  A coloring is
first checked in one pass over the vertices and edges, in O(n + m) time and
memory whatever the color values; the report is built only when that pass
finds a violation or a color is too large for its per-vertex bitmasks.  The
report walks the edges once, for the range faults, the clashes at an edge and
each vertex's edge ids, then groups each star's edges by color for the
edge-edge clashes.

``star_products`` is the one closed-star fold of the package: the exhaustive
report takes its products from it, and the construction its edge-color
products and v_star.  The one-pass check folds its own products inline, so
every coloring ``color_corona`` returns is checked by code apart from the
fold that built it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import DimensionMismatchError
from .graph import Graph, TotalColoring

VERTEX_VERTEX_CLASH = "VertexVertexClash"
EDGE_EDGE_CLASH = "EdgeEdgeClash"
VERTEX_EDGE_CLASH = "VertexEdgeClash"
PRODUCT_COLLISION = "ProductCollision"
SET_COLLISION = "SetCollision"
COLOR_OUT_OF_RANGE = "ColorOutOfRange"
MAX_MASK_COLOR = 511  # the largest color the one-pass check keeps in a star's bitmask


@dataclass(frozen=True)
class Violation:
    kind: str
    elements: tuple
    witness: tuple


@dataclass(frozen=True)
class VerifyReport:
    violations: tuple[Violation, ...]
    products: list[int]  # closed-star product by vertex; empty if a color is not positive

    @property
    def ok(self) -> bool:
        return not self.violations


def check_cover(g: Graph, coloring: TotalColoring) -> None:
    """Raise DimensionMismatchError unless coloring colors each vertex and edge of g."""
    if len(coloring.vertex_colors) != g.n or len(coloring.edge_colors) != len(g.lo):
        raise DimensionMismatchError(
            f"coloring covers {len(coloring.vertex_colors)} vertices / "
            f"{len(coloring.edge_colors)} edges, graph has {g.n} / {len(g.lo)}"
        )


def star_products(start: Sequence[int], g: Graph, colors: Sequence[int]) -> list[int]:
    """start[x] times the colors of x's edges in g, for every vertex x."""
    prod = list(start)
    for a, b, c in zip(g.lo, g.hi, colors):
        prod[a] *= c
        prod[b] *= c
    return prod


def _clean_products(g: Graph, coloring: TotalColoring) -> list[int] | None:
    """Closed-star products of a proper total coloring within 1..max_color, or None.

    Each vertex keeps the bitmask of the colors in its star so far, and an
    edge color already in either end's mask is a vertex-edge or edge-edge
    clash.  Colors above MAX_MASK_COLOR return None, so a mask takes at most
    64 bytes and memory is O(n + m); the exhaustive report takes those.
    """
    vcol, ecol = coloring.vertex_colors, coloring.edge_colors
    top = max(max(vcol, default=1), max(ecol, default=1))
    if min(min(vcol, default=1), min(ecol, default=1)) < 1:
        return None
    if top > min(coloring.max_color, MAX_MASK_COLOR):
        return None
    bit = [1 << c for c in range(top + 1)]
    seen = [bit[c] for c in vcol]
    prods = list(vcol)
    for a, b, c in zip(g.lo, g.hi, ecol):
        x = bit[c]
        sa, sb = seen[a], seen[b]
        if vcol[a] == vcol[b] or sa & x or sb & x:
            return None
        seen[a] = sa | x
        seen[b] = sb | x
        prods[a] *= c
        prods[b] *= c
    return prods


def verify_proper_total(g: Graph, coloring: TotalColoring) -> VerifyReport:
    """Report every adjacency/incidence clash and every color outside 1..max_color."""
    check_cover(g, coloring)
    products = _clean_products(g, coloring)
    if products is not None:
        return VerifyReport((), products)
    vcol, ecol, mx = coloring.vertex_colors, coloring.edge_colors, coloring.max_color
    vertex_range = [
        Violation(COLOR_OUT_OF_RANGE, (("vertex", v),), (c,))
        for v, c in enumerate(vcol)
        if not 1 <= c <= mx
    ]
    edge_range: list[Violation] = []
    vertex_vertex: list[Violation] = []
    vertex_edge: list[Violation] = []
    inc: list[list[int]] = [[] for _ in range(g.n)]  # edge ids at each vertex
    for t, (a, b, c) in enumerate(zip(g.lo, g.hi, ecol)):
        e = (a, b)
        if not 1 <= c <= mx:
            edge_range.append(Violation(COLOR_OUT_OF_RANGE, (("edge", e),), (c,)))
        if vcol[a] == vcol[b]:
            vertex_vertex.append(
                Violation(VERTEX_VERTEX_CLASH, (("vertex", a), ("vertex", b)), (vcol[a],))
            )
        for v in e:
            if c == vcol[v]:
                vertex_edge.append(
                    Violation(VERTEX_EDGE_CLASH, (("vertex", v), ("edge", e)), (c,))
                )
        inc[a].append(t)
        inc[b].append(t)
    edge_edge: list[Violation] = []
    lo, hi = g.lo, g.hi
    for ts in inc:
        groups: dict[int, list[int]] = {}
        for t in ts:
            groups.setdefault(ecol[t], []).append(t)
        # most groups hold one edge: skipping them halves the report's time
        for c, same in groups.items():
            if len(same) > 1:
                edge_edge += [
                    Violation(EDGE_EDGE_CLASH, (("edge", (lo[x], hi[x])), ("edge", (lo[y], hi[y]))),
                              (c,))
                    for x, y in combinations(same, 2)
                ]
    violations = vertex_range + edge_range + vertex_vertex + vertex_edge + edge_edge
    positive = min(min(vcol, default=1), min(ecol, default=1)) >= 1
    products = star_products(vcol, g, ecol) if positive else []
    return VerifyReport(tuple(violations), products)


def _collisions(g: Graph, kind: str, keys: Sequence) -> tuple[Violation, ...]:
    """A kind violation for every edge whose ends have equal keys, witnessed by
    the two keys: the one collision step of product and set mode."""
    return tuple(
        Violation(kind, (("vertex", a), ("vertex", b)), (keys[a], keys[b]))
        for a, b in zip(g.lo, g.hi)
        if keys[a] == keys[b]
    )


def verify_npd(g: Graph, coloring: TotalColoring) -> VerifyReport:
    """Proper-total checks plus distinct closed-star products across every edge."""
    report = verify_proper_total(g, coloring)
    if not report.ok:
        return report
    return VerifyReport(_collisions(g, PRODUCT_COLLISION, report.products), report.products)


def verify_nvd(g: Graph, coloring: TotalColoring) -> VerifyReport:
    """Proper-total checks plus distinct closed-star color sets across every edge."""
    report = verify_proper_total(g, coloring)
    if not report.ok:
        return report
    # the fold of star_products, with set union in place of the product
    sets = [{c} for c in coloring.vertex_colors]
    for a, b, c in zip(g.lo, g.hi, coloring.edge_colors):
        sets[a].add(c)
        sets[b].add(c)
    keys = [tuple(sorted(colors)) for colors in sets]
    return VerifyReport(_collisions(g, SET_COLLISION, keys), report.products)


def report_to_json(report: VerifyReport) -> str:
    """Render a report as the JSON sibling of the coloring document: the text
    of ``json.dumps`` with ``indent=2`` of {"ok", "violations", "products"},
    products keyed "0", "1", ... in vertex order, one per line."""
    # products are exact at any size; Python 3.10.7+ refuses to write an int past
    # sys.get_int_max_str_digits() digits, a limit meant for parsing (0: none)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        # the tuples go to json.dumps as they are: JSON writes them as arrays
        head = json.dumps(
            {
                "ok": report.ok,
                "violations": [
                    {"kind": v.kind, "elements": v.elements, "witness": v.witness}
                    for v in report.violations
                ],
            },
            indent=2,
        )[:-2]  # drop the closing "\n}": the products block goes there
        # json.dumps with indent falls back to its Python encoder, which would
        # take a call per product; the compact one spells each value (an int, or
        # true or false for a bool color) the same way at C speed, and no value
        # holds a comma
        values = json.dumps(report.products, separators=(",", ":"), check_circular=False)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    if not report.products:
        return head + ',\n  "products": {}\n}'
    lines = [f'    "{v}": {p}' for v, p in enumerate(values[1:-1].split(","))]
    return head + ',\n  "products": {\n' + ",\n".join(lines) + "\n  }\n}"
