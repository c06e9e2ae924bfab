"""Exact reference computations that the tests check the package against.

``chi_prime_exact`` and ``product_at`` are brute force by design:
``chi_prime_exact`` is the oracle for ``vizing_color``'s palette bound, and
``product_at`` recomputes one closed-star product by scanning every edge,
independently of ``verify.star_products`` and of the verifier's one-pass
check.  ``reference_npdtc_search`` is the exact search kernel in its earlier
form, kept to show that the current one visits the same search tree.
``reference_parse_graph6`` and ``reference_emit_graph6`` are the graph6 codec
in its earlier form, one Python step per character, kept to show that the
byte-level one agrees with it on every output and every error.
``reference_parse_edge_list`` and ``reference_parse_coloring_json`` are the
text parsers in their earlier form, which sort a set of edges and walk a
document's edges and colors more than once: the one-walk parsers must agree
with them on every graph and every error, and on which documents they accept.
``reference_emit_coloring_json`` and ``reference_report_to_json`` are the two
JSON writers in their earlier form, one ``json.dumps`` per document field and
one ``json.dumps(..., indent=2)`` of the whole report: the writers must give
the same text on every document and every report.
``reference_canonical_form`` and ``reference_enumerate_subcubic`` are the
canonical form and the augmentation closure before the twin prunes: every
refinement-respecting vertex order is searched, every subset of a parent's
open vertices is joined to the new vertex, and the connected family is the
whole level filtered, so the pruned ones must agree with them exactly.
``reference_corona_by_vertex`` and ``reference_color_corona`` are the corona
build and the corona coloring in their earlier form, which walk v_j in turn:
per v_j three list comprehensions of edges, and a fresh copy of the ladder
with that v_j's position-1 color; the whole-array build must give the same
``ColorResult`` on every input.
``reference_gen_random_subcubic`` is the generator in its earlier form, one
``randrange(n)`` call per endpoint: the one that draws from ``getrandbits``
must give the same graph for every n and seed.
``reference_vizing_color`` is the edge coloring in its earlier form, one map
per vertex from color to neighbor, with the first endpoint's colors by
neighbor snapshotted at each insertion: the two maps kept in step must give
the same colors on every graph.
``k`` and ``cycle`` build the complete graph and the cycle on n vertices
that several test modules use.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect
from functools import lru_cache
from itertools import combinations
from math import isqrt

from coronacolor import (
    ColoringDocument,
    CoronaMap,
    Graph,
    TotalColoring,
    connected_components,
    max_degree,
    new_graph,
)
from coronacolor.construct import (
    CASE_1_1,
    CASE_1_2,
    CASE_2,
    FALLBACK,
    ColorResult,
    ConstructionTrace,
    cone_colors,
    min_copy_color,
    sort_by_product,
)
from coronacolor.edgecolor import edge_colors_at, vizing_color
from coronacolor.graph import collector_paused, graph_from_keys, require_subcubic
from coronacolor.search import base_coloring
from coronacolor.verify import star_products, verify_npd
from coronacolor.errors import (
    BadCharError,
    BudgetExceededError,
    ColorOutOfRangeError,
    CoronaColorError,
    DimensionMismatchError,
    DuplicateEdgeError,
    EdgeListParseError,
    EndpointOutOfRangeError,
    SchemaViolationError,
    SelfLoopError,
    TrailingGarbageError,
    TruncatedPayloadError,
)
from coronacolor.enumeration import _graph_from_form, _refined_cells
from coronacolor.graphio import MAX_EDGE_LIST_VERTICES
from coronacolor.verify import VerifyReport
from coronacolor.search import DEFAULT_BUDGET, _conflict_lists, _order_and_ahead


def k(n):
    """The complete graph on n vertices."""
    return new_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def cycle(n):
    """The cycle on n vertices, edges i ~ i+1 mod n."""
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


class IncompleteColoringError(CoronaColorError):
    """A star product was requested before the whole star was colored."""


def chi_prime_exact(h: Graph, budget: int = 2_000_000) -> tuple[int, tuple[int, ...]]:
    """Minimum number of colors in a proper edge coloring, with a witness
    coloring in canonical edge order.

    Backtracking over edges in canonical order; the t-th edge may only use
    colors 1..min(t, k), which loses no solutions because any coloring can be
    relabeled by order of first use.  The budget counts attempted assignments.
    """
    m = len(h.edges)
    if m == 0:
        return 1, ()
    adj_edges: list[list[int]] = [[] for _ in range(m)]
    inc: list[list[int]] = [[] for _ in range(h.n)]
    for t, (a, b) in enumerate(h.edges):
        for s in inc[a] + inc[b]:
            adj_edges[t].append(s)
            adj_edges[s].append(t)
        inc[a].append(t)
        inc[b].append(t)
    nodes = 0
    delta = max_degree(h)
    for kk in range(delta, delta + 2):
        assign = [0] * m
        t = 0
        while t >= 0:
            if t == m:
                return kk, tuple(assign)
            limit = min(t + 1, kk)
            c = assign[t] + 1
            placed = False
            while c <= limit:
                nodes += 1
                if nodes > budget:
                    raise BudgetExceededError(f"chi_prime_exact exceeded {budget} nodes")
                if all(assign[s] != c for s in adj_edges[t]):
                    placed = True
                    break
                c += 1
            if placed:
                assign[t] = c
                t += 1
            else:
                assign[t] = 0
                t -= 1
    raise AssertionError("unreachable: max_degree+1 colors always suffice")


def product_at(g: Graph, coloring: TotalColoring, v: int) -> int:
    """Exact product of v's color and the colors of its incident edges."""
    if len(coloring.vertex_colors) != g.n or len(coloring.edge_colors) != len(g.edges):
        raise DimensionMismatchError("coloring does not cover the graph")
    p = coloring.vertex_colors[v]
    star = [p]
    for t, (a, b) in enumerate(g.edges):
        if a == v or b == v:
            star.append(coloring.edge_colors[t])
    if any(c is None or c < 1 for c in star):
        raise IncompleteColoringError(f"star of vertex {v} is not fully colored")
    out = 1
    for c in star:
        out *= c
    return out


def reference_npdtc_search(
    g: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> tuple[TotalColoring | None, int]:
    """The earlier ``npdtc_search``, unchanged except that it also returns the
    number of search nodes it spent, so the kernel can be held to the same
    tree node for node.  Its own docstring follows.

    Proper total [k]-coloring with distinct star products across every edge, or None.

    Elements (vertices, then edges in canonical order) are colored in
    most-constrained-first order, colors ascending.  That order is computed
    once, before the search, by ``_order_and_ahead``: each next element has the
    most conflicts against those already ordered, ties broken by conflict
    degree and then by the smaller id, so backtracking causes stay recent.
    Every color of the palette is tried at every element, so an exhaustive
    None is a proof of absence.  A star's product is checked as soon as the
    star completes, and a branch dies early when two adjacent completed stars
    agree.  Raises BudgetExceededError when the node budget runs out, which is
    distinct from an exhaustive None.
    """
    if k < 1:
        raise ValueError("palette size must be positive")
    n, m = g.n, len(g.edges)
    total = n + m
    if total == 0:
        return TotalColoring((), (), 1), 0
    deg = [len(nb) for nb in g.adj]
    if max(deg, default=0) + 1 > k:
        return None, 0
    for a, b in g.edges:
        # both stars would need the whole palette, forcing equal products
        if deg[a] + 1 == k and deg[b] + 1 == k:
            return None, 0

    conf = _conflict_lists(g)
    owners: list[tuple[int, ...]] = [(v,) for v in range(n)]
    owners.extend(g.edges)
    order = _order_and_ahead(conf)[0]

    color = [0] * total
    banned = [[0] * (k + 1) for _ in range(total)]
    avail = [k] * total
    star_left = [deg[v] + 1 for v in range(n)]
    sig = [1] * n
    adjacency = g.adj

    def apply(e: int, c: int) -> tuple[list[int], bool]:
        dead = False
        bumped: list[int] = []
        for s in conf[e]:
            if color[s] == 0:
                bs = banned[s]
                bs[c] += 1
                bumped.append(s)
                if bs[c] == 1:
                    avail[s] -= 1
                    if avail[s] == 0:
                        dead = True
        color[e] = c
        for v in owners[e]:
            star_left[v] -= 1
            sig[v] *= c
            if star_left[v] == 0:
                sv = sig[v]
                for w in adjacency[v]:
                    if star_left[w] == 0 and sig[w] == sv:
                        dead = True
                        break
        return bumped, dead

    def revert(e: int, c: int, bumped: list[int]) -> None:
        color[e] = 0
        for v in owners[e]:
            star_left[v] += 1
            sig[v] //= c
        for s in bumped:
            bs = banned[s]
            bs[c] -= 1
            if bs[c] == 0:
                avail[s] += 1

    nodes = 0
    depth = 0
    last = [0] * (total + 1)
    trail: list[list[int]] = [[] for _ in range(total)]
    while True:
        if depth == total:
            return TotalColoring(tuple(color[:n]), tuple(color[n:]), max(color)), nodes
        e = order[depth]
        be = banned[e]
        c = last[depth] + 1
        while c <= k and be[c]:
            c += 1
        if c > k:
            last[depth] = 0
            depth -= 1
            if depth < 0:
                return None, nodes
            revert(order[depth], last[depth], trail[depth])
            continue
        last[depth] = c
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"npdtc_search exceeded {budget} nodes")
        bumped, dead = apply(e, c)
        if dead:
            revert(e, c, bumped)
            continue
        trail[depth] = bumped
        depth += 1


def _reference_decode_size(vals: list[int]) -> tuple[int, int]:
    if vals[0] != 63:
        return vals[0], 1
    if len(vals) < 4:
        raise TruncatedPayloadError("graph6 size prefix cut short")
    if vals[1] != 63:
        return (vals[1] << 12) | (vals[2] << 6) | vals[3], 4
    if len(vals) < 8:
        raise TruncatedPayloadError("graph6 size prefix cut short")
    n = 0
    for x in vals[2:8]:
        n = (n << 6) | x
    return n, 8


def _reference_encode_size(n: int) -> list[int]:
    if n <= 62:
        return [n]
    if n <= 258047:
        return [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    if n <= 68719476735:
        return [63, 63] + [(n >> s) & 63 for s in (30, 24, 18, 12, 6, 0)]
    raise ValueError("vertex count too large for graph6")


def reference_parse_graph6(line: str) -> Graph:
    """graph6 decoding with one list slot per character of the text."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise TruncatedPayloadError("empty graph6 text")
    vals = [ord(ch) - 63 for ch in s]
    if min(vals) < 0 or max(vals) > 63:
        ch = next(ch for ch, x in zip(s, vals) if not 0 <= x <= 63)
        raise BadCharError(f"character {ch!r} outside the graph6 alphabet")
    n, idx = _reference_decode_size(vals)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    have = len(vals) - idx
    if have < need:
        raise TruncatedPayloadError(f"need {need} payload characters, got {have}")
    if have > need:
        raise TrailingGarbageError(f"{have - need} characters past the adjacency payload")
    if need:
        pad = 6 * need - nbits
        if pad and vals[idx + need - 1] & ((1 << pad) - 1):
            raise TrailingGarbageError("nonzero padding bits")
    edges = []
    for group, x in enumerate(vals[idx:]):
        if not x:
            continue
        for off in range(6):
            if (x >> (5 - off)) & 1:
                b = 6 * group + off
                j = (1 + isqrt(1 + 8 * b)) // 2
                edges.append((b - j * (j - 1) // 2, j))
    return new_graph(n, edges)


def reference_emit_graph6(g: Graph) -> str:
    """graph6 encoding with one chr() per character of the text."""
    vals = _reference_encode_size(g.n)
    nbits = g.n * (g.n - 1) // 2
    groups = [0] * ((nbits + 5) // 6)
    for i, j in g.edges:
        group, off = divmod(j * (j - 1) // 2 + i, 6)
        groups[group] |= 1 << (5 - off)
    return "".join(chr(x + 63) for x in vals + groups)


def reference_parse_edge_list(text: str) -> Graph:
    """Edge-list parsing that keeps the edges in a set and sorts the set."""
    n = m = None
    seen: set[tuple[int, int]] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2:
                raise EdgeListParseError(f"line {ln}: expected 'n m' header")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListParseError(f"line {ln}: header fields must be integers") from None
            if n < 0 or m < 0:
                raise EdgeListParseError(f"line {ln}: header fields must be nonnegative")
            if n > MAX_EDGE_LIST_VERTICES:
                raise EdgeListParseError(
                    f"line {ln}: {n} vertices exceed the limit of {MAX_EDGE_LIST_VERTICES}"
                )
            continue
        if len(parts) != 2:
            raise EdgeListParseError(f"line {ln}: expected 'a b'")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"line {ln}: endpoints must be integers") from None
        if len(seen) >= m:
            raise EdgeListParseError(f"line {ln}: more than {m} edges")
        if not (0 <= a < n and 0 <= b < n):
            raise EndpointOutOfRangeError(f"line {ln}: endpoint outside 0..{n - 1}")
        if a == b:
            raise SelfLoopError(f"line {ln}: self-loop at vertex {a}")
        e = (a, b) if a < b else (b, a)
        if e in seen:
            raise DuplicateEdgeError(f"line {ln}: duplicate edge {e}")
        seen.add(e)
    if n is None:
        raise EdgeListParseError("missing 'n m' header")
    if len(seen) != m:
        raise EdgeListParseError(f"expected {m} edges, found {len(seen)}")
    return new_graph(n, tuple(sorted(seen)))


def _reference_as_int(payload: dict, key: str) -> int:
    x = payload[key]
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaViolationError(f"field {key!r} must be an integer")
    return x


def reference_parse_coloring_json(text: str) -> ColoringDocument:
    """Coloring-document parsing that checks the edges' shape, the colors and
    the edges' order in separate walks."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaViolationError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaViolationError("top level must be an object")
    required = {"n", "edges", "vertex_colors", "edge_colors", "max_color"}
    keys = set(payload)
    if not required <= keys or not keys <= required | {"corona_map"}:
        raise SchemaViolationError(
            f"fields must be {sorted(required)} plus optional 'corona_map'"
        )
    n = _reference_as_int(payload, "n")
    if n < 0:
        raise SchemaViolationError("n must be nonnegative")
    max_color = _reference_as_int(payload, "max_color")
    if max_color < 1:
        raise SchemaViolationError("max_color must be positive")
    raw_edges = payload["edges"]
    if not isinstance(raw_edges, list) or any(
        not isinstance(e, list) or len(e) != 2 or any(not isinstance(x, int) or isinstance(x, bool) for x in e)
        for e in raw_edges
    ):
        raise SchemaViolationError("edges must be a list of [a, b] integer pairs")
    edges = tuple((e[0], e[1]) for e in raw_edges)
    for key, want in (("vertex_colors", n), ("edge_colors", len(edges))):
        col = payload[key]
        if not isinstance(col, list) or any(not isinstance(c, int) or isinstance(c, bool) for c in col):
            raise SchemaViolationError(f"{key} must be a list of integers")
        if len(col) != want:
            raise SchemaViolationError(f"{key} must have length {want}")
        for c in col:
            if not 1 <= c <= max_color:
                raise ColorOutOfRangeError(f"color {c} outside 1..{max_color}")
    prev = (-1, -1)
    for e in edges:
        a, b = e
        if not (0 <= a < n and 0 <= b < n):
            raise SchemaViolationError(
                f"bad edge list: edge ({a},{b}) has an endpoint outside 0..{n - 1}"
            )
        if a == b:
            raise SchemaViolationError(f"bad edge list: self-loop at vertex {a}")
        if e == prev:
            raise SchemaViolationError(f"bad edge list: duplicate edge {e}")
        if a > b or e < prev:
            raise SchemaViolationError("edges must be sorted pairs in canonical order")
        prev = e
    raw_map = payload.get("corona_map")
    corona_map = None
    if raw_map is not None:
        if not isinstance(raw_map, dict) or set(raw_map) != {"n_g", "n_h"}:
            raise SchemaViolationError("corona_map must be {'n_g': ..., 'n_h': ...}")
        n_g, n_h = _reference_as_int(raw_map, "n_g"), _reference_as_int(raw_map, "n_h")
        if n_g < 1 or n_h < 0 or n_g * (1 + n_h) != n:
            raise SchemaViolationError("corona_map inconsistent with the vertex count")
        corona_map = CoronaMap(n_g, n_h)
    vcol, ecol = tuple(payload["vertex_colors"]), tuple(payload["edge_colors"])
    return ColoringDocument(new_graph(n, edges), TotalColoring(vcol, ecol, max_color), corona_map)


def reference_emit_coloring_json(doc: ColoringDocument) -> str:
    """A coloring document with each field written by its own ``json.dumps``."""
    payload = {
        "n": doc.graph.n,
        "edges": doc.graph.edges,
        "vertex_colors": doc.coloring.vertex_colors,
        "edge_colors": doc.coloring.edge_colors,
        "max_color": doc.coloring.max_color,
        "corona_map": None
        if doc.corona_map is None
        else {"n_g": doc.corona_map.n_g, "n_h": doc.corona_map.n_h},
    }
    fields = (
        f"  {json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
        for key, value in payload.items()
    )
    return "{\n" + ",\n".join(fields) + "\n}\n"


def reference_report_to_json(report: VerifyReport) -> str:
    """A report as one ``json.dumps(..., indent=2)``, products in a dict keyed by vertex."""
    payload = {
        "ok": report.ok,
        "violations": [
            {"kind": v.kind, "elements": v.elements, "witness": v.witness}
            for v in report.violations
        ],
        "products": {str(v): p for v, p in enumerate(report.products)},
    }
    return json.dumps(payload, indent=2)


def reference_canonical_form(g: Graph) -> tuple[int, tuple[int, ...]]:
    """The earlier ``canonical_form``, which tries every candidate at every depth."""
    n = g.n
    if n == 0:
        return (0, ())
    masks = [0] * n
    for a, b in g.edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    cells = _refined_cells(g)
    best: list[int] | None = None
    placed: list[int] = []
    cols = [0] * n

    def dfs(depth: int, cell_idx: int, remaining: tuple[int, ...], better: bool) -> None:
        nonlocal best
        if depth == n:
            if best is None or cols < best:
                best = cols.copy()
            return
        if not remaining:
            dfs(depth, cell_idx + 1, tuple(cells[cell_idx + 1]), better)
            return
        cand = []
        for v in remaining:
            mv = masks[v]
            col = 0
            for q, u in enumerate(placed):
                if (mv >> u) & 1:
                    col |= 1 << q
            cand.append((col, v))
        cand.sort()
        for col, v in cand:
            sub_better = better
            if not sub_better and best is not None:
                ref = best[depth]
                if col > ref:
                    break
                if col < ref:
                    sub_better = True
            cols[depth] = col
            placed.append(v)
            dfs(depth + 1, cell_idx, tuple(x for x in remaining if x != v), sub_better)
            placed.pop()

    dfs(0, 0, tuple(cells[0]), False)
    assert best is not None
    return (n, tuple(best))


@lru_cache(maxsize=None)
def _reference_subcubic_level(n: int) -> tuple[Graph, ...]:
    if n <= 0:
        return ()
    if n == 1:
        return (new_graph(1, ()),)
    out: dict[tuple[int, tuple[int, ...]], Graph] = {}
    for parent in _reference_subcubic_level(n - 1):
        open_verts = [v for v in range(parent.n) if len(parent.adj[v]) < 3]
        base = list(parent.edges)
        for r in range(min(3, len(open_verts)) + 1):
            for subset in combinations(open_verts, r):
                child = new_graph(n, base + [(v, n - 1) for v in subset])
                key = reference_canonical_form(child)
                if key not in out:
                    out[key] = _graph_from_form(key)
    return tuple(out[k] for k in sorted(out))


def reference_enumerate_subcubic(n: int, connected: bool = False) -> tuple[Graph, ...]:
    """The earlier ``enumerate_subcubic``: the whole level, filtered when connected."""
    level = _reference_subcubic_level(n)
    if connected:
        return tuple(g for g in level if len(connected_components(g)) <= 1)
    return level


def reference_corona_by_vertex(g: Graph, h: Graph) -> tuple[Graph, CoronaMap]:
    """The earlier ``corona``, which takes v_j in turn.  Its own docstring follows.

    Corona product: one copy of g plus g.n copies of h, v_j joined to all of copy j.

    The graph is built directly in canonical order, with no sort or
    revalidation: for each v_j in turn, its g-edges to larger vertices and
    then its spokes in copy order, followed by each copy's shifted h.edges.
    color_corona writes its colors in that order.  No adjacency is built
    unless read.  With an empty second factor the product is g itself.
    """
    if g.n < 1:
        raise ValueError("corona needs at least one vertex in the first factor")
    cmap = CoronaMap(g.n, h.n)
    if h.n == 0:
        return g, cmap
    # copy j's vertices in h's order: int objects the edges below share
    copies = [tuple(range(base, base + h.n)) for base in range(g.n, cmap.n, h.n)]
    edges: list[tuple[int, int]] = []
    for v, copy in enumerate(copies):
        edges += [(v, w) for w in g.adj[v] if w > v]
        edges += [(v, x) for x in copy]
    for copy in copies:
        edges += [(copy[a], copy[b]) for a, b in h.edges]
    return new_graph(cmap.n, tuple(edges)), cmap


@collector_paused
def reference_color_corona(g: Graph, h: Graph) -> ColorResult:
    """The earlier ``color_corona``, which appends a copy of the ladder per
    v_j, on ``reference_corona_by_vertex``.  Its own docstring follows.

    Build g∘h and a verified distinguishing total coloring within
    max_degree(g∘h)+3 colors.

    The case is decided once per call: Case2 when max_degree(g) >= 2, and
    when it is 1, the first of 4, 1, 2, 3 free at sigma[0] (on none of h's
    edges there; h is subcubic, so one is) colors position 1: 4 in Case1_2,
    beta in Case1_1.  Fallback covers isolated vertices and an empty h,
    whose corona is g, colored by g's base coloring.  Otherwise one walk
    over g's vertices writes the colors in the corona's canonical edge
    order: v's g-edges to larger vertices, in base colors or beta (Case1_1,
    its ends then the other two of {1,2,3}), v's spokes and v's copy of the
    ladder; then the copy edges repeat h's edge coloring.  One verifier pass
    over the corona checks the result; a violation is an internal error.
    """
    require_subcubic(g)
    require_subcubic(h)
    cg, cmap = reference_corona_by_vertex(g, h)
    dg = max_degree(g)
    # v_j has degree dg+|V(h)| at most, which no copy vertex's deg+1 <= |V(h)| exceeds
    bound = dg + h.n + 3
    base = base_coloring(g)
    case, sigma, coloring = FALLBACK, (), base
    if h.n:
        vizing = vizing_color(h)
        # dg = 0: trade colors 4 and the first c of 4, 3, 2, 1 keeping 4 off sigma[:2]'s edges
        for c in (4, 3, 2, 1):
            ecol = tuple({4: c, c: 4}.get(x, x) for x in vizing) if c < 4 else vizing
            sigma = sort_by_product(ecol, h)
            if dg or all(4 not in edge_colors_at(h, ecol, u) for u in sigma[:2]):
                break
        s_min = edge_colors_at(h, ecol, sigma[0])
        # copy j's vertex colors and spokes in h's vertex order
        ladder, spokes = [0] * h.n, [0] * h.n
        for pos, u in enumerate(sigma, 1):
            ladder[u], spokes[u] = dg + pos + 2, dg + pos + 3
        if dg == 1:
            first = next(c for c in (4, 1, 2, 3) if c not in s_min)
            case = CASE_1_2 if first == 4 else CASE_1_1
        elif dg:
            case = CASE_2
            # min_copy_color's v_star: star products in the base coloring, spokes 2..4
            star = star_products(base.vertex_colors, g, base.edge_colors)
            tail = math.prod(range(dg + 5, dg + min(h.n, 4) + 4))
        if not all(g.adj):
            cone = cone_colors(h, ecol, sigma[0], ladder, spokes)
        vcol = list(base.vertex_colors)
        earr: list[int] = []
        t = 0  # v's g-edges to larger vertices are the next of base.edge_colors
        for v, nb in enumerate(g.adj):
            up = len(nb) - bisect(nb, v)  # nb is ascending
            if case == CASE_1_1 and up:
                vcol[v], vcol[nb[0]] = sorted({1, 2, 3} - {first})
                earr.append(first)
            else:
                earr += base.edge_colors[t:t + up]
            t += up
            earr += spokes
            if not nb:  # the hub of a cone
                ladder[sigma[0]], vcol[v] = cone
            elif case == CASE_2:
                ladder[sigma[0]] = min_copy_color(v, base, s_min, star[v] * tail)
            else:
                ladder[sigma[0]] = first
            vcol += ladder
        earr += ecol * g.n
        coloring = TotalColoring(tuple(vcol), tuple(earr), max(max(vcol), max(earr)))
    report = verify_npd(cg, coloring)
    if not report.ok:
        raise AssertionError(f"constructed coloring failed verification: {report.violations[:3]}")
    if coloring.max_color > bound:
        raise AssertionError(f"{coloring.max_color} colors exceed bound {bound}")
    cases = [(comp, case if len(comp) > 1 else FALLBACK) for comp in connected_components(g)]
    trace = ConstructionTrace(sigma, tuple(cases), bound)
    return ColorResult(cg, cmap, coloring, trace)


def reference_gen_random_subcubic(n: int, seed: int) -> Graph:
    """The earlier ``gen_random_subcubic``, which draws each endpoint with
    ``randrange(n)``.  Its own docstring follows.

    Deterministic random graph with maximum degree at most 3.

    Uniform random pair proposals, accepted while both endpoints have degree
    below 3 and the edge is new; the proposal budget is fixed at 12*n.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    deg = [0] * n
    present: set[int] = set()  # the edges' keys a*n+b, a < b
    for _ in range(12 * n):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b or deg[a] >= 3 or deg[b] >= 3:
            continue
        key = a * n + b if a < b else b * n + a
        if key in present:
            continue
        present.add(key)
        deg[a] += 1
        deg[b] += 1
    return graph_from_keys(n, present)


def reference_vizing_color(h: Graph) -> tuple[int, ...]:
    """The earlier ``vizing_color``, which keeps one map per vertex, from color
    to neighbor, and snapshots the first endpoint's colors by neighbor at each
    insertion.  Its own docstring follows.

    Proper edge coloring with the fixed palette 1..max_degree(h)+1, one
    color per edge id, in the order of h's columns ``h.lo`` and ``h.hi``.

    The fan algorithm of Misra and Gries: edges are inserted in canonical
    order, and each is given a color with a maximal fan at its first endpoint
    u, built by walking u's neighbors in adjacency order.  With c free at u
    and d free at the fan's last vertex, the c/d path from u is inverted when
    d is on an edge at u; the fan then rotates up to its first vertex where d
    is free, and that vertex's edge to u takes d.  Ties always break to the
    lowest color and the smallest vertex, so the output is a deterministic
    function of the graph.
    Each color is stored once, in one map per vertex from color to the
    neighbor across that edge; an insertion reads the first endpoint's colors
    by neighbor from a snapshot of its map, taken again after an inversion.
    """
    k = max_degree(h) + 1
    at: list[dict[int, int]] = [dict() for _ in range(h.n)]  # vertex -> color -> neighbor

    def free(v: int) -> int:
        for c in range(1, k + 1):
            if c not in at[v]:
                return c
        raise AssertionError("degree exceeds palette")

    def invert_path(u: int, c: int, d: int) -> None:
        # walk the maximal path from u alternating d, c, then swap the two colors
        path: list[tuple[int, int, int]] = []  # (x, y, color)
        x, want = u, d
        while want in at[x]:
            y = at[x][want]
            path.append((x, y, want))
            x, want = y, (c if want == d else d)
        for a, b, old in path:
            del at[a][old]
            del at[b][old]
        for a, b, old in path:
            new = c if old == d else d
            at[a][new] = b
            at[b][new] = a

    for u, v in zip(h.lo, h.hi):
        col_u = {w: c for c, w in at[u].items()}  # neighbor -> color of its edge to u
        fan = [v]
        while True:
            for w in h.adj[u]:
                if w not in fan and w in col_u and col_u[w] not in at[fan[-1]]:
                    fan.append(w)
                    break
            else:
                break
        c = free(u)
        d = free(fan[-1])
        if c != d and d in at[u]:
            invert_path(u, c, d)
            col_u = {w: c for c, w in at[u].items()}
        # the first d-free vertex closes a fan: the inversion turns only (u, fan[j]) from d to c, and
        # fan[j-1], once d-free, loses d only as the path's far end, then c-free; it or fan[-1] keeps d
        w_idx = next(i for i, x in enumerate(fan) if d not in at[x])
        # u-fan[j] hands its color to u-fan[j-1]; u-fan[0] is the uncolored
        # edge being inserted, and each later one was uncolored the step before
        for j in range(1, w_idx + 1):
            cj = col_u[fan[j]]
            del at[fan[j]][cj]
            at[u][cj] = fan[j - 1]
            at[fan[j - 1]][cj] = u
        at[u][d] = fan[w_idx]
        at[fan[w_idx]][d] = u
    col = [{w: c for c, w in m.items()} for m in at]  # vertex -> neighbor -> color
    return tuple(col[a][b] for a, b in zip(h.lo, h.hi))
