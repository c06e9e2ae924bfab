"""Exhaustive enumeration of degree-bounded graphs up to isomorphism.

Graphs are grown one vertex at a time: every graph on t+1 vertices with
maximum degree at most 3 arises from one on t vertices by attaching a new
vertex to at most three vertices of degree below 3, so closing each level
under that augmentation and deduplicating by a canonical form enumerates
the whole family.  The connected family is closed the same way from
connected parents only, attaching the new vertex to at least one of them:
every connected graph has a vertex whose removal leaves it connected (a
leaf of a spanning tree), so each class still arises.

The canonical search takes the refined cells in order, one vertex per
depth, and reads a candidate's column from the depths of its at most
three neighbours already in the order.

Two prunes skip work whose result is already found; both act only through
automorphisms, so they change which copy of a class is built, never the
set of classes or the forms.  Twins (``graph.twin_classes``) are vertices
with equal open or equal closed neighborhoods, and swapping two of them
fixes every other vertex.
- In ``canonical_form`` only the first unplaced vertex of each twin class
  is tried next: swapping it with a later unplaced twin maps every order
  that places the later one there onto an order with the same prefix and
  the same columns.
- A parent's vertices are joined to the new one only through subsets that
  hold a prefix of each of its twin classes: permuting a class carries any
  other subset onto such a one and the child onto an isomorphic child.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .graph import Graph, graph_from_keys, twin_classes


def _refined_cells(g: Graph) -> list[list[int]]:
    """Iterated neighbor-color refinement; cell order is isomorphism-invariant."""
    n = g.n
    color = list(map(len, g.adj))
    while True:
        sigs = [(color[v], tuple(sorted(color[w] for w in g.adj[v]))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[sigs[v]] for v in range(n)]
        if len(set(new)) == len(set(color)):
            cells: dict[int, list[int]] = {}
            for v in range(n):
                cells.setdefault(new[v], []).append(v)
            return [cells[c] for c in sorted(cells)]
        color = new


def canonical_form(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Minimum adjacency-column encoding over refinement-respecting vertex orders.

    Column d holds one bit per earlier position, so the tuple fixes the graph
    up to labels; two graphs get the same form exactly when isomorphic.
    Orders that differ by a swap of twins are searched once (see above).
    """
    n = g.n
    if n == 0:
        return (0, ())
    cell_at = [cell for cell in _refined_cells(g) for _ in cell]  # the cell depth d draws from
    twin_of = [-1] * n  # v's twin class, or -1
    for i, cls in enumerate(twin_classes(g)):
        for v in cls:
            twin_of[v] = i
    best: list[int] | None = None
    pos = [-1] * n  # v's depth in the order, or -1
    cols = [0] * n

    def dfs(depth: int, better: bool) -> None:
        nonlocal best
        if depth == n:
            if best is None or cols < best:
                best = cols.copy()
            return
        cand = []
        tried = set()
        for v in cell_at[depth]:
            if pos[v] >= 0:
                continue
            t = twin_of[v]
            if t >= 0:
                if t in tried:
                    continue
                tried.add(t)
            col = 0
            for u in g.adj[v]:
                if pos[u] >= 0:
                    col |= 1 << pos[u]
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
            pos[v] = depth
            dfs(depth + 1, sub_better)
            pos[v] = -1

    dfs(0, False)
    del dfs  # dfs refers to itself through its closure cell: unbinding it breaks the cycle
    assert best is not None
    return (n, tuple(best))


def _graph_from_form(form: tuple[int, tuple[int, ...]]) -> Graph:
    n, cols = form
    # bit q of column d is the edge (q, d), key q*n+d
    return graph_from_keys(n, [q * n + d for d in range(n) for q in range(d) if cols[d] >> q & 1])


@lru_cache(maxsize=None)
def _subcubic_level(n: int, connected: bool) -> tuple[Graph, ...]:
    if n <= 0:
        return ()
    if n == 1:
        return (graph_from_keys(1, ()),)
    out: dict[tuple[int, tuple[int, ...]], Graph] = {}
    for parent in _subcubic_level(n - 1, connected):
        open_verts = [v for v, nb in enumerate(parent.adj) if len(nb) < 3]
        prev = {v: u for cls in twin_classes(parent) for u, v in zip(cls, cls[1:])}
        base = [a * n + b for a, b in zip(parent.lo, parent.hi)]  # the parent's keys for n vertices
        for r in range(1 if connected else 0, min(3, len(open_verts)) + 1):
            for subset in combinations(open_verts, r):
                if any(v in prev and prev[v] not in subset for v in subset):
                    continue
                child = graph_from_keys(n, base + [v * n + n - 1 for v in subset])
                key = canonical_form(child)
                if key not in out:
                    out[key] = _graph_from_form(key)
    return tuple(out[k] for k in sorted(out))


def enumerate_subcubic(n: int, connected: bool = False) -> tuple[Graph, ...]:
    """All graphs on n vertices with maximum degree at most 3, one per
    isomorphism class, canonically labeled and deterministically ordered;
    with connected, the connected ones alone, in the same order."""
    return _subcubic_level(n, bool(connected))
