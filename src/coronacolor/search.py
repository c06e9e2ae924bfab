"""Exact backtracking search for neighbor-product-distinguishing proper total colorings.

A proper total coloring assigns colors to vertices and edges so that adjacent
or incident elements always differ.  The search additionally separates the
two ends of every edge by their closed-star products: the exact integer
product of the colors on a vertex and its incident edges.  Products are plain
Python integers, so distinction checks never overflow or round.

``npdtc_search`` tries every color at every element; ``chi_prod_exact``
searches only colorings sorted within each class of twin vertices, which
keeps its exhausted searches proofs of absence.  Both order the elements once,
by (score, conflict degree) cells that also give each depth its forward list.
"""

from __future__ import annotations

import heapq

from .errors import BudgetExceededError
from .graph import (
    Graph,
    TotalColoring,
    connected_components,
    max_degree,
    require_subcubic,
    subgraph,
    twin_classes,
)

DEFAULT_BUDGET = 5_000_000
BASE_BUDGET = 50_000_000  # node budget of base_coloring's search, read at call time

# A search's set-up comes before its first node, so no budget bounds it; above
# this many list slots (about 1 GiB) it is refused.  A subcubic graph within
# the 2**20-vertex cap needs at most 2.5 * 2**20 * 7 + 15 * 2**20 with k <= 6.
MAX_SEARCH_SLOTS = 1 << 26


def _conflict_lists(g: Graph) -> list[list[int]]:
    """Per element (vertices, then edges as n + edge id), the elements it must differ from."""
    conf = [list(nb) for nb in g.adj]
    first = list(map(len, conf))  # v's edges follow its neighbors in conf[v]
    for e, (a, b) in enumerate(zip(g.lo, g.hi), g.n):
        ca, cb = conf[a], conf[b]
        near = ca[first[a]:] + cb[first[b]:]
        for f in near:
            conf[f].append(e)
        conf.append([a, b, *near])
        ca.append(e)
        cb.append(e)
    return conf


def _setup_slots(deg: list[int], k: int) -> int:
    """Slots of ``_search``'s ban counts and conflict lists, built before its first node."""
    return (len(deg) + sum(deg) // 2) * (k + 1) + sum(d * (d + 2) for d in deg)


def _order_and_ahead(conf: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """The element order, and per depth the conflicts ordered after that depth's element.

    The next element is the unordered one with the largest key (score,
    conflict degree, -id), where an element's score counts its conflicts
    already ordered.  The order depends on the graph alone, so the conflicts
    still unordered when an element is ordered are those its color bans.

    The pair (score, degree) is the cell ``score * R + rank``, with rank the
    degree's place among the R distinct degrees, so cells sort as the pairs
    do.  An element starts in cell rank, and a score increase pushes its id R
    cells up, so the score-0 cells are filled in ascending ids and only lose
    elements: they are read in place, by a rank that only moves down and a
    position in that rank's list.  A cell above them is a lazy min-heap of
    ids, read from the highest cell ``hi`` that may hold an element; an id
    whose element is ordered or in another cell is stale.  ``frontier``
    counts the unordered elements of positive score.  While it is nonzero the
    next element is in a heap; at zero the ordered elements make up whole
    components, every id in the heaps is stale, and the cells up to ``hi``
    are cleared.  The loop stops at the last element.  Each push is popped or
    cleared once, and ``hi`` rises at most R cells a push, so the order takes
    O(T + pushes * (R + log T)) steps for T elements.

    The table has (D + 1) * R lists for the largest degree D.  Both D and R
    are O(sqrt(S)) for S conflict slots, since the edges at a vertex
    conflict pairwise, so ``_setup_slots`` bounds the set-up; cells by
    degree itself would be (D + 1)**2 lists, 40 MiB on a 400-leaf star.
    """
    rank = {d: r for r, d in enumerate(sorted(set(map(len, conf))))}
    width = len(rank)
    cell = [rank[len(c)] for c in conf]  # the element's cell, -1 once ordered
    cells: list[list[int]] = [[] for _ in range((max(rank, default=0) + 1) * width)]
    for e, c in enumerate(cell):
        cells[c].append(e)
    push, pop = heapq.heappush, heapq.heappop
    order: list[int] = []
    ahead: list[list[int]] = []
    hi = r = width - 1
    at = frontier = 0  # the score-0 elements left at rank r are in cells[r][at:]
    for _ in conf:
        if frontier:
            frontier -= 1
            while True:
                ids = cells[hi]
                if ids:
                    e = pop(ids)
                    if cell[e] == hi:
                        break
                else:
                    hi -= 1
        else:
            while hi >= width:
                cells[hi].clear()
                hi -= 1
            ids = cells[r]
            while True:
                if at < len(ids):
                    e = ids[at]
                    at += 1
                    if cell[e] == r:
                        break
                else:
                    r -= 1
                    ids = cells[r]
                    at = 0
        cell[e] = -1
        order.append(e)
        fwd = []
        for s in conf[e]:
            c = cell[s]
            if c >= 0:
                fwd.append(s)
                if c < width:
                    frontier += 1
                c += width
                cell[s] = c
                push(cells[c], s)
                if c > hi:
                    hi = c
        ahead.append(fwd)
    return order, ahead


def npdtc_search(g: Graph, k: int, budget: int = DEFAULT_BUDGET) -> TotalColoring | None:
    """Proper total [k]-coloring with distinct star products across every edge, or None.

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
    return _search(g, k, budget, twins=False)


def _search(g: Graph, k: int, budget: int, twins: bool) -> TotalColoring | None:
    """The backtracking of ``npdtc_search``; with twins, capped within twin classes.

    The order is static, so at depth d exactly order[:d] is colored, and the
    uncolored conflicts of order[d], its forward list, are those placed after
    it; the list serves every color tried at d, to ban it and lift the ban.
    ``banned[e][c]`` counts e's colored conflicts that hold c, and
    ``banned[e][0]`` the colors left to e.  A depth is re-entered with its
    element still colored, and the color is taken off before the next one.

    ``ceiling[d]`` is the element whose color caps order[d]'s, or ``total``,
    the slot of the color array that holds k.  With ``twins`` a vertex's
    ceiling is the previous vertex of its twin class in the order, which is
    colored whenever the vertex's depth is searched.
    """
    if k < 1:
        raise ValueError("palette size must be positive")
    n, m = g.n, len(g.lo)
    total = n + m
    if total == 0:
        return TotalColoring((), (), 1)
    deg = [len(nb) for nb in g.adj]
    if max(deg, default=0) + 1 > k:
        return None
    for a, b in zip(g.lo, g.hi):
        # both stars would need the whole palette, forcing equal products
        if deg[a] + 1 == k and deg[b] + 1 == k:
            return None
    if (slots := _setup_slots(deg, k)) > MAX_SEARCH_SLOTS:
        raise ValueError(f"search set-up of {slots} list slots exceeds {MAX_SEARCH_SLOTS}")

    order, ahead = _order_and_ahead(_conflict_lists(g))
    owners = [(v,) for v in range(n)] + list(zip(g.lo, g.hi))
    ceiling = [total] * total
    if twins:
        depth_of = [0] * total
        for d, e in enumerate(order):
            depth_of[e] = d
        for cls in twin_classes(g):
            cls.sort(key=depth_of.__getitem__)
            for prev, v in zip(cls, cls[1:]):
                ceiling[depth_of[v]] = prev

    color = [0] * total + [k]  # color[total]: the ceiling of an uncapped element
    row = [k] + [0] * k
    banned = [row[:] for _ in range(total)]
    star_left = [deg[v] + 1 for v in range(n)]
    sig = [1] * n
    adjacency = g.adj
    last = [0] * total
    nodes = 0
    depth = 0
    while True:
        if depth == total:
            return TotalColoring(tuple(color[:n]), tuple(color[n:total]), max(color[:total]))
        e = order[depth]
        fwd = ahead[depth]
        c = last[depth]
        if c:  # re-entered with e still colored c
            color[e] = 0
            for v in owners[e]:
                star_left[v] += 1
                sig[v] //= c
            for s in fwd:
                bs = banned[s]
                bs[c] -= 1
                if bs[c] == 0:
                    bs[0] += 1
        be = banned[e]
        top = color[ceiling[depth]]
        c += 1
        while c <= top and be[c]:
            c += 1
        if c > top:
            last[depth] = 0
            depth -= 1
            if depth < 0:
                return None
            continue
        last[depth] = c
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"npdtc_search exceeded {budget} nodes")
        dead = False
        for s in fwd:
            bs = banned[s]
            bs[c] += 1
            if bs[c] == 1:
                bs[0] -= 1
                if bs[0] == 0:
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
        if not dead:
            depth += 1


def chi_prod_exact(g: Graph, budget: int = DEFAULT_BUDGET) -> TotalColoring:
    """A neighbor-product-distinguishing proper total coloring of g in the fewest colors.

    Its max_color is chi''_prod(g), the smallest k admitting one; products
    are local, so each component increments k from max_degree+1 and keeps
    the coloring its last search found, which uses that k.  An isolated
    vertex takes color 1.  Each search attempt gets the full budget.  A
    component's colors go back by the vertices and edge ids subgraph returns.

    The search is exhaustive up to swaps of twin vertices: a vertex's color
    is capped at that of the previous vertex of its twin class in the search
    order.  Permuting a twin class is an automorphism, so every coloring
    sorts into one that meets the caps (lex-leader symmetry breaking;
    Crawford, Ginsberg, Luks and Roy, KR 1996).  A floor instead of the
    ceiling took C4∘K4 at k = 8 past 3,000,000 nodes; the ceiling needs
    1 ms.
    """
    if g.n == 0:
        raise ValueError("need at least one vertex")
    vcol = [1] * g.n
    ecol = [0] * len(g.lo)
    best = 1
    for comp in connected_components(g):
        if len(comp) == 1:
            continue
        sub, verts, ids = subgraph(g, comp)
        k = max_degree(sub) + 1
        while (tc := _search(sub, k, budget, twins=True)) is None:
            k += 1
        for v, c in zip(verts, tc.vertex_colors):
            vcol[v] = c
        for t, c in zip(ids, tc.edge_colors):
            ecol[t] = c
        best = max(best, k)
    return TotalColoring(tuple(vcol), tuple(ecol), best)


def _instance_summary(g: Graph) -> str:
    """n, the edge count and the first four edges of g, for an error message,
    read from the columns: g's pairs are not derived."""
    head = ", ".join(map(str, zip(g.lo[:4], g.hi[:4])))
    more = ", ..." if len(g.lo) > 4 else ""
    return f"n={g.n} edges={len(g.lo)} [{head}{more}]"


def base_coloring(g: Graph) -> TotalColoring:
    """Distinguishing total coloring of a subcubic graph with max_degree+3 colors.

    Existence is guaranteed for subcubic graphs, so an exhausted search is an
    internal error and both failure paths summarize the instance for a bug
    report.
    """
    k = require_subcubic(g) + 3
    try:
        tc = npdtc_search(g, k, BASE_BUDGET)
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"base coloring budget exhausted; {_instance_summary(g)}"
        ) from exc
    if tc is None:
        raise AssertionError(f"no (max_degree+3) coloring found; {_instance_summary(g)}")
    return tc
