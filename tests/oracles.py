"""Exact reference computations that the tests check the package against.

They are brute force by design: ``chi_prime_exact`` is the oracle for
``vizing_color``'s palette bound, and ``product_at`` recomputes one closed-star
product by scanning every edge, independently of ``verify``'s incidence lists.
"""

from __future__ import annotations

from coronacolor import EdgeColoring, Graph, TotalColoring, max_degree
from coronacolor.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    IncompleteColoringError,
)


def chi_prime_exact(h: Graph, budget: int = 2_000_000) -> tuple[int, EdgeColoring]:
    """Minimum number of colors in a proper edge coloring, with a witness.

    Backtracking over edges in canonical order; the t-th edge may only use
    colors 1..min(t, k), which loses no solutions because any coloring can be
    relabeled by order of first use.  The budget counts attempted assignments.
    """
    m = len(h.edges)
    if m == 0:
        return 1, EdgeColoring((), 1)
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
                return kk, EdgeColoring(tuple(assign), kk)
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
