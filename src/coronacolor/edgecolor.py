"""Proper edge colorings with the constructive bounded palette of Vizing's theorem."""

from __future__ import annotations

from .graph import Graph, max_degree


def edge_colors_at(h: Graph, ecol: tuple[int, ...], u: int) -> frozenset[int]:
    """Set of colors on the edges incident with u; ecol is in canonical edge order."""
    return frozenset(c for e, c in zip(h.edges, ecol) if u in e)


def vizing_color(h: Graph) -> tuple[int, ...]:
    """Proper edge coloring with the fixed palette 1..max_degree(h)+1, one
    color per edge in canonical edge order (as in ``Graph.edges``).

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

    for u, v in h.edges:
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
    return tuple(col[a][b] for a, b in h.edges)
