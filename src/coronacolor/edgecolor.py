"""Proper edge colorings with the constructive bounded palette of Vizing's theorem."""

from __future__ import annotations

from .graph import Graph, max_degree


def edge_colors_at(h: Graph, ecol: tuple[int, ...], u: int) -> frozenset[int]:
    """Set of colors on the edges incident with u; ecol is in canonical edge order."""
    return frozenset(c for e, c in zip(h.edges, ecol) if u in e)


def vizing_color(h: Graph) -> tuple[int, ...]:
    """Proper edge coloring with the fixed palette 1..max_degree(h)+1, one
    color per edge in canonical edge order (as in ``Graph.edges``).

    Edges are inserted in canonical order.  When no color is free at both
    endpoints, a maximal fan is built at the first endpoint, walking its
    neighbors in adjacency order, and recolored, inverting one two-colored
    alternating path if needed.  Ties always break to the lowest color and the
    smallest vertex, so the output is a deterministic function of the graph.
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
        in_fan = {v}
        while True:
            last = fan[-1]
            nxt = None
            for w in h.adj[u]:
                if w in in_fan:
                    continue
                cw = col_u.get(w)
                if cw is not None and cw not in at[last]:
                    nxt = w
                    break
            if nxt is None:
                break
            fan.append(nxt)
            in_fan.add(nxt)
        c = free(u)
        d = free(fan[-1])
        if c != d and d in at[u]:
            invert_path(u, c, d)
            col_u = {w: c for c, w in at[u].items()}
        # shortest fan prefix that stays a fan and ends where d is free
        w_idx = None
        for i, x in enumerate(fan):
            if d in at[x]:
                continue
            if all(col_u[fan[j]] not in at[fan[j - 1]] for j in range(1, i + 1)):
                w_idx = i
                break
        if w_idx is None:
            raise AssertionError("fan recoloring failed")
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
