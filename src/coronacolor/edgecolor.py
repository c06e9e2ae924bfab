"""Proper edge colorings with the constructive bounded palette of Vizing's theorem."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, max_degree


@dataclass(frozen=True)
class EdgeColoring:
    """A color in 1..k per edge, in canonical edge order (as in ``Graph.edges``)."""

    colors: tuple[int, ...]
    k: int


def edge_colors_at(h: Graph, ecol: EdgeColoring, u: int) -> frozenset[int]:
    """Set of colors on the edges incident with u."""
    return frozenset(c for e, c in zip(h.edges, ecol.colors) if u in e)


def vizing_color(h: Graph) -> EdgeColoring:
    """Proper edge coloring with the fixed palette 1..max_degree(h)+1.

    Edges are inserted in canonical order.  When no color is free at both
    endpoints, a maximal fan is built at the first endpoint and recolored,
    inverting one two-colored alternating path if needed.  Ties always break
    to the lowest color and the smallest vertex, so the output is a
    deterministic function of the graph.
    """
    if not h.edges:
        return EdgeColoring((), 1)
    k = max_degree(h) + 1
    col: list[dict[int, int]] = [dict() for _ in range(h.n)]  # vertex -> neighbor -> color
    at: list[dict[int, int]] = [dict() for _ in range(h.n)]  # vertex -> color -> neighbor

    def free(v: int) -> int:
        for c in range(1, k + 1):
            if c not in at[v]:
                return c
        raise AssertionError("degree exceeds palette")

    def assign(a: int, b: int, c: int) -> None:
        old = col[a].get(b)
        if old is not None:
            del at[a][old]
            del at[b][old]
        col[a][b] = col[b][a] = c
        at[a][c] = b
        at[b][c] = a

    def unassign(a: int, b: int) -> None:
        old = col[a].pop(b)
        del col[b][a]
        del at[a][old]
        del at[b][old]

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
            col[a][b] = col[b][a] = new
            at[a][new] = b
            at[b][new] = a

    for u, v in h.edges:
        fan = [v]
        in_fan = {v}
        while True:
            last = fan[-1]
            nxt = None
            for w in h.adj[u]:
                if w in in_fan:
                    continue
                cw = col[u].get(w)
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
        # shortest fan prefix that stays a fan and ends where d is free
        w_idx = None
        for i, x in enumerate(fan):
            if d in at[x]:
                continue
            if all(col[u][fan[j]] not in at[fan[j - 1]] for j in range(1, i + 1)):
                w_idx = i
                break
        if w_idx is None:
            raise AssertionError("fan recoloring failed")
        for j in range(1, w_idx + 1):
            cj = col[u][fan[j]]
            unassign(u, fan[j])
            assign(u, fan[j - 1], cj)
        assign(u, fan[w_idx], d)
    return EdgeColoring(tuple(col[a][b] for a, b in h.edges), k)
