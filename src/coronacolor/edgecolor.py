"""Proper edge colorings with the constructive bounded palette of Vizing's theorem."""

from __future__ import annotations

from .graph import Graph, max_degree


def edge_colors_at(h: Graph, ecol: tuple[int, ...], u: int) -> frozenset[int]:
    """Set of colors on the edges incident with u; ecol is in canonical edge
    order, read beside h's two columns (h's pairs are not derived)."""
    return frozenset(c for a, b, c in zip(h.lo, h.hi, ecol) if a == u or b == u)


def vizing_color(h: Graph) -> tuple[int, ...]:
    """Proper edge coloring with the fixed palette 1..max_degree(h)+1, one
    color per edge id, in the order of h's columns ``h.lo`` and ``h.hi``.

    The fan algorithm of Misra and Gries: edges are inserted in canonical
    order, and each is given a color with a maximal fan at its first endpoint
    u, built by walking u's neighbors in adjacency order.  With c free at u
    and d free at the fan's last vertex, the c/d path from u is inverted when
    d is on an edge at u; the fan then rotates up to its first vertex where d
    is free, and that vertex's edge to u takes d.  Ties always break to the
    lowest color and the smallest vertex, so the output is a deterministic
    function of the graph.
    Each vertex keeps two maps in step, one from neighbor to the color of
    their edge and one from color to the neighbor across it; the inversion
    and the rotation update both in place.
    """
    adj = h.adj
    palette = range(1, max_degree(h) + 2)
    col: list[dict[int, int]] = [{} for _ in adj]  # vertex -> neighbor -> color
    at: list[dict[int, int]] = [{} for _ in adj]  # vertex -> color -> neighbor
    for u, v in zip(h.lo, h.hi):
        cu, au = col[u], at[u]
        fan, ax = [v], at[v]
        while cu:  # u's colored edges may extend the fan
            for w in adj[u]:
                if w in cu and cu[w] not in ax and w not in fan:
                    fan.append(w)
                    ax = at[w]
                    break
            else:
                break
        for c in palette:
            if c not in au:
                break
        for d in palette:
            if d not in ax:
                break
        else:
            raise AssertionError("degree exceeds palette")
        if c != d and d in au:
            path, want = [u], d  # the maximal path from u alternating d, c
            while want in at[path[-1]]:
                path.append(at[path[-1]][want])
                want = c + d - want
            for x in path:  # x's c- and d-edges are all on the path: swap them
                ax, cx = at[x], col[x]
                y, z = ax.pop(c, None), ax.pop(d, None)
                if y is not None:
                    ax[d] = y
                    cx[y] = d
                if z is not None:
                    ax[c] = z
                    cx[z] = c
        # the first d-free vertex closes a fan: the inversion turns only (u, fan[j]) from d to c, and
        # fan[j-1], once d-free, loses d only as the path's far end, then c-free; it or fan[-1] keeps d.
        # Up to it u-fan[j] hands its color, never d (now free at u), to u-fan[j-1], the new edge first
        x = v
        for y in fan[1:]:
            if d not in at[x]:
                break
            cy = cu[y]
            del at[y][cy]
            au[cy] = x
            at[x][cy] = u
            cu[x] = col[x][u] = cy
            x = y
        au[d] = x
        at[x][d] = u
        cu[x] = col[x][u] = d
    return tuple([col[a][b] for a, b in zip(h.lo, h.hi)])
