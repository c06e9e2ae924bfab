"""Structured total coloring of corona products within max_degree+3 colors.

The corona of two subcubic graphs is colored from two ingredients: a
distinguishing total coloring of the first factor and a bounded proper edge
coloring of the second.  Every copy of the second factor is laid out along
one ladder: sigma, its vertices sorted by edge-color product.  With
dg = max_degree(G), position pos >= 2 of sigma gets vertex color dg+pos+2,
and every position gets spoke color dg+pos+3, so the products inside each
copy rise strictly.  One case rule, decided once per call, gives the vertex
color at position 1: dg+3 = 4 in Case1_2, beta in Case1_1 (which also
recolors each edge of G and its ends), the avoidance color alpha_j in Case2,
and for an isolated vertex, tagged Fallback as outside the paper's cases,
the choice of ``cone_colors``, which also colors the vertex itself.  Colors
are written in the corona's canonical edge order: for each vertex of the
first factor its edges to larger vertices, its spokes and its copy of the
ladder, then the copy edges, which repeat the second factor's edge
coloring.  No component is searched: with an empty second factor the corona
is the first factor, and its base coloring is the whole coloring (tagged
Fallback).  One verifier pass over the corona checks every returned
coloring; a violation is an internal error, never repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .edgecolor import edge_colors_at, vizing_color
from .graph import (CoronaMap, Graph, TotalColoring, connected_components, corona, max_degree,
                    require_subcubic)
from .graph import edge_index, subgraph  # unused here; perfbench's tracer patches these
from .search import base_coloring, npdtc_search  # npdtc_search likewise
from .verify import star_products, verify_npd

CASE_1_1 = "Case1_1"
CASE_1_2 = "Case1_2"
CASE_2 = "Case2"
FALLBACK = "Fallback"
MIXED = "Mixed"


@dataclass(frozen=True)
class ConstructionTrace:
    """How a corona coloring was assembled.

    component_cases pins the tag per component of the first factor, and
    case_tag is their one tag, or Mixed.  sigma lists the second factor's
    vertices by nondecreasing edge-color product, ties broken by vertex
    index.  The position-1 color of copy j (beta or alpha_j) is the
    coloring's color of u^j_{sigma[0]+1}.
    """

    sigma: tuple[int, ...]
    component_cases: tuple[tuple[tuple[int, ...], str], ...]
    palette_bound: int

    @property
    def case_tag(self) -> str:
        tags = {tag for _, tag in self.component_cases}
        return tags.pop() if len(tags) == 1 else MIXED


class ColorResult(NamedTuple):
    graph: Graph
    corona_map: CoronaMap
    coloring: TotalColoring
    trace: ConstructionTrace


def sort_by_product(ecol: tuple[int, ...], h: Graph) -> tuple[int, ...]:
    """h's vertices by nondecreasing incident edge-color product, ties by index."""
    prod = star_products([1] * h.n, h, ecol)
    return tuple(sorted(range(h.n), key=lambda u: (prod[u], u)))


def min_copy_color(v: int, base: TotalColoring, s_min: frozenset[int], v_star: int) -> int:
    """alpha_j, the Case2 color of copy v+1's minimum vertex sigma[0]: the
    smallest c of 1..5 missing from s_min, the set of edge colors at
    sigma[0], and from v's own color, with c*prod(s_min) != v_star.

    v_star is prod_G(v), v's closed-star product in the base coloring, times
    the spokes dg+p+3 of positions p = 2..4 (beyond, v_star exceeds 120 >=
    5*prod(s_min) either way).  u^j_{sigma[0]} has star product
    c*prod(s_min)*(dg+4), so the third condition keeps its spoke's ends apart.
    It binds only when n_h = 1, where s_min is empty and two colors at most
    are forbidden: otherwise prod_G(v) >= 2 and v_star >= 2*(dg+5)*... exceeds
    5*prod(s_min) <= 5*min(n_h, 4)!.  Any alpha <= 5 stays below dg+4, the
    lowest ladder color, so the copy stays proper and its products rising.
    """
    p_min = math.prod(s_min)
    for c in (1, 2, 3, 4, 5):
        if c not in s_min and c != base.vertex_colors[v] and c * p_min != v_star:
            return c
    raise AssertionError("all of 1..5 forbidden; subcubic factors forbid four at most")


def cone_colors(h: Graph, ecol: tuple[int, ...], u: int, ladder: list[int],
                spokes: list[int]) -> tuple[int, int]:
    """Position-1 color and hub color of an isolated vertex's cone K1∘h.

    u is sigma[0], and ladder and spokes give each vertex of h its ladder
    colors.  Position 1 takes the smallest c of 1..bound, the last spoke, on
    no edge at u and no neighbor, whose star product c*(dg+4)*E(u) no
    neighbor's equals.  The hub takes the smallest of 1..dg+3 but c whose
    product with every spoke meets no copy vertex's star product; from five
    spokes on it exceeds all of them and is not formed.  0 if none fits.
    """
    e = star_products([1] * h.n, h, ecol)
    taken = {*edge_colors_at(h, ecol, u), spokes[u], *(ladder[w] for w in h.adj[u])}
    near = {ladder[w] * e[w] * spokes[w] for w in h.adj[u]}
    c = next((c for c in range(1, max(spokes) + 1)
              if c not in taken and c * e[u] * spokes[u] not in near), 0)
    top = [c if w == u else x for w, x in enumerate(ladder)]
    stars = {p * s for p, s in zip(star_products(top, h, ecol), spokes)}
    spoke_prod = math.prod(spokes) if h.n <= 4 else 0
    hub = next((x for x in range(1, spokes[u]) if x != c and x * spoke_prod not in stars), 0)
    return c, hub


def color_corona(g: Graph, h: Graph) -> ColorResult:
    """Build g∘h and a verified distinguishing total coloring within
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
    cg, cmap = corona(g, h)
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
            up = sum(w > v for w in nb)
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
