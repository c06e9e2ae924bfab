"""Structured total coloring of corona products within max_degree+3 colors.

The corona of two subcubic graphs is colored from two ingredients: a
distinguishing total coloring of the first factor and a bounded proper edge
coloring of the second.  Every copy of the second factor is laid out along
one ladder: sigma, its vertices sorted by edge-color product.  With
dg = max_degree(G), position pos >= 2 of sigma gets vertex color dg+pos+2,
and every position gets spoke color dg+pos+3, so the products inside each
copy rise strictly.  The cases differ only in the vertex color at position
1: dg+3 = 4 in Case1_2, beta in Case1_1 (which also recolors the component
edge and its ends), and the avoidance color alpha_j in Case2.  Colors are
written by edge position (corona_edge_starts): each copy's vertex colors and
spokes are slices of one ladder template, and the copy edges repeat the
second factor's edge coloring.  alpha_j also keeps u^j_{sigma[0]}'s star
product off v_j's, so every component of two or more vertices is colored
without search.  With an empty second factor the corona is the first factor
itself, and its base coloring, an exact search, is the whole coloring (tagged
Fallback).  An isolated vertex's component is the cone K1∘H, the same for
every isolated vertex, so it is searched once within the same palette bound
and its coloring written into each cone.  One verifier pass over the whole
corona then checks the assembled coloring; a violation is an internal error,
never repaired.  Every returned coloring is verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import search
from .edgecolor import edge_colors_at, vizing_color
from .errors import BudgetExceededError
from .graph import (CoronaMap, Graph, connected_components, corona, corona_edge_starts,
                    max_degree, new_graph, require_subcubic)
from .graph import edge_index, subgraph  # unused here; perfbench's tracer patches both names
from .search import TotalColoring, base_coloring, npdtc_search
from .verify import star_products, verify_npd

CASE_1_1 = "Case1_1"
CASE_1_2 = "Case1_2"
CASE_2 = "Case2"
FALLBACK = "Fallback"
MIXED = "Mixed"


@dataclass(frozen=True)
class ConstructionTrace:
    """How a corona coloring was assembled.

    case_tag summarizes the whole run (Mixed when components differ);
    component_cases pins the tag per component of the first factor.  sigma
    lists the second factor's vertices by nondecreasing edge-color product,
    ties broken by vertex index.  The position-1 color of copy j (beta or
    alpha_j) is the coloring's color of u^j_{sigma[0]+1}.
    """

    case_tag: str
    sigma: tuple[int, ...]
    component_cases: tuple[tuple[tuple[int, ...], str], ...]
    palette_bound: int


class ColorResult(NamedTuple):
    graph: Graph
    corona_map: CoronaMap
    coloring: TotalColoring
    trace: ConstructionTrace


def sort_by_product(ecol: tuple[int, ...], h: Graph) -> tuple[int, ...]:
    """h's vertices by nondecreasing incident edge-color product, ties by index."""
    prod = star_products([1] * h.n, h, ecol)
    return tuple(sorted(range(h.n), key=lambda u: (prod[u], u)))


def min_copy_color(
    v: int, base: TotalColoring, s_min: frozenset[int], delta_g: int, v_star: int
) -> tuple[int, str]:
    """Color of copy v+1's minimum vertex sigma[0] and the case it follows.

    s_min is the set of edge colors at sigma[0].  When max_degree(G) is 1 the
    color is 4 (Case1_2) while color 4 misses sigma[0], else beta, the
    smallest color of {1,2,3} missing there (Case1_1); otherwise it is
    alpha_j, the smallest color c of 1..5 missing from s_min and v's own color
    with c*prod(s_min) != v_star (Case2).

    v_star is prod_G(v), v's closed-star product in the base coloring, times
    the spoke colors dg+p+3 of positions p >= 2; color_corona stops at p = 4,
    from where v_star exceeds 120 >= 5*prod(s_min) either way.  u^j_{sigma[0]}
    has star product c*prod(s_min)*(dg+4), so the third condition keeps the
    products at the two ends of its spoke apart.  It binds only when n_h = 1,
    where s_min is empty and at most two colors are forbidden: otherwise
    prod_G(v) >= 2 (v has an edge colored unlike v) and v_star >= 2*(dg+5)*...
    exceeds 5*prod(s_min) <= 5*min(n_h, 4)!.  Any alpha <= 5 stays below dg+4,
    the lowest ladder color, so the copy stays proper and its products rising.
    """
    if delta_g == 1:
        if 4 not in s_min:
            return 4, CASE_1_2
        free = {1, 2, 3} - s_min
        if not free:
            raise AssertionError("no color of {1,2,3} misses the minimum-product vertex")
        return min(free), CASE_1_1
    p_min = math.prod(s_min)
    for c in (1, 2, 3, 4, 5):
        if c not in s_min and c != base.vertex_colors[v] and c * p_min != v_star:
            return c, CASE_2
    raise AssertionError("all of 1..5 forbidden; subcubic factors forbid four at most")


def _cone_coloring(h: Graph, bound: int) -> TotalColoring:
    """Exact search of K1∘h, the corona of any isolated vertex, within bound."""
    try:
        tc = npdtc_search(corona(new_graph(1), h)[0], bound, search.BASE_BUDGET)
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"cone search exhausted on K1∘H with |V(H)|={h.n}") from exc
    if tc is None:
        raise AssertionError(f"no coloring of the cone K1∘H with {bound} colors")
    return tc


def color_corona(g: Graph, h: Graph) -> ColorResult:
    """Build g∘h and a verified distinguishing total coloring within
    max_degree(g∘h)+3 colors.

    g's vertices and edges keep g's base coloring; with h empty the corona
    is g and nothing more is colored, though its components stay tagged
    Fallback.  Otherwise every component but an isolated vertex lays each of
    its copies along the ladder, with dg the global maximum degree so that
    all components share one palette bound, and position 1 colored by
    ``min_copy_color``; in Case1_1 the component edge takes beta too and its
    ends the other two colors of {1,2,3}.  Every isolated vertex takes the
    coloring of the cone K1∘h, searched once, run by run: the hub's color,
    the copy's vertex colors, the spokes and the copy block.  One verifier
    pass over the whole corona checks the result; a violation is an internal
    error.
    """
    require_subcubic(g)
    require_subcubic(h)
    cg, cmap = corona(g, h)
    dg = max_degree(g)
    # v_j has degree dg+|V(h)| at most, which no copy vertex's deg+1 <= |V(h)| exceeds
    bound = dg + h.n + 3
    starts = corona_edge_starts(g, h.n)
    vcol = [0] * cg.n
    earr = [0] * len(cg.edges)
    comps = connected_components(g)
    tags = [FALLBACK] * len(comps)
    base = base_coloring(g)
    vcol[:g.n] = base.vertex_colors
    for v in range(g.n):
        up = starts[v + 1] - h.n  # spokes start; g-edges up sit v*|V(h)| past g.edges
        earr[starts[v]:up] = base.edge_colors[starts[v] - v * h.n:up - v * h.n]
    sigma: tuple[int, ...] = ()
    if h.n:
        ecol = vizing_color(h)
        sigma = sort_by_product(ecol, h)
        s_min = edge_colors_at(h, ecol, sigma[0])
        earr[starts[g.n]:] = ecol * g.n
        # copy j's vertex colors and spokes in h's vertex order
        ladder, spokes = [0] * h.n, [0] * h.n
        for pos, u in enumerate(sigma, 1):
            ladder[u], spokes[u] = dg + pos + 2, dg + pos + 3
        # min_copy_color's v_star: star products in the base coloring, spokes 2..4
        star = star_products(base.vertex_colors, g, base.edge_colors)
        tail = math.prod(range(dg + 5, dg + min(h.n, 4) + 4))
        for ci, comp in enumerate(comps):
            if len(comp) == 1:
                continue
            for v in comp:
                ladder[sigma[0]], tags[ci] = min_copy_color(v, base, s_min, dg, star[v] * tail)
                vcol[g.n + v * h.n:g.n + (v + 1) * h.n] = ladder
                earr[starts[v + 1] - h.n:starts[v + 1]] = spokes
            if tags[ci] == CASE_1_1:  # the position-1 color is beta
                v1, v2 = comp
                beta = ladder[sigma[0]]
                vcol[v1], vcol[v2] = sorted({1, 2, 3} - {beta})
                earr[starts[v1]] = beta
        isolated = [comp[0] for comp in comps if len(comp) == 1]
        if isolated:
            cone = _cone_coloring(h, bound)
            vc, ec, m_h = cone.vertex_colors, cone.edge_colors, len(h.edges)
            for v in isolated:  # K1∘h's runs: hub, copy, spokes, copy block
                vcol[v] = vc[0]
                vcol[g.n + v * h.n:g.n + (v + 1) * h.n] = vc[1:]
                earr[starts[v]:starts[v + 1]] = ec[:h.n]
                earr[starts[-1] + v * m_h:starts[-1] + (v + 1) * m_h] = ec[h.n:]
    coloring = TotalColoring(tuple(vcol), tuple(earr), max(max(vcol), max(earr, default=0)))
    report = verify_npd(cg, coloring)
    if not report.ok:
        raise AssertionError(
            f"constructed coloring failed verification: {report.violations[:3]}"
        )
    if coloring.max_color > bound:
        raise AssertionError(f"{coloring.max_color} colors exceed bound {bound}")
    trace = ConstructionTrace(
        case_tag=tags[0] if len(set(tags)) == 1 else MIXED,
        sigma=sigma,
        component_cases=tuple((comp, tags[ci]) for ci, comp in enumerate(comps)),
        palette_bound=bound,
    )
    return ColorResult(cg, cmap, coloring, trace)
