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
Fallback).  An isolated vertex gets exact search of its own corona within the
same palette bound.  One verifier pass over the whole corona then checks the
assembled coloring; components owning a violation are searched the same way
and the corona is checked again (a proper-coloring clash hides product
collisions from the verifier, so one pass can miss components), until a pass
is clean; no known input sends a structured component there.  Every returned
coloring is verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .edgecolor import EdgeColoring, edge_colors_at, vizing_color
from .errors import BudgetExceededError, FallbackBudgetError, NoAvoidColorError
from .graph import (CoronaMap, Graph, connected_components, corona, corona_edge_starts,
                    max_degree, require_subcubic, subgraph)
from .graph import edge_index  # unused here; perfbench's tracer patches construct.edge_index
from .search import TotalColoring, base_coloring, npdtc_search
from .verify import star_products, verify_npd

CASE_1_1 = "Case1_1"
CASE_1_2 = "Case1_2"
CASE_2 = "Case2"
FALLBACK = "Fallback"
MIXED = "Mixed"

FALLBACK_BUDGET = 30_000_000  # node budget of each fallback search


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


def sort_by_product(ecol: EdgeColoring, h: Graph) -> tuple[int, ...]:
    """h's vertices by nondecreasing incident edge-color product, ties by index."""
    prod = star_products([1] * h.n, h, ecol.colors)
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
            raise NoAvoidColorError("no color of {1,2,3} misses the minimum-product vertex")
        return min(free), CASE_1_1
    p_min = math.prod(s_min)
    for c in (1, 2, 3, 4, 5):
        if c not in s_min and c != base.vertex_colors[v] and c * p_min != v_star:
            return c, CASE_2
    raise NoAvoidColorError("all of 1..5 forbidden; subcubic factors forbid four at most")


def _fallback_component(g: Graph, h: Graph, comp: tuple[int, ...], vcol: list[int],
                        earr: list[int], starts: list[int], bound: int) -> None:
    """Exact search of comp's own corona, which is the induced subgraph of
    g∘h on comp and its copies with the same labels; its colors go back run
    by run into the slices the ladder writes."""
    sub_g = subgraph(g, comp)[0]
    try:
        tc = npdtc_search(corona(sub_g, h)[0], bound, FALLBACK_BUDGET)
    except BudgetExceededError as exc:
        raise FallbackBudgetError(f"fallback search exhausted on component {comp}") from exc
    if tc is None:
        raise AssertionError(f"internal: no coloring with {bound} colors for component {comp}")
    sub_starts = corona_edge_starts(sub_g, h.n)
    vc, ec, n_h, m_h = tc.vertex_colors, tc.edge_colors, h.n, len(h.edges)
    for i, v in enumerate(comp):
        vcol[v] = vc[i]
        copy = len(comp) + i * n_h
        vcol[g.n + v * n_h:g.n + (v + 1) * n_h] = vc[copy:copy + n_h]
        earr[starts[v]:starts[v + 1]] = ec[sub_starts[i]:sub_starts[i + 1]]
        block = sub_starts[-1] + i * m_h
        earr[starts[-1] + v * m_h:starts[-1] + (v + 1) * m_h] = ec[block:block + m_h]


def color_corona(g: Graph, h: Graph) -> ColorResult:
    """Build g∘h and a verified distinguishing total coloring within
    max_degree(g∘h)+3 colors.

    g's vertices and edges keep g's base coloring; with h empty the corona
    is g and nothing more is colored, though its components stay tagged
    Fallback.  Otherwise every component but an isolated vertex lays each of
    its copies along the ladder, with dg the global maximum degree so that
    all components share one palette bound, and position 1 colored by
    ``min_copy_color``; in Case1_1 the component edge takes beta too and its
    ends the other two colors of {1,2,3}.  One loop searches components:
    the isolated vertices first, then, after each verifier pass over the
    whole corona, the components owning a violation, until a pass is clean.
    A component is searched as its own corona, the induced subgraph of g∘h
    on it and its copies.  A violation inside a component that was already
    searched is an internal error.
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
    todo: list[int] = []  # components to search: isolated vertices first
    sigma: tuple[int, ...] = ()
    if h.n:
        ecol = vizing_color(h)
        sigma = sort_by_product(ecol, h)
        s_min = edge_colors_at(h, ecol, sigma[0])
        earr[starts[g.n]:] = ecol.colors * g.n
        # copy j's vertex colors and spokes in h's vertex order
        ladder, spokes = [0] * h.n, [0] * h.n
        for pos, u in enumerate(sigma, 1):
            ladder[u], spokes[u] = dg + pos + 2, dg + pos + 3
        # min_copy_color's v_star: star products in the base coloring, spokes 2..4
        star = star_products(base.vertex_colors, g, base.edge_colors)
        tail = math.prod(range(dg + 5, dg + min(h.n, 4) + 4))
        for ci, comp in enumerate(comps):
            if len(comp) == 1:
                todo.append(ci)
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
    comp_of = [0] * g.n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    while True:
        for ci in todo:
            tags[ci] = FALLBACK
            _fallback_component(g, h, comps[ci], vcol, earr, starts, bound)
        coloring = TotalColoring(tuple(vcol), tuple(earr), max(max(vcol), max(earr, default=0)))
        report = verify_npd(cg, coloring)
        if report.ok:
            break
        owners = set()
        for violation in report.violations:
            kind, x = violation.elements[0]
            x = x[0] if kind == "edge" else x  # an edge lies inside one component
            # v_j, or copy j's v_j; with h empty the corona is g, so x < g.n
            # and nothing is divided by h.n
            owners.add(comp_of[x if x < g.n else (x - g.n) // h.n])
        todo = sorted(owners)
        if any(tags[ci] == FALLBACK for ci in todo):
            raise AssertionError(
                f"internal: constructed coloring failed verification: {report.violations[:3]}"
            )
    if coloring.max_color > bound:
        raise AssertionError(f"internal: {coloring.max_color} colors exceed bound {bound}")
    trace = ConstructionTrace(
        case_tag=tags[0] if len(set(tags)) == 1 else MIXED,
        sigma=sigma,
        component_cases=tuple((comp, tags[ci]) for ci, comp in enumerate(comps)),
        palette_bound=bound,
    )
    return ColorResult(cg, cmap, coloring, trace)
