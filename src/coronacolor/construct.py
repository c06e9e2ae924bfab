"""Structured total coloring of corona products within max_degree+3 colors.

The corona of two subcubic graphs is colored from two ingredients: a
distinguishing total coloring of the first factor and a bounded proper edge
coloring of the second.  Copy vertices are laid out along the second
factor's vertices sorted by edge-color product, which makes the products
inside each copy strictly increasing.  Components outside the structured
cases are colored by exact search within the same palette bound.  One
verifier pass over the whole corona then checks the assembled coloring;
components owning a violation are recolored by exact search and the corona
is checked again (a proper-coloring clash hides product collisions from the
verifier, so one pass can miss components), until a pass is clean.  Every
returned coloring is verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .edgecolor import EdgeColoring, edge_colors_at, vizing_color
from .errors import BudgetExceededError, FallbackBudgetError, NoAvoidColorError
from .graph import (
    CoronaMap,
    Graph,
    connected_components,
    corona,
    edge_index,
    max_degree,
    require_subcubic,
    subgraph,
)
from .search import TotalColoring, base_coloring, npdtc_search
from .verify import verify_npd

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
    ties broken by vertex index.  beta is the recoloring color of the
    single-edge case and alphas the per-copy avoidance colors of the general
    case.
    """

    case_tag: str
    sigma: tuple[int, ...]
    component_cases: tuple[tuple[tuple[int, ...], str], ...]
    beta: int | None
    alphas: tuple[tuple[int, int], ...]
    palette_bound: int


class ColorResult(NamedTuple):
    graph: Graph
    corona_map: CoronaMap
    coloring: TotalColoring
    trace: ConstructionTrace


def sort_by_product(ecol: EdgeColoring, h: Graph) -> tuple[int, ...]:
    """h's vertices by nondecreasing incident edge-color product, ties by index."""
    prod = [1] * h.n
    for (a, b), c in zip(h.edges, ecol.colors):
        prod[a] *= c
        prod[b] *= c
    return tuple(sorted(range(h.n), key=lambda u: (prod[u], u)))


def case1_color(
    v1: int,
    v2: int,
    s_min: frozenset[int],
    sigma: tuple[int, ...],
    cmap: CoronaMap,
) -> tuple[dict[int, int], dict[tuple[int, int], int], str, int | None]:
    """Colors for one single-edge component of G and its two copies of H.

    s_min is the set of edge colors at the minimum-product vertex sigma[0].
    When color 4 misses that vertex, the base coloring of the component is
    kept and copy position i gets vertex color i+3 under corona edge color
    i+4.  Otherwise the component edge and both minimum copy vertices are
    recolored to the smallest color of {1,2,3} missing there, their corona
    edges get 5, the endpoints take the two remaining small colors, and
    positions from 2 on follow the same ladder.
    """
    u_min = sigma[0]
    va: dict[int, int] = {}
    ea: dict[tuple[int, int], int] = {}
    if 4 not in s_min:
        tag, beta, start = CASE_1_2, None, 1
    else:
        free = sorted({1, 2, 3} - s_min)
        if not free:
            raise NoAvoidColorError("no color of {1,2,3} misses the minimum-product vertex")
        beta = free[0]
        rest = sorted({1, 2, 3} - {beta})
        va[v1], va[v2] = rest[0], rest[1]
        ea[(v1, v2)] = beta
        for vj, j in ((v1, v1 + 1), (v2, v2 + 1)):
            cu = cmap.copy_vertex(j, u_min + 1)
            va[cu] = beta
            ea[(vj, cu)] = 5
        tag, start = CASE_1_1, 2
    for pos in range(start, len(sigma) + 1):
        hu = sigma[pos - 1]
        for vj, j in ((v1, v1 + 1), (v2, v2 + 1)):
            cu = cmap.copy_vertex(j, hu + 1)
            va[cu] = pos + 3
            ea[(vj, cu)] = pos + 4
    return va, ea, tag, beta


def case2_color(
    comp: tuple[int, ...],
    base: TotalColoring,
    s_min: frozenset[int],
    sigma: tuple[int, ...],
    cmap: CoronaMap,
    delta_g: int,
) -> tuple[dict[int, int], dict[tuple[int, int], int], dict[int, int]]:
    """Ladder coloring of one component's copies when max_degree(G) is 2 or 3.

    Every copy j starts with an avoidance color alpha_j, the smallest color
    of 1..5 missing from both s_min, the minimum copy vertex's edge colors,
    and v_j's own color; later positions climb above the base palette.
    """
    u_min = sigma[0]
    va: dict[int, int] = {}
    ea: dict[tuple[int, int], int] = {}
    alphas: dict[int, int] = {}
    for v in comp:
        j = v + 1
        forbidden = set(s_min)
        forbidden.add(base.vertex_colors[v])
        alpha = None
        for c in (1, 2, 3, 4, 5):
            if c not in forbidden:
                alpha = c
                break
        if alpha is None:
            raise NoAvoidColorError("all of 1..5 forbidden; impossible for degree <= 3")
        alphas[j] = alpha
        cu = cmap.copy_vertex(j, u_min + 1)
        va[cu] = alpha
        ea[(v, cu)] = delta_g + 4
        for pos in range(2, len(sigma) + 1):
            hu = sigma[pos - 1]
            cu = cmap.copy_vertex(j, hu + 1)
            va[cu] = delta_g + pos + 2
            ea[(v, cu)] = delta_g + pos + 3
    return va, ea, alphas


def _corona_component(cg: Graph, cmap: CoronaMap, comp: tuple[int, ...]) -> tuple[Graph, tuple[int, ...]]:
    verts = list(comp)
    for v in comp:
        j = v + 1
        for i in range(1, cmap.n_h + 1):
            verts.append(cmap.copy_vertex(j, i))
    return subgraph(cg, verts)


def _fallback_component(
    cg: Graph,
    cmap: CoronaMap,
    comp: tuple[int, ...],
    vcol: list[int],
    earr: list[int],
    eidx: dict[tuple[int, int], int],
    bound: int,
) -> None:
    sub, verts = _corona_component(cg, cmap, comp)
    try:
        tc = npdtc_search(sub, bound, FALLBACK_BUDGET)
    except BudgetExceededError as exc:
        raise FallbackBudgetError(f"fallback search exhausted on component {comp}") from exc
    if tc is None:
        raise AssertionError(
            f"internal: no coloring with {bound} colors for component {comp}"
        )
    for i, v in enumerate(verts):
        vcol[v] = tc.vertex_colors[i]
    for t, (a, b) in enumerate(sub.edges):
        earr[eidx[(verts[a], verts[b])]] = tc.edge_colors[t]


def _component_of(element: tuple, cmap: CoronaMap, comp_of: list[int]) -> int:
    """Component of the first factor owning a violation element: v_j itself,
    or v_j for a vertex of copy j; an edge lies inside one component, so
    either endpoint will do."""
    kind, x = element
    if kind == "edge":
        x = x[0]
    return comp_of[cmap.role(x).j - 1]


def color_corona(g: Graph, h: Graph) -> ColorResult:
    """Build g∘h and a verified distinguishing total coloring within
    max_degree(g∘h)+3 colors.

    One rule picks each component's coloring: an isolated vertex, or any
    component when h is empty, gets exact search; otherwise, when
    max_degree(g) is 1, every remaining component is a single edge and takes
    the recolor-or-ladder case (``case1_color``: Case1_1 when h's
    minimum-product vertex carries edge color 4, Case1_2 otherwise);
    otherwise every remaining component, single edges included, takes the
    avoidance-ladder case (``case2_color``), offset by the global maximum
    degree so all components share one palette bound.  The whole corona is
    then verified in one pass; the components owning a violation are
    recolored by exact search and the corona is verified again, until a pass
    is clean.  A violation inside a component that was already searched is an
    internal error.
    """
    require_subcubic(g)
    require_subcubic(h)
    cg, cmap = corona(g, h)
    bound = max_degree(cg) + 3
    eidx = edge_index(cg)
    vcol = [0] * cg.n
    earr = [0] * len(cg.edges)
    comps = connected_components(g)
    tags = [FALLBACK] * len(comps)
    beta: int | None = None
    alphas: dict[int, int] = {}
    sigma: tuple[int, ...] = ()
    if h.n:
        base = base_coloring(g)
        ecol = vizing_color(h)
        dg = max_degree(g)
        sigma = sort_by_product(ecol, h)
        s_min = edge_colors_at(h, ecol, sigma[0])
        for v in range(g.n):
            vcol[v] = base.vertex_colors[v]
        for t, e in enumerate(g.edges):
            earr[eidx[e]] = base.edge_colors[t]
        for j in range(1, g.n + 1):
            off = cmap.copy_vertex(j, 1)
            for (a, b), c in zip(h.edges, ecol.colors):
                earr[eidx[(off + a, off + b)]] = c
        for ci, comp in enumerate(comps):
            if len(comp) == 1:
                continue
            if dg == 1:
                va, ea, tag, beta = case1_color(comp[0], comp[1], s_min, sigma, cmap)
            else:
                va, ea, comp_alphas = case2_color(comp, base, s_min, sigma, cmap, dg)
                alphas.update(comp_alphas)
                tag = CASE_2
            for x, c in va.items():
                vcol[x] = c
            for e, c in ea.items():
                earr[eidx[e]] = c
            tags[ci] = tag
    comp_of = [0] * g.n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
        if tags[ci] == FALLBACK:
            _fallback_component(cg, cmap, comp, vcol, earr, eidx, bound)
    while True:
        coloring = TotalColoring(tuple(vcol), tuple(earr), max(max(vcol), max(earr, default=0)))
        report = verify_npd(cg, coloring)
        if report.ok:
            break
        flagged = sorted({_component_of(v.elements[0], cmap, comp_of) for v in report.violations})
        if any(tags[ci] == FALLBACK for ci in flagged):
            raise AssertionError(
                f"internal: constructed coloring failed verification: {report.violations[:3]}"
            )
        for ci in flagged:
            tags[ci] = FALLBACK
            _fallback_component(cg, cmap, comps[ci], vcol, earr, eidx, bound)
    if coloring.max_color > bound:
        raise AssertionError(f"internal: {coloring.max_color} colors exceed bound {bound}")
    unique = set(tags)
    trace = ConstructionTrace(
        case_tag=tags[0] if len(unique) == 1 else MIXED,
        sigma=sigma,
        component_cases=tuple((comp, tags[ci]) for ci, comp in enumerate(comps)),
        beta=beta,
        alphas=tuple(sorted(alphas.items())),
        palette_bound=bound,
    )
    return ColorResult(cg, cmap, coloring, trace)
