import hashlib
import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coronacolor import (
    CASE_1_1,
    CASE_1_2,
    CASE_2,
    FALLBACK,
    MIXED,
    base_coloring,
    color_corona,
    connected_components,
    corona,
    edge_colors_at,
    enumerate_subcubic,
    gen_random_subcubic,
    max_degree,
    new_graph,
    parse_graph6,
    sort_by_product,
    subgraph,
    verify_npd,
    vizing_color,
)
from coronacolor.errors import NotSubcubicError
from oracles import cycle, k, product_at, reference_color_corona

# the only subcubic H with at most 6 vertices, as enumerate_subcubic labels
# them, whose edge coloring puts color 4 on the minimum-product vertex, so
# K2∘H takes Case1_1 (found by the scan test below)
CASE11_H = "EUxo"
# a 6-vertex H in another labeling whose edge coloring leaves only 1 and 4 at
# the minimum-product vertex: two of {1,2,3} are free there, and beta is the
# smaller (found by a random search over gen_random_subcubic graphs)
CASE11_TWO_FREE_H = "Ekcw"
# a leaf-rich G whose corona with K1 needs alpha to avoid v_j's star product:
# a leaf with base color 1 and edge color 2 has star product 2, which the
# first two conditions on alpha alone would pick (shrunk by hypothesis)
LEAFY_G = "EOSw"


def dispatch_rule(g, h, res):
    """Each component's tag by the README's dispatch rule: Case2 when
    Δ(G) >= 2; when Δ(G) = 1, Case1_1 if H's edge coloring puts color 4 on
    sigma[0] and Case1_2 otherwise; Fallback for a single vertex."""
    if max_degree(g) >= 2:
        case = CASE_2
    elif 4 in edge_colors_at(h, vizing_color(h), res.trace.sigma[0]):
        case = CASE_1_1
    else:
        case = CASE_1_2
    return [(comp, case if len(comp) > 1 else FALLBACK) for comp in connected_components(g)]


def count_searches(mp):
    """Record the graph of every exact search from here on: npdtc_search and
    chi_prod_exact both run search._search.  color_corona's only one is the
    base coloring of G, run when Δ(G) >= 2 (base_searches), whatever H is, so
    no component and no cone is searched, and Case 1's rule colors G, the
    corona of an empty H included."""
    from coronacolor import search

    searched = []
    real = search._search

    def counting(g, *args, **kwargs):
        searched.append(g)
        return real(g, *args, **kwargs)

    mp.setattr(search, "_search", counting)
    return searched


def base_searches(g, h):
    """The searches color_corona(g, h) runs: G's base coloring when Δ(G) >= 2,
    for every H, and none otherwise."""
    return [g] if max_degree(g) >= 2 else []


def test_sort_by_product_examples():
    h = k(2)
    assert sort_by_product(vizing_color(h), h) == (0, 1)  # tie broken by index
    p3 = new_graph(3, [(0, 1), (1, 2)])
    # products 1, 2, 2 -> vertex 0 first, then the index tie
    assert sort_by_product(vizing_color(p3), p3) == (0, 1, 2)
    tri = k(3)
    ec = vizing_color(tri)
    sigma = sort_by_product(ec, tri)
    prods = [1, 1, 1]
    for (a, b), c in zip(tri.edges, ec):
        prods[a] *= c
        prods[b] *= c
    assert sorted(prods) == [2, 3, 6]
    assert [prods[u] for u in sigma] == [2, 3, 6]
    # isolated vertices (product 1) come first
    h2 = new_graph(3, [(1, 2)])
    assert sort_by_product(vizing_color(h2), h2)[0] == 0


def test_hand_run_k2_k2():
    res = color_corona(k(2), k(2))
    assert res.trace.case_tag == CASE_1_2
    assert res.coloring.max_color == 6
    assert res.trace.palette_bound == 6
    assert res.trace.sigma == (0, 1)
    prods = verify_npd(res.graph, res.coloring).products
    assert {prods[0], prods[1]} == {90, 180}
    cm = res.corona_map
    for j in (1, 2):
        assert {prods[cm.copy_vertex(j, 1)], prods[cm.copy_vertex(j, 2)]} == {20, 30}


def test_case12_preserves_base_and_edge_colorings():
    g, h = k(2), k(2)
    res = color_corona(g, h)
    base = base_coloring(g)
    ec = vizing_color(h)
    assert res.coloring.vertex_colors[:2] == base.vertex_colors
    eidx = {e: t for t, e in enumerate(res.graph.edges)}
    assert res.coloring.edge_colors[eidx[(0, 1)]] == base.edge_colors[0]
    for j in (1, 2):
        ca = res.corona_map.copy_vertex(j, 1)
        cb = res.corona_map.copy_vertex(j, 2)
        assert res.coloring.edge_colors[eidx[(ca, cb)]] == ec[0]  # h's only edge


def test_figure_shape_case2():
    res = color_corona(k(3), k(4))
    assert res.trace.case_tag == CASE_2
    assert res.coloring.max_color <= 9
    assert res.trace.palette_bound == 9
    assert verify_npd(res.graph, res.coloring).ok
    u_min = res.trace.sigma[0] + 1
    for j in (1, 2, 3):
        alpha = res.coloring.vertex_colors[res.corona_map.copy_vertex(j, u_min)]
        assert 1 <= alpha <= 5


def test_case2_alpha_avoids_base_color_and_min_star():
    leafy = parse_graph6(LEAFY_G)
    res = color_corona(leafy, new_graph(1))
    assert (res.trace.case_tag, res.coloring.max_color) == (CASE_2, 7)
    for g in (k(3), cycle(5), k(4), leafy):
        for h in (new_graph(1), k(2), new_graph(3, [(0, 1), (1, 2)])):
            res = color_corona(g, h)
            if res.trace.case_tag != CASE_2:
                continue
            base = base_coloring(g)
            ec = vizing_color(h)
            sigma = res.trace.sigma
            s_min = edge_colors_at(h, ec, sigma[0])
            p_min = math.prod(s_min)
            prods = verify_npd(res.graph, res.coloring).products
            dg = max_degree(g)
            for j in range(1, g.n + 1):
                alpha = res.coloring.vertex_colors[res.corona_map.copy_vertex(j, sigma[0] + 1)]
                assert alpha not in s_min
                assert alpha != base.vertex_colors[j - 1]
                # u^j_{sigma[0]}'s star product is off v_j's
                assert alpha * p_min * (dg + 4) != prods[j - 1]


def test_single_vertex_copy_stays_case12():
    # n_h=1 leaves no edge colors at all, so the 4-free branch applies:
    # copy vertices get 4, corona edges 5, palette max 5 = bound
    res = color_corona(k(2), new_graph(1))
    assert res.trace.case_tag == CASE_1_2
    assert res.coloring.max_color == 5 == res.trace.palette_bound
    assert res.coloring.vertex_colors == (1, 2, 4, 4)


def test_fallback_shapes():
    res = color_corona(new_graph(1), k(2))
    assert res.trace.case_tag == FALLBACK
    assert res.coloring.max_color <= res.trace.palette_bound == 5
    res = color_corona(k(2), new_graph(0))
    assert res.trace.case_tag == FALLBACK
    assert res.coloring.max_color <= res.trace.palette_bound == 4
    res = color_corona(new_graph(2), k(2))  # edgeless G
    assert res.trace.case_tag == FALLBACK


def test_mixed_components():
    g = new_graph(3, [(0, 1)])  # one edge plus an isolated vertex
    res = color_corona(g, k(2))
    assert res.trace.case_tag == MIXED
    tags = dict(zip([c for c, _ in res.trace.component_cases], [t for _, t in res.trace.component_cases]))
    assert tags[(0, 1)] == CASE_1_2
    assert tags[(2,)] == FALLBACK


def test_single_edge_component_under_global_delta3_uses_case2():
    g = new_graph(6, [(0, 1), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
    assert max_degree(g) == 3
    res = color_corona(g, k(2))
    assert all(t == CASE_2 for _, t in res.trace.component_cases)


def test_case11_scan_finds_the_frozen_instance():
    from coronacolor import emit_graph6

    found = []
    for n in range(1, 7):
        for h in enumerate_subcubic(n):
            ec = vizing_color(h)
            sigma = sort_by_product(ec, h)
            if 4 in edge_colors_at(h, ec, sigma[0]):
                found.append(emit_graph6(h))
    assert found == [CASE11_H]


def test_case11_frozen_instance():
    for g6 in (CASE11_H, CASE11_TWO_FREE_H):
        h = parse_graph6(g6)
        res = color_corona(k(2), h)
        assert res.trace.case_tag == CASE_1_1
        assert res.coloring.max_color <= res.trace.palette_bound
        assert verify_npd(res.graph, res.coloring).ok
        # beta colors the component edge; its ends take the other two of {1,2,3}
        # and the minimum copy vertices share beta
        eidx = {e: t for t, e in enumerate(res.graph.edges)}
        beta = res.coloring.edge_colors[eidx[(0, 1)]]
        # beta is the smallest of {1,2,3} on no edge at sigma[0] in h's edge coloring
        s_min = edge_colors_at(h, vizing_color(h), res.trace.sigma[0])
        assert beta == min({1, 2, 3} - s_min), g6
        assert sorted(res.coloring.vertex_colors[:2]) == sorted({1, 2, 3} - {beta})
        u_min = res.trace.sigma[0]
        for j in (1, 2):
            cu = res.corona_map.copy_vertex(j, u_min + 1)
            assert res.coloring.vertex_colors[cu] == beta
            key = tuple(sorted((j - 1, cu)))
            assert res.coloring.edge_colors[eidx[key]] == 5


def test_case2_strict_product_chain():
    # the ladder is shared: every structured case, Case1 included
    three_k2 = new_graph(6, [(0, 1), (2, 3), (4, 5)])
    hs = [h for hn in range(1, 5) for h in enumerate_subcubic(hn)]
    hs.append(parse_graph6(CASE11_H))
    tags = set()
    for g in (k(2), three_k2, k(3), cycle(4), k(4)):
        for h in hs:
            res = color_corona(g, h)
            if res.trace.case_tag not in (CASE_1_1, CASE_1_2, CASE_2):
                continue
            tags.add(res.trace.case_tag)
            sigma = res.trace.sigma
            for j in range(1, g.n + 1):
                chain = [
                    product_at(res.graph, res.coloring, res.corona_map.copy_vertex(j, u + 1))
                    for u in sigma
                ]
                assert all(a < b for a, b in zip(chain, chain[1:]))
    assert tags == {CASE_1_1, CASE_1_2, CASE_2}


def test_palette_bound_holds_on_sample():
    for gn in range(1, 5):
        for g in enumerate_subcubic(gn, connected=True):
            for hn in range(1, 4):
                for h in enumerate_subcubic(hn):
                    res = color_corona(g, h)
                    assert res.coloring.max_color <= max_degree(g) + h.n + 3


def test_determinism():
    g, h = cycle(5), new_graph(3, [(0, 1), (1, 2)])
    a = color_corona(g, h)
    b = color_corona(g, h)
    assert a.coloring == b.coloring and a.trace == b.trace


def test_color_corona_builds_no_corona_adjacency():
    # color_corona writes colors by edge position and verifies from the
    # edges, so the corona's adjacency is never derived
    h = gen_random_subcubic(10, 3)
    matching = new_graph(200, [(2 * i, 2 * i + 1) for i in range(100)])
    isolated = new_graph(6, [(0, 1), (1, 2), (4, 5)])
    for g in (gen_random_subcubic(300, 4), matching, isolated):
        res = color_corona(g, h)
        assert "adj" not in vars(res.graph)
        assert verify_npd(res.graph, res.coloring).ok


def test_color_corona_derives_no_edge_pairs():
    # the base search, the products and the verifier walk the two edge
    # columns, so neither G nor the corona caches its edges as pairs
    matching = new_graph(200, [(2 * i, 2 * i + 1) for i in range(100)])
    isolated = new_graph(6, [(0, 1), (1, 2), (4, 5)])
    for g in (gen_random_subcubic(300, 4), matching, isolated):
        for h in (gen_random_subcubic(10, 3), new_graph(1), new_graph(2, [(0, 1)])):
            res = color_corona(g, h)
            assert res.graph.n > g.n
            assert "edges" not in vars(res.graph)
            assert "edges" not in vars(g)


def test_rejects_non_subcubic():
    star = new_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    with pytest.raises(NotSubcubicError):
        color_corona(star, k(2))
    with pytest.raises(NotSubcubicError):
        color_corona(k(2), star)


def output_digest(pairs, traces=None):
    """SHA-256 over color_corona's record on each (g, h) of pairs, and the
    pair count; with a traces list, each pair's trace is appended to it."""
    digest = hashlib.sha256()
    count = 0
    for g, h in pairs:
        res = color_corona(g, h)
        c, t = res.coloring, res.trace
        record = (c.vertex_colors, c.edge_colors, t.case_tag, t.component_cases)
        digest.update(repr(record).encode() + b"\n")
        count += 1
        if traces is not None:
            traces.append(t)
    return digest.hexdigest(), count


# SHA-256 over color_corona's output on every pair enumerate_subcubic(ng) x
# enumerate_subcubic(nh), ng in 1..6 and nh in 1..4 (1,854 pairs, disconnected
# G included); any change to the construction or its fallbacks moves it
PINNED_OUTPUT_SHA256 = "73ff0dcd2e85c74ee47aa533b25af58a8ea973acbf886e58f37712845b09755a"


def test_output_is_pinned_on_small_pairs():
    gs = [g for ng in range(1, 7) for g in enumerate_subcubic(ng)]
    hs = [h for nh in range(1, 5) for h in enumerate_subcubic(nh)]
    assert output_digest((g, h) for g in gs for h in hs) == (PINNED_OUTPUT_SHA256, 1854)


# SHA-256 of the same records over single-edge G (K2, 3K2, K2+K1) times every
# H with 6 or 7 vertices and 200 random 10-vertex H (1,236 pairs, 45 of them
# with a Case1_1 component): max_degree(G) = 1 follows the Case1_1/Case1_2
# split with no relabeling of H's edge colors
SINGLE_EDGE_G_SHA256 = "35605008cae71f50af1fd8f69a52c1d7f755909f5a04186e928cae2ccd891730"


def test_single_edge_g_output_is_pinned():
    gs = [k(2), new_graph(6, [(0, 1), (2, 3), (4, 5)]), new_graph(3, [(0, 1)])]
    hs = [*enumerate_subcubic(6), *enumerate_subcubic(7)]
    hs += [gen_random_subcubic(10, s) for s in range(200)]
    traces = []
    pinned = output_digest(((g, h) for g in gs for h in hs), traces)
    assert pinned == (SINGLE_EDGE_G_SHA256, 1236)
    case11 = sum(any(tag == CASE_1_1 for _, tag in t.component_cases) for t in traces)
    assert case11 == 45


# SHA-256 of the same records over G∘(empty H) for every enumerate_subcubic(ng),
# ng in 1..6 (103 graphs): the corona is G itself, with no spokes and no copy
# block, and G's base coloring colors it whole
EMPTY_H_SHA256 = "1c35f7cb4d03133bc7e592645228e729caa9a2214e72ca90058316dd1d0616e1"


def test_empty_h_output_is_pinned():
    gs = [g for ng in range(1, 7) for g in enumerate_subcubic(ng)]
    assert output_digest((g, new_graph(0)) for g in gs) == (EMPTY_H_SHA256, 103)


# SHA-256 of the same records over every G with 1-5 vertices and an isolated
# vertex (19 graphs) times every H with 5 or 6 vertices (85 graphs): each
# isolated vertex's copy takes the ladder, with its position-1 color and the
# vertex's own color from cone_colors
ISOLATED_G_SHA256 = "da635aa3bd20e6ccd69d83fe6d29fa9a144dae6a64ee631d979474a1630187ac"


def test_isolated_vertex_output_is_pinned():
    gs = [g for ng in range(1, 6) for g in enumerate_subcubic(ng) if not all(g.adj)]
    hs = [*enumerate_subcubic(5), *enumerate_subcubic(6)]
    assert (len(gs), len(hs)) == (19, 85)
    assert output_digest((g, h) for g in gs for h in hs) == (ISOLATED_G_SHA256, 1615)


def labeled_subcubic(n):
    """Every subcubic graph on vertices 0..n-1, labels kept, one per edge set."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        deg = [0] * n
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        if max(deg) <= 3:
            yield new_graph(n, edges)


# SHA-256 of the same records over K1, K2, P3 and K3 times every labeled
# subcubic H on 1-6 vertices (12,911 each): the case rule reads H's labels
# through Vizing's edge coloring, and K2 reaches Case1_1 on 151 labelings,
# against one canonical labeling per isomorphism class elsewhere
LABELED_CENSUS_SHA256 = "29688adfef749e0bde14d24b07107f45be866d3942c5d5aec28d67207655ddbe"


def test_labeled_census_is_pinned():
    hs = [h for nh in range(1, 7) for h in labeled_subcubic(nh)]
    gs = [new_graph(1), k(2), new_graph(3, [(0, 1), (1, 2)]), k(3)]
    traces = []
    pinned = output_digest(((g, h) for g in gs for h in hs), traces)
    assert pinned == (LABELED_CENSUS_SHA256, 4 * 12_911)
    counts = [Counter(t.case_tag for t in traces[i:i + len(hs)])
              for i in range(0, len(traces), len(hs))]
    assert counts == [{FALLBACK: 12_911}, {CASE_1_2: 12_760, CASE_1_1: 151},
                      {CASE_2: 12_911}, {CASE_2: 12_911}]


def test_component_corona_is_the_induced_subgraph():
    # a component's own corona is the subgraph of g∘h on the component and
    # its copies, labels and edge order included
    gs = [
        g for ng in range(2, 7) for g in enumerate_subcubic(ng) if len(connected_components(g)) > 1
    ]
    hs = [new_graph(0)] + [h for nh in range(1, 4) for h in enumerate_subcubic(nh)]
    for g in gs:
        for h in hs:
            cg, cmap = corona(g, h)
            for comp in connected_components(g):
                copies = [cmap.copy_vertex(v + 1, i) for v in comp for i in range(1, h.n + 1)]
                sub, verts, _ = subgraph(cg, [*comp, *copies])
                assert verts == (*comp, *copies)
                assert corona(subgraph(g, comp)[0], h)[0] == sub


# components that reach every rule: an isolated vertex (its cone), a lone edge
# (Case1_1 or Case1_2 when it sets max_degree(G)), paths and cycles (Delta 2),
# a claw, K4, the prism and LEAFY_G (Delta 3; with K1, alpha must avoid v_j's
# star product)
PIECES = [new_graph(1), k(2), new_graph(3, [(0, 1), (1, 2)]), k(3), cycle(5), k(4),
          new_graph(4, [(0, 1), (0, 2), (0, 3)]),
          new_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
          parse_graph6(LEAFY_G)]
SMALL_H = [new_graph(0)] + [h for nh in range(1, 7) for h in enumerate_subcubic(nh)]


def disjoint_union(pieces, perm):
    """The pieces side by side, vertex x renamed perm[x]."""
    edges, off = [], 0
    for p in pieces:
        edges += [(perm[off + a], perm[off + b]) for a, b in p.edges]
        off += p.n
    return new_graph(off, edges)


SUBCUBIC_G = (
    st.lists(st.sampled_from(PIECES), min_size=1, max_size=5)
    .filter(lambda ps: sum(p.n for p in ps) <= 14)
    .flatmap(lambda ps: st.permutations(range(sum(p.n for p in ps)))
             .map(lambda perm: disjoint_union(ps, perm)))
)


# CASE11_H is drawn about half the time, so that lone-edge G reach Case1_1
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(SUBCUBIC_G, st.sampled_from(SMALL_H) | st.just(parse_graph6(CASE11_H)))
def test_color_corona_property(g, h):
    with pytest.MonkeyPatch.context() as mp:  # cones of isolated vertices included
        searched = count_searches(mp)
        res = color_corona(g, h)
    assert searched == base_searches(g, h)
    assert verify_npd(res.graph, res.coloring).ok
    assert res.coloring.max_color <= res.trace.palette_bound == max_degree(res.graph) + 3
    assert [comp for comp, _ in res.trace.component_cases] == connected_components(g)
    if h.n:
        # the structured rules cover every component; an isolated vertex's cone
        # is tagged Fallback, as outside the paper's cases
        assert list(res.trace.component_cases) == dispatch_rule(g, h, res)
    assert res == reference_color_corona(g, h)


def test_color_corona_matches_reference_walk_at_scale():
    # inputs no pinned small pair reaches, against the build that walks v_j
    # in turn: random G with isolated vertices (Case2 copies beside cones), a
    # perfect matching in both Case 1 paths, a leafy G with isolated vertices
    # times K1 and 2K1 (cones of one and two vertices), and an edgeless G
    rng = random.Random(0)
    leafy = disjoint_union([parse_graph6(LEAFY_G)] * 100 + [new_graph(1)] * 20,
                           rng.sample(range(620), 620))
    matching = new_graph(2000, [(v, v + 1) for v in range(0, 2000, 2)])
    pairs = [(gen_random_subcubic(2000, s), gen_random_subcubic(10, 3)) for s in (2, 3, 4)]
    pairs += [(matching, parse_graph6(h)) for h in (CASE11_H, CASE11_TWO_FREE_H)]
    pairs += [(matching, k(2)), (leafy, new_graph(1)), (leafy, new_graph(2)),
              (new_graph(50), new_graph(4, [(0, 1), (1, 2), (2, 3)]))]
    tags = []
    for g, h in pairs:
        res = color_corona(g, h)
        assert res == reference_color_corona(g, h)
        tags.append(res.trace.case_tag)
    assert tags == [MIXED] * 3 + [CASE_1_1] * 2 + [CASE_1_2, MIXED, MIXED, FALLBACK]


def test_structured_corpus_needs_no_search(monkeypatch):
    # every connected G with 1-7 vertices times every H with 1-5 vertices (the
    # sweep corpus, G = K1 included), and every G with 2-7 vertices and an
    # isolated vertex times the same H, colors with the component search
    # disabled; only the isolated vertices' cones are tagged Fallback
    searched = count_searches(monkeypatch)
    hs = [h for nh in range(1, 6) for h in enumerate_subcubic(nh)]
    gs = [g for ng in range(1, 8) for g in enumerate_subcubic(ng, connected=True)]
    gs += [g for ng in range(2, 8) for g in enumerate_subcubic(ng) if not all(g.adj)]
    pairs = 0
    for g in gs:
        for h in hs:
            searched.clear()
            res = color_corona(g, h)
            assert searched == base_searches(g, h)
            assert verify_npd(res.graph, res.coloring).ok
            assert res.coloring.max_color <= res.trace.palette_bound
            assert list(res.trace.component_cases) == dispatch_rule(g, h, res)
            pairs += 1
    assert (len(gs), pairs) == (113 + 103, (113 + 103) * 41)


def test_empty_h_needs_no_component_search(monkeypatch):
    # G∘(empty H) is G, and G's one coloring colors it whole, searched only
    # when Δ(G) >= 2; every G with 1-7 vertices, disconnected ones included
    searched = count_searches(monkeypatch)
    gs = [g for ng in range(1, 8) for g in enumerate_subcubic(ng)]
    for g in gs:
        searched.clear()
        res = color_corona(g, new_graph(0))
        assert searched == base_searches(g, new_graph(0))
        assert verify_npd(res.graph, res.coloring).ok
        assert all(tag == FALLBACK for _, tag in res.trace.component_cases)
    assert len(gs) == 253


def test_no_structured_component_fails_on_large_random_g():
    # with K1, the giant components' many leaves are where alpha must avoid
    # v_j's star product
    gs = [gen_random_subcubic(1000, s) for s in range(8)] + [gen_random_subcubic(10000, 0)]
    for g in gs:
        assert max_degree(g) == 3
        for h in (new_graph(1), new_graph(2), k(2)):
            res = color_corona(g, h)
            assert all(tag == CASE_2 for comp, tag in res.trace.component_cases if len(comp) > 1)
            assert verify_npd(res.graph, res.coloring).ok
            assert res.coloring.max_color <= max_degree(res.graph) + 3


def test_injected_violations_are_an_internal_error(monkeypatch):
    from coronacolor import construct

    # a triangle, a path, a triangle and a claw: every component is Case2
    g = new_graph(13, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (6, 7), (6, 8), (7, 8),
                       (9, 10), (9, 11), (9, 12)])
    h = k(2)
    assert all(t == CASE_2 for _, t in color_corona(g, h).trace.component_cases)
    real_pick = construct.min_copy_color
    delta_g = max_degree(g)

    def broken_pick(v, base, s_min, v_star):
        color = real_pick(v, base, s_min, v_star)
        if v == 0:
            # product collision only: v's product is star_G(v) times its two
            # corona edge colors delta_g+4 and delta_g+5; the copy vertex's is
            # its own color times delta_g+4 and the H edge's color 1
            color = product_at(g, base, v) * (delta_g + 5)
        elif v == 6:
            # proper clash inside copy 7: position 1 takes position 2's color,
            # so the violation names copy vertices
            color = delta_g + 4
        return color

    verify_calls = []
    real_verify = construct.verify_npd

    def counting_verify(graph, coloring):
        report = real_verify(graph, coloring)
        verify_calls.append(sorted({v.kind for v in report.violations}))
        return report

    monkeypatch.setattr(construct, "min_copy_color", broken_pick)
    monkeypatch.setattr(construct, "verify_npd", counting_verify)
    with pytest.raises(AssertionError, match="failed verification"):
        color_corona(g, h)
    # one pass over the whole corona, and nothing is repaired after it
    assert len(verify_calls) == 1
    assert "VertexVertexClash" in verify_calls[0]


def test_isolated_vertices_share_one_cone_coloring(monkeypatch):
    # every isolated vertex's component is the cone K1∘H, whose two free
    # colors cone_colors picks once per call, with no search; each hub, copy,
    # spoke run and copy block then carries the same colors
    from coronacolor import construct

    calls = []
    real_cone = construct.cone_colors

    def counting_cone(*args):
        calls.append(args)
        return real_cone(*args)

    searched = count_searches(monkeypatch)
    monkeypatch.setattr(construct, "cone_colors", counting_cone)
    g = new_graph(5, [(0, 1)])
    hs = [h for nh in range(1, 5) for h in enumerate_subcubic(nh)]
    for h in hs:
        calls.clear()
        searched.clear()
        res = color_corona(g, h)
        assert len(calls) == 1 and searched == []  # Δ(G) = 1: G colored by rule
        vc, ec = res.coloring.vertex_colors, res.coloring.edge_colors
        m_h, block0 = len(h.edges), len(res.graph.edges) - 5 * len(h.edges)
        hubs = {vc[v] for v in (2, 3, 4)}
        copies = {vc[5 + v * h.n:5 + (v + 1) * h.n] for v in (2, 3, 4)}
        # the edge (0, 1) comes first, then each vertex's h.n spokes in turn
        spokes = {ec[1 + v * h.n:1 + (v + 1) * h.n] for v in (2, 3, 4)}
        blocks = {ec[block0 + v * m_h:block0 + (v + 1) * m_h] for v in (2, 3, 4)}
        assert len(hubs) == len(copies) == len(spokes) == len(blocks) == 1
        assert [tag for _, tag in res.trace.component_cases][1:] == [FALLBACK] * 3
    assert len(hs) == 18


def test_violation_in_a_cone_is_an_internal_error(monkeypatch):
    # the hub takes the position-1 color, or no position-1 color fits (0):
    # either fails the one verification pass, with no search to fall back on
    from coronacolor import construct

    real_cone = construct.cone_colors
    searched = count_searches(monkeypatch)
    for broken in (lambda c, hub: (c, c), lambda c, hub: (0, hub)):
        monkeypatch.setattr(construct, "cone_colors",
                            lambda *args, broken=broken: broken(*real_cone(*args)))
        searched.clear()
        with pytest.raises(AssertionError, match="failed verification"):
            color_corona(new_graph(1), k(2))
        assert searched == []


# G of max_degree 0..3 that keep an isolated vertex: K1, K2+K1, P3+K1, K1,3+K1
CONE_G = [new_graph(1), new_graph(3, [(0, 1)]), new_graph(4, [(0, 1), (1, 2)]),
          new_graph(5, [(0, 1), (0, 2), (0, 3)])]


def test_cone_rule_on_every_small_h(monkeypatch):
    # the finite half of the cone rule's argument.  Position 1 has at most 10
    # forbidden colors against a palette of dg+|V(H)|+3, so only |V(H)| <= 7
    # needs checking, and the hub's product check binds only when |V(H)| <= 4;
    # here every H up to 8 vertices (677) meets every dg, with no search
    searched = count_searches(monkeypatch)
    hs = [h for nh in range(1, 9) for h in enumerate_subcubic(nh)]
    for g in CONE_G:
        for h in hs:
            searched.clear()
            res = color_corona(g, h)
            assert searched == base_searches(g, h)
            assert verify_npd(res.graph, res.coloring).ok
            assert res.coloring.max_color == res.trace.palette_bound
            assert res.trace.component_cases[-1] == ((g.n - 1,), FALLBACK)
    assert len(hs) == 677
    # with dg = 0 the ladder starts at 4, and for some H Vizing puts 4 on an
    # edge at sigma[0] or sigma[1], so colors 4 and c trade places first
    near_4 = [h for h in hs
              if any(4 in edge_colors_at(h, vizing_color(h), u)
                     for u in sort_by_product(vizing_color(h), h)[:2])]
    assert parse_graph6(CASE11_H) in near_4


def test_edgeless_g_trades_color_4():
    # K1∘EUxo, the smallest such cone: Vizing puts 4 on edges at sigma[0] and
    # sigma[1], which would meet position 1's spoke and position 2's vertex
    # color, both 4 when dg = 0; the copy block trades colors 4 and 3
    h = parse_graph6(CASE11_H)
    res = color_corona(new_graph(1), h)
    assert res.coloring.max_color == res.trace.palette_bound == 9
    block = res.coloring.edge_colors[h.n:]  # K1∘H's spokes come first
    assert block == tuple({4: 3, 3: 4}.get(c, c) for c in vizing_color(h))
    assert all(4 not in edge_colors_at(h, block, u) for u in res.trace.sigma[:2])


def test_random_cones_need_no_search(monkeypatch):
    # K1 times random H of up to 3,000 vertices: dg = 0, where the ladder
    # starts at color 4 and a cone is all of the corona
    searched = count_searches(monkeypatch)
    for n in (5, 7, 10, 30, 100, 300, 1000, 3000):
        for seed in range(3):
            searched.clear()
            res = color_corona(new_graph(1), gen_random_subcubic(n, seed))
            assert searched == []
            assert verify_npd(res.graph, res.coloring).ok
            assert res.coloring.max_color == res.trace.palette_bound == n + 3
            assert res.trace.case_tag == FALLBACK


def test_violation_with_an_empty_h_is_an_internal_error(monkeypatch):
    # with H empty the corona is G, so a violation's owner is a vertex of G
    # and is found without dividing by |V(H)|; P4 has Δ = 2, so its coloring
    # is the (patched) base search's
    from coronacolor import construct
    from coronacolor.search import TotalColoring

    def clashing_base(g):
        return TotalColoring((1,) * g.n, (2,) * len(g.edges), 2)

    monkeypatch.setattr(construct, "base_coloring", clashing_base)
    with pytest.raises(AssertionError, match="failed verification"):
        color_corona(new_graph(4, [(0, 1), (1, 2), (2, 3)]), new_graph(0))


def test_empty_h_takes_the_rule_without_search():
    # Δ(G) <= 1: the corona of the empty H is G, colored by Case 1's rule with
    # beta = 3, which is exactly the base search's coloring, but no search runs
    from coronacolor import search

    small = [g for n in range(1, 9) for g in enumerate_subcubic(n) if max_degree(g) <= 1]
    perfect = new_graph(1 << 12, [(v, v + 1) for v in range(0, 1 << 12, 2)])
    interleaved = new_graph(12, [(0, 3), (1, 5), (4, 9), (6, 11)])  # 2, 7, 8, 10 isolated
    gs = small + [perfect, interleaved]
    expected = [base_coloring(g) for g in gs]

    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_search", no_search)
        for g, tc in zip(gs, expected):
            assert color_corona(g, new_graph(0)).coloring == tc, g
    assert len(small) == 24
