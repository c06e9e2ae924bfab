import json
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coronacolor import (
    TotalColoring,
    coloring_document,
    color_corona,
    document_coloring,
    emit_coloring_json,
    enumerate_subcubic,
    gen_random_subcubic,
    new_graph,
    parse_coloring_json,
    report_to_json,
    verify_npd,
    verify_nvd,
    verify_proper_total,
)
from coronacolor import verify
from coronacolor.errors import DimensionMismatchError
from coronacolor.verify import (
    COLOR_OUT_OF_RANGE,
    EDGE_EDGE_CLASH,
    PRODUCT_COLLISION,
    SET_COLLISION,
    VERTEX_EDGE_CLASH,
    VERTEX_VERTEX_CLASH,
)
from oracles import IncompleteColoringError, product_at, reference_report_to_json

K2 = new_graph(2, [(0, 1)])
K2_GOOD = TotalColoring((1, 2), (3,), 3)


def test_product_at():
    lone = new_graph(1)
    assert product_at(lone, TotalColoring((7,), (), 7), 0) == 7
    assert product_at(K2, K2_GOOD, 0) == 3
    assert product_at(K2, K2_GOOD, 1) == 6
    with pytest.raises(IncompleteColoringError):
        product_at(K2, TotalColoring((1, 2), (0,), 3), 0)
    with pytest.raises(DimensionMismatchError):
        product_at(K2, TotalColoring((1,), (3,), 3), 0)


def test_product_at_corona_hand_run():
    res = color_corona(K2, K2)
    assert product_at(res.graph, res.coloring, 0) == 90
    assert product_at(res.graph, res.coloring, 1) == 180


def test_proper_total_ok():
    assert verify_proper_total(K2, K2_GOOD).ok


def test_vertex_vertex_clash():
    report = verify_proper_total(K2, TotalColoring((1, 1), (2,), 2))
    assert not report.ok
    assert [v.kind for v in report.violations] == [VERTEX_VERTEX_CLASH]


def test_vertex_edge_clash():
    report = verify_proper_total(K2, TotalColoring((1, 2), (1,), 2))
    assert [v.kind for v in report.violations] == [VERTEX_EDGE_CLASH]


def test_edge_edge_clash():
    p3 = new_graph(3, [(0, 1), (1, 2)])
    report = verify_proper_total(p3, TotalColoring((2, 1, 2), (3, 3), 3))
    assert [v.kind for v in report.violations] == [EDGE_EDGE_CLASH]
    assert report.violations[0].witness == (3,)
    # the shared end is the smaller end of both edges, then the larger of both
    for center in (0, 2):
        leaves = [v for v in range(3) if v != center]
        path = new_graph(3, [(center, v) for v in leaves])
        vcol = tuple(1 if v == center else 2 for v in range(3))
        report = verify_proper_total(path, TotalColoring(vcol, (3, 3), 3))
        assert [v.kind for v in report.violations] == [EDGE_EDGE_CLASH], center
    # three edges of one color at a vertex: every pair of them, in edge order
    claw = new_graph(4, [(0, 1), (0, 2), (0, 3)])
    report = verify_proper_total(claw, TotalColoring((1, 2, 2, 2), (3, 3, 3), 3))
    assert [v.kind for v in report.violations] == [EDGE_EDGE_CLASH] * 3
    assert [v.elements for v in report.violations] == [
        (("edge", (0, 1)), ("edge", (0, 2))),
        (("edge", (0, 1)), ("edge", (0, 3))),
        (("edge", (0, 2)), ("edge", (0, 3))),
    ]


def test_color_out_of_range():
    report = verify_proper_total(K2, TotalColoring((1, 2), (4,), 3))
    assert [v.kind for v in report.violations] == [COLOR_OUT_OF_RANGE]
    report = verify_proper_total(K2, TotalColoring((0, 2), (3,), 3))
    assert any(v.kind == COLOR_OUT_OF_RANGE for v in report.violations)


def test_npd_detects_collision():
    # P3 colored so both end stars multiply to the middle star's product
    p3 = new_graph(3, [(0, 1), (1, 2)])
    tc = TotalColoring((3, 1, 2), (2, 3), 3)
    report = verify_npd(p3, tc)
    assert verify_proper_total(p3, tc).ok
    assert not report.ok
    assert report.violations[0].kind == PRODUCT_COLLISION
    assert report.violations[0].witness == (6, 6)


def test_npd_ok_with_products():
    report = verify_npd(K2, K2_GOOD)
    assert report.ok
    assert report.products == [3, 6]


def test_npd_skips_products_when_improper():
    report = verify_npd(K2, TotalColoring((1, 1), (2,), 2))
    assert not report.ok
    assert report.violations[0].kind == VERTEX_VERTEX_CLASH


def test_nvd():
    assert verify_nvd(K2, K2_GOOD).ok  # {1,3} vs {2,3}
    # interior vertices of a path with equal closed-star sets {1,2,5}
    p4 = new_graph(4, [(0, 1), (1, 2), (2, 3)])
    tc = TotalColoring((3, 1, 2, 3), (2, 5, 1), 5)
    assert verify_proper_total(p4, tc).ok
    report = verify_nvd(p4, tc)
    assert not report.ok
    assert [v.kind for v in report.violations] == [SET_COLLISION]
    assert report.violations[0].elements == (("vertex", 1), ("vertex", 2))
    # the same stars multiply identically too
    assert not verify_npd(p4, tc).ok


def test_hand_run_sets_and_products():
    res = color_corona(K2, K2)
    npd = verify_npd(res.graph, res.coloring)
    nvd = verify_nvd(res.graph, res.coloring)
    assert npd.ok and nvd.ok
    assert sorted(npd.products) == [20, 20, 30, 30, 90, 180]


def test_reports_are_exhaustive():
    p3 = new_graph(3, [(0, 1), (1, 2)])
    # every element shares one color: clashes everywhere, all reported
    tc = TotalColoring((1, 1, 1), (1, 1), 1)
    report = verify_proper_total(p3, tc)
    kinds = sorted(v.kind for v in report.violations)
    assert kinds.count(VERTEX_VERTEX_CLASH) == 2
    assert kinds.count(EDGE_EDGE_CLASH) == 1
    assert kinds.count(VERTEX_EDGE_CLASH) == 4
    # every kind at once, listed in turn: vertex range faults, edge range
    # faults, then the vertex-vertex, vertex-edge and edge-edge clashes
    report = verify_proper_total(p3, TotalColoring((1, 1, 5), (5, 5), 4))
    assert [(v.kind, v.elements, v.witness) for v in report.violations] == [
        (COLOR_OUT_OF_RANGE, (("vertex", 2),), (5,)),
        (COLOR_OUT_OF_RANGE, (("edge", (0, 1)),), (5,)),
        (COLOR_OUT_OF_RANGE, (("edge", (1, 2)),), (5,)),
        (VERTEX_VERTEX_CLASH, (("vertex", 0), ("vertex", 1)), (1,)),
        (VERTEX_EDGE_CLASH, (("vertex", 2), ("edge", (1, 2))), (5,)),
        (EDGE_EDGE_CLASH, (("edge", (0, 1)), ("edge", (1, 2))), (5,)),
    ]


def test_report_json():
    report = verify_npd(K2, K2_GOOD)
    payload = json.loads(report_to_json(report))
    assert payload["ok"] is True
    assert payload["products"] == {"0": 3, "1": 6}
    bad = verify_npd(new_graph(3, [(0, 1), (1, 2)]), TotalColoring((3, 1, 2), (2, 3), 3))
    payload = json.loads(report_to_json(bad))
    assert payload["ok"] is False
    assert payload["violations"][0]["kind"] == PRODUCT_COLLISION
    assert payload["violations"][0]["witness"] == [6, 6]


def tampered(tc):
    """tc, its colors shifted by 10**18, and one element recolored at a time:
    vertex 0 to 0 or 10**18, the last edge to -1, edge 0 to vertex 0's color,
    vertex 0 to vertex 1's color."""
    vcol, ecol, mx = list(tc.vertex_colors), list(tc.edge_colors), tc.max_color
    big = 10**18
    yield tc
    yield TotalColoring(tuple(c + big for c in vcol), tuple(c + big for c in ecol), mx + big)
    yield TotalColoring((0, *vcol[1:]), tuple(ecol), mx)
    yield TotalColoring((big, *vcol[1:]), tuple(ecol), mx)
    if ecol:
        yield TotalColoring(tuple(vcol), (*ecol[:-1], -1), mx)
        yield TotalColoring(tuple(vcol), (vcol[0], *ecol[1:]), mx)
        yield TotalColoring((vcol[1], *vcol[1:]), tuple(ecol), mx)


def greedy_colorings():
    """Random graphs on 2..6 vertices colored greedily from random free colors
    of 1..8: proper, and sometimes with product and set collisions."""
    import random

    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        g = new_graph(n, rng.sample(pairs, rng.randint(1, min(len(pairs), 7))))
        vcol = [0] * n
        for v in range(n):
            vcol[v] = rng.choice([c for c in range(1, 9) if c not in {vcol[w] for w in g.adj[v]}])
        star = [{c} for c in vcol]
        ecol = []
        for a, b in g.edges:
            c = rng.choice([c for c in range(1, 9) if c not in star[a] | star[b]])
            star[a].add(c)
            star[b].add(c)
            ecol.append(c)
        yield g, TotalColoring(tuple(vcol), tuple(ecol), max(vcol + ecol))


# SHA-256 over report_to_json of verify_proper_total, verify_npd and
# verify_nvd on color_corona's output for every pair of subcubic graphs on
# 1..3 vertices, each also tampered (see tampered), and on 300 greedy random
# colorings; any change to a report's violations, products or JSON moves it
REPORT_JSON_SHA256 = "d23a2711fe9ea00a288ac623886afeb64778952cdd8fe786cf2709f44f80bb95"


def test_report_json_is_pinned():
    import hashlib

    small = [g for n in range(1, 4) for g in enumerate_subcubic(n)]
    cases = [
        (res.graph, tc)
        for g in small
        for h in small
        for res in [color_corona(g, h)]
        for tc in tampered(res.coloring)
    ]
    cases += greedy_colorings()
    digest = hashlib.sha256()
    kinds = Counter()
    for g, tc in cases:
        for check in (verify_proper_total, verify_npd, verify_nvd):
            report = check(g, tc)
            kinds.update(v.kind for v in report.violations)
            digest.update(report_to_json(report).encode() + b"\n")
    assert len(cases) == 643
    assert kinds[PRODUCT_COLLISION] and kinds[SET_COLLISION] and kinds[COLOR_OUT_OF_RANGE]
    assert digest.hexdigest() == REPORT_JSON_SHA256


def test_report_json_matches_the_reference_writer():
    # every violation kind, the one-pass and the exhaustive report, empty
    # products (a color below 1) and a bool color, whose product prints true
    small = [g for n in range(1, 4) for g in enumerate_subcubic(n)]
    cases = [
        (res.graph, tc)
        for g in small
        for h in small
        for res in [color_corona(g, h)]
        for tc in tampered(res.coloring)
    ]
    cases += greedy_colorings()
    p3 = new_graph(3, [(0, 1), (1, 2)])
    cases += [
        (p3, TotalColoring((1, 1, 1), (1, 1), 1)),
        (p3, TotalColoring((1, 0, 2), (2, 3), 3)),
        (new_graph(2, []), TotalColoring((True, 2), (), 2)),
        (new_graph(3, [(1, 2)]), TotalColoring((False, True, 2), (3,), 3)),
        (new_graph(0, []), TotalColoring((), (), 1)),
    ]
    kinds = Counter()
    empty = bools = 0
    for g, tc in cases:
        for check in (verify_proper_total, verify_npd, verify_nvd):
            for report in (check(g, tc), exhaustive(check, g, tc)):
                kinds.update(v.kind for v in report.violations)
                empty += g.n > 0 and not report.products
                bools += any(type(p) is bool for p in report.products)
                assert report_to_json(report) == reference_report_to_json(report)
    assert set(kinds) == {
        VERTEX_VERTEX_CLASH, EDGE_EDGE_CLASH, VERTEX_EDGE_CLASH,
        PRODUCT_COLLISION, SET_COLLISION, COLOR_OUT_OF_RANGE,
    }
    assert empty and bools
    report = verify_npd(new_graph(1, []), TotalColoring((True,), (), 1))
    assert json.loads(report_to_json(report))["products"] == {"0": True}


def exhaustive(check, g, tc):
    """check's report when the one-pass clean check always defers to the full report."""
    with mock.patch.object(verify, "_clean_products", lambda g, coloring: None):
        return check(g, tc)


# mostly small colors, so that clean colorings and every kind of clash occur,
# plus zero, negative and huge ones
COLOR = st.one_of(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=-2, max_value=9),
    st.sampled_from([10**18, 10**18 - 1, -(10**18)]),
)


def free_color(draw, used):
    c = draw(st.integers(min_value=1, max_value=4))
    while c in used:
        c += 1
    return c


@st.composite
def colored_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9)) if pairs else []
    g = new_graph(n, edges)
    m = len(g.edges)
    if draw(st.booleans()):
        vcol = draw(st.lists(COLOR, min_size=n, max_size=n))
        ecol = draw(st.lists(COLOR, min_size=m, max_size=m))
    else:
        # a proper coloring, drawn greedily, so that products are compared too;
        # then perhaps one element recolored into a clash or out of range
        vcol, ecol = [0] * n, [0] * m
        for v in range(n):
            vcol[v] = free_color(draw, {vcol[w] for w in g.adj[v]})
        star = [{c} for c in vcol]
        for t, (a, b) in enumerate(g.edges):
            ecol[t] = free_color(draw, star[a] | star[b])
            star[a].add(ecol[t])
            star[b].add(ecol[t])
        shift = draw(st.sampled_from([0, 0, 10**18]))  # far-apart colors, still proper
        vcol = [c + shift for c in vcol]
        ecol = [c + shift for c in ecol]
        if n and draw(st.booleans()):
            t = draw(st.integers(min_value=0, max_value=n + m - 1))
            if t < n:
                vcol[t] = draw(COLOR)
            else:
                ecol[t - n] = draw(COLOR)
    top = max(vcol + ecol, default=1)
    mx = draw(st.one_of(st.just(top), st.integers(min_value=-1, max_value=8), st.just(10**18)))
    return g, TotalColoring(tuple(vcol), tuple(ecol), mx)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(colored_graphs())
def test_clean_pass_agrees_with_the_exhaustive_report(case):
    g, tc = case
    for check in (verify_proper_total, verify_npd, verify_nvd):
        assert check(g, tc) == exhaustive(check, g, tc), check.__name__


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(colored_graphs())
def test_report_json_matches_the_reference_writer_on_drawn_colorings(case):
    g, tc = case
    for check in (verify_proper_total, verify_npd, verify_nvd):
        report = check(g, tc)
        assert report_to_json(report) == reference_report_to_json(report)


def test_clean_pass_confirms_a_proper_coloring():
    # the one-pass check, not the full report, answers for a clean coloring
    res = color_corona(new_graph(3, [(0, 1), (1, 2), (0, 2)]), new_graph(4, [(0, 1), (2, 3)]))
    products = verify._clean_products(res.graph, res.coloring)
    assert products is not None
    assert products == exhaustive(verify_npd, res.graph, res.coloring).products


def test_clean_pass_keeps_one_color_mask_per_vertex():
    # flags keyed by (color, vertex) in a (top + 1) * n bytearray peaked at
    # 9.4 MiB here; one color bitmask per vertex peaks at 7.7 MiB.  Measured
    # under Python 3.11.  With every color shifted by 10**18 the same corona
    # takes the full report, which keeps each vertex's edge ids: 24.6 MiB
    # under Python 3.10 to 3.13, where a color dict per vertex took 75.6 MiB.
    res = color_corona(gen_random_subcubic(2000, 1), gen_random_subcubic(50, 2))
    big = 10**18
    shifted = TotalColoring(
        tuple(big + c for c in res.coloring.vertex_colors),
        tuple(big + c for c in res.coloring.edge_colors),
        big + res.coloring.max_color,
    )
    for coloring, bound in ((res.coloring, 8.5), (shifted, 28)):
        tracemalloc.start()
        try:
            report = verify_npd(res.graph, coloring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < bound * 2**20


def test_huge_colors_verify_in_bounded_memory():
    # colors near 10**18 pass through the document parser, which bounds
    # max_color only from below; no check may allocate by color value
    res = color_corona(new_graph(3, [(0, 1), (1, 2), (0, 2)]), new_graph(4, [(0, 1), (2, 3)]))
    big = 10**18
    tc = TotalColoring(
        tuple(big - c for c in res.coloring.vertex_colors),
        tuple(big - c for c in res.coloring.edge_colors),
        big,
    )
    doc = parse_coloring_json(emit_coloring_json(coloring_document(res.graph, tc)))
    assert doc.coloring.max_color == big
    tc = document_coloring(doc)
    tracemalloc.start()
    try:
        report = verify_npd(res.graph, tc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert report.ok
    assert report.products == [product_at(res.graph, tc, v) for v in range(res.graph.n)]
    assert report == exhaustive(verify_npd, res.graph, tc)
