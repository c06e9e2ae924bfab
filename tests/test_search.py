import hashlib
import heapq
import random
import tracemalloc
from itertools import product

import networkx as nx
import pytest

from coronacolor import (
    TotalColoring,
    base_coloring,
    chi_prod_exact,
    color_corona,
    corona,
    enumerate_subcubic,
    gen_random_subcubic,
    max_degree,
    new_graph,
    npdtc_search,
    verify_npd,
    verify_proper_total,
)
from coronacolor import search
from coronacolor.errors import BudgetExceededError, NotSubcubicError
from coronacolor.graph import twin_classes
from coronacolor.search import _conflict_lists, _order_and_ahead
from oracles import cycle, k, reference_npdtc_search


def brute_chi_prod(g, kmax=8):
    """Independent oracle: enumerate every total coloring outright."""
    n, m = g.n, len(g.edges)
    inc = [[] for _ in range(n)]
    for t, (a, b) in enumerate(g.edges):
        inc[a].append(t)
        inc[b].append(t)
    for kk in range(1, kmax + 1):
        for assign in product(range(1, kk + 1), repeat=n + m):
            vc, ec = assign[:n], assign[n:]
            if any(vc[a] == vc[b] for a, b in g.edges):
                continue
            if any(ec[t] in (vc[a], vc[b]) for t, (a, b) in enumerate(g.edges)):
                continue
            if any(len({ec[t] for t in inc[v]}) != len(inc[v]) for v in range(n)):
                continue
            sig = []
            for v in range(n):
                p = vc[v]
                for t in inc[v]:
                    p *= ec[t]
                sig.append(p)
            if all(sig[a] != sig[b] for a, b in g.edges):
                return kk
    return None


def reference_element_order(conf):
    """The original O(T^2) most-constrained-first scan, kept as the reference."""
    total = len(conf)
    order = []
    score = [0] * total
    chosen = [False] * total
    for _ in range(total):
        best_e = -1
        best_key = (-1, -1, 1)
        for e in range(total):
            if chosen[e]:
                continue
            key = (score[e], len(conf[e]), -e)
            if key > best_key:
                best_key = key
                best_e = e
        chosen[best_e] = True
        order.append(best_e)
        for s in conf[best_e]:
            score[s] += 1
    return order


def reference_order_and_ahead(conf):
    """The reference order, and per depth the conflicts of that depth's
    element placed after it, in conflict-list order."""
    order = reference_element_order(conf)
    depth = {e: d for d, e in enumerate(order)}
    return order, [[s for s in conf[e] if depth[s] > d] for d, e in enumerate(order)]


def test_element_order_matches_reference_scan():
    graphs = [g for n in range(1, 8) for g in enumerate_subcubic(n)]
    graphs += [gen_random_subcubic(n, s) for n, s in ((50, 1), (400, 2), (1200, 3), (3000, 4))]
    # coronas have high-degree G vertices and many equal keys to break
    graphs += [
        corona(gen_random_subcubic(gn, s), gen_random_subcubic(hn, s + 1))[0]
        for gn, hn, s in ((4, 5, 1), (6, 3, 2), (10, 7, 3))
    ]
    # many components, each ending where the order restarts at score 0: a
    # perfect matching, a random cubic graph beside 500 isolated vertices,
    # the edgeless graph, and a random G with 12 components
    cubic = nx.random_regular_graph(3, 500, seed=1)
    graphs += [
        new_graph(2000, [(v, v + 1) for v in range(0, 2000, 2)]),
        new_graph(1000, list(cubic.edges())),
        new_graph(50),
        gen_random_subcubic(2000, 2),
    ]
    for g in graphs:
        conf = _conflict_lists(g)
        assert _order_and_ahead(conf) == reference_order_and_ahead(conf), g.edges


def test_element_order_matches_reference_scan_beyond_subcubic():
    # chi takes any graph: every graph on up to 7 vertices spreads its
    # conflict degrees over more cells, where a score increase that moved an
    # element anything but R cells up would break a tie of (score, degree)
    # pairs by id on a few of them
    for nxg in nx.graph_atlas_g()[1:]:
        g = new_graph(nxg.number_of_nodes(), list(nxg.edges()))
        conf = _conflict_lists(g)
        assert _order_and_ahead(conf) == reference_order_and_ahead(conf), g.edges


def test_element_order_pops_no_more_than_it_pushes(monkeypatch):
    # each ordered element pushes its unordered conflicts once, so pushes are
    # half the conflict slots; score-0 elements are read in place and stale
    # ids cleared at a component's end, so no pop is spent beyond the pushes
    # (9,587 pops for 14,507 pushes on the random G, 16,384 for 24,576 on
    # the matching; draining every heap popped 19,432 and 49,152)
    counts = {"push": 0, "pop": 0}

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(heapq, "heappush", counted("push", heapq.heappush))
    monkeypatch.setattr(heapq, "heappop", counted("pop", heapq.heappop))
    matching = new_graph(1 << 14, [(v, v + 1) for v in range(0, 1 << 14, 2)])
    for g in (gen_random_subcubic(2000, random.Random(7).randrange(1 << 30)), matching):
        conf = _conflict_lists(g)
        counts.update(push=0, pop=0)
        _order_and_ahead(conf)
        assert counts["push"] == sum(map(len, conf)) // 2
        assert counts["pop"] <= counts["push"], (g.n, counts)


def test_element_order_setup_memory_on_a_star():
    # a hub of degree 400 has conflict degree 800: cells indexed by the raw
    # (score, degree) pair would be 801**2 empty lists (42.1 MiB of peak);
    # ranked among the 3 distinct degrees they are 801 * 3 (2.9 MiB, with the
    # conflict lists).  One heap of packed-int keys peaked at 4.7 MiB.
    # Measured under Python 3.11.
    star = new_graph(401, [(0, v) for v in range(1, 401)])
    assert star.adj
    tracemalloc.start()
    try:
        order = _order_and_ahead(_conflict_lists(star))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order[0] == 0 and sorted(order) == list(range(801))
    assert peak < 3.75 * 2**20


def test_search_visits_the_reference_tree():
    # the kernel must return the reference's result within exactly the
    # reference's node count N, and run out of budget one node earlier
    cases = [
        (g, kk)
        for n in range(1, 7)
        for g in enumerate_subcubic(n)
        for kk in range(max_degree(g) + 1, max_degree(g) + 4)
    ]
    p3 = new_graph(3, [(0, 1), (1, 2)])
    coronas = [corona(k(1), k(2))[0], corona(k(2), k(3))[0], corona(p3, k(2))[0]]
    cases += [(g, max_degree(g) + kk) for g in coronas for kk in (1, 2, 3)]
    cases += [(g, max_degree(g) + 3) for g in (gen_random_subcubic(300, s) for s in range(4))]
    for g, kk in cases:
        want, nodes = reference_npdtc_search(g, kk)
        assert npdtc_search(g, kk, budget=nodes) == want, (g.edges, kk)
        if nodes:
            with pytest.raises(BudgetExceededError):
                npdtc_search(g, kk, budget=nodes - 1)


def test_k5_has_no_six_coloring():
    # the one proof of absence the exhaustive sweep's oracle rests on:
    # K1 joined to K4 is K5, whose index is 7, not 6
    assert npdtc_search(k(5), 6) is None
    assert chi_prod_exact(corona(k(1), k(4))[0]).max_color == 7


def plain_chi(g):
    """Smallest k at which the plain search, with no symmetry cut, finds a coloring."""
    kk = max_degree(g) + 1
    while npdtc_search(g, kk) is None:
        kk += 1
    return kk


def test_twin_cut_keeps_the_exact_index():
    graphs = [g for n in range(1, 8) for g in enumerate_subcubic(n)]
    hs = [h for n in range(1, 4) for h in enumerate_subcubic(n)]
    graphs += [
        corona(g, h)[0] for n in range(1, 5) for g in enumerate_subcubic(n, connected=True) for h in hs
    ]
    for g in graphs:
        tc = chi_prod_exact(g)
        assert tc.max_color == plain_chi(g), g.edges
        assert verify_npd(g, tc).ok, g.edges


def test_twin_cut_proves_k5_within_a_small_budget():
    # the plain search needs 1,169,076 nodes to prove K5 has no 6-coloring;
    # capped by its one twin class it needs under 10,000
    assert chi_prod_exact(k(5), budget=20_000).max_color == 7


def test_twin_classes():
    assert twin_classes(k(5)) == [[0, 1, 2, 3, 4]]  # equal closed neighborhoods
    star = new_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert twin_classes(star) == [[1, 2, 3]]  # the leaves: equal open neighborhoods
    assert twin_classes(cycle(4)) == [[0, 2], [1, 3]]  # opposite vertices
    assert twin_classes(cycle(5)) == []
    assert twin_classes(new_graph(3, [(0, 1), (1, 2)])) == [[0, 2]]


def test_k2_search():
    found = npdtc_search(k(2), 3)
    assert found is not None
    assert (found.vertex_colors, found.edge_colors) == ((1, 2), (3,))
    assert npdtc_search(k(2), 2) is None


def test_c4_at_delta_plus_3():
    tc = npdtc_search(cycle(4), 5)
    assert tc is not None
    assert verify_npd(cycle(4), tc).ok


def test_chi_values_match_independent_brute_force():
    expected = {
        "K2": (k(2), 3),
        "P3": (new_graph(3, [(0, 1), (1, 2)]), 3),
        "K3": (k(3), 5),
        "P4": (new_graph(4, [(0, 1), (1, 2), (2, 3)]), 4),
        "C4": (cycle(4), 4),
        "K4": (k(4), 5),
        "C5": (cycle(5), 4),
    }
    for name, (g, frozen) in expected.items():
        assert brute_chi_prod(g) == frozen, name
        tc = chi_prod_exact(g)
        assert tc.max_color == frozen, name
        assert verify_npd(g, tc).ok, name


def test_chi_exhaustive_cross_check_small():
    # all subcubic isomorphism classes, connected or not
    for n in range(2, 5):
        for g in enumerate_subcubic(n):
            assert chi_prod_exact(g).max_color == brute_chi_prod(g), g.edges


def test_chi_trivia():
    assert chi_prod_exact(new_graph(1)).max_color == 1
    assert chi_prod_exact(new_graph(3)).max_color == 1  # three isolated vertices
    g = new_graph(5, [(0, 1), (2, 3)])  # disconnected: max over components
    assert chi_prod_exact(g).max_color == 3
    with pytest.raises(ValueError):
        chi_prod_exact(new_graph(0))


def interleaved_union(a, b):
    """a and b side by side, a's vertex i at 2i and b's at 2i+1, so the
    components' edge ids interleave."""
    pairs = [(2 * x, 2 * y) for x, y in a.edges] + [(2 * x + 1, 2 * y + 1) for x, y in b.edges]
    return new_graph(2 * max(a.n, b.n), pairs)


# SHA-256 over chi_prod_exact's witness on every subcubic graph on 1..6
# vertices (103), on the sweep's 180 oracle coronas (connected G on up to 4
# vertices times H on up to 4), on a 20-vertex perfect matching and on the
# interleaved union of every ordered pair of connected graphs on 2..4 vertices
# (81): any change to the search or to how a component's colors are written
# back moves it
CHI_WITNESSES_SHA256 = "cfab0f78bccbaa0b15d75cb351d5e34accca33b38cf4c76640003592761c82fe"


def test_chi_witnesses_are_pinned():
    small = [g for n in range(1, 7) for g in enumerate_subcubic(n)]
    gs = [g for n in range(1, 5) for g in enumerate_subcubic(n, connected=True)]
    hs = [h for n in range(1, 5) for h in enumerate_subcubic(n)]
    coronas = [corona(g, h)[0] for g in gs for h in hs]
    matching = new_graph(20, [(v, v + 1) for v in range(0, 20, 2)])
    conn = [g for n in range(2, 5) for g in enumerate_subcubic(n, connected=True)]
    unions = [interleaved_union(a, b) for a, b in product(conn, conn)]
    graphs = [*small, *coronas, matching, *unions]
    assert len(graphs) == 103 + 180 + 1 + 81
    digest = hashlib.sha256()
    for g in graphs:
        tc = chi_prod_exact(g)
        digest.update(repr((tc.vertex_colors, tc.edge_colors, tc.max_color)).encode() + b"\n")
    assert digest.hexdigest() == CHI_WITNESSES_SHA256


def test_every_witness_verifies():
    for n in range(1, 6):
        for g in enumerate_subcubic(n):
            tc = npdtc_search(g, max_degree(g) + 3)
            assert tc is not None
            assert verify_proper_total(g, tc).ok
            assert verify_npd(g, tc).ok


def test_monotone_in_k():
    for n in range(2, 5):
        for g in enumerate_subcubic(n, connected=True):
            d = max_degree(g)
            found = [npdtc_search(g, kk) is not None for kk in range(d + 1, d + 5)]
            # once found, found at every larger palette
            assert found == sorted(found)


def test_subcubic_bound_executable():
    for n in range(2, 7):
        for g in enumerate_subcubic(n, connected=True):
            assert chi_prod_exact(g).max_color <= max_degree(g) + 3


def test_budget_exceeded_is_distinct_from_not_found(monkeypatch):
    with pytest.raises(BudgetExceededError):
        npdtc_search(cycle(5), 4, budget=1)
    assert npdtc_search(k(2), 2, budget=1) is None  # pre-cut, no nodes spent
    monkeypatch.setattr(search, "BASE_BUDGET", 1)
    with pytest.raises(BudgetExceededError, match="edges"):
        base_coloring(cycle(6))  # message carries the instance
    # ... but only a summary of it, not the whole edge list
    monkeypatch.setattr(search, "BASE_BUDGET", 10)
    with pytest.raises(BudgetExceededError, match="edges") as info:
        base_coloring(gen_random_subcubic(2000, 1))
    assert len(str(info.value)) < 200


def test_budget_message_reads_the_columns(monkeypatch):
    # the summary of a column-built G takes its count and first four pairs
    # from the columns: the text is the one built from the pairs, and no
    # pair is derived
    monkeypatch.setattr(search, "BASE_BUDGET", 1)
    for g in (cycle(4), gen_random_subcubic(2000, 1)):
        with pytest.raises(BudgetExceededError) as info:
            base_coloring(g)
        assert "edges" not in vars(g)
        head = ", ".join(map(str, g.edges[:4]))
        more = ", ..." if len(g.edges) > 4 else ""
        want = f"n={g.n} edges={len(g.edges)} [{head}{more}]"
        assert str(info.value) == f"base coloring budget exhausted; {want}"


def test_argument_validation():
    with pytest.raises(ValueError):
        npdtc_search(k(2), 0)
    # a palette below Delta+1 has no coloring; the empty graph needs no color
    assert npdtc_search(new_graph(3, [(0, 1), (1, 2)]), 2) is None
    assert npdtc_search(new_graph(0), 1) == TotalColoring((), (), 1)


def test_p3_has_a_three_coloring():
    # no solution of P3 at k=3 introduces the colors in increasing order, so a
    # search that normalized the palette order would wrongly report None
    p3 = new_graph(3, [(0, 1), (1, 2)])
    assert npdtc_search(p3, 3) is not None


def test_base_coloring():
    tc = base_coloring(k(2))
    assert (tc.vertex_colors, tc.edge_colors) == ((1, 2), (3,))
    # the rule color_corona's Case 1 writes in place of this search: on every
    # graph of maximum degree <= 1 each edge takes 3, its smaller end 1 and
    # its larger end 2, and each isolated vertex takes 1
    small = [g for n in range(1, 9) for g in enumerate_subcubic(n) if max_degree(g) <= 1]
    perfect = new_graph(1 << 12, [(v, v + 1) for v in range(0, 1 << 12, 2)])
    interleaved = new_graph(12, [(0, 3), (1, 5), (4, 9), (6, 11)])  # 2, 7, 8, 10 isolated
    for g in small + [perfect, interleaved]:
        vc = [1] * g.n
        for b in g.hi:
            vc[b] = 2
        tc = base_coloring(g)
        assert (tc.vertex_colors, tc.edge_colors) == (tuple(vc), (3,) * len(g.lo)), g
    assert len(small) == sum(n // 2 + 1 for n in range(1, 9)) == 24  # one per matching size
    # the empty-H corona is G, and still takes its coloring from the search
    assert color_corona(interleaved, new_graph(0)).coloring == base_coloring(interleaved)
    for g in (k(3), new_graph(3, [(0, 1), (1, 2)])):
        tc = base_coloring(g)
        assert tc.max_color <= max_degree(g) + 3
        assert verify_npd(g, tc).ok
    with pytest.raises(NotSubcubicError):
        base_coloring(new_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))


def test_base_coloring_scales():
    g = gen_random_subcubic(120, 17)
    tc = base_coloring(g)
    assert verify_npd(g, tc).ok
    assert tc.max_color <= max_degree(g) + 3


def test_search_determinism():
    for seed in range(5):
        g = gen_random_subcubic(12, seed)
        a = npdtc_search(g, max_degree(g) + 3)
        b = npdtc_search(g, max_degree(g) + 3)
        assert a == b


def test_products_use_exact_integers():
    # a star of many moderately large colors overflows 64-bit arithmetic;
    # the verifier's exact products must agree with a straight fold
    g = new_graph(31, [(0, i) for i in range(1, 31)])
    colors = tuple([31] + [1] * 30)
    edge_colors = tuple(range(32, 62))
    from coronacolor import TotalColoring
    from oracles import product_at

    tc = TotalColoring(colors, edge_colors, 61)
    expected = 31
    for c in range(32, 62):
        expected *= c
    assert product_at(g, tc, 0) == expected
    assert expected > 2**63


def test_search_setup_limit_spares_every_subcubic_graph_within_the_cap():
    # computed, not searched: the set-up grows with every degree and with k,
    # so a cubic graph at the 2**20-vertex cap with k = 6 (base_coloring's
    # palette, and chi's largest on a subcubic graph) is the largest there is
    from coronacolor.graphio import MAX_EDGE_LIST_VERTICES

    cubic = [3] * MAX_EDGE_LIST_VERTICES
    assert search._setup_slots(cubic, 6) <= search.MAX_SEARCH_SLOTS
    # the formula counts what the set-up builds: ban counts and conflict lists
    for g in (gen_random_subcubic(30, 1), k(5), new_graph(4, [(0, 1), (0, 2), (0, 3)])):
        deg = [len(nb) for nb in g.adj]
        total = g.n + len(g.edges)
        assert search._setup_slots(deg, 7) == total * 8 + sum(map(len, _conflict_lists(g)))
    # a star with 8,000 leaves at chi's first k is refused before the set-up
    star = new_graph(8001, [(0, v) for v in range(1, 8001)])
    with pytest.raises(ValueError, match="list slots"):
        npdtc_search(star, 8001)
