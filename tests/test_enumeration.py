import random
from itertools import combinations, permutations

import networkx as nx
import pytest

from coronacolor import (
    canonical_form,
    connected_components,
    enumerate_subcubic,
    gen_random_subcubic,
    max_degree,
    new_graph,
)
from oracles import reference_canonical_form, reference_enumerate_subcubic

# frozen from the independent canonicalizer below (n <= 5), the direct mask
# enumeration (n = 6) and networkx's atlas of all graphs (n <= 7); level 8
# comes from the augmentation closure
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 23, 6: 62, 7: 150, 8: 424}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 10, 6: 29, 7: 64, 8: 194}


def _brute_class_count(n):
    """Independent canonical key: minimum edge set over all vertex permutations."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        deg = [0] * n
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        if any(d > 3 for d in deg):
            continue
        best = None
        for perm in permutations(range(n)):
            key = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
            if best is None or key < best:
                best = key
        seen.add(best)
    return len(seen)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_counts_match_brute_force(n):
    assert _brute_class_count(n) == len(enumerate_subcubic(n)) == ALL_COUNTS[n]


def test_n6_count_matches_direct_mask_enumeration():
    pairs = list(combinations(range(6), 2))
    seen = set()
    for mask in range(1 << 15):
        edges = []
        deg = [0] * 6
        ok = True
        for i in range(15):
            if (mask >> i) & 1:
                a, b = pairs[i]
                deg[a] += 1
                deg[b] += 1
                if deg[a] > 3 or deg[b] > 3:
                    ok = False
                    break
                edges.append((a, b))
        if not ok:
            continue
        seen.add(canonical_form(new_graph(6, edges)))
    assert len(seen) == len(enumerate_subcubic(6)) == ALL_COUNTS[6]


@pytest.mark.parametrize("n", sorted(ALL_COUNTS))
def test_frozen_counts(n):
    assert len(enumerate_subcubic(n)) == ALL_COUNTS[n]
    assert len(enumerate_subcubic(n, connected=True)) == CONNECTED_COUNTS[n]


def test_connected_filter():
    for g in enumerate_subcubic(6, connected=True):
        assert len(connected_components(g)) == 1


def test_everything_enumerated_is_subcubic_and_distinct():
    assert enumerate_subcubic(0) == () and canonical_form(new_graph(0)) == (0, ())
    for n in range(1, 8):
        level = enumerate_subcubic(n)
        assert all(g.n == n and max_degree(g) <= 3 for g in level)
        forms = [canonical_form(g) for g in level]
        assert len(set(forms)) == len(forms)
        assert forms == sorted(forms)  # deterministic order


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(1, 8)
        g = gen_random_subcubic(n, trial)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = new_graph(n, [(perm[a], perm[b]) for a, b in g.edges])
        assert canonical_form(g) == canonical_form(relabeled)


def test_canonical_form_agrees_with_networkx_isomorphism():
    rng = random.Random(11)
    graphs = [gen_random_subcubic(6, s) for s in range(40)]
    for _ in range(150):
        a, b = rng.choice(graphs), rng.choice(graphs)
        na = nx.Graph()
        na.add_nodes_from(range(a.n))
        na.add_edges_from(a.edges)
        nb = nx.Graph()
        nb.add_nodes_from(range(b.n))
        nb.add_edges_from(b.edges)
        assert (canonical_form(a) == canonical_form(b)) == nx.is_isomorphic(na, nb)


def _atlas_subcubic(n):
    """The subcubic graphs on n vertices in networkx's atlas, one per class,
    each with whether networkx finds it connected."""
    return [
        (new_graph(n, list(a.edges())), nx.is_connected(a))
        for a in nx.graph_atlas_g()
        if a.number_of_nodes() == n and all(d <= 3 for _, d in a.degree())
    ]


@pytest.mark.parametrize("n", range(1, 8))
def test_levels_hold_the_atlas_classes(n):
    # the atlas lists every graph on up to 7 vertices once up to isomorphism,
    # independently of this package's closure and prunes
    atlas = _atlas_subcubic(n)
    want_all = {reference_canonical_form(g) for g, _ in atlas}
    want_connected = {reference_canonical_form(g) for g, connected in atlas if connected}
    assert len(want_all) == len(atlas) == ALL_COUNTS[n]
    assert len(want_connected) == CONNECTED_COUNTS[n]
    assert {canonical_form(g) for g in enumerate_subcubic(n)} == want_all
    assert {canonical_form(g) for g in enumerate_subcubic(n, connected=True)} == want_connected


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_matches_the_unpruned_closure(n):
    for connected in (False, True):
        assert enumerate_subcubic(n, connected) == reference_enumerate_subcubic(n, connected)


def test_canonical_form_matches_the_unpruned_search():
    rng = random.Random(5)
    for n in range(1, 8):
        for g in enumerate_subcubic(n):
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = new_graph(n, [(perm[a], perm[b]) for a, b in g.edges])
            want = reference_canonical_form(g)
            assert canonical_form(g) == canonical_form(relabeled) == want, g.edges


def test_canonical_form_matches_the_unpruned_search_on_symmetric_graphs():
    # large automorphism groups made of twin swaps, where the prune skips most
    # of the search: the empty graph has n! refinement-respecting orders
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    graphs = [
        new_graph(8),
        new_graph(9),
        new_graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
        new_graph(9, [(0, 1), (2, 3), (4, 5), (6, 7)]),
        new_graph(8, k4 + [(a + 4, b + 4) for a, b in k4]),
        new_graph(8, [(a, a ^ bit) for a in range(8) for bit in (1, 2, 4) if a < a ^ bit]),
    ]
    rng = random.Random(3)
    for g in graphs:
        want = reference_canonical_form(g)
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabeled = new_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])
            assert canonical_form(relabeled) == want, (g.edges, perm)
