import hashlib
import random
from itertools import combinations, product
from math import prod

import networkx as nx
import pytest

from coronacolor import (
    edge_colors_at,
    enumerate_subcubic,
    gen_random_subcubic,
    max_degree,
    new_graph,
    vizing_color,
)
from coronacolor.errors import BudgetExceededError
from oracles import chi_prime_exact, cycle, k, reference_vizing_color


def assert_proper(g, ecol):
    assert isinstance(ecol, tuple) and len(ecol) == len(g.edges)
    for v in range(g.n):
        cs = [c for e, c in zip(g.edges, ecol) if v in e]
        assert len(set(cs)) == len(cs), f"clash at {v}"
        assert all(1 <= c <= max_degree(g) + 1 for c in cs)


def test_small_instances():
    p3 = new_graph(3, [(0, 1), (1, 2)])
    assert vizing_color(p3) == (1, 2)  # edges (0, 1), (1, 2)
    assert vizing_color(k(2)) == (1,)
    ec = vizing_color(cycle(5))
    assert_proper(cycle(5), ec)
    assert max(ec) == 3


def test_c5_needs_three_colors():
    # exhaustive: no proper 2-edge-coloring of the 5-cycle exists
    c5 = cycle(5)
    for assign in product((1, 2), repeat=5):
        ok = True
        for t, (a, b) in enumerate(c5.edges):
            for s in range(t):
                c, d = c5.edges[s]
                if (a in (c, d) or b in (c, d)) and assign[s] == assign[t]:
                    ok = False
                    break
            if not ok:
                break
        assert not ok
    assert chi_prime_exact(c5)[0] == 3


def test_edgeless():
    ec = vizing_color(new_graph(4))
    assert ec == ()
    assert chi_prime_exact(new_graph(4)) == (1, ec)


def test_vizing_on_all_subcubic_up_to_6():
    for n in range(1, 7):
        for g in enumerate_subcubic(n):
            ec = vizing_color(g)
            assert_proper(g, ec)
            assert all(c <= 4 for c in ec)


# sha256 of repr((k, colors)) per graph below, k the palette size max_degree+1
# (1 without edges); 101 of the 200 have max degree above 3, where the fan,
# the path inversion and the rotation run longest
VIZING_ANY_DEGREE_SHA256 = "e5cc378f5c15b1caa44dda30bcfde790da21d6133aadbae1ca31a2e8d3e47abd"


def test_vizing_on_random_graphs_any_degree():
    rng = random.Random(5)
    digest = hashlib.sha256()
    for trial in range(200):
        n = rng.randint(2, 12)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        g = new_graph(n, pairs[: rng.randint(0, len(pairs))])
        ec = vizing_color(g)
        assert_proper(g, ec)
        digest.update((repr((max_degree(g) + 1 if g.edges else 1, ec)) + "\n").encode())
    assert digest.hexdigest() == VIZING_ANY_DEGREE_SHA256


def test_vizing_determinism():
    for seed in range(10):
        g = gen_random_subcubic(30, seed)
        assert vizing_color(g) == vizing_color(g)


def test_chi_prime_values():
    assert chi_prime_exact(k(4))[0] == 3
    assert chi_prime_exact(cycle(5))[0] == 3
    assert chi_prime_exact(k(3))[0] == 3
    assert chi_prime_exact(new_graph(2, [(0, 1)]))[0] == 1


def test_chi_prime_in_vizing_range_with_proper_witness():
    seen = set()
    from coronacolor import canonical_form

    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            g = new_graph(n, edges)
            key = canonical_form(g)
            if key in seen:
                continue
            seen.add(key)
            value, witness = chi_prime_exact(g)
            d = max_degree(g)
            if edges:
                assert value in (d, d + 1)
            else:
                assert value == 1
            assert_proper(g, witness)


def test_chi_prime_budget():
    g = gen_random_subcubic(40, 3)
    with pytest.raises(BudgetExceededError):
        chi_prime_exact(g, budget=5)


def test_products_and_color_sets():
    tri = k(3)
    ec = vizing_color(tri)
    # a proper edge coloring repeats no color at a vertex, so the product of
    # the color set is the vertex's edge-color product
    prods = sorted(prod(edge_colors_at(tri, ec, u)) for u in range(3))
    assert prods == [2, 3, 6]  # each vertex sees two of the three colors
    assert prod(edge_colors_at(new_graph(1), vizing_color(new_graph(1)), 0)) == 1
    p3 = new_graph(3, [(0, 1), (1, 2)])
    ec = vizing_color(p3)
    assert edge_colors_at(p3, ec, 1) == frozenset({1, 2})
    assert edge_colors_at(p3, ec, 0) == frozenset({1})


# SHA-256 of repr((k, colors)) per line, k the palette size max_degree+1 (1
# without edges), for vizing_color over every subcubic
# graph on 1..7 vertices, then gen_random_subcubic(n, s) for s in 0..9 and
# n in 50, 500, 2000 (283 graphs); a change to the fan recoloring moves it
VIZING_OUTPUT_SHA256 = "375a359bbaaf4256e72ad54ac093f99b896200833ac63bc3ab703c6f77d30d4d"


def test_vizing_output_is_pinned():
    graphs = [g for n in range(1, 8) for g in enumerate_subcubic(n)]
    graphs += [gen_random_subcubic(n, s) for s in range(10) for n in (50, 500, 2000)]
    digest = hashlib.sha256()
    for g in graphs:
        ec = vizing_color(g)
        digest.update((repr((max_degree(g) + 1 if g.edges else 1, ec)) + "\n").encode())
    assert len(graphs) == 283
    assert digest.hexdigest() == VIZING_OUTPUT_SHA256


def test_vizing_matches_the_reference():
    # the two maps kept in step color as the earlier single map did: every
    # atlas graph (any degree), random subcubic graphs, and dense G(n, p),
    # where the fans are long and most insertions invert a path
    graphs = [new_graph(a.number_of_nodes(), list(a.edges())) for a in nx.graph_atlas_g()[1:]]
    graphs += [gen_random_subcubic(n, s) for n in (50, 500, 2000) for s in range(3)]
    dense = [(12, 0.9), (30, 0.5), (40, 0.9), (80, 0.2), (80, 0.6), (80, 0.9)]
    graphs += [new_graph(n, list(nx.gnp_random_graph(n, p, seed=s).edges())) for s, (n, p) in enumerate(dense)]
    for g in graphs:
        assert vizing_color(g) == reference_vizing_color(g), g
