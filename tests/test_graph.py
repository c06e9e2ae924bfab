import tracemalloc

import pytest

from coronacolor import (
    CopyVertex,
    CoronaMap,
    GVertex,
    Graph,
    connected_components,
    corona,
    enumerate_subcubic,
    gen_random_subcubic,
    max_degree,
    new_graph,
    subgraph,
)
from coronacolor.errors import DuplicateEdgeError, EndpointOutOfRangeError, SelfLoopError
from oracles import cycle, k


def test_new_graph_basics():
    g = new_graph(2, [(0, 1)])
    assert g.n == 2 and g.edges == ((0, 1),)
    t = k(3)
    assert all(t.degree(v) == 2 for v in range(3))
    # edges arrive canonicalized regardless of input orientation or order
    g2 = new_graph(3, [(2, 1), (1, 0)])
    assert g2.edges == ((0, 1), (1, 2))


def test_new_graph_rejects_bad_edges():
    with pytest.raises(SelfLoopError):
        new_graph(4, [(0, 0)])
    with pytest.raises(DuplicateEdgeError):
        new_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(EndpointOutOfRangeError):
        new_graph(2, [(0, 2)])
    with pytest.raises(ValueError, match="nonnegative"):
        new_graph(-1)


def test_max_degree():
    assert max_degree(k(2)) == 1
    assert max_degree(cycle(5)) == 2
    assert max_degree(new_graph(3)) == 0
    cg, _ = corona(k(3), k(4))
    assert max_degree(cg) == 6


def test_corona_figure_instance():
    cg, cmap = corona(k(3), k(4))
    assert cg.n == 15
    assert len(cg.edges) == 3 + 3 * 6 + 12 == 33
    assert max_degree(cg) == 6
    assert sum(isinstance(cmap.role(x), GVertex) for x in range(cg.n)) == 3
    assert sum(isinstance(cmap.role(x), CopyVertex) for x in range(cg.n)) == 12


def test_corona_k2_k2():
    cg, cmap = corona(k(2), k(2))
    assert cg.n == 6 and len(cg.edges) == 1 + 2 + 4 == 7
    for j in (1, 2):
        assert cg.degree(j - 1) == 3
        for i in (1, 2):
            assert cg.degree(cmap.copy_vertex(j, i)) == 2


def test_corona_single_vertex_copy():
    cg, _ = corona(k(2), new_graph(1))
    assert cg.n == 4
    assert max_degree(cg) == 2


def test_corona_empty_h_is_identity():
    g = cycle(5)
    cg, cmap = corona(g, new_graph(0))
    assert cg is g
    assert cmap.n_h == 0
    assert all(isinstance(cmap.role(x), GVertex) for x in range(5))


def test_corona_counts_and_degree_formula():
    for gseed in range(4):
        for hseed in range(4):
            g = gen_random_subcubic(3 + gseed, gseed)
            h = gen_random_subcubic(1 + hseed, hseed + 10)
            cg, _ = corona(g, h)
            assert cg.n == g.n * (1 + h.n)
            assert len(cg.edges) == len(g.edges) + g.n * len(h.edges) + g.n * h.n
            assert max_degree(cg) == max_degree(g) + h.n
            # a spoke v_j u_i^j is the only kind of edge with one end in G
            corona_edges = [(a, b) for a, b in cg.edges if a < g.n <= b]
            assert len(corona_edges) == g.n * h.n


def test_corona_is_deterministic():
    a = corona(cycle(4), k(3))
    b = corona(cycle(4), k(3))
    assert a[0] == b[0] and a[1] == b[1]


def reference_corona(g, h):
    """The corona as built through new_graph (validate, hash, sort every edge),
    kept verbatim as the reference for the direct build."""
    if g.n < 1:
        raise ValueError("corona needs at least one vertex in the first factor")
    cmap = CoronaMap(g.n, h.n)
    if h.n == 0:
        return g, cmap
    edges = list(g.edges)
    for j in range(1, g.n + 1):
        base = cmap.copy_vertex(j, 1)
        for a, b in h.edges:
            edges.append((base + a, base + b))
        vj = j - 1
        for i in range(h.n):
            edges.append((vj, base + i))
    return new_graph(cmap.n, edges), cmap


def reference_pairs():
    """Connected G up to 6 vertices times H up to 4 (empty H included), and
    random G of 1, 50 and 2000 vertices times empty H, K1 and a random H."""
    gs = [g for n in range(1, 7) for g in enumerate_subcubic(n, connected=True)]
    hs = [new_graph(0)] + [h for n in range(1, 5) for h in enumerate_subcubic(n)]
    pairs = [(g, h) for g in gs for h in hs]
    random_h = gen_random_subcubic(10, 3)
    for n in (1, 50, 2000):
        for seed in (0, 1):
            g = gen_random_subcubic(n, seed)
            pairs += [(g, new_graph(0)), (g, new_graph(1)), (g, random_h)]
    return pairs


def adjacency_from_edges(g):
    """Sorted neighbour tuples, one per vertex, read off g.edges."""
    nbrs = [[] for _ in range(g.n)]
    for a, b in g.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return tuple(tuple(sorted(nb)) for nb in nbrs)


def test_corona_matches_reference_build():
    graphs = [g for n in range(1, 7) for g in enumerate_subcubic(n)]
    graphs += [gen_random_subcubic(n, seed) for n in (1, 50, 2000) for seed in (0, 1)]
    for g in graphs:
        # a graph is (n, edges): the adjacency, read or not, is not compared
        built = new_graph(g.n, [(b, a) for a, b in reversed(g.edges)])
        plain = Graph(g.n, tuple(sorted(g.edges)))
        assert "adj" not in vars(built) and "adj" not in vars(plain)
        assert built == plain and hash(built) == hash(plain)
        assert built.adj == adjacency_from_edges(g)
        assert built == plain and hash(built) == hash(plain)
    for g, h in reference_pairs():
        cg, cmap = corona(g, h)
        ref, ref_map = reference_corona(g, h)
        assert (cg.n, cg.edges, cmap) == (ref.n, ref.edges, ref_map)
        assert cg.adj == adjacency_from_edges(cg) == ref.adj
        assert max_degree(g) + h.n == max_degree(cg)  # the palette bound, less 3


def test_corona_keeps_only_its_edges():
    # each edge keeps a 2-tuple (56 bytes), its slot in cg.edges and, inside
    # a copy, a share of the copy's new int objects: about 77 bytes in all.
    # An adjacency tuple per corona vertex as well came to about 113.
    g, h = gen_random_subcubic(2000, 1), gen_random_subcubic(50, 2)
    assert g.adj and h.adj  # the factors' adjacency is theirs, not the corona's
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        cg, _ = corona(g, h)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cg.n == 102_000
    assert kept - before < 90 * len(cg.edges)
    assert "adj" not in vars(cg)


def test_corona_map_roles_partition():
    cmap = CoronaMap(3, 4)
    roles = [cmap.role(x) for x in range(cmap.n)]
    assert roles[:3] == [GVertex(1), GVertex(2), GVertex(3)]
    assert roles[3] == CopyVertex(1, 1) and roles[-1] == CopyVertex(3, 4)
    assert cmap.copy_vertex(2, 3) == 3 + 4 + 2
    for j, i in ((0, 1), (4, 1), (1, 0), (1, 5)):
        with pytest.raises(ValueError, match="copy grid"):
            cmap.copy_vertex(j, i)
    for x in (-1, cmap.n):
        with pytest.raises(ValueError, match="outside"):
            cmap.role(x)


def test_gen_random_subcubic():
    assert gen_random_subcubic(1, 99).n == 1
    assert not gen_random_subcubic(1, 99).edges
    assert gen_random_subcubic(8, 42) == gen_random_subcubic(8, 42)
    assert max_degree(gen_random_subcubic(50, 7)) <= 3
    for seed in range(20):
        assert max_degree(gen_random_subcubic(25, seed)) <= 3
    # gen builds its Graph from its own sorted pairs, unvalidated: new_graph
    # on the same pairs, reversed, which checks and sorts them, must agree
    for n in (1, 2, 3, 7, 25, 60, 500):
        for seed in range(4):
            g = gen_random_subcubic(n, seed)
            assert g == new_graph(n, [(b, a) for a, b in reversed(g.edges)]), (n, seed)


def test_components_and_subgraph():
    g = new_graph(5, [(0, 1), (3, 4)])
    assert connected_components(g) == [(0, 1), (2,), (3, 4)]
    sub, verts = subgraph(g, [3, 4, 2])
    assert verts == (2, 3, 4)
    assert sub.edges == ((1, 2),)


def test_subgraph_matches_a_validated_build():
    # subgraph builds its Graph as it relabels, unvalidated and unsorted:
    # new_graph on the same pairs, which checks and sorts them, must agree
    import random
    from itertools import combinations

    cases = [(g, s) for n in range(1, 6) for g in enumerate_subcubic(n)
             for r in range(n + 1) for s in combinations(range(n), r)]
    rng = random.Random(5)
    cases += [(gen_random_subcubic(60, t), rng.sample(range(60), rng.randrange(61)))
              for t in range(50)]
    for g, s in cases:
        sub, verts = subgraph(g, s)
        back = {v: i for i, v in enumerate(verts)}
        pairs = [(back[a], back[b]) for a, b in g.edges if a in back and b in back]
        assert sub == new_graph(len(verts), pairs), (g.edges, s)
