"""Simple undirected graphs, total colorings, corona products and bounded generation.

Vertices are dense integers 0..n-1.  Edges are unordered pairs, each with
its smaller end first, in lexicographic order, which fixes the canonical
edge order used throughout the package.  A graph is n and two int columns,
the smaller and the larger end of each edge in that order, and nothing else:
every writer builds Graph(n, lo, hi) and keeps no pair tuple, the pairs
(``edges``) and the adjacency are derived on first read, and an edge's id is
its position in the columns.
"""

from __future__ import annotations

import gc
import random
from bisect import bisect, bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable, Iterable, NamedTuple, TypeVar

from .errors import (
    DuplicateEdgeError,
    EndpointOutOfRangeError,
    NotSubcubicError,
    SelfLoopError,
)


_F = TypeVar("_F", bound=Callable)


def collector_paused(fn: _F) -> _F:
    """fn with Python's cyclic garbage collector off for the length of each
    call; the caller's setting comes back on return and on raise.

    For bulk work that allocates many containers and creates no reference
    cycles: there the collector finds nothing and only rescans the call's
    young objects (tests assert gc.collect() == 0 after such calls).  No
    lock is taken; no caller uses threads.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused  # type: ignore[return-value]


@dataclass(frozen=True, repr=False)
class Graph:
    """Immutable simple undirected graph: n and its canonical edges as two
    int columns, lo[t] < hi[t] the ends of edge t, which alone set equality
    and hashing; edge t's id is t.  Graph(n, lo, hi) is the one constructor
    and takes the columns as given; new_graph validates a pair list.  The
    pairs and the adjacency are derived on first read and kept."""

    n: int
    lo: list[int]
    hi: list[int]

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.lo), tuple(self.hi)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, edges={tuple(zip(self.lo, self.hi))!r})"

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.lo, self.hi))

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        # lexicographic edges give each vertex its neighbours in sorted order
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in zip(self.lo, self.hi):
            nbrs[a].append(b)
            nbrs[b].append(a)
        return tuple(map(tuple, nbrs))


@dataclass(frozen=True)
class TotalColoring:
    """Colors per vertex and per canonical edge, all in 1..max_color."""

    vertex_colors: tuple[int, ...]
    edge_colors: tuple[int, ...]
    max_color: int


def new_graph(n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """Validate an unordered pair list; the graph keeps its canonical edges.
    Each pair is checked as its key a*n+b (a < b), and the sorted keys give
    the columns."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    seen: set[int] = set()
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise EndpointOutOfRangeError(f"edge ({a},{b}) has an endpoint outside 0..{n - 1}")
        if a == b:
            raise SelfLoopError(f"self-loop at vertex {a}")
        key = a * n + b if a < b else b * n + a
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {divmod(key, n)}")
        seen.add(key)
    return graph_from_keys(n, seen)


def graph_from_keys(n: int, keys: Iterable[int]) -> Graph:
    """The graph whose edges have the keys a*n+b (a < b)."""
    keys = sorted(keys)
    return Graph(n, [k // n for k in keys], [k % n for k in keys])


def max_degree(g: Graph) -> int:
    return max(map(len, g.adj), default=0)


def require_subcubic(g: Graph) -> int:
    """g's maximum degree, which must be at most 3."""
    d = max_degree(g)
    if d > 3:
        raise NotSubcubicError(f"maximum degree {d} exceeds 3")
    return d


def edge_index(g: Graph) -> dict[tuple[int, int], int]:
    """Canonical edge -> position in g.edges.

    No package code calls it.  Its one user is perfbench's tracer, which
    patches it through construct's import until ROADMAP item 1 moves the
    tracer onto the columns."""
    return {e: t for t, e in enumerate(g.edges)}


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of connected components, each sorted, ordered by smallest vertex."""
    seen = [False] * g.n
    comps: list[tuple[int, ...]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [s]
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def twin_classes(g: Graph) -> list[list[int]]:
    """The classes of two or more twin vertices, each sorted, ordered by smallest vertex.

    Twins have equal closed neighborhoods N[u] = N[v] or equal open ones
    N(u) = N(v); permuting a class and fixing the rest is an automorphism.
    The classes are disjoint and both kinds of key share one dict: N[u] = N[v]
    and N(u) = N(w) would put w in N[u], so u in N(w) = N(u), and N(u) = N[w]
    would put w in N(u), so u in N(w) and in N(u).
    """
    groups: defaultdict[tuple[int, ...], list[int]] = defaultdict(list)
    for v, nb in enumerate(g.adj):
        groups[nb].append(v)
        groups[tuple(sorted(nb + (v,)))].append(v)
    return sorted(c for c in groups.values() if len(c) > 1)


def subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """Induced subgraph, the sorted original vertices (new id = position) and
    the kept edges' ids in g (new edge id = position).

    Reads only the kept vertices' runs of g.lo: a's edges to larger vertices
    are ids bisect_left(g.lo, a) onwards, one per neighbour above a, in order.
    The kept vertices ascend, so the ids do too and the relabeled edges are
    canonical as built.
    """
    verts = tuple(sorted(set(vertices)))
    back = {v: i for i, v in enumerate(verts)}
    lo, hi = g.lo, g.hi
    ids = tuple(t for a in verts for t in range(bisect_left(lo, a), bisect(lo, a)) if hi[t] in back)
    sub = Graph(len(verts), [back[lo[t]] for t in ids], [back[hi[t]] for t in ids])
    return sub, verts, ids


class GVertex(NamedTuple):
    j: int


class CopyVertex(NamedTuple):
    j: int
    i: int


@dataclass(frozen=True)
class CoronaMap:
    """Role bookkeeping for corona vertices, using 1-based labels v_j and u_i^j.

    Vertex x < n_g is v_{x+1}; copies follow grouped by j, so u_i^j sits at
    n_g + (j-1)*n_h + (i-1).
    """

    n_g: int
    n_h: int

    @property
    def n(self) -> int:
        return self.n_g * (1 + self.n_h)

    def copy_vertex(self, j: int, i: int) -> int:
        if not (1 <= j <= self.n_g and 1 <= i <= self.n_h):
            raise ValueError(f"(j,i)=({j},{i}) outside the copy grid")
        return self.n_g + (j - 1) * self.n_h + (i - 1)

    def role(self, x: int) -> GVertex | CopyVertex:
        if not 0 <= x < self.n:
            raise ValueError(f"vertex {x} outside 0..{self.n - 1}")
        if x < self.n_g:
            return GVertex(x + 1)
        r = x - self.n_g
        return CopyVertex(r // self.n_h + 1, r % self.n_h + 1)


def corona(g: Graph, h: Graph) -> tuple[Graph, CoronaMap]:
    """Corona product: one copy of g plus g.n copies of h, v_j joined to all of copy j.

    The graph's columns are built directly in canonical order, with no sort,
    revalidation or pair tuple, in two comprehensions each: one over the v_j,
    each one's g-edges to larger vertices and then its spokes in copy order,
    and one over the copies, each one's shifted h edges.  The larger ends
    share the copies' int objects.  color_corona writes its edge colors in
    that order.  No adjacency is built unless read.  With an empty second
    factor the product is g itself.
    """
    if g.n < 1:
        raise ValueError("corona needs at least one vertex in the first factor")
    cmap = CoronaMap(g.n, h.n)
    if h.n == 0:
        return g, cmap
    # copy j's vertices in h's order: int objects the columns below share
    copies = [tuple(range(base, base + h.n)) for base in range(g.n, cmap.n, h.n)]
    # v's neighbours past v (adj ascends), then its spokes; then the copies' edges
    hi = [w for v, nb in enumerate(g.adj) for w in nb[bisect(nb, v):] + copies[v]]
    lo = [v for v, nb in enumerate(g.adj) for _ in range(len(nb) - bisect(nb, v) + h.n)]
    lo += [copy[a] for copy in copies for a in h.lo]
    hi += [copy[b] for copy in copies for b in h.hi]
    return Graph(cmap.n, lo, hi), cmap


def gen_random_subcubic(n: int, seed: int) -> Graph:
    """Deterministic random graph with maximum degree at most 3.

    Uniform random pair proposals, accepted while both endpoints have degree
    below 3 and the edge is new; the proposal budget is fixed at 12*n.  Each
    endpoint is drawn as random.Random(seed).randrange(n) draws it: k =
    n.bit_length() random bits, drawn again while they are n or more.  So the
    graphs are those of one randrange(n) call per endpoint, without the cost
    of those calls.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    getrandbits = random.Random(seed).getrandbits
    k = n.bit_length()
    deg = [0] * n
    present: set[int] = set()  # the edges' keys a*n+b, a < b
    for _ in range(12 * n):
        a = getrandbits(k)
        while a >= n:
            a = getrandbits(k)
        b = getrandbits(k)
        while b >= n:
            b = getrandbits(k)
        if a == b or deg[a] >= 3 or deg[b] >= 3:
            continue
        key = a * n + b if a < b else b * n + a
        if key in present:
            continue
        present.add(key)
        deg[a] += 1
        deg[b] += 1
    return graph_from_keys(n, present)
