"""Simple undirected graphs, total colorings, corona products and bounded generation.

Vertices are dense integers 0..n-1.  Edges are unordered pairs stored as
sorted tuples in lexicographic order, which fixes the canonical edge order
used throughout the package; a graph is n and that edge list alone.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import (
    DuplicateEdgeError,
    EndpointOutOfRangeError,
    NotSubcubicError,
    SelfLoopError,
)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph: n and its canonical edges, which
    alone set equality and hashing; adj is derived on first read and kept."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        # lexicographic edges give each vertex its neighbours in sorted order
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return tuple(map(tuple, nbrs))

    def degree(self, v: int) -> int:
        return len(self.adj[v])


@dataclass(frozen=True)
class TotalColoring:
    """Colors per vertex and per canonical edge, all in 1..max_color."""

    vertex_colors: tuple[int, ...]
    edge_colors: tuple[int, ...]
    max_color: int


def new_graph(n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """Validate an unordered pair list; the graph keeps its canonical edges.
    The checked pairs are sorted as a list, which is linear on canonical input."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    seen: set[tuple[int, int]] = set()
    kept: list[tuple[int, int]] = []
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise EndpointOutOfRangeError(f"edge ({a},{b}) has an endpoint outside 0..{n - 1}")
        if a == b:
            raise SelfLoopError(f"self-loop at vertex {a}")
        e = (a, b) if a < b else (b, a)
        if e in seen:
            raise DuplicateEdgeError(f"duplicate edge {e}")
        seen.add(e)
        kept.append(e)
    kept.sort()
    return Graph(n, tuple(kept))


def max_degree(g: Graph) -> int:
    return max((len(nb) for nb in g.adj), default=0)


def require_subcubic(g: Graph) -> None:
    d = max_degree(g)
    if d > 3:
        raise NotSubcubicError(f"maximum degree {d} exceeds 3")


def edge_index(g: Graph) -> dict[tuple[int, int], int]:
    """Canonical edge -> position in g.edges."""
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


def subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph plus the sorted original vertices (new id = position).

    Reads only the kept vertices' adjacency: O(edges kept) once g.adj
    exists, not O(all edges of g).  The kept vertices and each one's
    neighbours ascend, so the relabeled pairs are canonical as built.
    """
    verts = tuple(sorted(set(vertices)))
    back = {v: i for i, v in enumerate(verts)}
    edges = [(back[a], back[b]) for a in verts for b in g.adj[a] if a < b and b in back]
    return Graph(len(verts), tuple(edges)), verts


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

    The graph is built directly in canonical order, with no sort or
    revalidation: for each v_j in turn, its g-edges to larger vertices and
    then its spokes in copy order, followed by each copy's shifted h.edges.
    color_corona writes its colors in that order.  No adjacency is built
    unless read.  With an empty second factor the product is g itself.
    """
    if g.n < 1:
        raise ValueError("corona needs at least one vertex in the first factor")
    cmap = CoronaMap(g.n, h.n)
    if h.n == 0:
        return g, cmap
    # copy j's vertices in h's order: int objects the edges below share
    copies = [tuple(range(base, base + h.n)) for base in range(g.n, cmap.n, h.n)]
    edges: list[tuple[int, int]] = []
    for v, copy in enumerate(copies):
        edges += [(v, w) for w in g.adj[v] if w > v]
        edges += [(v, x) for x in copy]
    for copy in copies:
        edges += [(copy[a], copy[b]) for a, b in h.edges]
    return Graph(cmap.n, tuple(edges)), cmap


def gen_random_subcubic(n: int, seed: int) -> Graph:
    """Deterministic random graph with maximum degree at most 3.

    Uniform random pair proposals, accepted while both endpoints have degree
    below 3 and the edge is new; the proposal budget is fixed at 12*n.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    deg = [0] * n
    present: set[tuple[int, int]] = set()
    for _ in range(12 * n):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b or deg[a] >= 3 or deg[b] >= 3:
            continue
        e = (a, b) if a < b else (b, a)
        if e in present:
            continue
        present.add(e)
        deg[a] += 1
        deg[b] += 1
    return Graph(n, tuple(sorted(present)))
