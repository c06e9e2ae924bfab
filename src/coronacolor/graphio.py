"""Graph and coloring interchange: graph6, edge lists, DOT and JSON documents."""

from __future__ import annotations

import json
from math import isqrt
from typing import NamedTuple

from .errors import (
    BadCharError,
    ColorOutOfRangeError,
    DuplicateEdgeError,
    EdgeListParseError,
    EndpointOutOfRangeError,
    SchemaViolationError,
    SelfLoopError,
    TrailingGarbageError,
    TruncatedPayloadError,
)
from .graph import CoronaMap, Graph, GVertex, TotalColoring, collector_paused, graph_from_keys
from .verify import check_cover

GRAPH6_HEADER = ">>graph6<<"

# An edge-list header fixes n on its own, and the first read of a graph's
# adjacency (require_subcubic's) builds one list per vertex, so an unbounded
# n would let a dozen bytes demand gigabytes; 2**20 vertices peak at 72 MiB.
MAX_EDGE_LIST_VERTICES = 1 << 20

# The graph6 text of an n-vertex graph is about n*n/12 bytes whatever its
# edges, so gen refuses to write one longer than this (n above about 40,000).
MAX_GRAPH6_BYTES = 1 << 27


# graph6 writes each 6-bit value x as the byte x + 63, so the alphabet is
# the bytes 63 ('?', x = 0) to 126 ('~')
_GRAPH6_ALPHABET = bytes(range(63, 127))
_TO_GRAPH6 = bytes.maketrans(bytes(range(64)), _GRAPH6_ALPHABET)
# '?' (x = 0) to 0 and every other byte to 1, so that bytes.find(1), a memchr,
# jumps from one payload byte that carries an edge to the next
_NONZERO_MARKS = bytes(0 if x == 63 else 1 for x in range(256))


def _decode_size(data: bytes) -> tuple[int, int]:
    # 126 is '~', x = 63, which opens the 4- and 8-byte forms
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) < 4:
        raise TruncatedPayloadError("graph6 size prefix cut short")
    if data[1] != 126:
        return ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63), 4
    if len(data) < 8:
        raise TruncatedPayloadError("graph6 size prefix cut short")
    n = 0
    for x in data[2:8]:
        n = (n << 6) | (x - 63)
    return n, 8


def _encode_size(n: int) -> list[int]:
    if n <= 62:
        return [n]
    if n <= 258047:
        return [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    if n <= 68719476735:
        return [63, 63] + [(n >> s) & 63 for s in (30, 24, 18, 12, 6, 0)]
    raise ValueError("vertex count too large for graph6")


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line; the ">>graph6<<" header is optional."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise TruncatedPayloadError("empty graph6 text")
    # isascii first: encode() would raise on a lone surrogate
    if not s.isascii() or (data := s.encode()).translate(None, _GRAPH6_ALPHABET):
        ch = next(ch for ch in s if not "?" <= ch <= "~")
        raise BadCharError(f"character {ch!r} outside the graph6 alphabet")
    n, idx = _decode_size(data)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    have = len(data) - idx
    if have < need:
        raise TruncatedPayloadError(f"need {need} payload characters, got {have}")
    if have > need:
        raise TrailingGarbageError(f"{have - need} characters past the adjacency payload")
    if need:
        pad = 6 * need - nbits
        if pad and (data[-1] - 63) & ((1 << pad) - 1):
            raise TrailingGarbageError("nonzero padding bits")
    # bit b is pair (i, j), i < j < n, in column order: b = j(j-1)/2 + i, so the
    # sorted keys i*n+j give the canonical edges; only payload bytes other than '?' are read
    keys = []
    marks = data.translate(_NONZERO_MARKS)
    pos = marks.find(1, idx)
    while pos >= 0:
        x = data[pos] - 63
        for off in range(6):
            if (x >> (5 - off)) & 1:
                b = 6 * (pos - idx) + off
                j = (1 + isqrt(1 + 8 * b)) // 2
                keys.append((b - j * (j - 1) // 2) * n + j)
        pos = marks.find(1, pos + 1)
    return graph_from_keys(n, keys)


def graph6_length(n: int) -> int:
    """Length of the graph6 text (no header) of any graph on n vertices."""
    return len(_encode_size(n)) + (n * (n - 1) // 2 + 5) // 6


def emit_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no header)."""
    head = _encode_size(g.n)
    base = len(head)
    buf = bytearray(base + (g.n * (g.n - 1) // 2 + 5) // 6)
    buf[:base] = head
    for i, j in zip(g.lo, g.hi):
        group, off = divmod(j * (j - 1) // 2 + i, 6)
        buf[base + group] |= 1 << (5 - off)
    return buf.translate(_TO_GRAPH6).decode("ascii")


def _lines(text: str):
    """``text.splitlines()`` about 1 MiB at a time, each piece cut just after a newline
    (which always ends a line), so that no list of all the lines is held."""
    start = 0
    while start < len(text):
        cut = text.find("\n", start + (1 << 20)) + 1 or len(text)
        yield from text[start:cut].splitlines()
        start = cut


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" plus m lines "a b"; '#' starts a comment, whitespace is free.
    Each edge is checked once, as its line is read, by its key a*n+b (a < b)
    against a set of the keys.  The keys are also kept in input order, and
    the set is dropped before that list is sorted into the columns: an edge
    list already in canonical order, as emit_edge_list writes it, then sorts
    in one linear pass."""
    n = m = None
    seen: set[int] = set()
    keys: list[int] = []
    for ln, raw in enumerate(_lines(text), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if n is None:
            if len(parts) != 2:
                raise EdgeListParseError(f"line {ln}: expected 'n m' header")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListParseError(f"line {ln}: header fields must be integers") from None
            if n < 0 or m < 0:
                raise EdgeListParseError(f"line {ln}: header fields must be nonnegative")
            if n > MAX_EDGE_LIST_VERTICES:
                raise EdgeListParseError(
                    f"line {ln}: {n} vertices exceed the limit of {MAX_EDGE_LIST_VERTICES}"
                )
            continue
        if len(parts) != 2:
            raise EdgeListParseError(f"line {ln}: expected 'a b'")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"line {ln}: endpoints must be integers") from None
        if len(keys) >= m:
            raise EdgeListParseError(f"line {ln}: more than {m} edges")
        if not (0 <= a < n and 0 <= b < n):
            raise EndpointOutOfRangeError(f"line {ln}: endpoint outside 0..{n - 1}")
        if a == b:
            raise SelfLoopError(f"line {ln}: self-loop at vertex {a}")
        if a > b:
            a, b = b, a
        key = a * n + b
        if key in seen:
            raise DuplicateEdgeError(f"line {ln}: duplicate edge {(a, b)}")
        seen.add(key)
        keys.append(key)
    if n is None:
        raise EdgeListParseError("missing 'n m' header")
    if len(keys) != m:
        raise EdgeListParseError(f"expected {m} edges, found {len(keys)}")
    del seen
    return graph_from_keys(n, keys)


def _interleaved(g: Graph) -> tuple[int, ...]:
    """lo[0], hi[0], lo[1], hi[1], ...: the arguments of one %-format over the edges."""
    flat = [0] * (2 * len(g.lo))
    flat[::2] = g.lo
    flat[1::2] = g.hi
    return tuple(flat)


def emit_edge_list(g: Graph) -> str:
    return f"{g.n} {len(g.lo)}\n" + ("%d %d\n" * len(g.lo)) % _interleaved(g)


PALETTE = (
    "#e6194b", "#3cb44b", "#ffe119", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff",
)


def emit_dot(doc: ColoringDocument) -> str:
    """DOT source of a coloring document; corona roles become v_j / u_i^j
    labels, colors become labels plus a fixed fill palette cycled by color
    number."""
    lines = ["graph corona {", "  node [shape=circle, style=filled, fillcolor=white];"]
    for v, c in enumerate(doc.coloring.vertex_colors):
        if doc.corona_map is not None:
            role = doc.corona_map.role(v)
            name = f"v_{role.j}" if isinstance(role, GVertex) else f"u_{role.i}^{role.j}"
        else:
            name = str(v)
        lines.append(
            f'  n{v} [label="{name}\\n{c}", fillcolor="{PALETTE[(c - 1) % len(PALETTE)]}"];'
        )
    for a, b, c in zip(doc.graph.lo, doc.graph.hi, doc.coloring.edge_colors):
        lines.append(f'  n{a} -- n{b} [label="{c}", color="{PALETTE[(c - 1) % len(PALETTE)]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


class ColoringDocument(NamedTuple):
    """A graph, a total coloring covering it and, for a corona, its vertex roles."""

    graph: Graph
    coloring: TotalColoring
    corona_map: CoronaMap | None = None


def coloring_document(
    g: Graph, coloring: TotalColoring, corona_map: CoronaMap | None = None
) -> ColoringDocument:
    check_cover(g, coloring)
    return ColoringDocument(g, coloring, corona_map)


def document_graph(doc: ColoringDocument) -> Graph:
    return doc.graph


def document_coloring(doc: ColoringDocument) -> TotalColoring:
    return doc.coloring


# Compact JSON for one document field.  A document's fields are ints and
# tuples of ints, which cannot hold a cycle, so the encoder keeps no
# markers dict.
_COMPACT = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def emit_coloring_json(doc: ColoringDocument) -> str:
    """One top-level key per line, each value (arrays included) on its line
    in compact JSON: a valid JSON object, read back by parse_coloring_json."""
    g, colors, cmap = doc.graph, doc.coloring, doc.corona_map
    # the edges in one %-format over the columns: every parser checks that an
    # endpoint's type is int, so %d spells it as JSON does
    edges = ('  "edges": [' + ("[%d,%d]," * len(g.lo))[:-1] + "]") % _interleaved(g)
    corona_map = None if cmap is None else {"n_g": cmap.n_g, "n_h": cmap.n_h}
    # the color tuples are encoded as they are: JSON writes them as arrays.  The
    # braces go on the short first and last lines, so the text is copied once
    return ",\n".join([
        '{\n  "n": ' + _COMPACT(g.n),
        edges,
        '  "vertex_colors": ' + _COMPACT(colors.vertex_colors),
        '  "edge_colors": ' + _COMPACT(colors.edge_colors),
        '  "max_color": ' + _COMPACT(colors.max_color),
        '  "corona_map": ' + _COMPACT(corona_map) + "\n}\n",
    ])


def _as_int(payload: dict, key: str) -> int:
    x = payload[key]
    if type(x) is not int:  # JSON's true and false are bools, not ints
        raise SchemaViolationError(f"field {key!r} must be an integer")
    return x


@collector_paused
def parse_coloring_json(text: str) -> ColoringDocument:
    """Parse and validate a coloring document; the inverse of emit_coloring_json.
    One loop checks each edge's shape, range and canonical order, one each color list's
    values; a document with several faults reports the first fault met."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an int past sys.get_int_max_str_digits() digits (a
        # limit kept: it bounds the time to parse an int), or nesting too deep
        raise SchemaViolationError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaViolationError("top level must be an object")
    required = {"n", "edges", "vertex_colors", "edge_colors", "max_color"}
    keys = set(payload)
    if not required <= keys or not keys <= required | {"corona_map"}:
        raise SchemaViolationError(
            f"fields must be {sorted(required)} plus optional 'corona_map'"
        )
    n = _as_int(payload, "n")
    if n < 0:
        raise SchemaViolationError("n must be nonnegative")
    max_color = _as_int(payload, "max_color")
    if max_color < 1:
        raise SchemaViolationError("max_color must be positive")
    raw_edges = payload["edges"]
    shape = "edges must be a list of [a, b] integer pairs"
    if type(raw_edges) is not list:
        raise SchemaViolationError(shape)
    lo: list[int] = []
    hi: list[int] = []
    prev = -1  # the key a*n+b of the edge before, which orders edges as pairs do
    for p in raw_edges:
        if type(p) is not list or len(p) != 2 or type(p[0]) is not int or type(p[1]) is not int:
            raise SchemaViolationError(shape)
        a, b = p
        if not (0 <= a < n and 0 <= b < n):
            raise SchemaViolationError(
                f"bad edge list: edge ({a},{b}) has an endpoint outside 0..{n - 1}"
            )
        if a == b:
            raise SchemaViolationError(f"bad edge list: self-loop at vertex {a}")
        edge_key = a * n + b
        if edge_key == prev:
            raise SchemaViolationError(f"bad edge list: duplicate edge {(a, b)}")
        if a > b or edge_key < prev:
            raise SchemaViolationError("edges must be sorted pairs in canonical order")
        lo.append(a)
        hi.append(b)
        prev = edge_key
    # the color lists' lengths tie n to the size of the text, so a document
    # cannot make the parser build a graph far larger than the text
    for key, want in (("vertex_colors", n), ("edge_colors", len(lo))):
        col = payload[key]
        if type(col) is not list:
            raise SchemaViolationError(f"{key} must be a list of integers")
        if len(col) != want:
            raise SchemaViolationError(f"{key} must have length {want}")
        for c in col:
            if type(c) is not int:
                raise SchemaViolationError(f"{key} must be a list of integers")
            if not 1 <= c <= max_color:
                raise ColorOutOfRangeError(f"color {c} outside 1..{max_color}")
    raw_map = payload.get("corona_map")
    corona_map = None
    if raw_map is not None:
        if not isinstance(raw_map, dict) or set(raw_map) != {"n_g", "n_h"}:
            raise SchemaViolationError("corona_map must be {'n_g': ..., 'n_h': ...}")
        n_g, n_h = _as_int(raw_map, "n_g"), _as_int(raw_map, "n_h")
        if n_g < 1 or n_h < 0 or n_g * (1 + n_h) != n:
            raise SchemaViolationError("corona_map inconsistent with the vertex count")
        corona_map = CoronaMap(n_g, n_h)
    vcol, ecol = tuple(payload["vertex_colors"]), tuple(payload["edge_colors"])
    coloring = TotalColoring(vcol, ecol, max_color)
    return ColoringDocument(Graph(n, lo, hi), coloring, corona_map)
