"""Property tests of the parsers: any text fails only with a typed error,
graph6 round trips agree with networkx as an independent codec, the graph6
codec agrees with its per-character reference on every output and error, and
the edge-list and coloring-document parsers agree with their earlier forms."""

import json
import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from coronacolor import (
    ColoringDocument,
    emit_graph6,
    new_graph,
    parse_coloring_json,
    parse_edge_list,
    parse_graph6,
)
from coronacolor.errors import CoronaColorError
from oracles import (
    reference_emit_graph6,
    reference_parse_coloring_json,
    reference_parse_edge_list,
    reference_parse_graph6,
)

FUZZ = settings(max_examples=400, deadline=None, derandomize=True, database=None)

# printable graph6 characters, the size-prefix marker and a few outsiders
G6_TEXT = st.text(alphabet=st.sampled_from([chr(c) for c in range(63, 127)] + list("~~?! \n>")), max_size=40)
G6_CHAR = st.sampled_from([chr(c) for c in range(63, 127)])


@st.composite
def prefixed_graph6(draw):
    """A 1-, 4- or 8-byte size prefix, then a payload near the length it asks for."""
    n = draw(st.integers(min_value=0, max_value=90) | st.integers(min_value=0, max_value=1 << 36))
    shifts = draw(st.sampled_from([(12, 6, 0), (30, 24, 18, 12, 6, 0), ()]))
    if shifts:
        head = "~" * (len(shifts) // 3) + "".join(chr(63 + ((n >> s) & 63)) for s in shifts)
    else:
        n %= 63
        head = chr(63 + n)
    head = head[: draw(st.integers(min_value=1, max_value=len(head)))] if draw(st.booleans()) else head
    need = min((n * (n - 1) // 2 + 5) // 6, 700)
    # mostly '?' (no edges), as in the text of a sparse graph
    body = ["?"] * draw(st.just(need) | st.integers(min_value=max(0, need - 2), max_value=need + 2))
    for pos, ch in draw(st.lists(st.tuples(st.integers(min_value=1), G6_CHAR), max_size=8)):
        if body:
            body[-(pos % len(body)) - 1] = ch
    if body and draw(st.booleans()):
        body[-1] = draw(G6_CHAR)  # reaches the padding bits
    return head + "".join(body)


SMALL_INT = st.integers(min_value=-3, max_value=40)
EDGE_LIST_LINE = st.one_of(
    st.tuples(SMALL_INT, SMALL_INT).map(lambda p: f"{p[0]} {p[1]}"),
    st.lists(SMALL_INT, max_size=3).map(lambda xs: " ".join(map(str, xs))),
    st.sampled_from(["# comment", "", "a b", "1 2 # tail", "1.5 2"]),
)
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | SMALL_INT | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
TINY_INT = st.integers(min_value=-1, max_value=6)
TINY_LIST = st.lists(TINY_INT, max_size=6)
# mostly well-typed documents, so that checks past the schema are reached
JSON_DOCUMENT = st.fixed_dictionaries(
    {
        "n": TINY_INT,
        "edges": st.lists(st.lists(TINY_INT, min_size=2, max_size=2), max_size=5),
        "vertex_colors": TINY_LIST,
        "edge_colors": TINY_LIST,
        "max_color": st.integers(min_value=0, max_value=6),
    },
    optional={
        "corona_map": st.one_of(st.fixed_dictionaries({"n_g": TINY_INT, "n_h": TINY_INT}), JSON_VALUE),
    },
)


def only_typed_errors(parse, text):
    try:
        parse(text)
    except CoronaColorError:
        pass


@FUZZ
@given(st.one_of(st.text(), G6_TEXT))
def test_parse_graph6_raises_only_typed_errors(text):
    only_typed_errors(parse_graph6, text)


@FUZZ
@given(st.one_of(st.text(), st.lists(EDGE_LIST_LINE, max_size=6).map("\n".join)))
def test_parse_edge_list_raises_only_typed_errors(text):
    only_typed_errors(parse_edge_list, text)


@FUZZ
@given(st.one_of(st.text(), JSON_VALUE.map(json.dumps)))
def test_parse_coloring_json_raises_only_typed_errors(text):
    only_typed_errors(parse_coloring_json, text)


@FUZZ
@given(JSON_DOCUMENT, st.sampled_from([None, "n", "edges", "vertex_colors", "max_color"]), JSON_VALUE)
def test_parse_coloring_json_documents_raise_only_typed_errors(doc, field, junk):
    if field is not None:
        doc[field] = junk
    only_typed_errors(parse_coloring_json, json.dumps(doc))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=0, max_value=200),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32),
)
def test_graph6_round_trip_agrees_with_networkx(n, density, seed):
    rng = random.Random(seed)
    g = new_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density])
    text = emit_graph6(g)
    assert parse_graph6(text) == g
    theirs = nx.from_graph6_bytes(text.encode())
    assert theirs.number_of_nodes() == n
    assert sorted(tuple(sorted(e)) for e in theirs.edges()) == list(g.edges)
    assert nx.to_graph6_bytes(theirs, header=False).decode().strip() == text


def parse_outcome(parse, text):
    try:
        return parse(text)
    except CoronaColorError as exc:
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    G6_TEXT,
    st.text(),
    prefixed_graph6(),
    st.tuples(st.sampled_from(["", ">>graph6<<", " \n", "\u2003"]), G6_TEXT | prefixed_graph6()).map("".join),
))
def test_parse_graph6_matches_reference(text):
    assert parse_outcome(parse_graph6, text) == parse_outcome(reference_parse_graph6, text)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=0, max_value=300),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32),
)
def test_emit_graph6_matches_reference(n, density, seed):
    rng = random.Random(seed)
    # density squared, so that sparse graphs like the subcubic ones are common
    p = density * density
    g = new_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])
    assert emit_graph6(g) == reference_emit_graph6(g)


@st.composite
def shuffled_edge_lists(draw):
    """An "n m" header, then a graph's edges in any order and orientation, at
    times with a self-loop, an endpoint out of range or an edge given twice,
    padded with whitespace that str.split drops."""
    n = draw(st.integers(min_value=0, max_value=6))
    canonical = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(canonical), unique=True)) if canonical else []
    pairs = [(b, a) if draw(st.booleans()) else (a, b) for a, b in draw(st.permutations(edges))]
    fault = draw(st.sampled_from([None, (0, 0), (0, n)] + pairs[-1:]))
    if fault is not None:
        pairs.insert(draw(st.integers(min_value=0, max_value=len(pairs))), fault)
    m = len(pairs) + draw(st.sampled_from([0, 1, -1]))
    pad = st.sampled_from(["", " ", "\t", "\u2003", " # note"])
    lines = [f"{n} {m}"] + [f"{draw(pad)}{a} {b}{draw(pad)}" for a, b in pairs]
    return "\n".join(lines)


@FUZZ
@given(st.one_of(st.text(), st.lists(EDGE_LIST_LINE, max_size=6).map("\n".join), shuffled_edge_lists()))
def test_parse_edge_list_matches_reference(text):
    assert parse_outcome(parse_edge_list, text) == parse_outcome(reference_parse_edge_list, text)


# a value put in place of an edge or a color: in range or not, bools, floats,
# pairs in either order and lists of other lengths
FAULT = st.one_of(
    st.lists(TINY_INT, min_size=2, max_size=2),
    TINY_INT,
    st.booleans(),
    st.just(3.0),
    st.lists(TINY_INT | st.booleans(), max_size=3),
)


@st.composite
def faulty_documents(draw):
    """A valid document, then up to two edges or colors replaced by FAULT."""
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = [[a, b] for a in range(n) for b in range(a + 1, n)]
    edges = sorted(draw(st.lists(st.sampled_from(pairs), unique_by=tuple))) if pairs else []
    mx = draw(st.integers(min_value=1, max_value=6))
    color = st.integers(min_value=1, max_value=mx)
    doc = {
        "n": n,
        "edges": edges,
        "vertex_colors": draw(st.lists(color, min_size=n, max_size=n)),
        "edge_colors": draw(st.lists(color, min_size=len(edges), max_size=len(edges))),
        "max_color": mx,
    }
    if n and draw(st.booleans()):
        doc["corona_map"] = {"n_g": 1, "n_h": n - 1}
    for _ in range(draw(st.sampled_from([1, 2, 0]))):
        values = doc[draw(st.sampled_from(["edges", "vertex_colors", "edge_colors"]))]
        if values:
            values[draw(st.integers(min_value=0, max_value=len(values) - 1))] = draw(FAULT)
    return doc


def assert_same_documents_accepted(text):
    # a document with several faults may report another one first; which
    # documents are accepted, and as what, must not change
    ours = parse_outcome(parse_coloring_json, text)
    theirs = parse_outcome(reference_parse_coloring_json, text)
    assert isinstance(ours, ColoringDocument) == isinstance(theirs, ColoringDocument)
    if isinstance(ours, ColoringDocument):
        assert ours == theirs


@FUZZ
@given(st.one_of(st.text(), JSON_VALUE.map(json.dumps)))
def test_parse_coloring_json_accepts_what_the_reference_accepts(text):
    assert_same_documents_accepted(text)


@FUZZ
@given(JSON_DOCUMENT, st.sampled_from([None, "n", "edges", "vertex_colors", "max_color"]), JSON_VALUE)
def test_parse_coloring_json_documents_match_reference(doc, field, junk):
    if field is not None:
        doc[field] = junk
    assert_same_documents_accepted(json.dumps(doc))


@FUZZ
@given(faulty_documents())
def test_parse_coloring_json_faulty_documents_match_reference(doc):
    assert_same_documents_accepted(json.dumps(doc))
