"""Property tests of the parsers: any text fails only with a typed error, and
graph6 round trips agree with networkx as an independent codec."""

import json
import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from coronacolor import emit_graph6, new_graph, parse_coloring_json, parse_edge_list, parse_graph6
from coronacolor.errors import CoronaColorError

FUZZ = settings(max_examples=400, deadline=None, derandomize=True, database=None)

# printable graph6 characters, the size-prefix marker and a few outsiders
G6_TEXT = st.text(alphabet=st.sampled_from([chr(c) for c in range(63, 127)] + list("~~?! \n>")), max_size=40)
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
