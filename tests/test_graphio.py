import json
import random
import tracemalloc
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coronacolor import (
    ColoringDocument,
    CoronaMap,
    TotalColoring,
    base_coloring,
    color_corona,
    coloring_document,
    document_coloring,
    document_graph,
    emit_coloring_json,
    emit_dot,
    emit_edge_list,
    emit_graph6,
    enumerate_subcubic,
    gen_random_subcubic,
    new_graph,
    parse_coloring_json,
    parse_edge_list,
    parse_graph6,
    verify_npd,
)
from coronacolor.errors import (
    BadCharError,
    ColorOutOfRangeError,
    DimensionMismatchError,
    DuplicateEdgeError,
    EdgeListParseError,
    SchemaViolationError,
    SelfLoopError,
    TrailingGarbageError,
    TruncatedPayloadError,
)
from coronacolor.graphio import MAX_EDGE_LIST_VERTICES, graph6_length
from oracles import reference_emit_coloring_json


def test_graph6_hand_decoded_literals():
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges == ((0, 1),)
    g = parse_graph6("@")
    assert g.n == 1 and not g.edges
    g = parse_graph6("A?")
    assert g.n == 2 and not g.edges
    assert parse_graph6(">>graph6<<A_").edges == ((0, 1),)
    assert parse_graph6("A_\n").edges == ((0, 1),)


def test_graph6_errors():
    with pytest.raises(BadCharError):
        parse_graph6("A!")  # '!' sits below the graph6 alphabet
    with pytest.raises(TruncatedPayloadError):
        parse_graph6("B")  # n=3 needs one payload character
    with pytest.raises(TrailingGarbageError):
        parse_graph6("A__")
    with pytest.raises(TrailingGarbageError):
        parse_graph6("A`")  # n=2 uses 1 of the 6 bits; a padding bit is set
    with pytest.raises(TruncatedPayloadError):
        parse_graph6("")


def test_graph6_round_trip_against_networkx_all_n_le_6():
    for n in range(0, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            g = new_graph(n, edges)
            s = emit_graph6(g)
            assert parse_graph6(s) == g
            ng = nx.Graph()
            ng.add_nodes_from(range(n))
            ng.add_edges_from(edges)
            assert nx.to_graph6_bytes(ng, header=False).decode().strip() == s
            decoded = nx.from_graph6_bytes(s.encode())
            assert decoded.number_of_nodes() == n
            assert set(decoded.edges()) == set(edges)


def test_graph6_long_size_form():
    g = new_graph(70, [(0, 69)])
    assert parse_graph6(emit_graph6(g)) == g
    with pytest.raises(ValueError, match="too large for graph6"):
        graph6_length(2**36)


def test_graph6_round_trip_memory_is_a_small_multiple_of_the_text():
    # graph6 text grows as n*n/12 whatever the edges, while a subcubic graph
    # has at most 1.5*n edges: the codec may hold a few copies of the text,
    # but nothing per character (one list slot per character is 8 bytes or
    # more, and the int objects behind it more again)
    g = gen_random_subcubic(5000, 0)
    tracemalloc.start()
    try:
        text = emit_graph6(g)
        _, emit_peak = tracemalloc.get_traced_memory()
        line = text + "\n"
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        back = parse_graph6(line)
        _, parse_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == g
    assert emit_peak < 6 * len(text)
    assert parse_peak - before < 6 * len(text)


def test_parsers_keep_two_columns_of_a_corona():
    # a 102k-vertex corona with 246,921 edges, parsed from its edge list and
    # its coloring document.  parse_edge_list peaks at 30.46 MiB and keeps
    # 18.58, parse_coloring_json peaks at 44.91 and keeps 19.41 (Python 3.11
    # to 3.13; 3.10 is lower).  The edge list's peak is its int keys and
    # their sorted copy beside the columns being built, its set of keys
    # already dropped; the document's is mostly json.loads' lists.  Bounds
    # are 5% over.
    res = color_corona(gen_random_subcubic(2000, 1), gen_random_subcubic(50, 2))
    doc = coloring_document(res.graph, res.coloring, res.corona_map)
    for parse, text, want, peak_mib, kept_mib in (
        (parse_edge_list, emit_edge_list(res.graph), res.graph, 32.0, 19.6),
        (parse_coloring_json, emit_coloring_json(doc), doc, 47.2, 20.4),
    ):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            back = parse(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back == want
        assert peak - before < peak_mib * 2**20, parse.__name__
        assert kept - before < kept_mib * 2**20, parse.__name__


def test_edge_list_round_trip():
    assert parse_edge_list("2 1\n0 1\n") == new_graph(2, [(0, 1)])
    assert parse_edge_list("3 3\n0 1\n1 2\n0 2") == new_graph(3, [(0, 1), (1, 2), (0, 2)])
    text = "  3 1   # a triangle minus two edges\n\n# comment line\n 0   2\n"
    assert parse_edge_list(text) == new_graph(3, [(0, 2)])
    g = new_graph(4, [(0, 1), (2, 3)])
    assert parse_edge_list(emit_edge_list(g)) == g


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(SelfLoopError, match="line 2"):
        parse_edge_list("2 1\n0 0")
    with pytest.raises(DuplicateEdgeError, match="line 3"):
        parse_edge_list("2 2\n0 1\n1 0")
    with pytest.raises(EdgeListParseError, match="line 1"):
        parse_edge_list("nope\n")
    with pytest.raises(EdgeListParseError):
        parse_edge_list("2 2\n0 1\n")  # fewer edges than promised
    with pytest.raises(EdgeListParseError):
        parse_edge_list("")
    # the header alone must not make the parser allocate 10**8 adjacency lists
    with pytest.raises(EdgeListParseError, match="line 1"):
        parse_edge_list("100000000 0")
    with pytest.raises(EdgeListParseError, match="line 1"):
        parse_edge_list(f"{MAX_EDGE_LIST_VERTICES + 1} 0\n")


def test_edge_list_errors_past_the_first_piece_keep_their_line_number():
    # the text is split into lines about 1 MiB at a time, each piece cut just
    # after a newline; a comment line that long, CRLF ends and a fault in the
    # second piece must not move any line number
    edges = [(v, v + 1) for v in range(0, 200_000, 2)]
    lines = [f"{MAX_EDGE_LIST_VERTICES} {len(edges) + 1}", "#" * (1 << 20)]
    lines += [f"{a} {b}" for a, b in edges]
    text = "\r\n".join(lines) + "\r\n7 7\r\n"
    assert len(text) > 2 << 20
    with pytest.raises(SelfLoopError, match=f"line {len(lines) + 1}:"):
        parse_edge_list(text)
    g = parse_edge_list(text.replace("7 7", "7 9"))
    assert len(g.edges) == len(edges) + 1


def test_emit_dot():
    g = new_graph(2, [(0, 1)])
    dotted = emit_dot(coloring_document(g, TotalColoring((1, 2), (3,), 3)))
    assert dotted == (
        "graph corona {\n"
        "  node [shape=circle, style=filled, fillcolor=white];\n"
        '  n0 [label="0\\n1", fillcolor="#e6194b"];\n'
        '  n1 [label="1\\n2", fillcolor="#3cb44b"];\n'
        '  n0 -- n1 [label="3", color="#ffe119"];\n'
        "}\n"
    )
    # a coloring that does not cover the graph never becomes a document
    with pytest.raises(DimensionMismatchError):
        coloring_document(g, TotalColoring((1,), (3,), 3))


def test_emit_dot_corona_labels():
    res = color_corona(new_graph(2, [(0, 1)]), new_graph(2, [(0, 1)]))
    text = emit_dot(coloring_document(res.graph, res.coloring, res.corona_map))
    assert 'v_1' in text and 'u_2^1' in text
    assert text.count("--") == 7


def test_coloring_json_round_trip_minimal():
    doc = ColoringDocument(new_graph(2, ((0, 1),)), TotalColoring((1, 2), (3,), 3))
    assert parse_coloring_json(emit_coloring_json(doc)) == doc
    doc2 = ColoringDocument(new_graph(2, ((0, 1),)), TotalColoring((1, 2), (3,), 3), CoronaMap(1, 1))
    assert parse_coloring_json(emit_coloring_json(doc2)) == doc2


def test_coloring_json_round_trip_random_documents():
    rng = random.Random(3)
    for trial in range(100):
        n = rng.randint(1, 8)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        edges = tuple(sorted(pairs[: rng.randint(0, len(pairs))]))
        mx = rng.randint(1, 12)
        doc = ColoringDocument(
            new_graph(n, edges),
            TotalColoring(
                tuple(rng.randint(1, mx) for _ in range(n)),
                tuple(rng.randint(1, mx) for _ in edges),
                mx,
            ),
        )
        assert parse_coloring_json(emit_coloring_json(doc)) == doc


def test_coloring_json_rejects_bad_documents():
    doc = ColoringDocument(new_graph(2, ((0, 1),)), TotalColoring((1, 2), (3,), 3))
    good = emit_coloring_json(doc)
    with pytest.raises(ColorOutOfRangeError):
        parse_coloring_json(good.replace('"vertex_colors": [1,', '"vertex_colors": [0,'))
    with pytest.raises(SchemaViolationError):
        parse_coloring_json("{}")
    with pytest.raises(SchemaViolationError):
        parse_coloring_json("[1, 2]")
    with pytest.raises(SchemaViolationError):
        parse_coloring_json(good.replace('"max_color": 3', '"max_color": 3, "extra": 1'))
    with pytest.raises(SchemaViolationError):
        parse_coloring_json('{"n": 2, "edges": [[1, 0]], "vertex_colors": [1, 2], "edge_colors": [3], "max_color": 3}')
    with pytest.raises(SchemaViolationError):
        parse_coloring_json('{"n": 2, "edges": [[0, 1]], "vertex_colors": [1], "edge_colors": [3], "max_color": 3}')
    with pytest.raises(SchemaViolationError, match="nonnegative"):
        parse_coloring_json('{"n": -1, "edges": [], "vertex_colors": [], "edge_colors": [], "max_color": 1}')
    # an int past sys.get_int_max_str_digits() digits, which json.loads
    # refuses with a plain ValueError
    with pytest.raises(SchemaViolationError, match="invalid JSON"):
        parse_coloring_json(good.replace('"n": 2', '"n": ' + "9" * 5000))
    for raw_map, why in (
        ("[1, 1]", "corona_map must be"),
        ('{"n_g": 1}', "corona_map must be"),
        ('{"n_g": 1, "n_h": 1, "n": 2}', "corona_map must be"),
        ('{"n_g": 2, "n_h": 1}', "inconsistent"),  # 2 * (1 + 1) != 2
        ('{"n_g": 1, "n_h": 0}', "inconsistent"),
    ):
        with pytest.raises(SchemaViolationError, match=why):
            parse_coloring_json(good.replace('"corona_map": null', f'"corona_map": {raw_map}'))
    ok_map = good.replace('"corona_map": null', '"corona_map": {"n_g": 1, "n_h": 1}')
    assert parse_coloring_json(ok_map).corona_map == CoronaMap(1, 1)
    # nesting past the decoder's recursion limit, as arrays and as objects
    for deep in ("[" * 1000 + "]" * 1000, '{"a":' * 100_000 + "1" + "}" * 100_000):
        with pytest.raises(SchemaViolationError, match="invalid JSON"):
            parse_coloring_json(deep)
    three = '{"n": 3, "edges": %s, "vertex_colors": [1, 2, 3], "edge_colors": [4, 5], "max_color": 5}'
    for edges, why in (
        ("[[0, 1], [1, 3]]", "bad edge list: edge"),  # endpoint out of range
        ("[[0, 1], [-1, 2]]", "bad edge list: edge"),
        ("[[0, 1], [2, 2]]", "bad edge list: self-loop"),
        ("[[0, 1], [0, 1]]", "bad edge list: duplicate"),
        ("[[0, 2], [0, 1]]", "canonical order"),  # not increasing
        ("[[0, 1], [2, 1]]", "canonical order"),  # pair not sorted
    ):
        with pytest.raises(SchemaViolationError, match=why):
            parse_coloring_json(three % edges)
    assert parse_coloring_json(three % "[[0, 1], [1, 2]]").graph.edges == ((0, 1), (1, 2))
    # JSON's true is a bool, not the integer 1, and 3.0 is a float, wherever they stand
    two = '{"n": 2, "edges": %s, "vertex_colors": %s, "edge_colors": %s, "max_color": 3}'
    for fields in (
        ("[[true, 1]]", "[1, 2]", "[3]"),
        ("[[0, 1]]", "[true, 2]", "[3]"),
        ("[[0, 1]]", "[1, 2]", "[3.0]"),
    ):
        with pytest.raises(SchemaViolationError, match="integer"):
            parse_coloring_json(two % fields)


def test_coloring_json_layout():
    res = color_corona(new_graph(3, [(0, 1), (1, 2)]), new_graph(3, [(0, 1), (1, 2)]))
    doc = coloring_document(res.graph, res.coloring, res.corona_map)
    text = emit_coloring_json(doc)
    payload = json.loads(text)
    lines = text.splitlines()
    # one line per top-level key between the braces
    assert lines[0] == "{" and lines[-1] == "}"
    assert len(lines) == len(payload) + 2
    for line, key in zip(lines[1:-1], payload):
        name, value = line.rstrip(",").split(": ", 1)
        assert json.loads(name) == key
        # the whole value, arrays included, sits on its key's line
        assert json.loads(value) == payload[key]
    assert parse_coloring_json(text) == doc
    # documents written with one number per line stay readable
    old = json.dumps(payload, indent=2) + "\n"
    assert len(old.splitlines()) > 2 * len(doc.coloring.vertex_colors)
    assert parse_coloring_json(old) == doc


def test_coloring_json_matches_the_reference_writer_on_small_coronas():
    # the pairs whose output PINNED_OUTPUT_SHA256 pins
    gs = [g for ng in range(1, 7) for g in enumerate_subcubic(ng)]
    hs = [h for nh in range(1, 5) for h in enumerate_subcubic(nh)]
    for g in gs:
        for h in hs:
            res = color_corona(g, h)
            doc = coloring_document(res.graph, res.coloring, res.corona_map)
            assert emit_coloring_json(doc) == reference_emit_coloring_json(doc)


# any int the writer may meet: huge, negative and bool colors included
DOC_INT = st.integers(min_value=-2, max_value=12) | st.sampled_from([10**18, 2**70]) | st.booleans()


@st.composite
def drawn_documents(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    pairs = list(combinations(range(n), 2))
    edges = tuple(sorted(draw(st.lists(st.sampled_from(pairs), unique=True)))) if pairs else ()
    vcol = tuple(draw(st.lists(DOC_INT, min_size=n, max_size=n)))
    ecol = tuple(draw(st.lists(DOC_INT, min_size=len(edges), max_size=len(edges))))
    corona_map = draw(st.none() | st.builds(CoronaMap, DOC_INT, DOC_INT))
    return ColoringDocument(new_graph(n, edges), TotalColoring(vcol, ecol, draw(DOC_INT)), corona_map)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn_documents())
@example(ColoringDocument(new_graph(0, ()), TotalColoring((), (), 1)))
@example(ColoringDocument(new_graph(0, ()), TotalColoring((), (), 1), CoronaMap(0, 0)))
def test_coloring_json_matches_the_reference_writer_on_drawn_documents(doc):
    assert emit_coloring_json(doc) == reference_emit_coloring_json(doc)


def test_constructed_coloring_document_reverifies():
    res = color_corona(new_graph(2, [(0, 1)]), new_graph(2, [(0, 1)]))
    doc = coloring_document(res.graph, res.coloring, res.corona_map)
    back = parse_coloring_json(emit_coloring_json(doc))
    assert back == doc
    g = document_graph(back)
    assert g == res.graph
    report = verify_npd(g, document_coloring(back))
    assert report.ok


def test_coloring_document_is_a_graph_and_a_coloring():
    assert ColoringDocument._fields == ("graph", "coloring", "corona_map")
    res = color_corona(new_graph(3, [(0, 1), (1, 2)]), new_graph(2, [(0, 1)]))
    doc = coloring_document(res.graph, res.coloring, res.corona_map)
    assert (doc.graph, doc.coloring, doc.corona_map) == (res.graph, res.coloring, res.corona_map)
    back = parse_coloring_json(emit_coloring_json(doc))
    assert back.graph == doc.graph
    assert (document_graph(back), document_coloring(back)) == (res.graph, res.coloring)


def test_parsers_build_their_graph_once(monkeypatch):
    # each parser checks its pairs as it reads them and builds the Graph from
    # them as they stand; none validates the graph a second time
    from coronacolor import graph, graphio

    g = gen_random_subcubic(40, 5)
    doc = coloring_document(g, base_coloring(g))
    edge_list, graph6, document = emit_edge_list(g), emit_graph6(g), emit_coloring_json(doc)

    def refuse(*args):
        raise AssertionError("new_graph called")

    for module in (graph, graphio):
        monkeypatch.setattr(module, "new_graph", refuse, raising=False)
    assert parse_edge_list(edge_list) == g
    assert parse_graph6(graph6) == g
    back = parse_coloring_json(document)
    assert back == doc
    assert document_graph(back) == g
