"""color_corona and parse_coloring_json run with the cyclic garbage collector
paused, which is safe only while their calls create no reference cycles:
with the collector off, gc.collect() must find nothing after each call.  The
caller's setting of the collector must come back however the call ends."""

import gc
from contextlib import contextmanager

import pytest

from coronacolor import (
    canonical_form,
    color_corona,
    coloring_document,
    emit_coloring_json,
    enumerate_subcubic,
    gen_random_subcubic,
    new_graph,
    parse_coloring_json,
    parse_graph6,
)
from coronacolor.errors import NotSubcubicError, SchemaViolationError
from coronacolor.graph import collector_paused
from oracles import k


@contextmanager
def collector_off():
    """The collector off and drained for the block, the caller's setting after."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def collector_set(enabled):
    saved = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if saved else gc.disable)()


def cycle_free_pairs():
    # Case2 at the benchmark's size, both Case 1 paths (Case1_1 through the
    # pinned labelings), a K1 cone beside isolated vertices, an empty H, and
    # every 97th pair of the sweep's corpus (connected G up to 7 vertices
    # times every H up to 5)
    pairs = [(gen_random_subcubic(2000, 1), gen_random_subcubic(10, 2))]
    pairs += [(k(2), parse_graph6(h6)) for h6 in ("EUxo", "Ekcw")]
    pairs.append((new_graph(6, [(0, 1), (1, 2), (4, 5)]), k(1)))
    pairs.append((gen_random_subcubic(50, 3), new_graph(0)))
    gs = [g for n in range(1, 8) for g in enumerate_subcubic(n, connected=True)]
    hs = [h for n in range(1, 6) for h in enumerate_subcubic(n)]
    pairs += [(g, h) for g in gs for h in hs][::97]
    return pairs


def test_color_corona_and_the_parse_leave_no_cycles():
    pairs = cycle_free_pairs()
    with collector_off():
        for g, h in pairs:
            res = color_corona(g, h)
            assert gc.collect() == 0, (g, h)
        text = emit_coloring_json(coloring_document(res.graph, res.coloring, res.corona_map))
        assert gc.collect() == 0
        parse_coloring_json(text)
        assert gc.collect() == 0


def test_canonical_form_leaves_no_cycle():
    # its search recurses through a closure, which must not keep itself alive
    gs = [g for n in range(1, 8) for g in enumerate_subcubic(n, connected=True)]
    with collector_off():
        for g in gs:
            canonical_form(g)
            assert gc.collect() == 0, g


@pytest.mark.parametrize("enabled", [True, False])
def test_the_callers_collector_setting_comes_back(enabled):
    star = new_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])  # K_{1,4}
    res = color_corona(k(2), k(2))
    text = emit_coloring_json(coloring_document(res.graph, res.coloring, res.corona_map))
    with collector_set(enabled):
        color_corona(k(3), k(2))
        assert gc.isenabled() is enabled
        with pytest.raises(NotSubcubicError):
            color_corona(star, k(2))
        assert gc.isenabled() is enabled
        parse_coloring_json(text)
        assert gc.isenabled() is enabled
        with pytest.raises(SchemaViolationError):
            parse_coloring_json(text.replace('"max_color"', '"colors"'))
        assert gc.isenabled() is enabled


def test_collector_paused_runs_with_the_collector_off():
    seen = []

    @collector_paused
    def probe(x):
        seen.append(gc.isenabled())
        return x

    with collector_set(True):
        assert probe(7) == 7
        assert gc.isenabled()
    assert seen == [False]
    assert probe.__name__ == "probe"
