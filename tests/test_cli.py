import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from coronacolor import (
    color_corona,
    coloring_document,
    emit_coloring_json,
    emit_graph6,
    gen_random_subcubic,
    max_degree,
    new_graph,
    parse_coloring_json,
    parse_graph6,
    verify_npd,
)
from coronacolor.cli import main
from oracles import k, reference_report_to_json

SRC = str(Path(__file__).resolve().parent.parent / "src")


def write_g6(path, g):
    path.write_text(emit_graph6(g) + "\n", encoding="utf-8")
    return str(path)


def assert_one_line(err, prefix):
    """A documented failure: exactly one stderr line with its prefix, no traceback."""
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err


def test_color_k2_k2(tmp_path, capsys):
    gp = write_g6(tmp_path / "g.g6", k(2))
    out = tmp_path / "col.json"
    dot = tmp_path / "col.dot"
    code = main(["color", "--g", gp, "--h", gp, "--out", str(out), "--dot", str(dot)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "case=Case1_2 max_color=6 bound=6"
    payload = json.loads(out.read_text())
    assert payload["max_color"] == 6
    assert payload["corona_map"] == {"n_g": 2, "n_h": 2}
    assert "u_1^2" in dot.read_text()


def test_color_command_builds_no_corona_adjacency(tmp_path, monkeypatch, capsys):
    from coronacolor import cli

    results = []

    def keeping(g, h):
        results.append(color_corona(g, h))
        return results[-1]

    monkeypatch.setattr(cli, "color_corona", keeping)
    gp = write_g6(tmp_path / "g.g6", gen_random_subcubic(100, 2))
    hp = write_g6(tmp_path / "h.g6", gen_random_subcubic(8, 1))
    out, dot = tmp_path / "col.json", tmp_path / "col.dot"
    assert main(["color", "--g", gp, "--h", hp, "--out", str(out), "--dot", str(dot)]) == 0
    assert capsys.readouterr().out.startswith("case=")
    assert len(results) == 1 and results[0].graph.n == 900
    assert "adj" not in vars(results[0].graph)


def test_color_then_verify_both_modes(tmp_path):
    gp = write_g6(tmp_path / "g.g6", k(3))
    hp = write_g6(tmp_path / "h.g6", k(4))
    out = tmp_path / "col.json"
    assert main(["color", "--g", gp, "--h", hp, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    corona_path = write_g6(tmp_path / "corona.g6", color_corona(k(3), k(4)).graph)
    assert main(["verify", "--graph", corona_path, "--coloring", str(out)]) == 0
    assert main(["verify", "--graph", corona_path, "--coloring", str(out), "--mode", "set"]) == 0
    # tamper: recolor one corona edge into a clash
    doc["edge_colors"][3] = doc["edge_colors"][4]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--graph", corona_path, "--coloring", str(bad)]) == 1


def test_verify_detects_product_tampering(tmp_path, capsys):
    gp = write_g6(tmp_path / "g.g6", k(2))
    out = tmp_path / "col.json"
    assert main(["color", "--g", gp, "--h", gp, "--out", str(out)]) == 0
    res = color_corona(k(2), k(2))
    corona_path = write_g6(tmp_path / "corona.g6", res.graph)
    capsys.readouterr()
    # recoloring u_1^1 from 4 to 6 keeps the coloring proper but drags its
    # star product from 20 up to 30 = its neighbour's product
    doc = json.loads(out.read_text())
    assert doc["vertex_colors"][2] == 4
    doc["vertex_colors"][2] = 6
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--graph", corona_path, "--coloring", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert {v["kind"] for v in payload["violations"]} == {"ProductCollision"}
    assert payload["violations"][0]["witness"] == [30, 30]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="Python before 3.10.7 writes ints of any length")
def test_verify_writes_products_past_the_int_digit_limit(tmp_path, capsys):
    # K1 times a 1,600-vertex H: the hub's star multiplies 1,600 distinct spoke
    # colors, a product past the 4,300 digits Python writes by default
    res = color_corona(k(1), gen_random_subcubic(1600, 2))
    doc = tmp_path / "col.json"
    doc.write_text(emit_coloring_json(coloring_document(res.graph, res.coloring, res.corona_map)))
    corona_path = write_g6(tmp_path / "corona.g6", res.graph)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, whatever ran before
    try:
        assert main(["verify", "--graph", corona_path, "--coloring", str(doc)]) == 0
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        report = verify_npd(res.graph, res.coloring)
        assert len(str(max(report.products))) > 4300
        want = reference_report_to_json(report)
    finally:
        sys.set_int_max_str_digits(limit)
    assert capsys.readouterr().out == want + "\n"


def test_verify_schema_error(tmp_path, capsys):
    gp = write_g6(tmp_path / "g.g6", k(2))
    bad = tmp_path / "bad.json"
    bad.write_text("{\"n\": 1}", encoding="utf-8")
    assert main(["verify", "--graph", gp, "--coloring", str(bad)]) == 2
    assert_one_line(capsys.readouterr().err, "parse error:")


def test_verify_graph_document_mismatch(tmp_path, capsys):
    gp = write_g6(tmp_path / "g.g6", k(2))
    out = tmp_path / "col.json"
    assert main(["color", "--g", gp, "--h", gp, "--out", str(out)]) == 0
    capsys.readouterr()
    # the document describes the corona, not the two-vertex factor
    assert main(["verify", "--graph", gp, "--coloring", str(out)]) == 2
    captured = capsys.readouterr()
    assert_one_line(captured.err, "parse error:")
    assert captured.out == ""


def test_color_exit_codes(tmp_path, capsys):
    star = new_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    sp = write_g6(tmp_path / "s.g6", star)
    gp = write_g6(tmp_path / "g.g6", k(2))
    assert main(["color", "--g", sp, "--h", gp]) == 3
    assert_one_line(capsys.readouterr().err, "not subcubic:")
    junk = tmp_path / "junk.g6"
    junk.write_text("!!!not graph6!!!\n", encoding="utf-8")
    assert main(["color", "--g", str(junk), "--h", gp]) == 2
    assert_one_line(capsys.readouterr().err, "parse error:")
    assert main(["color", "--g", str(tmp_path / "missing.g6"), "--h", gp]) == 2
    assert_one_line(capsys.readouterr().err, "parse error:")


def test_chi_command(tmp_path, capsys):
    gp = write_g6(tmp_path / "g.g6", k(2))
    wit = tmp_path / "wit.json"
    assert main(["chi", "--graph", gp, "--out", str(wit)]) == 0
    assert capsys.readouterr().out.strip() == "3"
    payload = json.loads(wit.read_text())
    assert payload["max_color"] == 3
    single = write_g6(tmp_path / "one.g6", new_graph(1))
    assert main(["chi", "--graph", single]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1"
    # without --out the witness document follows the number on stdout
    assert main(["chi", "--graph", gp]) == 0
    first, rest = capsys.readouterr().out.split("\n", 1)
    assert first == "3"
    doc = parse_coloring_json(rest)
    assert doc.graph == k(2) and doc.coloring.max_color == 3
    assert verify_npd(doc.graph, doc.coloring).ok
    c4 = write_g6(tmp_path / "c4.g6", new_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert main(["chi", "--graph", c4, "--out", str(wit)]) == 0
    assert int(capsys.readouterr().out.strip()) <= 5


def test_chi_budget_exit(tmp_path, capsys):
    c5 = write_g6(tmp_path / "c5.g6", new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))
    assert main(["chi", "--graph", c5, "--budget", "1"]) == 5
    assert_one_line(capsys.readouterr().err, "budget exceeded:")


def test_chi_searches_once_per_component_and_palette(tmp_path, monkeypatch, capsys):
    # chi prints and writes the coloring the oracle proved, searching nothing more
    from coronacolor import search

    palettes = []
    real = search._search

    def counting(g, k, *args, **kwargs):
        palettes.append(k)
        return real(g, k, *args, **kwargs)

    monkeypatch.setattr(search, "_search", counting)
    search.chi_prod_exact(k(2))
    assert palettes == [2, 3]
    gp = write_g6(tmp_path / "g.g6", k(2))
    assert main(["chi", "--graph", gp, "--out", str(tmp_path / "w.json")]) == 0
    assert capsys.readouterr().out == "3\n"
    assert palettes == [2, 3] * 2


def test_color_fallback_budget_exit(tmp_path, monkeypatch, capsys):
    from coronacolor import cli, construct
    from coronacolor.errors import BudgetExceededError

    def explode(*args, **kwargs):
        raise BudgetExceededError("forced")

    monkeypatch.setattr(cli, "color_corona", explode)
    gp = write_g6(tmp_path / "g.g6", k(2))
    assert main(["color", "--g", gp, "--h", gp]) == 4
    assert_one_line(capsys.readouterr().err, "budget exceeded:")
    monkeypatch.undo()

    # the base search on G runs out too: same exit code, one line, no traceback
    def exhausted(g):
        raise BudgetExceededError("forced base")

    monkeypatch.setattr(construct, "base_coloring", exhausted)
    capsys.readouterr()
    assert main(["color", "--g", gp, "--h", gp]) == 4
    err = capsys.readouterr().err
    assert err == "budget exceeded: forced base\n"


def test_color_internal_error_exit(tmp_path, monkeypatch, capsys):
    from coronacolor import construct

    # copy 1's position-1 vertex takes position 2's color, max_degree(K3)+4:
    # the coloring fails its one verification pass
    def clashing_pick(v, base, s_min, v_star):
        return 2 + 4

    monkeypatch.setattr(construct, "min_copy_color", clashing_pick)
    gp = write_g6(tmp_path / "g.g6", k(3))
    assert main(["color", "--g", gp, "--h", gp]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_line(captured.err, "internal error: constructed coloring failed verification:")


def test_degenerate_inputs_exit_cleanly(tmp_path, capsys):
    assert main(["gen", "--n", "0"]) == 2
    assert_one_line(capsys.readouterr().err, "bad instance:")
    # vertex counts past the edge-list limit, or whose graph6 text would run
    # to gigabytes, are refused before a graph or its text is built
    for args in (["--n", "10000000000"], ["--n", "10000000000", "--format", "edgelist"],
                 ["--n", "300000"]):
        assert main(["gen", *args, "--out", str(tmp_path / "big.out")]) == 2
        assert_one_line(capsys.readouterr().err, "bad instance:")
        assert not (tmp_path / "big.out").exists()
    empty = tmp_path / "empty.g6"
    empty.write_text("?\n", encoding="utf-8")  # zero-vertex graph
    gp = write_g6(tmp_path / "g.g6", k(2))
    assert main(["color", "--g", str(empty), "--h", gp]) == 2
    assert_one_line(capsys.readouterr().err, "bad instance:")
    assert main(["chi", "--graph", str(empty)]) == 2
    assert_one_line(capsys.readouterr().err, "bad instance:")
    # a 12-byte header promising 10**8 vertices
    big = tmp_path / "big.el"
    big.write_text("100000000 0", encoding="utf-8")
    assert main(["color", "--g", str(big), "--h", str(big), "--format", "edgelist"]) == 2
    assert_one_line(capsys.readouterr().err, "parse error:")
    # two factors within the limit whose corona has 10**10 vertices: refused
    # before the corona is built
    wide = tmp_path / "wide.el"
    wide.write_text("100000 0\n", encoding="utf-8")
    assert main(["color", "--g", str(wide), "--h", str(wide), "--format", "edgelist"]) == 2
    captured = capsys.readouterr()
    assert_one_line(captured.err, "bad instance:")
    assert captured.out == ""
    # sizes no random pair can have, a negative count, a negative oracle size
    # (which would turn the cross-check off unseen), a corona past the
    # limit, and a factor whose graph6 record would run to gigabytes
    for bad in (["--ng-max", "0", "--nh-max", "3", "--count", "4"],
                ["--ng-max", "3", "--nh-max", "0", "--count", "4"],
                ["--ng-max", "3", "--nh-max", "3", "--count", "-1"],
                ["--ng-max", "3", "--nh-max", "3", "--oracle-max", "-1"],
                ["--ng-max", "100000", "--nh-max", "100000", "--count", "1"],
                ["--ng-max", "1", "--nh-max", "500000", "--count", "1"]):
        assert main(["sweep", *bad]) == 2
        captured = capsys.readouterr()
        assert_one_line(captured.err, "bad instance:")
        assert captured.out == ""
    # a budget below one node is refused before any search, even on K1
    k1 = write_g6(tmp_path / "k1.g6", k(1))
    for budget in ("0", "-1"):
        for graph in (gp, k1):
            assert main(["chi", "--graph", graph, "--budget", budget]) == 2
            captured = capsys.readouterr()
            assert_one_line(captured.err, "bad instance:")
            assert captured.out == ""
    # bytes that are not UTF-8
    raw = tmp_path / "raw.bin"
    raw.write_bytes(b"\xff\xfe\x00b")
    doc = tmp_path / "c.json"
    assert main(["chi", "--graph", gp, "--out", str(doc)]) == 0
    capsys.readouterr()
    # a 2 kB coloring document of 1,000 nested arrays
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 1000 + "]" * 1000, encoding="utf-8")
    for args in (["chi", "--graph", str(raw)],
                 ["verify", "--graph", str(raw), "--coloring", str(doc)],
                 ["verify", "--graph", gp, "--coloring", str(raw)],
                 ["verify", "--graph", gp, "--coloring", str(deep)]):
        assert main(args) == 2
        assert_one_line(capsys.readouterr().err, "parse error:")
    # a graph6 file of blank lines holds no graph
    blank = tmp_path / "blank.g6"
    blank.write_text("\n  \n\n", encoding="utf-8")
    for args in (["chi", "--graph", str(blank)],
                 ["verify", "--graph", str(blank), "--coloring", str(doc)]):
        assert main(args) == 2
        assert_one_line(capsys.readouterr().err, "parse error: empty graph6 text")


def test_gen_command(tmp_path, capsys):
    assert main(["gen", "--n", "1", "--seed", "0"]) == 0
    assert capsys.readouterr().out.strip() == "@"
    a = tmp_path / "a.g6"
    b = tmp_path / "b.g6"
    assert main(["gen", "--n", "30", "--seed", "9", "--out", str(a)]) == 0
    assert main(["gen", "--n", "30", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    g = parse_graph6(a.read_text())
    assert g.n == 30 and max_degree(g) <= 3
    el = tmp_path / "a.el"
    assert main(["gen", "--n", "12", "--seed", "4", "--out", str(el), "--format", "edgelist"]) == 0
    assert el.read_text().startswith("12 ")


def test_sweep_exhaustive(tmp_path):
    log = tmp_path / "sweep.jsonl"
    assert main([
        "sweep", "--ng-max", "3", "--nh-max", "3", "--oracle-max", "3", "--log", str(log)
    ]) == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    gs = 1 + 1 + 2  # connected subcubic classes with 1..3 vertices
    hs = 1 + 2 + 4  # all subcubic classes with 1..3 vertices
    assert len(records) == gs * hs
    for r in records:
        assert r["verified"] is True
        assert r["max_color"] <= r["bound"]
        assert r["chi_prod"] is not None and r["chi_prod"] <= r["bound"]


def test_sweep_random_mode_is_deterministic(tmp_path):
    log1, log2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["sweep", "--ng-max", "6", "--nh-max", "4", "--count", "25", "--seed", "11"]
    assert main(args + ["--log", str(log1)]) == 0
    assert main(args + ["--log", str(log2)]) == 0

    def strip_wall(path):
        out = []
        for line in path.read_text().splitlines():
            r = json.loads(line)
            r.pop("wall_ms")
            out.append(r)
        return out

    assert strip_wall(log1) == strip_wall(log2)


def test_sweep_log_appends(tmp_path):
    log = tmp_path / "log.jsonl"
    args = ["sweep", "--ng-max", "2", "--nh-max", "1", "--log", str(log)]
    assert main(args) == 0
    first = [json.loads(x) for x in log.read_text().splitlines()]
    assert main(args) == 0
    both = [json.loads(x) for x in log.read_text().splitlines()]
    for r in first + both:
        r.pop("wall_ms")
    assert both == first + first


def test_sweep_streams_records_before_a_counterexample(tmp_path, monkeypatch, capsys):
    from coronacolor import cli

    calls = []
    real = cli.color_corona

    def failing_third(g, h):
        calls.append((g, h))
        if len(calls) == 3:
            raise AssertionError("injected failure")
        return real(g, h)

    monkeypatch.setattr(cli, "color_corona", failing_third)
    log = tmp_path / "log.jsonl"
    assert main(["sweep", "--ng-max", "2", "--nh-max", "2", "--log", str(log)]) == 1
    assert_one_line(capsys.readouterr().err, "counterexample: ")
    records = [json.loads(x) for x in log.read_text().splitlines()]
    assert [(r["g6_g"], r["g6_h"]) for r in records] == [
        (emit_graph6(g), emit_graph6(h)) for g, h in calls[:2]
    ]


def test_sweep_oracle_failures_exit_as_chi_does(tmp_path, monkeypatch, capsys):
    # the oracle refusing its search set-up (ValueError) or running out of
    # budget is no counterexample: it exits 2 or 5, as chi does, on one line
    from coronacolor import cli
    from coronacolor.errors import BudgetExceededError

    real = cli.chi_prod_exact
    for error, code, prefix in (
        (ValueError("search set-up too large"), 2, "bad instance: "),
        (BudgetExceededError("search budget spent"), 5, "budget exceeded: "),
    ):
        calls = []

        def failing_third(g, *args):
            calls.append(g)
            if len(calls) == 3:
                raise error
            return real(g, *args)

        monkeypatch.setattr(cli, "chi_prod_exact", failing_third)
        log = tmp_path / f"log{code}.jsonl"
        args = ["sweep", "--ng-max", "2", "--nh-max", "2", "--oracle-max", "2", "--log", str(log)]
        assert main(args) == code
        assert_one_line(capsys.readouterr().err, prefix)
        # the records written before the failure stay in the log
        records = [json.loads(x) for x in log.read_text().splitlines()]
        assert [r["chi_prod"] for r in records] == [real(g).max_color for g in calls[:2]]


def test_random_sweep_draws_each_pair_as_it_reaches_it(tmp_path, monkeypatch, capsys):
    from coronacolor import cli

    generated = []
    real_gen = cli.gen_random_subcubic

    def counting_gen(n, seed):
        generated.append((n, seed))
        return real_gen(n, seed)

    colored = []
    real_color = cli.color_corona

    def failing_third(g, h):
        colored.append((g, h))
        if len(colored) == 3:
            raise AssertionError("injected failure")
        return real_color(g, h)

    monkeypatch.setattr(cli, "gen_random_subcubic", counting_gen)
    monkeypatch.setattr(cli, "color_corona", failing_third)
    log = tmp_path / "log.jsonl"
    args = ["sweep", "--ng-max", "4", "--nh-max", "4", "--count", "1000", "--log", str(log)]
    assert main(args) == 1
    assert_one_line(capsys.readouterr().err, "counterexample: ")
    assert len(log.read_text().splitlines()) == 2
    # two factors for each of the three pairs reached, none for the 997 after
    assert len(generated) == 6


def test_unwritable_outputs_exit_2_without_traceback(tmp_path, capsys):
    gp = write_g6(tmp_path / "g.g6", k(2))
    missing = tmp_path / "no" / "such" / "dir"
    for argv in (
        ["color", "--g", gp, "--h", gp, "--out", str(missing / "col.json")],
        ["color", "--g", gp, "--h", gp, "--dot", str(missing / "col.dot")],
        ["chi", "--graph", gp, "--out", str(missing / "witness.json")],
        ["sweep", "--ng-max", "2", "--nh-max", "1", "--log", str(missing / "log.jsonl")],
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert_one_line(capsys.readouterr().err, "write error: ")
    assert not (tmp_path / "no").exists()
    # gen keeps its own code for the same failure
    assert main(["gen", "--n", "3", "--out", str(missing / "g.g6")]) == 1
    assert_one_line(capsys.readouterr().err, "write error: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_failing_stdout_exits_2_without_traceback(tmp_path, unbuffered):
    # a stdout that takes no bytes is a write error like an unwritable file,
    # and nothing is reported again when the interpreter flushes it at exit;
    # redirected stdout is block-buffered unless PYTHONUNBUFFERED is set
    gp = write_g6(tmp_path / "g.g6", k(2))
    col = tmp_path / "col.json"
    assert main(["color", "--g", gp, "--h", gp, "--out", str(col)]) == 0
    corona_path = write_g6(tmp_path / "corona.g6", color_corona(k(2), k(2)).graph)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {key: val for key, val in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = path
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (
        ["color", "--g", gp, "--h", gp],
        ["verify", "--graph", corona_path, "--coloring", str(col)],
        ["chi", "--graph", gp],
        ["sweep", "--ng-max", "2", "--nh-max", "1"],
    ):
        with open("/dev/full", "w") as full:
            run = subprocess.run(
                [sys.executable, "-m", "coronacolor.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        assert run.returncode == 2, (argv, run.stderr)
        assert_one_line(run.stderr, "write error: ")


# the records of `sweep --ng-max 7 --nh-max 5 --oracle-max 7` without wall_ms,
# one json.dumps(record) + "\n" each (4,633 records, every one cross-checked
# by the oracle); run once and shared by the pin and the census below
@pytest.fixture(scope="module")
def exhaustive_records():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["sweep", "--ng-max", "7", "--nh-max", "5", "--oracle-max", "7"]) == 0
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    for record in records:
        record.pop("wall_ms")
    return records


# SHA-256 of those records; a refactor that keeps the construction, the oracle
# and the record fields byte-identical leaves it unchanged
SWEEP_RECORDS_SHA256 = "67c01f3523e83762949d32e25a23088eaf32e326fb41637f79dd049e91a7deda"


def test_exhaustive_sweep_records_are_pinned(exhaustive_records):
    digest = hashlib.sha256()
    for record in exhaustive_records:
        digest.update((json.dumps(record) + "\n").encode())
    assert len(exhaustive_records) == 4633
    assert digest.hexdigest() == SWEEP_RECORDS_SHA256


def test_exhaustive_census(exhaustive_records):
    # the exact index on the whole corpus: chi''_prod(G∘H) - Delta(G∘H) is 1
    # or 2, except K1∘K2 = K3 and K1∘K4 = K5, which need all Delta+3 colors.
    # Delta(G∘H) = max_degree(G) + |V(H)|.  A measured fact about small
    # graphs, not a claim of the paper; README tabulates the counts
    gaps = Counter()
    for r in exhaustive_records:
        gap = r["chi_prod"] - (r["delta_g"] + r["n_h"])
        gaps[gap] += 1
        exceptional = (r["g6_g"], r["g6_h"]) in (("@", "A_"), ("@", "C~"))
        assert gap == 3 if exceptional else gap in (1, 2)
        assert r["chi_prod"] <= r["max_color"] <= r["bound"]
    assert gaps == {2: 3451, 1: 1180, 3: 2}


def test_chi_refuses_a_search_setup_past_its_limit(tmp_path, capsys):
    # the 8,000-leaf star is a 55 kB file whose search set-up, built before
    # the budget counts a node, would take gigabytes
    star = tmp_path / "star.el"
    star.write_text("8001 8000\n" + "".join(f"0 {v}\n" for v in range(1, 8001)), encoding="utf-8")
    assert main(["chi", "--graph", str(star), "--format", "edgelist"]) == 2
    captured = capsys.readouterr()
    assert_one_line(captured.err, "bad instance:")
    assert captured.out == ""
