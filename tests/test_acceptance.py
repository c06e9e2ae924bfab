"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criteria with stated wall-clock expectations assert them too; the
margins observed during development are large.
"""

import json
import sys
import time
from itertools import combinations

from coronacolor import (
    chi_prod_exact,
    color_corona,
    corona,
    document_coloring,
    document_graph,
    emit_graph6,
    enumerate_subcubic,
    gen_random_subcubic,
    max_degree,
    new_graph,
    npdtc_search,
    parse_coloring_json,
    verify_npd,
    vizing_color,
)
from coronacolor.cli import main
from oracles import chi_prime_exact, k, product_at


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    sys.stdout.flush()
    assert ok, line


def test_criterion_1_bound_exhaustive(tmp_path):
    """cmd_color succeeds, verifies, and respects the bound on every pair with
    connected G (2..6 vertices) and any subcubic H (1..5 vertices)."""
    start = time.time()
    gs = [g for n in range(2, 7) for g in enumerate_subcubic(n, connected=True)]
    hs = [h for n in range(1, 6) for h in enumerate_subcubic(n)]
    gpath, hpath, out = tmp_path / "g.g6", tmp_path / "h.g6", tmp_path / "col.json"
    pairs = 0
    for g in gs:
        gpath.write_text(emit_graph6(g) + "\n", encoding="utf-8")
        for h in hs:
            hpath.write_text(emit_graph6(h) + "\n", encoding="utf-8")
            code = main(["color", "--g", str(gpath), "--h", str(hpath), "--out", str(out)])
            assert code == 0, (emit_graph6(g), emit_graph6(h))
            doc = parse_coloring_json(out.read_text(encoding="utf-8"))
            cg = document_graph(doc)
            bound = max_degree(g) + h.n + 3
            assert verify_npd(cg, document_coloring(doc)).ok
            assert doc.coloring.max_color <= bound, (emit_graph6(g), emit_graph6(h))
            pairs += 1
    elapsed = time.time() - start
    report(1, elapsed < 300, f"{pairs} exhaustive pairs colored and verified in {elapsed:.1f}s")


def test_criterion_2_oracle_cross_check():
    """chi_prod_exact(corona(G,H)) <= bound for every pair with n_g, n_h <= 3."""
    start = time.time()
    gs = [g for n in range(1, 4) for g in enumerate_subcubic(n)]
    hs = [h for n in range(1, 4) for h in enumerate_subcubic(n)]
    pairs = 0
    for g in gs:
        for h in hs:
            cg, _ = corona(g, h)
            bound = max_degree(cg) + 3
            chi = chi_prod_exact(cg).max_color
            assert chi <= bound, (emit_graph6(g), emit_graph6(h), chi, bound)
            # the construction is a witness, so the exact index can't exceed it
            res = color_corona(g, h)
            assert chi <= res.coloring.max_color
            pairs += 1
    elapsed = time.time() - start
    report(2, elapsed < 600, f"{pairs} pairs, all exact indices within bound, {elapsed:.1f}s")


def test_criterion_3_base_index():
    value = chi_prod_exact(k(2)).max_color
    report(3, value == 3, f"exact distinguishing total index of a single edge = {value}")


def test_criterion_4_hand_run_instance():
    res = color_corona(k(2), k(2))
    prods = verify_npd(res.graph, res.coloring)
    g_products = {prods.products[0], prods.products[1]}
    copies_ok = True
    for j in (1, 2):
        per_copy = {
            prods.products[res.corona_map.copy_vertex(j, 1)],
            prods.products[res.corona_map.copy_vertex(j, 2)],
        }
        copies_ok = copies_ok and per_copy == {20, 30}
    ok = prods.ok and g_products == {90, 180} and copies_ok
    report(4, ok, f"products {sorted(prods.products)}, verifier ok={prods.ok}")


def test_criterion_5_edge_coloring_bound():
    start = time.time()
    import random

    rng = random.Random(20240901)
    for i in range(1000):
        g = gen_random_subcubic(rng.randint(1, 50), i)
        ec = vizing_color(g)
        assert len(ec) == len(g.edges)
        for v in range(g.n):
            cs = [c for e, c in zip(g.edges, ec) if v in e]
            assert len(set(cs)) == len(cs) and all(1 <= c <= max_degree(g) + 1 for c in cs)
    checked = 0
    from coronacolor import canonical_form

    seen = set()
    for n in range(2, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            if bin(mask).count("1") > 8:
                continue
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            g = new_graph(n, edges)
            key = canonical_form(g)
            if key in seen:
                continue
            seen.add(key)
            value, _ = chi_prime_exact(g)
            d = max_degree(g)
            assert value in ((d, d + 1) if edges else (1,)), (edges, value)
            checked += 1
    # sparse shapes that need more than six vertices for their eight edges
    for trial in range(200):
        n = rng.randint(7, 14)
        pool = list(combinations(range(n), 2))
        rng.shuffle(pool)
        g = new_graph(n, pool[: rng.randint(0, 8)])
        value, witness = chi_prime_exact(g)
        d = max_degree(g)
        assert value in ((d, d + 1) if g.edges else (1,))
        for v in range(g.n):
            cs = [c for e, c in zip(g.edges, witness) if v in e]
            assert len(set(cs)) == len(cs)
        checked += 1
    elapsed = time.time() - start
    report(5, elapsed < 120, f"1000 random colorings proper in range; {checked} exact values in {{max_degree, max_degree+1}}; {elapsed:.1f}s")


def test_criterion_6_base_coloring_existence():
    start = time.time()
    count = 0
    for n in range(1, 9):
        for g in enumerate_subcubic(n, connected=True):
            tc = npdtc_search(g, max_degree(g) + 3)
            assert tc is not None, g.edges
            assert verify_npd(g, tc).ok
            count += 1
    elapsed = time.time() - start
    report(6, elapsed < 600, f"{count} connected subcubic graphs n<=8 all colorable at max_degree+3; {elapsed:.1f}s")


def test_criterion_7_case_path_coverage():
    from coronacolor import parse_graph6

    h = parse_graph6("EUxo")
    res = color_corona(k(2), h)
    case11 = res.trace.case_tag == "Case1_1" and verify_npd(res.graph, res.coloring).ok

    single = color_corona(new_graph(1), k(2))
    fb1 = (
        single.trace.case_tag == "Fallback"
        and single.coloring.max_color <= single.trace.palette_bound
        and verify_npd(single.graph, single.coloring).ok
    )
    empty_h = color_corona(k(2), new_graph(0))
    fb2 = (
        empty_h.trace.case_tag == "Fallback"
        and empty_h.coloring.max_color <= empty_h.trace.palette_bound
        and verify_npd(empty_h.graph, empty_h.coloring).ok
    )
    report(7, case11 and fb1 and fb2, "Case1_1 witnessed with default settings; fallback verified for single-vertex G and empty H")


def test_criterion_8_property_suite(tmp_path):
    # Case-2 strict per-copy product chains over the full criterion-1 corpus
    gs = [g for n in range(2, 7) for g in enumerate_subcubic(n, connected=True)]
    hs = [h for n in range(1, 6) for h in enumerate_subcubic(n)]
    chains = 0
    for g in gs:
        for h in hs:
            res = color_corona(g, h)
            case2_comps = [c for c, t in res.trace.component_cases if t == "Case2"]
            if not case2_comps:
                continue
            sigma = res.trace.sigma
            for comp in case2_comps:
                for v in comp:
                    chain = [
                        product_at(res.graph, res.coloring, res.corona_map.copy_vertex(v + 1, u + 1))
                        for u in sigma
                    ]
                    assert all(a < b for a, b in zip(chain, chain[1:])), (g.edges, h.edges)
                    chains += 1
    # round trips
    from coronacolor import emit_coloring_json, parse_graph6

    for n in range(0, 6):
        for g in enumerate_subcubic(n) if n else [new_graph(0)]:
            assert parse_graph6(emit_graph6(g)) == g
    res = color_corona(k(3), k(4))
    from coronacolor import coloring_document

    doc = coloring_document(res.graph, res.coloring, res.corona_map)
    assert parse_coloring_json(emit_coloring_json(doc)) == doc
    # determinism of commands under fixed seeds
    log1, log2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["sweep", "--ng-max", "5", "--nh-max", "4", "--count", "20", "--seed", "7"]
    assert main(args + ["--log", str(log1)]) == 0
    assert main(args + ["--log", str(log2)]) == 0
    rec1 = [json.loads(x) for x in log1.read_text().splitlines()]
    rec2 = [json.loads(x) for x in log2.read_text().splitlines()]
    for r in rec1 + rec2:
        r.pop("wall_ms")
    assert rec1 == rec2
    gp = tmp_path / "g.g6"
    gp.write_text(emit_graph6(k(2)) + "\n", encoding="utf-8")
    outs = []
    for name in ("x.json", "y.json"):
        out = tmp_path / name
        assert main(["color", "--g", str(gp), "--h", str(gp), "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    report(8, True, f"{chains} strict chains, graph6 and JSON round trips, deterministic commands")


def test_criterion_9_scale_smoke():
    start = time.time()
    g = gen_random_subcubic(200, 1)
    h = gen_random_subcubic(100, 2)
    res = color_corona(g, h)
    assert verify_npd(res.graph, res.coloring).ok
    assert res.coloring.max_color <= res.trace.palette_bound
    elapsed = time.time() - start
    report(9, elapsed < 10.0, f"corona on {res.graph.n} vertices colored and verified in {elapsed:.2f}s")
