"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, kind):
    proc = run_bench(ROOT, "--smoke", "--workload", workload, "--seed", "3",
                     "--seconds", "0.3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def workloads():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    return workloads


def test_checks_fire_on_a_corrupted_coloring(workloads, tmp_path):
    w = workloads.WORKLOADS["case2_random"]
    inputs = w.setup(3, True, tmp_path)
    raw, _, _ = w.run_pass(inputs)
    assert w.check(inputs, raw).failed == 0
    (result, seconds), = raw
    a, b = result.graph.edges[0]
    clash = list(result.coloring.vertex_colors)
    clash[a] = clash[b]
    over = list(result.coloring.edge_colors)
    over[0] = result.trace.palette_bound + 1
    for bad, why in (
        (dataclasses.replace(result.coloring, vertex_colors=tuple(clash)), "verify_npd"),
        (dataclasses.replace(result.coloring, edge_colors=tuple(over)), "palette bound"),
    ):
        outcome = w.check(inputs, [(result._replace(coloring=bad), seconds)])
        assert outcome.failed == 1 and why in outcome.reasons[0]
    outcome = w.check(inputs, [(RuntimeError("boom"), seconds)])
    assert outcome.failed == 1 and "boom" in outcome.reasons[0]


def test_checks_fire_on_a_corrupted_sweep_record(workloads, tmp_path):
    w = workloads.WORKLOADS["sweep_exhaustive"]
    inputs = w.setup(0, True, tmp_path)
    (code, stdout, stderr, colorings), _, _ = w.run_pass(inputs)
    assert w.check(inputs, (code, stdout, stderr, colorings)).failed == 0
    lines = stdout.splitlines()
    rec = json.loads(lines[-1])
    rec["max_color"] = rec["bound"] + 1
    corrupted = "\n".join([*lines[:-1], json.dumps(rec)])
    assert w.check(inputs, (code, corrupted, stderr, colorings)).failed == 1
    vc, ec = workloads.read_colorings(colorings)[0]
    first_dropped = colorings[4 + len(vc) + len(ec):]
    assert w.check(inputs, (code, "\n".join(lines[1:]), stderr, first_dropped)).failed == 1
    truncated = "\n".join([*lines[:-1], lines[-1][:40]])
    assert w.check(inputs, (code, truncated, stderr, colorings)).failed == 1
    del rec["chi_prod"]
    missing = "\n".join([*lines[:-1], json.dumps(rec)])
    assert w.check(inputs, (code, missing, stderr, colorings)).failed == 1


def test_checks_fire_on_a_corrupted_sweep_coloring(workloads, tmp_path):
    w = workloads.WORKLOADS["sweep_exhaustive"]
    inputs = w.setup(0, True, tmp_path)
    (code, stdout, stderr, colorings), _, _ = w.run_pass(inputs)
    decoded = workloads.read_colorings(colorings)
    assert len(decoded) == len(stdout.splitlines())
    # the last call's first vertex takes the color of its first neighbour
    nv, ne = len(decoded[-1][0]), len(decoded[-1][1])
    last = len(colorings) - nv - ne
    rec = json.loads(stdout.splitlines()[-1])
    g = workloads.graphio.parse_graph6(rec["g6_g"])
    clash = bytearray(colorings)
    clash[last] = colorings[last + g.adj[0][0]]
    outcome = w.check(inputs, (code, stdout, stderr, bytes(clash)))
    assert outcome.failed == 1 and "verify_npd" in outcome.reasons[0]
    outcome = w.check(inputs, (code, stdout, stderr, colorings[:-1]))
    assert outcome.failed == 1 and "no coloring" in outcome.reasons[-1]
