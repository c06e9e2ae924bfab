"""The four benchmark workloads: inputs from a seed, one timed pass, and the
checks made on its outputs outside the timed region.

Why each workload exists (see README.md for the metric map):

* ``case2_random``: one large Case2 call, dominated by the base search on G.
* ``matching_cli``: the ``color`` command on a perfect matching, so 800
  single-edge components, each subgraphed and verified on its own.
* ``tiny_h_fallback``: leaf-rich random G crossed with K1, 2K1 and K2.  With
  K1 the whole component fails verification and is recolored by exact
  search; 2K1 and K2 take the structured path on the same G.
* ``sweep_exhaustive``: the exhaustive ``sweep`` command in a fresh process,
  many tiny calls plus the exact oracle and the enumeration.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from coronacolor import cli, construct, graphio
from coronacolor.errors import CoronaColorError
from coronacolor.graph import Graph, gen_random_subcubic, new_graph
from coronacolor.search import TotalColoring
from coronacolor.verify import verify_npd

from child import read_colorings
from speed import SpeedSampler
from tracer import component_counts

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


@dataclass
class Outcome:
    """What the checks found in one pass."""

    attempted: int
    failed: int = 0
    digest: str = ""
    elements: int = 0
    instance_ms: list[float] = field(default_factory=list)
    structured: int = 0
    verify_failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(what)


def expected_corona(g: Graph, h: Graph) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """Vertex count, canonical edges and palette bound of g∘h, built here
    from the definition rather than by the package."""
    n_g, n_h = g.n, h.n
    edges = list(g.edges)
    for j in range(n_g):
        base = n_g + j * n_h
        edges.extend((base + a, base + b) for a, b in h.edges)
        edges.extend((j, base + i) for i in range(n_h))
    edges.sort()
    delta = max(len(nb) for nb in g.adj) + n_h
    if n_h:
        delta = max(delta, max(len(nb) for nb in h.adj) + 1)
    return n_g * (1 + n_h), tuple(edges), delta + 3


def check_coloring(g: Graph, h: Graph, graph: Graph | None, coloring) -> str | None:
    """Why a returned coloring of g∘h is wrong, or None when it is right.

    With ``graph`` None the caller has only the colors, which then color g∘h
    as built here, edges in canonical order."""
    n, edges, bound = expected_corona(g, h)
    if graph is None:
        graph = new_graph(n, edges)
    elif graph.n != n or graph.edges != edges:
        return "returned graph is not the corona product"
    if max((*coloring.vertex_colors, *coloring.edge_colors, coloring.max_color)) > bound:
        return f"coloring exceeds the palette bound {bound}"
    try:
        report = verify_npd(graph, coloring)
    except CoronaColorError as exc:
        return f"verify_npd refused the coloring: {exc}"
    if not report.ok:
        return f"verify_npd rejected the coloring: {report.violations[0].kind}"
    return None


def coloring_digest(h, coloring) -> None:
    h.update(json.dumps([coloring.vertex_colors, coloring.edge_colors]).encode())


def own_peak_rss_kb() -> int:
    """Peak RSS of this process so far.  It only ever rises, so only a reading
    taken before the first check is the program's own."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def leafy_subcubic(n: int, rng: random.Random) -> Graph:
    """Connected random subcubic graph with about n/3 leaves.

    A random tree (each new vertex joins a random vertex of degree below 3)
    whose degree-2 vertices are then paired up by chords.  Leaves with base
    color 1 on an edge of color 2 are what make the K1 corona fail its
    structured check, and with hundreds of leaves that happens on every seed.
    """
    deg = [0] * n
    edges = []
    open_ = [0]
    for v in range(1, n):
        i = rng.randrange(len(open_))
        u = open_[i]
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
        if deg[u] == 3:
            open_[i] = open_[-1]
            open_.pop()
        open_.append(v)
    twos = [v for v in range(n) if deg[v] == 2]
    rng.shuffle(twos)
    present = set(edges)
    for a, b in zip(twos[0::2], twos[1::2]):
        e = (a, b) if a < b else (b, a)
        if e not in present:
            present.add(e)
            edges.append(e)
    return new_graph(n, edges)


def random_matching(n: int, rng: random.Random) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    return new_graph(n, [(perm[i], perm[i + 1]) for i in range(0, n - 1, 2)])


# -- library workloads: pairs handed to color_corona ------------------------


@dataclass
class Pairs:
    pairs: list[tuple[Graph, Graph]]


class LibraryWorkload:
    """color_corona on a fixed list of (G, H) pairs, one call per pair."""

    def __init__(self, make_pairs) -> None:
        self.make_pairs = make_pairs

    def setup(self, seed: int, smoke: bool, workdir: Path) -> Pairs:
        return Pairs(self.make_pairs(random.Random(seed), smoke))

    def run_pass(self, inputs: Pairs, tracer=None) -> tuple[list, float]:
        out = []
        with SpeedSampler() as speed:
            for g, h in inputs.pairs:
                start = time.perf_counter()
                try:
                    result = construct.color_corona(g, h)
                except Exception as exc:  # a call that raises is a failed call, not the end of the run
                    result = exc
                out.append((result, time.perf_counter() - start))
        return out, speed.factor(), own_peak_rss_kb()

    def check(self, inputs: Pairs, raw: list) -> Outcome:
        outcome = Outcome(attempted=len(inputs.pairs))
        digest = hashlib.sha256()
        for (g, h), (result, seconds) in zip(inputs.pairs, raw):
            outcome.instance_ms.append(seconds * 1000.0)
            n, edges, _ = expected_corona(g, h)
            outcome.elements += n + len(edges)
            if isinstance(result, Exception):
                outcome.fail("".join(traceback.format_exception_only(result)).strip())
                continue
            reason = check_coloring(g, h, result.graph, result.coloring)
            if reason:
                outcome.fail(reason)
            coloring_digest(digest, result.coloring)
            counts = component_counts(h, result.trace)
            outcome.structured += counts[1]
            outcome.verify_failed += counts[4]
        outcome.digest = digest.hexdigest()
        return outcome


def _random_h(rng: random.Random) -> Graph:
    return gen_random_subcubic(10, rng.randrange(1 << 30))


def _case2_pairs(rng: random.Random, smoke: bool):
    g = gen_random_subcubic(60 if smoke else 2000, rng.randrange(1 << 30))
    return [(g, _random_h(rng))]


K1 = new_graph(1)
TWO_K1 = new_graph(2)
K2 = new_graph(2, [(0, 1)])


def _tiny_h_pairs(rng: random.Random, smoke: bool):
    gs = [leafy_subcubic(40 if smoke else 700, rng) for _ in range(3)]
    return [(g, h) for g in gs for h in (K1, TWO_K1, K2)]


# -- matching_cli: the color command, in process -----------------------------


@dataclass
class CliFiles:
    g: Graph
    h: Graph
    workdir: Path
    g_path: Path
    h_path: Path
    out_path: Path


class MatchingCli:
    """``coronacolor color`` on graph6 files, run through cli.main."""

    def setup(self, seed: int, smoke: bool, workdir: Path) -> CliFiles:
        rng = random.Random(seed)
        g = random_matching(40 if smoke else 1600, rng)
        h = _random_h(rng)
        workdir.mkdir(parents=True, exist_ok=True)
        files = CliFiles(g, h, workdir, workdir / "g.g6", workdir / "h.g6", workdir / "coloring.json")
        files.g_path.write_text(graphio.emit_graph6(g) + "\n", encoding="utf-8")
        files.h_path.write_text(graphio.emit_graph6(h) + "\n", encoding="utf-8")
        return files

    def run_pass(self, inputs: CliFiles, tracer=None):
        # Keep what color_corona returned, for the fallback count; the
        # command itself reports only the summary tag.
        returned = []
        inner = cli.color_corona

        def keep(*args, **kwargs):
            result = inner(*args, **kwargs)
            returned.append(result)
            return result

        argv = ["color", "--g", str(inputs.g_path), "--h", str(inputs.h_path),
                "--out", str(inputs.out_path)]
        stdout = io.StringIO()
        cli.color_corona = keep
        start = time.perf_counter()
        try:
            with SpeedSampler() as speed, contextlib.redirect_stdout(stdout):
                code = cli.main(argv) if tracer is None else tracer.call("cli.main", cli.main, argv)
        finally:
            seconds = time.perf_counter() - start
            cli.color_corona = inner
        return (code, stdout.getvalue(), returned, seconds), speed.factor(), own_peak_rss_kb()

    def check(self, inputs: CliFiles, raw) -> Outcome:
        code, stdout, returned, seconds = raw
        outcome = Outcome(attempted=1, instance_ms=[seconds * 1000.0])
        n, edges, bound = expected_corona(inputs.g, inputs.h)
        outcome.elements = n + len(edges)
        text = inputs.out_path.read_text(encoding="utf-8") if code == 0 else ""
        outcome.digest = hashlib.sha256(text.encode()).hexdigest()
        inputs.out_path.unlink(missing_ok=True)
        if code != 0:
            outcome.fail(f"color exited with {code}")
            return outcome
        fields = dict(part.split("=", 1) for part in stdout.split() if "=" in part)
        max_color = fields.get("max_color", "")
        if fields.get("bound") != str(bound) or not max_color.isdigit() or int(max_color) > bound:
            outcome.fail(f"summary line disagrees with the bound {bound}: {stdout.strip()}")
        try:
            doc = graphio.parse_coloring_json(text)
        except CoronaColorError as exc:
            outcome.fail(f"coloring document does not parse: {exc}")
            return outcome
        if doc.corona_map is None or (doc.corona_map.n_g, doc.corona_map.n_h) != (inputs.g.n, inputs.h.n):
            outcome.fail("coloring document lacks the corona map")
        reason = check_coloring(
            inputs.g, inputs.h, graphio.document_graph(doc), graphio.document_coloring(doc)
        )
        if reason:
            outcome.fail(reason)
        if len(returned) != 1:
            outcome.fail(f"expected one color_corona call, saw {len(returned)}")
        else:
            counts = component_counts(inputs.h, returned[0].trace)
            outcome.structured, outcome.verify_failed = counts[1], counts[4]
        return outcome


# -- sweep_exhaustive: the sweep command in a fresh process -------------------

# Isomorphism classes of subcubic graphs by vertex count (connected ones for
# G, all of them for H), so the record count is checked against published
# counts rather than against the program's own enumeration.
CONNECTED_SUBCUBIC = {1: 1, 2: 1, 3: 2, 4: 6, 5: 10, 6: 29, 7: 64}
ALL_SUBCUBIC = {1: 1, 2: 2, 3: 4, 4: 11, 5: 23}


@dataclass
class SweepArgs:
    ng_max: int
    nh_max: int
    oracle_max: int
    workdir: Path

    def argv(self) -> list[str]:
        return ["sweep", "--ng-max", str(self.ng_max), "--nh-max", str(self.nh_max),
                "--oracle-max", str(self.oracle_max)]

    def expected_records(self) -> int:
        gs = sum(CONNECTED_SUBCUBIC[n] for n in range(1, self.ng_max + 1))
        hs = sum(ALL_SUBCUBIC[n] for n in range(1, self.nh_max + 1))
        return gs * hs


def run_child(argv: list[str], workdir: Path) -> tuple[int, str, str]:
    """Run a Python child on this checkout's sources and wait for it;
    (exit code, stdout, stderr).

    The child's output goes to regular files, not pipes: with the speed
    sampler's SIGALRM firing, large writes to a pipe were seen to lose data
    without any error.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        code = subprocess.run(
            [sys.executable, *argv], stdout=out, stderr=err, env=env, cwd=HERE.parent
        ).returncode
    stdout = out_path.read_text(encoding="utf-8")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    err_path.unlink()
    return code, stdout, stderr


class SweepExhaustive:
    """``coronacolor sweep`` over every small pair, one fresh process per pass."""

    def setup(self, seed: int, smoke: bool, workdir: Path) -> SweepArgs:
        # The corpus is exhaustive: the seed selects nothing.
        workdir.mkdir(parents=True, exist_ok=True)
        if smoke:
            return SweepArgs(4, 3, 3, workdir)
        return SweepArgs(7, 5, 4, workdir)

    def run_pass(self, inputs: SweepArgs, tracer=None):
        report_path = inputs.workdir / "child-report.json"
        colorings_path = inputs.workdir / "colorings.bin"
        code, stdout, stderr = run_child(
            [str(HERE / "child.py"), "cli", str(report_path), str(colorings_path),
             str(int(tracer is not None)), *inputs.argv()],
            inputs.workdir,
        )
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report_path.unlink()
        colorings = colorings_path.read_bytes()
        colorings_path.unlink()
        if tracer is not None:
            tracer.adopt(report["spans"])
        return (code, stdout, stderr, colorings), report["speed_factor"], report["peak_rss_kb"]

    def check(self, inputs: SweepArgs, raw) -> Outcome:
        code, stdout, stderr, colorings_bytes = raw
        expected = inputs.expected_records()
        outcome = Outcome(attempted=expected)
        if code != 0:
            outcome.reasons.append(f"sweep exited with {code}: {stderr.strip()[:200]}")
        colorings = read_colorings(colorings_bytes)
        digest = hashlib.sha256(colorings_bytes)
        graphs: dict[str, Graph] = {}

        def graph(g6: str) -> Graph:
            if g6 not in graphs:
                graphs[g6] = graphio.parse_graph6(g6)
            return graphs[g6]

        seen = set()
        good = 0
        lines = stdout.splitlines()
        if len(colorings) != len(lines):
            outcome.reasons.append(f"{len(colorings)} colorings for {len(lines)} records")
        for i, line in enumerate(lines):
            try:
                rec = json.loads(line)
                outcome.instance_ms.append(rec.pop("wall_ms"))
                g, h = graph(rec["g6_g"]), graph(rec["g6_h"])
            except (ValueError, KeyError, CoronaColorError) as exc:
                outcome.reasons.append(f"malformed record {line[:80]!r}: {exc}")
                continue
            digest.update((json.dumps(rec) + "\n").encode())
            n, edges, bound = expected_corona(g, h)
            outcome.elements += n + len(edges)
            pair = (rec["g6_g"], rec["g6_h"])
            wants_oracle = g.n <= inputs.oracle_max and h.n <= inputs.oracle_max
            problem = None
            try:
                chi = rec["chi_prod"]
                if pair in seen:
                    problem = "duplicate pair"
                elif rec["verified"] is not True:
                    # the program's own claim; the coloring is verified below
                    problem = "record not verified"
                elif rec["bound"] != bound or rec["max_color"] > bound:
                    problem = f"max_color {rec['max_color']} / bound {rec['bound']} against {bound}"
                elif wants_oracle != (chi is not None) or (chi is not None and chi > bound):
                    problem = f"chi_prod {chi} against bound {bound}"
                elif (rec["n_g"], rec["n_h"]) != (g.n, h.n):
                    problem = "sizes disagree with the graph6 strings"
                elif i >= len(colorings):
                    problem = "no coloring written for this record"
                else:
                    vc, ec = colorings[i]
                    problem = check_coloring(g, h, None, TotalColoring(vc, ec, rec["max_color"]))
            except (KeyError, TypeError) as exc:
                problem = f"malformed record: {exc!r}"
            seen.add(pair)
            if problem:
                outcome.fail(f"{pair}: {problem}")
                continue
            good += 1
            if g.n >= 2:
                # G is connected: one component, structured unless it fell back
                outcome.structured += 1
                outcome.verify_failed += rec.get("case") == "Fallback"
        # pairs never reported (a crash, a counterexample) are failures too
        outcome.failed = max(expected - good, 0)
        if len(lines) != expected:
            outcome.failed = max(outcome.failed, 1)
            outcome.reasons.append(f"{len(lines)} records, expected {expected}")
        outcome.digest = digest.hexdigest()
        return outcome


WORKLOADS = {
    "case2_random": LibraryWorkload(_case2_pairs),
    "matching_cli": MatchingCli(),
    "tiny_h_fallback": LibraryWorkload(_tiny_h_pairs),
    "sweep_exhaustive": SweepExhaustive(),
}
