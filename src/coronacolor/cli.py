"""Command-line interface: color, verify, chi, gen and sweep subcommands.

A command returns its exit code or raises ``_Failure`` with a documented code
and its one stderr line, which ``main`` alone prints; anything else tracebacks.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, TextIO, TypeVar

from .construct import color_corona
from .enumeration import enumerate_subcubic
from .errors import BudgetExceededError, CoronaColorError, NotSubcubicError
from .graph import Graph, gen_random_subcubic, max_degree
from .graphio import (
    MAX_EDGE_LIST_VERTICES,
    MAX_GRAPH6_BYTES,
    coloring_document,
    emit_coloring_json,
    emit_dot,
    emit_edge_list,
    emit_graph6,
    graph6_length,
    parse_coloring_json,
    parse_edge_list,
    parse_graph6,
)
from .search import DEFAULT_BUDGET, chi_prod_exact
from .verify import report_to_json, verify_npd, verify_nvd

T = TypeVar("T")


class _Failure(Exception):
    """_Failure(code, line): main prints line on stderr and returns code."""


def _read(path: str, parse: Callable[[str], T]) -> T:
    """parse(text of path); a read, decode or parse failure is a parse error (2)."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (CoronaColorError, OSError, ValueError) as exc:
        raise _Failure(2, f"parse error: {exc}") from exc


def _parse_graph6_file(text: str) -> Graph:
    """The first non-blank line of text, as graph6."""
    for line in text.splitlines():
        if line.strip():
            return parse_graph6(line)
    return parse_graph6(text)


def _read_graph(path: str, fmt: str) -> Graph:
    return _read(path, _parse_graph6_file if fmt == "graph6" else parse_edge_list)


def _write(path: str | None, text: str, code: int = 2) -> None:
    """Write text to path, or to stdout (flushed) without one; an OSError is a write error."""
    try:
        if path:
            Path(path).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        raise _Failure(code, f"write error: {exc}") from exc


@contextmanager
def _computing(budget_code: int = 4) -> Iterator[None]:  # 4 in color, 5 in chi
    """Raise the library's documented failures inside as CLI failures; a
    failed internal check (an AssertionError) is an internal error, exit 5."""
    try:
        yield
    except NotSubcubicError as exc:
        raise _Failure(3, f"not subcubic: {exc}") from exc
    except BudgetExceededError as exc:  # color's base search on G, chi's search
        raise _Failure(budget_code, f"budget exceeded: {exc}") from exc
    except ValueError as exc:
        raise _Failure(2, f"bad instance: {exc}") from exc
    except AssertionError as exc:
        raise _Failure(5, f"internal error: {exc}") from exc


# Size checks run before anything is built: coronas and graph6 texts grow with n.
def _check_corona(n_g: int, n_h: int) -> None:
    if n_g * (1 + n_h) > MAX_EDGE_LIST_VERTICES:
        raise _Failure(2, f"bad instance: a corona of {n_g} and {n_h} vertices exceeds "
                          f"the limit of {MAX_EDGE_LIST_VERTICES} vertices")


def _check_graph6(n: int, hint: str = "") -> None:
    if graph6_length(n) > MAX_GRAPH6_BYTES:
        raise _Failure(2, f"bad instance: graph6 text for {n} vertices exceeds "
                          f"{MAX_GRAPH6_BYTES} bytes{hint}")


def cmd_color(args: argparse.Namespace) -> int:
    g = _read_graph(args.g, args.format)
    h = _read_graph(args.h, args.format)
    _check_corona(g.n, h.n)
    with _computing():
        result = color_corona(g, h)
    doc = coloring_document(result.graph, result.coloring, result.corona_map)
    if args.out:
        _write(args.out, emit_coloring_json(doc))
    if args.dot:
        _write(args.dot, emit_dot(doc))
    _write(None, f"case={result.trace.case_tag} "
                 f"max_color={result.coloring.max_color} bound={result.trace.palette_bound}\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph, args.format)
    doc = _read(args.coloring, parse_coloring_json)
    if doc.graph != g:
        raise _Failure(2, "parse error: coloring document does not describe the given graph")
    report = (verify_npd if args.mode == "product" else verify_nvd)(g, doc.coloring)
    _write(None, report_to_json(report) + "\n")
    return 0 if report.ok else 1


def cmd_chi(args: argparse.Namespace) -> int:
    if args.budget < 1:  # every search spends a node before it can finish
        raise _Failure(2, f"bad instance: --budget {args.budget} must be at least 1")
    g = _read_graph(args.graph, args.format)
    with _computing(budget_code=5):
        witness = chi_prod_exact(g, args.budget)
    _write(None, f"{witness.max_color}\n")
    _write(args.out, emit_coloring_json(coloring_document(g, witness)))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    if args.n > MAX_EDGE_LIST_VERTICES:
        raise _Failure(2, f"bad instance: {args.n} vertices exceed the limit of "
                          f"{MAX_EDGE_LIST_VERTICES}")
    if args.format == "graph6":
        _check_graph6(args.n, "; use --format edgelist")
    with _computing():
        g = gen_random_subcubic(args.n, args.seed)
    text = emit_graph6(g) + "\n" if args.format == "graph6" else emit_edge_list(g)
    _write(args.out, text, code=1)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.ng_max < 1 or args.nh_max < 1 or args.count < 0 or args.oracle_max < 0:
        raise _Failure(2, "bad instance: --ng-max and --nh-max must be at least 1, "
                          "--count and --oracle-max at least 0")
    # each pair's corona is built and both factors go into its record as graph6
    _check_corona(args.ng_max, args.nh_max)
    _check_graph6(max(args.ng_max, args.nh_max))
    # random pairs are drawn as the sweep reaches them, so however large
    # --count is, the first record is written at once
    if args.count:
        pairs = _random_pairs(random.Random(args.seed), args.count, args.ng_max, args.nh_max)
    else:
        gs = [_factor(g) for nn in range(1, args.ng_max + 1)
              for g in enumerate_subcubic(nn, connected=True)]
        hs = [_factor(h) for nn in range(1, args.nh_max + 1) for h in enumerate_subcubic(nn)]
        pairs = ((g, h) for g in gs for h in hs)
    try:  # the records go to the log or to stdout; either may fail to take them
        if args.log:
            with open(args.log, "a", encoding="utf-8") as out:
                return _sweep_pairs(pairs, args.oracle_max, out)
        return _sweep_pairs(pairs, args.oracle_max, sys.stdout)
    except OSError as exc:
        raise _Failure(2, f"write error: {exc}") from exc


# A sweep factor: the graph, its graph6 text and its maximum degree, which
# every record of the factor repeats.
_Factor = tuple[Graph, str, int]


def _factor(g: Graph) -> _Factor:
    return g, emit_graph6(g), max_degree(g)


def _random_pairs(
    rng: random.Random, count: int, ng_max: int, nh_max: int
) -> Iterator[tuple[_Factor, _Factor]]:
    """count random pairs, each drawn from rng as ng, nh, G's seed, H's seed."""
    for _ in range(count):
        ng = rng.randint(1, ng_max)
        nh = rng.randint(1, nh_max)
        g = _factor(gen_random_subcubic(ng, rng.randrange(1 << 30)))
        yield g, _factor(gen_random_subcubic(nh, rng.randrange(1 << 30)))


def _sweep_pairs(
    pairs: Iterator[tuple[_Factor, _Factor]], oracle_max: int, out: TextIO
) -> int:
    """Color each pair, writing and flushing its JSONL record as soon as it finishes."""
    for (gg, g6g, delta_g), (hh, g6h, delta_h) in pairs:
        start = time.perf_counter()
        try:
            result = color_corona(gg, hh)  # asserts max_color <= palette_bound itself
        except Exception as exc:  # any failure here falsifies the bound or flags a bug
            raise _Failure(1, f"counterexample: g={g6g} h={g6h}: {exc}") from exc
        bound = result.trace.palette_bound
        chi = None
        if oracle_max and gg.n <= oracle_max and hh.n <= oracle_max:
            with _computing(budget_code=5):  # a refused or spent search fails as in chi
                chi = chi_prod_exact(result.graph).max_color
            if chi > bound:
                raise _Failure(1, f"counterexample: g={g6g} h={g6h}: "
                                  f"exact index {chi} exceeds bound {bound}")
        wall_ms = (time.perf_counter() - start) * 1000.0
        record = {
            "g6_g": g6g,
            "g6_h": g6h,
            "n_g": gg.n,
            "n_h": hh.n,
            "delta_g": delta_g,
            "delta_h": delta_h,
            "case": result.trace.case_tag,
            "max_color": result.coloring.max_color,
            "bound": bound,
            "verified": True,
            "chi_prod": chi,
            "wall_ms": round(wall_ms, 3),
        }
        out.write(json.dumps(record) + "\n")
        out.flush()
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coronacolor",
        description=(
            "Total colorings of corona products of subcubic graphs with "
            "distinct neighbor color products, within max_degree+3 colors."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("color", help="color the corona product of two subcubic graphs")
    c.add_argument("--g", required=True, help="file with the first factor")
    c.add_argument("--h", required=True, help="file with the second factor")
    c.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    c.add_argument("--out", help="write the coloring document (JSON) here")
    c.add_argument("--dot", help="write a DOT rendering here")
    c.set_defaults(func=cmd_color)

    v = sub.add_parser("verify", help="check a coloring document against a graph")
    v.add_argument("--graph", required=True)
    v.add_argument("--coloring", required=True)
    v.add_argument("--mode", choices=("product", "set"), default="product")
    v.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    v.set_defaults(func=cmd_verify)

    x = sub.add_parser("chi", help="exact distinguishing total chromatic number")
    x.add_argument("--graph", required=True)
    x.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    x.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    x.add_argument("--out", help="write the witness coloring document here")
    x.set_defaults(func=cmd_chi)

    g = sub.add_parser("gen", help="deterministic random subcubic graph")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("sweep", help="color and verify many pairs, logging JSON lines")
    s.add_argument("--ng-max", type=int, required=True)
    s.add_argument("--nh-max", type=int, required=True)
    s.add_argument("--count", type=int, default=0, help="random pairs; 0 sweeps exhaustively")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--oracle-max", type=int, default=0, help="cross-check pairs up to this size")
    s.add_argument("--log", help="append JSON lines here instead of stdout")
    s.set_defaults(func=cmd_sweep)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failure as exc:
        code, line = exc.args
        try:
            sys.stdout.flush()
        except OSError:
            # stdout keeps the bytes it could not take and would fail on them
            # again at exit; point it at devnull so they are dropped there
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
