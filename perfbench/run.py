"""Benchmark of coronacolor on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the package is imported from ``src/``.
Passes of the workload repeat until S seconds have gone, each pass's outputs
checked outside the timed region, and between passes set-up is timed in a
fresh process.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` untraced and traced
passes alternate and it holds the per-layer metrics.  Metric names and units
come from BENCHMARK.json.  The line before the result names the workload's
output digest.  ``--smoke`` shrinks every input for a quick self-check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
# fewest set-up timings in a run; more are taken when there are more passes
SETUP_SAMPLES = 7


@dataclass
class Pass:
    traced: bool
    seconds: float
    outcome: object
    layers: dict | None
    scale: float  # wall time to reference CPU time, see measure()
    rss_kb: int  # peak RSS of the process that ran the pass, when it ended


def setup_seconds(workload: str, seed: int, smoke: bool, workdir: Path) -> float:
    """Rescaled set-up time of one fresh process."""
    from workloads import run_child

    code, stdout, stderr = run_child(
        [str(HERE / "child.py"), "setup", workload, str(seed), str(int(smoke)),
         str(workdir / "setup")],
        workdir,
    )
    if code != 0:
        raise RuntimeError(f"set-up child failed with {code}: {stderr.strip()}")
    seconds, scale = map(float, stdout.split())
    return seconds * scale


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def measure(workload, inputs, seconds: float, trace: bool, between) -> tuple[list[Pass], list]:
    """Passes until `seconds` have gone; with tracing every second pass is traced.
    `between()` runs after each pass and its check.

    A pass's scale turns its wall time into CPU time at the reference speed:
    the speed sampler's factor times the share of the wall time the pass
    spent on a CPU, so time lost to other processes on the machine drops out.
    """
    from tracer import Tracer, layer_metrics

    passes: list[Pass] = []
    spans = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer = Tracer()
            tracer.install()
            cpu = cpu_seconds()
            try:
                raw, speed, rss_kb = tracer.call("bench.pass", workload.run_pass, inputs, tracer)
            finally:
                cpu = cpu_seconds() - cpu
                tracer.uninstall()
            _, t0, t1, _, _ = tracer.spans[0]
            layers = layer_metrics(tracer.spans)
            spans.append(tracer.spans)
        else:
            cpu = cpu_seconds()
            t0 = time.perf_counter()
            raw, speed, rss_kb = workload.run_pass(inputs)
            t1 = time.perf_counter()
            cpu = cpu_seconds() - cpu
            layers = None
        scale = speed * cpu / (t1 - t0)
        passes.append(Pass(traced, t1 - t0, workload.check(inputs, raw), layers, scale, rss_kb))
        del raw  # so the next pass does not run beside this one's results
        between()
        if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
            return passes, spans


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    """Times are rescaled to the reference speed (see speed.py).  Peak RSS is
    the first pass's: in-process, later readings include the earlier checks."""
    outcomes = [p.outcome for p in passes]
    run_s = statistics.median(p.seconds * p.scale for p in passes)
    attempted = sum(o.attempted for o in outcomes)
    structured = sum(o.structured for o in outcomes)
    verify_failed = sum(o.verify_failed for o in outcomes)
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "elements_per_s": outcomes[0].elements / run_s,
        "instance_ms_p50": statistics.median(
            statistics.median(p.outcome.instance_ms) * p.scale for p in passes
        ),
        "instance_ms_p99": statistics.median(
            quantile(p.outcome.instance_ms, 99) * p.scale for p in passes
        ),
        "peak_rss_mb": passes[0].rss_kb / 1024.0,
        "verified_ratio": 1.0 - sum(o.failed for o in outcomes) / attempted,
        "structured_pass_ratio": (structured - verify_failed) / structured if structured else 1.0,
    }


def per_layer(passes: list[Pass], units: dict[str, str]) -> dict[str, float]:
    """Medians over the traced passes; times rescaled like the end-to-end ones."""
    traced = [p for p in passes if p.traced]

    def value(p: Pass, name: str) -> float:
        v = p.layers.get(name, 0.0)
        return v * p.scale if units[name] == "s" else v

    out = {
        name: statistics.median(value(p, name) for p in traced)
        for name in units
        if not name.startswith("trace.") or name == "trace.layer_self_sum_s"
    }
    out["trace.run_s"] = statistics.median(p.seconds * p.scale for p in traced)
    out["trace.untraced_run_s"] = statistics.median(
        p.seconds * p.scale for p in passes if not p.traced
    )
    out["trace.overhead_s"] = out["trace.run_s"] - out["trace.untraced_run_s"]
    return out


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    package = SRC / "coronacolor"
    if not (package / "__init__.py").is_file():
        print(f"error: no coronacolor sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coronacolor

    if Path(coronacolor.__file__).resolve().parent != package.resolve():
        print(f"error: coronacolor imported from {coronacolor.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads(SPEC_PATH.read_text(encoding="utf-8"))[kind]}
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_samples: list[float] = []

    def time_setup() -> None:
        if not args.trace:
            setup_samples.append(setup_seconds(args.workload, args.seed, args.smoke, workdir))

    try:
        inputs = workload.setup(args.seed, args.smoke, workdir)
        # Set-up is timed between passes, so its samples span the run as the
        # passes do, and not one stretch of the machine's varying speed.
        passes, spans = measure(workload, inputs, args.seconds, bool(args.trace), time_setup)
        while not args.trace and len(setup_samples) < SETUP_SAMPLES:
            time_setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [p.outcome for p in passes]
    digests = {o.digest for o in outcomes}
    reasons = [r for o in outcomes for r in o.reasons]
    if len(digests) != 1:
        reasons.append("outputs differ between passes of the same inputs")
    for r in reasons:
        print(f"check: {r}", file=sys.stderr)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if args.trace:
        values = per_layer(passes, units)
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"span": ["name", "start", "end", "parent", "work"], "passes": spans}),
            encoding="utf-8",
        )
    else:
        values = end_to_end(passes, statistics.median(setup_samples))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "digest": sorted(digests)[0],
        "passes": len(passes),
        "pass_seconds": [round(p.seconds, 4) for p in passes],
        "pass_scale": [round(p.scale, 4) for p in passes],
        "fallback_verify_failed": outcomes[0].verify_failed,
        "structured_components": outcomes[0].structured,
    }))
    print(json.dumps({
        "correct": failed == 0 and not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
