"""Child processes of the benchmark.

``child.py setup WORKLOAD SEED SMOKE WORKDIR`` prints the CPU seconds a
fresh process spends importing coronacolor and generating the workload's
inputs, and the speed factor measured meanwhile (see speed.py).

``child.py cli REPORT_PATH COLORINGS_PATH TRACE ARGS...`` runs
``coronacolor ARGS...`` as a fresh CLI run does, with the tracer installed
when TRACE is 1.  It writes the coloring of every color_corona call to
COLORINGS_PATH as it goes (see read_colorings), and its peak RSS,
speed factor and spans to REPORT_PATH; it exits with the command's exit code.
"""

import json
import resource
import struct
import sys
import time
from pathlib import Path

from speed import SpeedSampler
from tracer import Tracer

SPARSE_INTERVAL_S = 0.2


def setup(workload: str, seed: str, smoke: str, workdir: str) -> int:
    with SpeedSampler() as speed:
        t0 = time.process_time()
        import coronacolor.cli  # noqa: F401

        imported = time.process_time() - t0
        import workloads

        t1 = time.process_time()
        workloads.WORKLOADS[workload].setup(int(seed), smoke == "1", Path(workdir))
        generated = time.process_time() - t1
    print(repr(imported + generated), repr(speed.factor()))
    return 0


def peak_rss_kb() -> int:
    """This process's own peak RSS.  VmHWM starts afresh at exec, unlike
    ru_maxrss, which keeps the parent's size from before the exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def streaming_colorings(inner, out):
    """color_corona that also writes each coloring to `out`, one byte per
    color: about a microsecond a call, and no colorings held in memory.  A
    color above 255 raises, so the command stops with a counterexample."""

    def color_corona(*args, **kwargs):
        result = inner(*args, **kwargs)
        vc, ec = result.coloring.vertex_colors, result.coloring.edge_colors
        out.write(struct.pack("<HH", len(vc), len(ec)) + bytes(vc) + bytes(ec))
        return result

    return color_corona


def read_colorings(data: bytes) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(vertex colors, edge colors) of each color_corona call, in call order,
    from the stream streaming_colorings writes: per call, the two lengths as
    little-endian uint16, then one byte per color.  A truncated tail is dropped."""
    out = []
    at = 0
    while at + 4 <= len(data):
        nv, ne = struct.unpack_from("<HH", data, at)
        at += 4
        if at + nv + ne > len(data):
            break
        out.append((tuple(data[at:at + nv]), tuple(data[at + nv:at + nv + ne])))
        at += nv + ne
    return out


def cli(report_path: str, colorings_path: str, trace: str, *argv: str) -> int:
    tracer = Tracer() if trace == "1" else None
    code = 1
    try:
        # A sample lands inside a sweep record's wall_ms; sampling rarely keeps
        # those records well under the 1% the p99 latency excludes.
        with SpeedSampler(SPARSE_INTERVAL_S) as speed, open(colorings_path, "wb") as colorings:
            t0 = time.perf_counter()
            from coronacolor import cli

            if tracer is not None:
                tracer.spans.append(["cli.import", t0, time.perf_counter(), -1, None])
                tracer.install()
            cli.color_corona = streaming_colorings(cli.color_corona, colorings)
            if tracer is None:
                code = cli.main(list(argv))
            else:
                code = tracer.call("cli.main", cli.main, list(argv))
    finally:
        if tracer is not None:
            tracer.uninstall()
        sys.stdout.flush()
        report = {
            "peak_rss_kb": peak_rss_kb(),
            "speed_factor": speed.factor(),
            "spans": tracer and tracer.spans,
        }
        Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "cli": cli}[mode](*rest))
