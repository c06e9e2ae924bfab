"""How fast this CPU runs plain Python while a pass is being timed.

The machine the benchmark was built on shares its cores: the same call
varies by ±20% within seconds, in CPU time as much as in wall time.  So,
while a pass runs, a SIGALRM handler times a fixed block of plain Python work
every few milliseconds of wall time.  The handler runs in the process doing
the work, between its own bytecodes, so it sees the CPU that process is on.
A pass's CPU time times the mean of REFERENCE_BLOCK_S / block time is what
the pass would have taken at the reference speed.  The block does not call
the package, so a change to the package moves rescaled times exactly as it
moves wall times.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 0.025
# One block, run from the handler, on a quiet 2.1 GHz Xeon core under Python 3.11.
REFERENCE_BLOCK_S = 0.00015


_EDGES = tuple(((i * 7) % 97, (i * 13 + 5) % 97) for i in range(150))


def block() -> float:
    """Seconds for a greedy coloring of a fixed 97-vertex graph: canonical
    edges, adjacency lists, a keyed sort, set and dict work, the operations
    the package spends its time on."""
    start = time.perf_counter()
    seen = set()
    adj: list[list[int]] = [[] for _ in range(97)]
    for a, b in _EDGES:
        e = (a, b) if a < b else (b, a)
        if a == b or e in seen:
            continue
        seen.add(e)
        adj[a].append(b)
        adj[b].append(a)
    color: dict[int, int] = {}
    for v in sorted(range(97), key=lambda v: (len(adj[v]), -v)):
        used = {color[w] for w in adj[v] if w in color}
        c = 1
        while c in used:
            c += 1
        color[v] = c
    if max(color[a] * color[b] for a, b in seen) < 2:
        raise AssertionError("a proper coloring has two colors on every edge")
    return time.perf_counter() - start


class SpeedSampler:
    """Context manager sampling block() every `interval_s` while it is open."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        # a collection started inside the block would time the heap, not the CPU
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(block())
        finally:
            if enabled:
                gc.enable()

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(block())

    def factor(self) -> float:
        """Mean of REFERENCE_BLOCK_S / sample, the top and bottom tenth dropped."""
        ratios = sorted(REFERENCE_BLOCK_S / s for s in self.samples)
        cut = len(ratios) // 10
        return statistics.fmean(ratios[cut:len(ratios) - cut])
