"""CPU-time measurement rescaled by a reference loop.

On a shared machine the speed one process gets varies from one second to
the next (a fixed pure-Python loop has been seen to take anywhere from 0.039
to 0.062 s), in CPU time as well as wall time. Every section is therefore
timed in process CPU time, which leaves out time spent waiting for the
scheduler, and rescaled by a loop that does not touch lzindex:

    rescaled = raw_cpu * REF_NOMINAL_S / mean(loop before, loop after)

The loop after one section is the loop before the next, so back-to-back
sections pay one loop each. A batch of queries is cut into chunks of a few
tens of milliseconds, each a section of its own, so the loop samples the
machine's speed all through the batch rather than only at its two ends; a
single call that cannot be cut (build, load) is framed by SECTION_PASSES
passes of the loop on each side. When the loops around a section disagree
by more than RETIME_LIMIT the section is timed again, at most MAX_RETIMES
times (BUILD_MAX_RETIMES for a build), and the last attempt is kept.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass

REF_ITERS = 5_600
# CPU seconds one pass of the reference loop takes on the machine the
# README's figures were taken on (2-core x86-64 container, Python 3.11);
# rescaled times are in seconds of that machine
REF_NOMINAL_S = 0.010
SECTION_PASSES = 4
BATCH_CHUNKS = 8
RETIME_LIMIT = 0.4  # |before - after| / min(before, after)
MAX_RETIMES = 2
BUILD_MAX_RETIMES = 1  # a build takes seconds; one more try is enough


class _Node:
    __slots__ = ("left", "right", "val")

    def __init__(self, depth: int, val: int = 1):
        self.val = val
        self.left = _Node(depth - 1, 2 * val) if depth > 1 else None
        self.right = _Node(depth - 1, 2 * val + 1) if depth > 1 else None


_TREE = _Node(10)  # 1,023 nodes
_TURN = [i % 7 for i in range(2048)]
_SORTED = list(range(0, 3 * 4096, 3))
_P = (1 << 61) - 1


def ref_loop(passes: int = 1) -> float:
    """Mean CPU seconds of one pass of a fixed loop with a bit of each kind
    of work lzindex does: big-int arithmetic modulo a prime (fingerprints),
    a dict update (dictionaries), a walk down a tree of small objects
    (grammar and tries), and a bisect plus a slice copy (grids). Its data
    stay in cache, so it measures the speed the machine gives this process,
    not what the section before it left in the caches."""
    c0 = time.process_time_ns()
    for _ in range(passes):
        d: dict[int, int] = {}
        acc = 1
        for i in range(REF_ITERS):
            key = (i * 2_654_435_761) & 0xFFFFFFFF
            acc = (acc * 1_000_003 + key) % _P
            d[key & 1023] = i
            out = []
            node = _TREE
            while node is not None:
                out.append(node.val)
                node = node.left if _TURN[key & 2047] < 4 else node.right
                key >>= 1
            lo = bisect_left(_SORTED, i & 8191)
            out.extend(_SORTED[lo : lo + 16])
    return (time.process_time_ns() - c0) / 1e9 / passes


@dataclass
class Timing:
    raw_s: float  # process CPU seconds of the section
    scale: float  # REF_NOMINAL_S / mean loop time
    retimes: int

    @property
    def s(self) -> float:
        return self.raw_s * self.scale


def retimed(attempt, max_retimes: int = MAX_RETIMES):
    """Time a section, again while its loops disagree; keeps the last try.

    attempt() -> (result, raw_s, loop_before_s, loop_after_s). It is called
    up to 1 + max_retimes times, so it must be safe to repeat.
    """
    for retimes in range(1 + max_retimes):
        result, raw, before, after = attempt()
        if abs(before - after) / min(before, after) <= RETIME_LIMIT:
            break
    return result, Timing(raw, REF_NOMINAL_S * 2 / (before + after), retimes)


class Calibrator:
    """Times sections back to back, sharing the loop between neighbours."""

    def __init__(self):
        self.last_loop: float | None = None
        self.retimes = 0

    def _attempt(self, fn, passes: int):
        before = self.last_loop if self.last_loop is not None else ref_loop(passes)
        c0 = time.process_time_ns()
        result = fn()
        raw = (time.process_time_ns() - c0) / 1e9
        self.last_loop = ref_loop(passes)
        return result, raw, before, self.last_loop

    def time(self, fn, max_retimes: int = MAX_RETIMES):
        """Run fn() as one timed section; returns (result, Timing)."""
        self.pause()
        result, timing = retimed(lambda: self._attempt(fn, SECTION_PASSES), max_retimes)
        self.retimes += timing.retimes
        return result, timing

    def batch(self, items, run_chunk, on_chunk=None):
        """Run a batch in BATCH_CHUNKS chunks, each its own section.

        run_chunk(chunk) -> (answers, per-item CPU ns or None); it may run
        more than once per chunk. on_chunk(scale) is called once a chunk's
        timing is kept. Returns [(chunk, answers, per-item ns, Timing)].
        """
        step = -(-len(items) // BATCH_CHUNKS)
        out = []
        for lo in range(0, len(items), step):
            chunk = items[lo : lo + step]
            (got, ns), t = retimed(lambda: self._attempt(lambda: run_chunk(chunk), 1))
            if on_chunk is not None:
                on_chunk(t.scale)
            self.retimes += t.retimes
            out.append((chunk, got, ns, t))
        return out

    def pause(self) -> None:
        """Forget the last loop: other work comes between this section and
        the next, so the next must time its own loop before it starts."""
        self.last_loop = None
