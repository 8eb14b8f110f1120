"""Range reporting: the border grid and the phrase-source index.

`Grid` answers 2-d orthogonal range queries over points in rank space, one
point per y in 1..n, each with an integer payload pair. It is a static
merge-sort tree kept as levels: level k cuts the points, sorted by x, into
nodes of 2^k consecutive ones (the last node of a level may be shorter) and
holds each node's y values sorted. All levels lie in one flat list of ints,
made from one numpy sort of the whole (level, point) array, and the
payloads lie in two lists in x order, with each y's place in that order;
so a grid is the same few lists at any size and holds no tuple per point.
A closed-rectangle query decomposes the x range into O(lg n) canonical
nodes and bisects each node's segment of its level, so a query costs
O(lg^2 n + k) for k reported points; a column (an x range alone) is one
run of the payload lists.

`SourceIndex` expands occurrences into their secondary copies as Kärkkäinen
and Ukkonen do. A length-m occurrence at o is copied by each interval with
start <= o and end >= o + m - 1; as no interval is longer than span, each
of them starts in the window [o + m - span, o]. The copy queue is drained
one breadth-first level at a time, scanning each occurrence's window of the
start-sorted intervals for those that end late enough, in a Python loop or
in one numpy pass. Fitted over the levels of the benchmark's queries, the
loop costs 0.05 us per candidate plus a bisection per occurrence worth
OCC_SCAN = 4 candidates, and a pass 10 to 14 us at any width, what the loop
spends on 200 to 280 candidates. So a level runs as one pass when OCC_SCAN
per occurrence plus its candidates reach WIDE_SCAN = 192; thresholds up to
256 cost those levels the same within 2.5%. Each interval's crowd, the
intervals that start in the span up to its start, bounds the candidates of
an occurrence whose last interval it is; the crowds are O(z) ints from one
searchsorted. Only the seeds, the primaries, are routed by their crowds, as
that is where candidates pile up: 45 per seed of a short pattern on
`repetitive-large`, 0.8 per later occurrence. They are read at a bisection
each. A later level's crowds would cost a bisection per occurrence ahead of
the loop's own, so it is routed by its occurrences alone. An occurrence
costs the intervals that start in its window, not O(1 + copies): 1.3 to 2.0
per copy on the benchmark's texts, though one window there holds 297 of
1,492 intervals. A level a pass made stays an int64 array, so an expansion
that ran a pass returns its copies as one array.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import repeat

import numpy as np

# a level of the copy queue whose scan in the Python loop would read
# WIDE_SCAN candidate intervals, an occurrence's bisection counting as
# OCC_SCAN of them, runs as one numpy pass, a smaller one as the loop
OCC_SCAN = 4
WIDE_SCAN = 192


class Grid:
    def __init__(self, xs, first, second):
        """The points (xs[y - 1], y) for y = 1, ..., len(xs), one per y with
        any int x, each carrying the payload pair (first[y - 1],
        second[y - 1]); all three are int arrays or lists of one length."""
        xs = np.asarray(xs, dtype=np.int64)
        self.size = n = len(xs)
        # the x order, ties in y order
        by_x = np.argsort(xs, kind="stable")
        self.xs = xs[by_x].tolist()
        # the payloads in x order, so a column reads two runs of them, and
        # each y's place in that order
        self._first = np.asarray(first)[by_x].tolist()
        self._second = np.asarray(second)[by_x].tolist()
        at = np.zeros(n + 1, dtype=np.int64)
        at[by_x + 1] = np.arange(n)
        self._at = at.tolist()
        # level k holds the points in x order cut into nodes of 2^k, each
        # node's y values sorted, at [k n, (k + 1) n) of one flat list; a
        # point's place in the x order over 2^k is its node, so one sort of
        # node * (n + 1) + y per level orders them all
        levels = max(n - 1, 0).bit_length() + 1
        node = np.arange(n) >> np.arange(levels)[:, None]
        keyed = node * (n + 1) + (by_x + 1)
        keyed.sort(axis=1)
        # the entries share the n int objects of the y values
        ys = np.arange(n + 1).astype(object)
        self._ys: list[int] = ys[(keyed % (n + 1)).ravel()].tolist()

    def column(self, x_lo: int, x_hi: int):
        """The payload pairs of all points with x in [x_lo, x_hi], in x
        order, as an iterator."""
        lo = bisect_left(self.xs, x_lo)
        hi = bisect_right(self.xs, x_hi)
        return zip(self._first[lo:hi], self._second[lo:hi])

    def query(self, x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> list[tuple[int, int]]:
        """The payload pairs of all points in [x_lo, x_hi] x [y_lo, y_hi]."""
        # node l of level k is [l << k, (l + 1) << k) of the x order, cut at
        # size; take the nodes covering [l, r) bottom up, from both ends in
        l = bisect_left(self.xs, x_lo)
        r = bisect_right(self.xs, x_hi)
        ys, n = self._ys, self.size
        found: list[int] = []
        nodes = []
        k = 0
        while l < r:
            if l & 1:
                nodes.append((k, l))
                l += 1
            if r & 1:
                r -= 1
                nodes.append((k, r))
            l >>= 1
            r >>= 1
            k += 1
        for k, node in nodes:
            start = k * n + (node << k)
            end = min(start + (1 << k), (k + 1) * n)
            lo = bisect_left(ys, y_lo, start, end)
            found.extend(ys[lo : bisect_right(ys, y_hi, lo, end)])
        at, first, second = self._at, self._first, self._second
        return [(first[at[y]], second[at[y]]) for y in found]


class SourceIndex:
    def __init__(self, sources):
        """sources: iterable of (start, end, target), closed intervals whose
        text is copied to position target."""
        srcs = np.array(sorted(sources), dtype=np.int64).reshape(-1, 3)
        self.size = len(srcs)
        self.starts, self.ends = srcs[:, 0], srcs[:, 1]
        self.shifts = srcs[:, 2] - self.starts
        # the longest interval; one that holds a length-m string at o starts
        # at o + m - span or later
        self.span = span = int((self.ends - self.starts).max()) + 1 if self.size else 0
        # each interval's crowd: the intervals that start in [start - span +
        # 1, start], no fewer than the window of an occurrence holds whose
        # last interval it is
        crowd = np.arange(1, self.size + 1) - np.searchsorted(self.starts, self.starts - span + 1)
        # the same as lists for the Python loop, after a sentinel interval
        # that starts before every window
        self._starts = [-math.inf, *self.starts.tolist()]
        self._ends = [0, *self.ends.tolist()]
        self._shifts = [0, *self.shifts.tolist()]
        self._crowd = [0, *crowd.tolist()]
        # the starts alone, where bisect_right finds the last interval that
        # starts by o at its index in the lists above
        self._keys = self._starts[1:]

    def expand(self, seeds, m: int) -> list[int] | np.ndarray:
        """Every copy of a length-m string that the intervals make from the
        seed positions, and from those copies in turn, one breadth-first
        level at a time: an occurrence o is copied by each interval with
        start in [o + m - span, o] and end >= o + m - 1, to o + shift. A copy
        made twice is listed twice. From the primaries of a parse that never
        happens: each copy is made by exactly one phrase source, and copies
        lie inside a phrase while primaries span a border.

        The copies are a list when every level ran as the Python loop, else
        an int64 array, the numpy levels' copies first."""
        out: list[int] = []
        wide: list[np.ndarray] = []
        if m > self.span:
            return out
        back, d = m - self.span, m - 1
        level = list(seeds)
        # the scan of a level in the Python loop, in candidates: OCC_SCAN an
        # occurrence, for its bisection, and the crowd of its last interval
        # for its window; a later level's crowds would take a bisection pass
        # of their own, so only the seeds' are read
        scan = OCC_SCAN * len(level)
        if scan < WIDE_SCAN:
            scan += sum(map(self._crowd.__getitem__, map(bisect_right, repeat(self._keys), level)))
        while len(level):
            if scan >= WIDE_SCAN:
                level = self._wide_level(np.asarray(level, dtype=np.int64), back, d)
                wide.append(level)
            else:
                if isinstance(level, np.ndarray):
                    level = level.tolist()
                level = self._level(level, back, d)
                out += level
            scan = OCC_SCAN * len(level)
        return np.concatenate((*wide, np.array(out, dtype=np.int64))) if wide else out

    def _level(self, level: list[int], back: int, d: int) -> list[int]:
        """The copies of the occurrences o in level: one by each interval
        that starts in [o + back, o] and ends at o + d or later. A bisection
        finds the last interval that starts by o, and the scan walks down
        from it to the first that starts before o + back."""
        starts, ends, shifts, keys = self._starts, self._ends, self._shifts, self._keys
        out = []
        for o in level:
            first, reach = o + back, o + d
            j = bisect_right(keys, o)
            while starts[j] >= first:
                if ends[j] >= reach:
                    out.append(o + shifts[j])
                j -= 1
        return out

    def _wide_level(self, occ: np.ndarray, back: int, d: int) -> np.ndarray:
        """_level as one numpy pass."""
        starts, ends, shifts = self.starts, self.ends, self.shifts
        first = np.searchsorted(starts, occ + back)
        count = np.searchsorted(starts, occ, "right") - first
        # the candidates of each occurrence, in its window's order
        occ = np.repeat(occ, count)
        j = np.arange(len(occ)) + np.repeat(first - (np.cumsum(count) - count), count)
        copies = ends[j] >= occ + d
        return occ[copies] + shifts[j[copies]]
