"""Range reporting: the border grid and the phrase-source index.

`Grid` answers 2-d orthogonal range queries with integer payload pairs. It
is a static merge-sort tree kept as levels: level k cuts the points, sorted
by x, into nodes of 2^k consecutive ones (the last node of a level may be
shorter) and holds each node's points sorted by y, ties in x order, as one
list of y values and one of payloads for the whole level. One stable numpy
sort per level makes it. A closed-rectangle query decomposes the x range
into O(lg n) canonical nodes and bisects each node's segment of its level's
y list, so a query costs O(lg^2 n + k) for k reported points.

`SourceIndex` expands occurrences into their secondary copies as
Kärkkäinen and Ukkonen do. A length-m occurrence at o is copied by each
interval with start <= o and end >= o + m - 1; as no interval is longer
than span, each of them starts in the window [o + m - span, o]. The copy
queue is drained one breadth-first level at a time, scanning each
occurrence's window of the start-sorted intervals for those that end late
enough: a level of at least WIDE_LEVEL occurrences in one numpy pass,
which costs about 20 us at any width, a narrower one in a Python loop at
about 0.4 us per occurrence (timed level by level on the benchmark's
queries, they break even at 33 to 64). An occurrence costs the intervals
that start in its window, not O(1 + copies): 1.3 to 2.0 per copy on the
benchmark's texts, though one window there holds 297 of 1,492 intervals.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

# a level of the copy queue this wide runs as one numpy pass, a narrower one
# as a Python loop
WIDE_LEVEL = 48


class Grid:
    def __init__(self, points):
        """points: iterable of (x, y, payload); payload is any hashable pair."""
        pts = list(points)
        self.size = len(pts)
        xs = np.array([p[0] for p in pts], dtype=np.int64)
        ys = np.array([p[1] for p in pts], dtype=np.int64)
        # by (x, y); lexsort is stable, so equal points keep their input order
        order = np.lexsort((ys, xs))
        self.xs = xs[order].tolist()
        ys = ys[order]
        # every level lists the same y and payload objects
        y_of = ys.tolist().__getitem__
        payload_of = [pts[i][2] for i in order.tolist()].__getitem__
        pos = np.arange(self.size)
        # _ys[k], _payloads[k]: level k, its nodes in x order, each by y with
        # ties in x order
        self._ys: list[list[int]] = []
        self._payloads: list[list] = []
        k = 0
        while True:
            at = np.lexsort((ys, pos >> k)).tolist()
            self._ys.append(list(map(y_of, at)))
            self._payloads.append(list(map(payload_of, at)))
            if 1 << k >= self.size:
                break
            k += 1

    def column(self, x_lo: int, x_hi: int) -> list:
        """Payloads of all points with x in [x_lo, x_hi], in x order: one
        slice of level 0, whose nodes are single points in x order."""
        return self._payloads[0][bisect_left(self.xs, x_lo) : bisect_right(self.xs, x_hi)]

    def query(self, x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> list:
        """Payloads of all points in [x_lo, x_hi] x [y_lo, y_hi]."""
        # node l of level k is [l << k, (l + 1) << k) of the x order, cut at
        # size; take the nodes covering [l, r) bottom up, from both ends in
        l = bisect_left(self.xs, x_lo)
        r = bisect_right(self.xs, x_hi)
        out: list = []
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
            ys = self._ys[k]
            start = node << k
            end = min(start + (1 << k), self.size)
            lo = bisect_left(ys, y_lo, start, end)
            out.extend(self._payloads[k][lo : bisect_right(ys, y_hi, lo, end)])
        return out


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
        self.span = int((self.ends - self.starts).max()) + 1 if self.size else 0
        # the same as lists for levels too narrow for a numpy pass, after a
        # sentinel interval that starts before every window
        self._starts = [-math.inf, *self.starts.tolist()]
        self._ends = [0, *self.ends.tolist()]
        self._shifts = [0, *self.shifts.tolist()]

    def expand(self, seeds, m: int) -> list[int]:
        """Every copy of a length-m string that the intervals make from the
        seed positions, and from those copies in turn, one breadth-first
        level at a time: an occurrence o is copied by each interval with
        start in [o + m - span, o] and end >= o + m - 1, to o + shift. A copy
        made twice is listed twice. From the primaries of a parse that never
        happens: each copy is made by exactly one phrase source, and copies
        lie inside a phrase while primaries span a border."""
        out: list[int] = []
        if m > self.span:
            return out
        level = list(seeds)
        back, d = m - self.span, m - 1
        while level:
            if len(level) >= WIDE_LEVEL:
                level = self._wide_level(level, back, d)
            else:
                level = self._level(level, back, d)
            out += level
        return out

    def _level(self, level: list[int], back: int, d: int) -> list[int]:
        """The copies of the occurrences o in level: one by each interval
        that starts in [o + back, o] and ends at o + d or later. A bisection
        finds the last interval that starts by o, and the scan walks down
        from it to the first that starts before o + back."""
        starts, ends, shifts = self._starts, self._ends, self._shifts
        out = []
        for o in level:
            first, reach = o + back, o + d
            j = bisect_right(starts, o) - 1
            while starts[j] >= first:
                if ends[j] >= reach:
                    out.append(o + shifts[j])
                j -= 1
        return out

    def _wide_level(self, level: list[int], back: int, d: int) -> list[int]:
        """_level as one numpy pass."""
        starts, ends, shifts = self.starts, self.ends, self.shifts
        occ = np.array(level, dtype=np.int64)
        first = np.searchsorted(starts, occ + back)
        count = np.searchsorted(starts, occ, "right") - first
        # the candidates of each occurrence, in its window's order
        occ = np.repeat(occ, count)
        j = np.arange(len(occ)) + np.repeat(first - (np.cumsum(count) - count), count)
        copies = ends[j] >= occ + d
        return (occ[copies] + shifts[j[copies]]).tolist()
