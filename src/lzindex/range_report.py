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
Kärkkäinen and Ukkonen do. The copies of an occurrence [lo, hi] come from
the intervals with start <= lo and end >= hi. The intervals are sorted by
start, so a bisection finds the prefix that starts early enough; a prefix
maximum of the ends hands out the intervals of that prefix that reach hi
from the largest end down, and a sparse-table range-max over the ends hands
out those in the gaps it leaves, one at a time. One loop drains the queue
of occurrences and the copies it finds. An occurrence costs one bisection
plus O(1) per copy, and one that no interval reaches only the bisection and
one comparison.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np


class Grid:
    def __init__(self, points):
        """points: iterable of (x, y, payload); payload is any hashable pair."""
        pts = list(points)
        self.size = len(pts)
        self.query_count = 0  # instrumentation
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

    def query(self, x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> list:
        """Payloads of all points in [x_lo, x_hi] x [y_lo, y_hi]."""
        self.query_count += 1
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
        srcs = sorted(sources)
        self.size = len(srcs)
        self.starts = [s for s, _, _ in srcs]
        self.ends = [e for _, e, _ in srcs]
        self.targets = [t for _, _, t in srcs]
        ends = self.ends
        # _first[b]: index of a largest end among the first b intervals
        self._first = first = [0] * (self.size + 1)
        for b in range(2, self.size + 1):
            j = first[b - 1]
            first[b] = b - 1 if ends[b - 1] > ends[j] else j
        # _argmax[k][i]: index of a largest end in ends[i : i + 2^k]
        row = list(range(self.size))
        table = [row]
        span = 1
        while 2 * span <= self.size:
            row = [a if ends[a] >= ends[b] else b
                   for a, b in zip(row, row[span:])]
            table.append(row)
            span *= 2
        self._argmax = table

    def expand(self, seeds, m: int) -> list[int]:
        """Every copy of a length-m string that the intervals make from the
        seed positions, and from those copies in turn, in one pass over a
        queue: an occurrence o is copied by each interval with start <= o
        and end >= o + m - 1, to target + o - start. A copy made twice is
        listed twice. From the primaries of a parse that never happens: each
        copy is made by exactly one phrase source, and copies lie inside a
        phrase while primaries span a border."""
        out = list(seeds)
        starts, ends, targets = self.starts, self.ends, self.targets
        first, table = self._first, self._argmax
        d = m - 1
        i = 0
        while i < len(out):
            lo = out[i]
            i += 1
            hi = lo + d
            # the intervals [0, b) start early enough; walk their prefix
            # maxima down while they reach hi, so an occurrence that none
            # reaches costs one bisection, and keep the ranges they pass
            # over for the sparse table
            b = bisect_right(starts, lo)
            ranges = []
            while b:
                j = first[b]
                if ends[j] < hi:
                    break
                out.append(targets[j] + lo - starts[j])
                if j + 1 < b:
                    ranges.append((j + 1, b))
                b = j
            while ranges:
                a, b = ranges.pop()
                k = (b - a).bit_length() - 1
                row = table[k]
                j = row[a]
                j2 = row[b - (1 << k)]
                if ends[j2] > ends[j]:
                    j = j2
                if ends[j] < hi:
                    continue  # no interval in [a, b) reaches hi
                out.append(targets[j] + lo - starts[j])
                if a < j:
                    ranges.append((a, j))
                if j + 1 < b:
                    ranges.append((j + 1, b))
        return out[len(seeds):]
