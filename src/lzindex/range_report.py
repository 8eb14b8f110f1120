"""Range reporting: the border grid and the phrase-source index.

`Grid` answers 2-d orthogonal range queries with integer payload pairs. It
is a static merge-sort tree: points sorted by x sit at the leaves of a
heap-indexed segment tree and every node stores its points sorted by y,
made by a stable sort of its two children's lists, or shared with its left
child where the right one is empty padding. A closed-rectangle
query decomposes the x range into O(lg n) canonical nodes and bisects each
node's y list, so a query costs O(lg^2 n + k) for k reported points.

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
from operator import itemgetter


class Grid:
    def __init__(self, points):
        """points: iterable of (x, y, payload); payload is any hashable pair."""
        pts = sorted(points, key=lambda t: (t[0], t[1]))
        self.size = len(pts)
        self.xs = [p[0] for p in pts]
        self.query_count = 0  # instrumentation
        size_p2 = 1
        while size_p2 < max(self.size, 1):
            size_p2 <<= 1
        self._leaf0 = size_p2
        # heap layout: node 1 is the root, leaves at size_p2 .. 2*size_p2-1;
        # the sort is stable, so on equal y the left child's points come first
        tree: list[tuple[list[int], list]] = [([], [])] * (2 * size_p2)
        for i, p in enumerate(pts):
            tree[size_p2 + i] = ([p[1]], [p[2]])
        for v in range(size_p2 - 1, 0, -1):
            (ay, ap), (by, bp) = tree[2 * v], tree[2 * v + 1]
            if not by:  # an empty padding node: share the left child's lists
                tree[v] = tree[2 * v]
                continue
            merged = sorted(zip(ay + by, ap + bp), key=itemgetter(0))
            tree[v] = ([y for y, _ in merged], [p for _, p in merged])
        self._tree = tree

    def query(self, x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> list:
        """Payloads of all points in [x_lo, x_hi] x [y_lo, y_hi]."""
        self.query_count += 1
        lo = bisect_left(self.xs, x_lo)
        hi = bisect_right(self.xs, x_hi)  # half-open index range [lo, hi)
        out: list = []
        tree = self._tree
        l = lo + self._leaf0
        r = hi + self._leaf0
        while l < r:
            if l & 1:
                self._emit(tree[l], y_lo, y_hi, out)
                l += 1
            if r & 1:
                r -= 1
                self._emit(tree[r], y_lo, y_hi, out)
            l >>= 1
            r >>= 1
        return out

    @staticmethod
    def _emit(node, y_lo, y_hi, out) -> None:
        ys, payloads = node
        out.extend(payloads[bisect_left(ys, y_lo) : bisect_right(ys, y_hi)])


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


def build(points) -> Grid:
    return Grid(points)

