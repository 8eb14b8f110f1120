import random
from operator import itemgetter

from lzindex import range_report
from lzindex.range_report import Grid


def scan(points, x_lo, x_hi, y_lo, y_hi):
    return sorted(p for x, y, p in points if x_lo <= x <= x_hi and y_lo <= y <= y_hi)


class MergeSortTree:
    """A heap-indexed merge-sort tree of per-node lists: the points sorted
    by x at the leaves, padded to a power of two, and every node's points
    sorted by y with the left child's first on equal y."""

    def __init__(self, points):
        pts = sorted(points, key=lambda t: (t[0], t[1]))
        self.xs = [x for x, _, _ in pts]
        self.leaf0 = 1
        while self.leaf0 < len(pts):
            self.leaf0 *= 2
        self.tree = [[] for _ in range(2 * self.leaf0)]
        for i, (_, y, p) in enumerate(pts):
            self.tree[self.leaf0 + i] = [(y, p)]
        for v in range(self.leaf0 - 1, 0, -1):
            self.tree[v] = sorted(self.tree[2 * v] + self.tree[2 * v + 1], key=itemgetter(0))

    def query(self, x_lo, x_hi, y_lo, y_hi):
        out = []
        l = sum(x < x_lo for x in self.xs) + self.leaf0
        r = sum(x <= x_hi for x in self.xs) + self.leaf0
        while l < r:
            if l & 1:
                out += [p for y, p in self.tree[l] if y_lo <= y <= y_hi]
                l += 1
            if r & 1:
                r -= 1
                out += [p for y, p in self.tree[r] if y_lo <= y <= y_hi]
            l >>= 1
            r >>= 1
        return out


class TestGrid:
    def test_empty(self):
        g = Grid([])
        assert g.query(0, 10**9, 0, 10**9) == []

    def test_single_point(self):
        g = Grid([(3, 5, (1, 2))])
        assert g.query(3, 3, 5, 5) == [(1, 2)]
        assert g.query(4, 9, 0, 9) == []

    def test_full_rectangle_returns_everything(self):
        rng = random.Random(61)
        points = [(rng.randint(1, 50), rng.randint(1, 50), (i, i)) for i in range(200)]
        g = Grid(points)
        assert sorted(g.query(1, 50, 1, 50)) == sorted(p for _, _, p in points)

    def test_empty_rectangle(self):
        g = Grid([(1, 1, (0, 0))])
        assert g.query(5, 4, 1, 1) == []
        assert g.query(1, 1, 5, 4) == []

    def test_matches_scan_oracle(self):
        rng = random.Random(62)
        for trial in range(6):
            count = rng.randint(1, 2000)
            u = rng.choice([10, 100, 10_000])
            points = [
                (rng.randint(1, u), rng.randint(1, u), (i, rng.randint(0, 9)))
                for i in range(count)
            ]
            g = Grid(points)
            for _ in range(300):
                x_lo = rng.randint(0, u)
                x_hi = rng.randint(x_lo - 1, u + 1)
                y_lo = rng.randint(0, u)
                y_hi = rng.randint(y_lo - 1, u + 1)
                got = g.query(x_lo, x_hi, y_lo, y_hi)
                assert sorted(got) == scan(points, x_lo, x_hi, y_lo, y_hi)
                assert len(got) == len(set(got))  # payloads are distinct here

    def test_order_matches_merge_sort_tree(self):
        # the order is part of the answer: a border grid query reports the
        # points of one position in it, and locate keeps the first one's
        # border; equal y values must keep x order
        rng = random.Random(63)
        for count in (0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65, 300):
            u = max(2, count // 4)  # many equal x and equal y values
            points = [(rng.randint(1, u), rng.randint(1, u), (i, rng.randint(0, 3)))
                      for i in range(count)]
            g = Grid(points)
            ref = MergeSortTree(points)
            for _ in range(200):
                x_lo = rng.randint(0, u)
                x_hi = rng.randint(x_lo - 1, u + 1)
                y_lo = rng.randint(0, u)
                y_hi = rng.randint(y_lo - 1, u + 1)
                assert g.query(x_lo, x_hi, y_lo, y_hi) == ref.query(x_lo, x_hi, y_lo, y_hi)
            assert g.query(0, u + 1, 0, u + 1) == ref.query(0, u + 1, 0, u + 1)


def contained_scan(sources, lo, hi):
    return sorted(t + lo - s for s, e, t in sources if s <= lo and e >= hi)


def closure_scan(sources, seeds, m):
    """Every copy the sources make from the seeds and from those copies, by
    scanning to a fixpoint; copies made twice are listed twice."""
    out = []
    queue = list(seeds)
    while queue:
        lo = queue.pop()
        copies = contained_scan(sources, lo, lo + m - 1)
        out += copies
        queue += copies
    return sorted(out)


# expand's level thresholds that put every level on the numpy pass, and
# every level on the Python loop
LEVEL_PATHS = (1, 1 << 62)


class TestSourceIndex:
    def test_empty(self):
        idx = range_report.SourceIndex([])
        assert idx.size == 0
        assert idx.expand([1], 1) == []
        assert idx.expand([], 3) == []

    def test_single_source(self):
        idx = range_report.SourceIndex([(3, 7, 20)])
        assert idx.expand([3], 5) == [20]
        assert idx.expand([5], 2) == [22]
        assert idx.expand([2], 3) == []
        assert idx.expand([6], 3) == []
        assert sorted(idx.expand([3, 4, 5, 6, 7], 1)) == [20, 21, 22, 23, 24]

    def test_matches_scan_oracle(self, monkeypatch):
        for wide in LEVEL_PATHS:
            monkeypatch.setattr(range_report, "WIDE_LEVEL", wide)
            rng = random.Random(64)
            for trial in range(40):
                count = rng.choice([0, 1, 2, 3, rng.randint(4, 300)])
                u = rng.choice([5, 30, 1000])
                sources = []
                for t in range(count):
                    s = rng.randint(1, u)
                    e = s + rng.randint(0, u // 3)
                    if sources and rng.random() < 0.4:
                        s0, e0, _ = rng.choice(sources)
                        if rng.random() < 0.5:  # equal start
                            s, e = s0, s0 + rng.randint(0, u // 3)
                        else:  # nested
                            s = rng.randint(s0, e0)
                            e = rng.randint(s, e0)
                    # targets lie past every interval, so no copy is copied again
                    sources.append((s, e, 10 * u + 7 * t))
                idx = range_report.SourceIndex(sources)
                stored = zip(idx.starts.tolist(), idx.ends.tolist(),
                             (idx.starts + idx.shifts).tolist())
                assert list(stored) == sorted(sources)
                assert idx.span == max((e - s + 1 for s, e, _ in sources), default=0)
                for _ in range(200):
                    lo = rng.randint(0, u + 2)
                    hi = lo + rng.randint(0, u // 2)
                    got = idx.expand([lo], hi - lo + 1)
                    assert sorted(got) == contained_scan(sources, lo, hi)
                # the longest string an interval holds, and one symbol longer
                for lo in {s for s, e, _ in sources if e - s + 1 == idx.span}:
                    assert idx.expand([lo], idx.span)
                    for m in (idx.span, idx.span + 1):
                        got = idx.expand([lo, lo - 1, lo + 1], m)
                        assert sorted(got) == sorted(contained_scan(sources, lo, lo + m - 1)
                                                     + contained_scan(sources, lo - 1, lo + m - 2)
                                                     + contained_scan(sources, lo + 1, lo + m))

    def test_closure_matches_fixpoint(self, monkeypatch):
        for wide in LEVEL_PATHS:
            monkeypatch.setattr(range_report, "WIDE_LEVEL", wide)
            rng = random.Random(65)
            chained = 0
            for trial in range(40):
                u = rng.choice([8, 40, 300])
                sources = []
                for _ in range(min(u, rng.choice([1, 2, 5, rng.randint(6, 60)]))):
                    s = rng.randint(1, u)
                    e = s + rng.randint(0, u // 4)
                    if sources and rng.random() < 0.4:
                        s0, e0, _ = rng.choice(sources)
                        if rng.random() < 0.5:  # equal start
                            s, e = s0, s0 + rng.randint(0, u // 4)
                        else:  # nested
                            s = rng.randint(s0, e0)
                            e = rng.randint(s, e0)
                    # a target after its start, often inside other intervals, so
                    # copies are copied again but never back to where they began
                    sources.append((s, e, s + rng.randint(1, u // 2)))
                idx = range_report.SourceIndex(sources)
                for _ in range(30):
                    m = rng.randint(1, u // 4 + 1)
                    seeds = [rng.randint(1, u) for _ in range(rng.randint(0, 4))]
                    want = closure_scan(sources, seeds, m)
                    assert sorted(idx.expand(seeds, m)) == want
                    one_step = sum((contained_scan(sources, o, o + m - 1) for o in seeds), [])
                    chained += len(want) > len(one_step)
                # the longest string an interval holds, and one symbol longer
                seeds = [s for s, e, _ in sources if e - s + 1 == idx.span]
                for m in (idx.span, idx.span + 1):
                    assert sorted(idx.expand(seeds, m)) == closure_scan(sources, seeds, m)
            assert chained >= 100  # copies of copies are common
