import random

import numpy as np

from lzindex import range_report
from lzindex.range_report import Grid

from conftest import levels_by_route


def tagged(xs, rng):
    """A grid over the points (xs[y - 1], y), each with the payload pair
    (y, a random tag), and the list of those pairs by y."""
    tags = [rng.randint(0, 9) for _ in xs]
    ys = list(range(1, len(xs) + 1))
    return Grid(xs, ys, tags), list(zip(ys, tags))


def scan(xs, pairs, x_lo, x_hi, y_lo, y_hi):
    """The payload pairs of the points (xs[y - 1], y) in the rectangle,
    sorted."""
    return [pair for y, (x, pair) in enumerate(zip(xs, pairs), start=1)
            if x_lo <= x <= x_hi and y_lo <= y <= y_hi]


class MergeSortTree:
    """A heap-indexed merge-sort tree of per-node lists over the points
    (xs[y - 1], y): the points sorted by (x, y) at the leaves, padded to a
    power of two, and every node's points sorted by y; it reports their
    payload pairs."""

    def __init__(self, xs, pairs):
        pts = sorted((x, y) for y, x in enumerate(xs, start=1))
        self.pairs = pairs
        self.xs = [x for x, _ in pts]
        self.leaf0 = 1
        while self.leaf0 < len(pts):
            self.leaf0 *= 2
        self.tree = [[] for _ in range(2 * self.leaf0)]
        for i, (_, y) in enumerate(pts):
            self.tree[self.leaf0 + i] = [y]
        for v in range(self.leaf0 - 1, 0, -1):
            self.tree[v] = sorted(self.tree[2 * v] + self.tree[2 * v + 1])

    def query(self, x_lo, x_hi, y_lo, y_hi):
        out = []
        l = sum(x < x_lo for x in self.xs) + self.leaf0
        r = sum(x <= x_hi for x in self.xs) + self.leaf0
        while l < r:
            if l & 1:
                out += [y for y in self.tree[l] if y_lo <= y <= y_hi]
                l += 1
            if r & 1:
                r -= 1
                out += [y for y in self.tree[r] if y_lo <= y <= y_hi]
            l >>= 1
            r >>= 1
        return [self.pairs[y - 1] for y in out]


class TestGrid:
    def test_empty(self):
        g = Grid([], [], [])
        assert g.size == 0
        assert g.query(0, 10**9, 0, 10**9) == []
        assert list(g.column(0, 10**9)) == []

    def test_single_point(self):
        g = Grid([3], [7], [8])
        assert g.query(3, 3, 1, 1) == [(7, 8)]
        assert g.query(4, 9, 0, 9) == []
        assert g.query(0, 9, 2, 9) == []
        assert list(g.column(3, 3)) == [(7, 8)]

    def test_full_rectangle_returns_everything(self):
        rng = random.Random(61)
        xs = [rng.randint(1, 50) for _ in range(200)]
        g, pairs = tagged(xs, rng)
        assert sorted(g.query(1, 50, 1, 200)) == pairs

    def test_empty_rectangle(self):
        g = Grid([1], [1], [0])
        assert g.query(5, 4, 1, 1) == []
        assert g.query(1, 1, 5, 4) == []

    def test_matches_scan_oracle(self):
        rng = random.Random(62)
        for trial in range(6):
            count = rng.randint(1, 2000)
            u = rng.choice([10, 100, 10_000])
            xs = [rng.randint(1, u) for _ in range(count)]
            g, pairs = tagged(xs, rng)
            # int arrays make the same grid as lists
            assert vars(Grid(np.array(xs), *map(np.array, zip(*pairs)))) == vars(g)
            assert g.size == count
            for _ in range(300):
                x_lo = rng.randint(0, u)
                x_hi = rng.randint(x_lo - 1, u + 1)
                y_lo = rng.randint(0, count)
                y_hi = rng.randint(y_lo - 1, count + 1)
                got = g.query(x_lo, x_hi, y_lo, y_hi)
                assert sorted(got) == scan(xs, pairs, x_lo, x_hi, y_lo, y_hi)
                assert len(got) == len(set(got))

    def test_order_matches_merge_sort_tree(self):
        # the order is part of the answer: a border grid query reports the
        # points of one position in it, and locate keeps the first one's
        # border; equal x values must keep y order
        rng = random.Random(63)
        for count in (0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65, 300):
            u = max(2, count // 4)  # many equal x values
            xs = [rng.randint(1, u) for _ in range(count)]
            g, pairs = tagged(xs, rng)
            ref = MergeSortTree(xs, pairs)
            for _ in range(200):
                x_lo = rng.randint(0, u)
                x_hi = rng.randint(x_lo - 1, u + 1)
                y_lo = rng.randint(0, count)
                y_hi = rng.randint(y_lo - 1, count + 1)
                assert g.query(x_lo, x_hi, y_lo, y_hi) == ref.query(x_lo, x_hi, y_lo, y_hi)
            assert g.query(0, u + 1, 0, count + 1) == ref.query(0, u + 1, 0, count + 1)

    def test_column_in_x_order(self):
        # short locate reads a column: every point in the x range, by
        # (x, y), whatever the y range
        rng = random.Random(66)
        for count in (0, 1, 2, 7, 64, 500):
            u = max(2, count // 3)
            xs = [rng.randint(1, u) for _ in range(count)]
            g, pairs = tagged(xs, rng)
            for _ in range(100):
                x_lo = rng.randint(0, u)
                x_hi = rng.randint(x_lo - 1, u + 1)
                want = [pairs[y - 1] for _, y in sorted((x, y) for y, x in enumerate(xs, start=1)
                                                       if x_lo <= x <= x_hi)]
                assert list(g.column(x_lo, x_hi)) == want


def contained_scan(sources, lo, hi):
    return sorted(t + lo - s for s, e, t in sources if s <= lo and e >= hi)


# the most copies closure_scan lists before it gives up
CLOSURE_CAP = 100_000


def closure_scan(sources, seeds, m, cap=CLOSURE_CAP):
    """Every copy the sources make from the seeds and from those copies, by
    scanning to a fixpoint; copies made twice are listed twice. Sources whose
    copies are copied again can multiply them without end, so past cap
    copies it stops and returns None."""
    out = []
    queue = list(seeds)
    while queue:
        lo = queue.pop()
        copies = contained_scan(sources, lo, lo + m - 1)
        out += copies
        if len(out) > cap:
            return None
        queue += copies
    return sorted(out)


# expand's scan thresholds that put every level on the numpy pass, and
# every level on the Python loop
LEVEL_PATHS = (1, 1 << 62)


def copies(idx, seeds, m):
    """expand's copies, sorted, after checking that they are a list of
    ints or an int64 array."""
    got = idx.expand(seeds, m)
    if isinstance(got, np.ndarray):
        assert got.dtype == np.int64
        got = got.tolist()
    assert all(type(o) is int for o in got)
    return sorted(got)


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
            monkeypatch.setattr(range_report, "WIDE_SCAN", wide)
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
                    assert copies(idx, [lo], hi - lo + 1) == contained_scan(sources, lo, hi)
                # the longest string an interval holds, and one symbol longer
                for lo in {s for s, e, _ in sources if e - s + 1 == idx.span}:
                    assert copies(idx, [lo], idx.span)
                    for m in (idx.span, idx.span + 1):
                        got = copies(idx, [lo, lo - 1, lo + 1], m)
                        assert got == sorted(contained_scan(sources, lo, lo + m - 1)
                                             + contained_scan(sources, lo - 1, lo + m - 2)
                                             + contained_scan(sources, lo + 1, lo + m))

    def test_closure_matches_fixpoint(self, monkeypatch):
        for wide in LEVEL_PATHS:
            monkeypatch.setattr(range_report, "WIDE_SCAN", wide)
            rng = random.Random(65)
            chained = cases = skipped = 0
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
                cuts = [(rng.randint(1, u // 4 + 1),
                         [rng.randint(1, u) for _ in range(rng.randint(0, 4))])
                        for _ in range(30)]
                # the longest string an interval holds, and one symbol longer
                seeds = [s for s, e, _ in sources if e - s + 1 == idx.span]
                cuts += [(idx.span, seeds), (idx.span + 1, seeds)]
                for m, seeds in cuts:
                    cases += 1
                    want = closure_scan(sources, seeds, m)
                    if want is None:  # the copies multiply past the cap
                        skipped += 1
                        continue
                    assert copies(idx, seeds, m) == want
                    one_step = sum((contained_scan(sources, o, o + m - 1) for o in seeds), [])
                    chained += len(want) > len(one_step)
            assert skipped <= cases // 20, (skipped, cases)
            assert chained >= 100  # copies of copies are common

    def test_crowded_window(self, monkeypatch):
        # hundreds of intervals start within one span, so a narrow level
        # there scans far more candidates than it has occurrences
        rng = random.Random(66)
        span = 400
        sources = [(s, s + rng.randint(0, span - 1), 5_000 + 4 * t)
                   for t, s in enumerate(rng.randint(1, span) for _ in range(300))]
        sources.append((1, span, 9_000))
        # sparse intervals that copy into the crowded ones
        sources += [(1_000 + 40 * t, 1_003 + 40 * t, 100 + 20 * t) for t in range(10)]
        idx = range_report.SourceIndex(sources)
        assert idx.span == span
        cases = []
        for _ in range(60):
            m = rng.randint(1, 30)
            seeds = rng.sample([*range(1, 2 * span), *range(1_000, 1_400)], rng.randint(1, 8))
            cases.append((m, seeds, closure_scan(sources, seeds, m)))
        assert all(want is not None for _, _, want in cases)
        for wide in (*LEVEL_PATHS, range_report.WIDE_SCAN):
            monkeypatch.setattr(range_report, "WIDE_SCAN", wide)
            routes = levels_by_route(monkeypatch)
            for m, seeds, want in cases:
                assert copies(idx, seeds, m) == want
            if wide == 1:
                assert routes["wide"] and not routes["narrow"]
            elif wide == 1 << 62:
                assert routes["narrow"] and not routes["wide"]
            else:
                # every route in use, and each narrow level small
                assert routes["narrow"] and routes["wide"]
                assert max(routes["narrow"]) * range_report.OCC_SCAN < wide
            monkeypatch.undo()

    def test_seeds_routed_by_their_crowds(self, monkeypatch):
        # the same few seeds run as the loop where the intervals are
        # sparse, and as one numpy pass where hundreds crowd their windows
        span = 300
        crowded = range_report.SourceIndex([(s, s + span - 1, 10_000 + s) for s in range(1, 301)])
        sparse = range_report.SourceIndex([(s, s + span - 1, 10_000 + s) for s in range(1, 3_001, 100)])
        seeds = [300, 301, 302]
        assert range_report.OCC_SCAN * len(seeds) < range_report.WIDE_SCAN
        for idx, route in ((sparse, "narrow"), (crowded, "wide")):
            routes = levels_by_route(monkeypatch)
            got = copies(idx, seeds, 1)
            sources = zip(idx.starts.tolist(), idx.ends.tolist(), (idx.starts + idx.shifts).tolist())
            assert got == closure_scan(list(sources), seeds, 1)
            assert routes[route][0] == len(seeds)
            monkeypatch.undo()
