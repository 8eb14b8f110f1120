import random

import numpy as np

from lzindex import trie
from lzindex._suffixes import (_SORT_SPAN, SuffixContext, lcp_array, pair_lcps, sort_suffixes,
                               suffix_array)

from conftest import mutated_copies, random_text
from reference import suffix_rank_order


def naive_sa(text) -> list[int]:
    """Suffix starts sorted as Python tuples: a proper prefix sorts first."""
    t = tuple(text)
    return sorted(range(len(t)), key=lambda i: t[i:])


def naive_pair_lcp(t, a: int, b: int) -> int:
    l = 0
    while max(a, b) + l < len(t) and t[a + l] == t[b + l]:
        l += 1
    return l


def naive_lcp(text, sa) -> list[int]:
    t = tuple(text)
    return [0] + [naive_pair_lcp(t, sa[r - 1], sa[r]) for r in range(1, len(sa))]


def check(text) -> None:
    arr = np.asarray(list(text), dtype=np.int64)
    sa = naive_sa(text)
    assert suffix_array(arr).tolist() == sa
    ctx = SuffixContext(arr)
    assert ctx.sa.tolist() == sa
    assert ctx.rank.tolist() == [sa.index(i) for i in range(len(sa))]
    lcp = naive_lcp(text, sa)
    assert lcp_array(arr, ctx.sa, ctx.rank).tolist() == lcp
    assert pair_lcps(arr, ctx.sa[:-1], ctx.sa[1:]).tolist() == lcp[1:]


def packed_width(sigma: int) -> int:
    """Symbols in suffix_array's first key over sigma distinct symbols."""
    return 62 // sigma.bit_length()


def test_random_texts():
    rng = random.Random(31)
    for sigma in (2, 4, 26):
        for _ in range(12):
            check(random_text(rng, sigma, rng.randint(1, 600)))


def test_single_symbol():
    check(b"\x05")


def test_runs_and_periods():
    for n in (2, 3, 17, 256, 600):
        check(b"\x01" * n)
        check(b"\x01\x02" * n)


def test_packed_key_limits():
    # dense alphabet sizes at and around each change of the packed width,
    # over scattered raw symbols, at every length from 1 to past the width
    rng = random.Random(33)
    for sigma in (1, 2, 3, 4, 7, 8, 15, 16, 255, 256):
        alphabet = rng.sample(range(1, 10**6), sigma)
        width = packed_width(sigma)
        for n in range(1, width + 3):
            check([rng.choice(alphabet) for _ in range(n)])
        # every symbol present, and long runs of the two largest
        text = alphabet + [rng.choice(alphabet) for _ in range(3 * width)]
        rng.shuffle(text)
        check(text)
        top = sorted(alphabet)[-2:]
        check(text + [top[-1]] * (2 * width) + [top[0]] + [top[-1]] * (2 * width))


def test_all_distinct():
    rng = random.Random(34)
    for n in (1, 2, 5, 64, 300):
        check(rng.sample(range(1, 10**9), n))


def test_large_integer_symbols():
    # a doubling key rank * (n + 2) + next rank built from raw symbols this
    # large would let the second half spill into the first, or overflow
    rng = random.Random(32)
    for top in (10**12, 10**12, 10**12, 2**62):
        alphabet = [rng.randint(1, top) for _ in range(rng.choice([2, 5, 300]))]
        alphabet[0] = top
        base = [rng.choice(alphabet) for _ in range(rng.randint(1, 80))]
        check(base * rng.randint(1, 6))


class TestPairLcps:
    def test_random_pairs(self):
        # pairs in any order, many of them reaching the text's end; enough
        # pairs for the first round to run in several batches
        rng = random.Random(35)
        for sigma, top in ((2, 2), (4, 4), (5, 2**62)):
            alphabet = [top] + rng.sample(range(1, top), sigma - 1)
            base = [rng.choice(alphabet) for _ in range(rng.randint(150, 600))]
            text = (base * 3)[: rng.randint(400, 3 * len(base))]
            n = len(text)
            a = [rng.randrange(n) for _ in range(40_000)]
            b = [rng.randrange(n) for _ in range(40_000)]
            a, b = zip(*((x, y) for x, y in zip(a, b) if x != y))
            tails = [(n - 1, rng.randrange(n - 1)) for _ in range(20)]
            a += tuple(x for x, _ in tails) + tuple(y for _, y in tails)
            b += tuple(y for _, y in tails) + tuple(x for x, _ in tails)
            got = pair_lcps(np.array(text, dtype=np.int64), a, b).tolist()
            assert got == [naive_pair_lcp(text, x, y) for x, y in zip(a, b)]

    def test_lcps_past_the_widest_span(self):
        # a run longer than the widest span, and two copies of one random
        # string, so pairs take every round; and a run of the symbol the
        # comparison pads the text with
        rng = random.Random(36)
        copy = [rng.randint(1, 2**62) for _ in range(5_000)]
        for text in ([7] * 9_000, copy + [1] + copy + [2], [0] * 5_000):
            n = len(text)
            a = [0, 1, 0, n - 2, 1, 5_001]
            b = [1, 0, n - 1, 0, 5_002, 1]
            got = pair_lcps(np.array(text, dtype=np.int64), a, b).tolist()
            assert got == [naive_pair_lcp(text, x, y) for x, y in zip(a, b)]

    def test_narrowed_symbol_types(self):
        # the comparison reads the text in the narrowest unsigned type that
        # holds its largest symbol: texts at each type's limit and just past
        # it, and a run of 0s, every pair against the naive lcp; the low
        # bytes of the largest symbol are symbols too, so a type too narrow
        # for it would make two symbols equal
        rng = random.Random(37)
        for top in (255, 256, 65_535, 65_536, 2**32, 2**62):
            low = {top & (1 << bits) - 1 for bits in (8, 16, 32)}
            alphabet = sorted({top, top - 1, 1, 0} | low)
            base = [rng.choice(alphabet) for _ in range(200)]
            text = base * 3 + [top] * 40 + base[:50]
            check(text)
            n = len(text)
            a, b = zip(*((x, y) for x, y in ((rng.randrange(n), rng.randrange(n))
                                              for _ in range(3_000)) if x != y))
            got = pair_lcps(np.array(text, dtype=np.int64), a, b).tolist()
            assert got == [naive_pair_lcp(text, x, y) for x, y in zip(a, b)]
        check([0] * 300)
        # a negative symbol keeps the text's own type
        check([-(2**62), 7, -1, 0] * 50 + [7])

    def test_capped(self):
        # a cap below, at and above the lcp, 0, and past the text's end; the
        # pairs that meet their cap leave before a mismatch would stop them
        rng = random.Random(37)
        copy = [rng.randint(1, 4) for _ in range(3_000)]
        text = copy + [5] + copy + [6] + copy[:700]
        n = len(text)
        a, b, caps = [], [], []
        for _ in range(3_000):
            x, y = rng.sample(range(n), 2)
            lcp = naive_pair_lcp(text, x, y)
            a.append(x)
            b.append(y)
            caps.append(rng.choice([0, 1, lcp - 1, lcp, lcp + 1, rng.randint(0, 5_000), n + 9]))
        caps = [max(c, 0) for c in caps]
        got = pair_lcps(np.array(text, dtype=np.int64), a, b, np.array(caps)).tolist()
        assert got == [min(naive_pair_lcp(text, x, y), c) for x, y, c in zip(a, b, caps)]

    def test_no_pairs(self):
        assert pair_lcps(np.array([1, 2], dtype=np.int64), [], []).tolist() == []


class TestSortSuffixes:
    """sort_suffixes against the suffix array's ranks (reference.py)."""

    @staticmethod
    def check(text, starts) -> list[int]:
        arr = np.asarray(list(text), dtype=np.int64)
        order = sort_suffixes(arr, starts)
        assert order == suffix_rank_order(arr, starts), starts
        return order

    def test_random_texts_and_starts(self):
        # every start, so the order is the suffix array, and random subsets
        # in random order, with and without the empty suffix
        rng = random.Random(38)
        for sigma in (2, 4, 26):
            for _ in range(8):
                text = random_text(rng, sigma, rng.randint(1, 400))
                n = len(text)
                assert self.check(text, list(range(n))) == naive_sa(text)
                for _ in range(4):
                    starts = rng.sample(range(n + 1), rng.randint(1, n + 1))
                    self.check(text, starts)

    def test_mutated_copies(self):
        rng = random.Random(39)
        for _ in range(10):
            text = mutated_copies(rng, rng.randint(20, 60), 2_000, 2, sigma=2)
            self.check(text, rng.sample(range(len(text) + 1), 600))

    def test_lcps_past_sixteen_windows(self):
        # a period-7 text, plain and with a substitution near its end: the
        # sorted suffixes share more than 16 first windows' worth of
        # symbols, so at least three rounds refine the groups still tied
        rng = random.Random(40)
        base = [rng.randint(1, 4) for _ in range(7)]
        plain = (base * 1_000)[:6_900]
        for text in (plain, plain[:-40] + [5] + plain[-39:]):
            n = len(text)
            starts = rng.sample(range(n + 1), 80) + [0, 7, 14, 1, 8]
            starts = list(dict.fromkeys(starts))
            order = self.check(text, starts)
            ranked = np.array(starts)[order]
            arr = np.array(text, dtype=np.int64)
            assert pair_lcps(arr, ranked[:-1], ranked[1:]).max() > 16 * _SORT_SPAN

    def test_first_difference_at_a_window_edge(self):
        # four copies of one string of length edge, each followed by a
        # different symbol, so the suffixes at the copies first differ
        # edge symbols in: on each side of where one window ends and the
        # next begins
        rng = random.Random(44)
        for edge in (255, 256, 257, 1_023, 1_024, 1_025, 4_095, 4_096, 4_097):
            base = [rng.randint(1, 2) for _ in range(edge)]
            text = base + [3] + base + [1] + base + [2] + base
            starts = [0, edge + 1, 2 * edge + 2, 3 * edge + 3, len(text)]
            assert self.check(text, starts) == [4, 3, 1, 2, 0]

    def test_symbol_widths(self):
        # keys of 2, 4 and 8 bytes a symbol; the alphabets hold symbols that
        # differ only in their low bytes, and a largest symbol whose low
        # bytes make a smaller one, so a key in the wrong byte order or too
        # narrow would sort them wrong
        rng = random.Random(41)
        for top, width in ((300, 2), (70_000, 4), (1 << 40, 8), ((1 << 62) + 7, 8)):
            assert trie.key_width(top) == width
            alphabet = sorted({1, 2, 255, 256, top & 0xFF or 1, top - 1, top})
            base = [rng.choice(alphabet) for _ in range(300)]
            text = base * 3 + [top] * 30 + base[:40]
            self.check(text, list(range(len(text) + 1)))
            self.check(text, rng.sample(range(len(text) + 1), 200))

    def test_single_symbol(self):
        for starts, order in (([0, 1], [1, 0]), ([1, 0], [0, 1]), ([0], [0]), ([1], [0])):
            assert self.check([5], starts) == order

    def test_empty_suffix_first(self):
        rng = random.Random(42)
        text = random_text(rng, 3, 500)
        starts = rng.sample(range(500), 100)
        for at in (0, 50, 100):
            with_end = starts[:at] + [500] + starts[at:]
            assert self.check(text, with_end)[0] == at

    def test_no_starts(self):
        assert sort_suffixes(np.array([1, 2], dtype=np.int64), []) == []
