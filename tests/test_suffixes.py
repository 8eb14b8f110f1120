import random

import numpy as np

from lzindex._suffixes import SuffixContext, lcp_array, pair_lcps, suffix_array

from conftest import random_text


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

    def test_no_pairs(self):
        assert pair_lcps(np.array([1, 2], dtype=np.int64), [], []).tolist() == []
