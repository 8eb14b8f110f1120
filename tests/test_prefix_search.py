import math
import random

import pytest

from lzindex import fingerprints as fp
from lzindex import prefix_search as ps
from lzindex.prefix_search import two_fattest

from conftest import random_text
from reference import build_from_strings, fingerprint

FN = fp.select_function(0)
ABC_SET = [(1, 2, 3), (1, 2, 4), (2,)]
P = (1 << 61) - 1
# r = 1, r = p - 1 and bases of orders 3 to 6: two different strings of
# the same length often share a fingerprint under them
SMALL_ORDER_BASES = [pow(37, (P - 1) // k, P) for k in (1, 2, 3, 4, 5, 6)]


def oracle_range(distinct, pattern):
    ranks = [
        r + 1
        for r, s in enumerate(distinct)
        if len(s) >= len(pattern) and s[: len(pattern)] == tuple(pattern)
    ]
    return (ranks[0], ranks[-1]) if ranks else None


def query_fns(pattern, fn):
    pattern_fp = fp.PatternFps(fn, tuple(pattern)).value

    def pattern_symbol(i):
        return pattern[i - 1]

    return pattern_fp, pattern_symbol


def collision_free_by_strings(strings, x: int, fn) -> bool:
    """The definition: at every key length l of the trie over the strings,
    equal values of length-l prefixes of the terminated strings mean equal
    prefixes. The key lengths are the 2-fattest number and the least
    multiple of x of each skip interval (lo, hi], where hi is the length of
    a distinct prefix that ends a string or branches, and lo the longest
    such prefix shorter than it."""
    term = max(c for s in strings for c in s) + 1
    full = {(*s, term) for s in strings}
    # a prefix is a vertex when it is empty, a whole terminated string or
    # one after which two of them branch
    nexts: dict[tuple, set] = {}
    for s in full:
        for k in range(len(s)):
            nexts.setdefault(s[:k], set()).add(s[k])
    vertices = {()} | full | {q for q, follow in nexts.items() if len(follow) > 1}
    lengths = set()
    for v in vertices - {()}:
        lo = max(len(v[:k]) for k in range(len(v)) if v[:k] in vertices)
        hi = len(v)
        lengths.add(two_fattest(lo, hi))
        if (lo // x + 1) * x <= hi:
            lengths.add((lo // x + 1) * x)
    for l in lengths:
        seen: dict[int, tuple] = {}
        for s in full:
            if len(s) >= l and seen.setdefault(fingerprint(fn, s[:l]).value, s[:l]) != s[:l]:
                return False
    return True


class TestTwoFattest:
    def test_examples(self):
        assert two_fattest(4, 8) == 8
        assert two_fattest(2, 3) == 3
        assert two_fattest(5, 7) == 6

    def test_empty_interval(self):
        for lo, hi in ((3, 3), (5, 2), (-1, 4)):
            with pytest.raises(ValueError):
                two_fattest(lo, hi)

    def test_definition_exhaustive(self):
        def zeros(v):
            return (v & -v).bit_length() - 1

        for lo in range(0, 64):
            for hi in range(lo + 1, 65):
                best = max(range(lo + 1, hi + 1), key=zeros)
                assert two_fattest(lo, hi) == best

    def test_midpoint_property(self):
        # the 2-fattest number of the open interval (a, a + 2^i) is the mid
        # a + 2^(i-1) whenever a is a multiple of 2^(i-1)
        rng = random.Random(51)
        for _ in range(2000):
            i = rng.randint(1, 20)
            a = rng.randrange(0, 1 << 20, 1 << (i - 1))
            assert two_fattest(a, a + (1 << i) - 1) == a + (1 << (i - 1))


class TestBuild:
    def test_fat_prefix_per_vertex(self):
        structure, _ = build_from_strings([(1, 1, 1, 1)], 2, FN)
        # one non-root vertex (the single leaf) -> exactly one G entry
        assert len(structure.G) == structure.trie.num_vertices - 1

    def test_h_empty_when_x_too_large(self):
        structure, _ = build_from_strings(ABC_SET, 100, FN)
        assert structure.H == {}

    def test_x_one_gives_every_vertex_an_x_prefix(self):
        structure, _ = build_from_strings(ABC_SET, 1, FN)
        assert len(structure.H) == structure.trie.num_vertices - 1

    def test_collision_triggers_reselection_signal(self):
        # symbols 1 and 1 + p are equal mod p, so the two leaves collide
        with pytest.raises(ps.FingerprintCollision):
            build_from_strings([(1,), (1 + P,)], 1, FN)

    def test_same_length_prefixes_collide(self):
        # under r = 1 "ab" and "ba" collide, and so do the length-2
        # prefixes of these strings, which differ at every other length;
        # x = 2 keys both leaves at length 2, x = 3 at no length where they
        # collide
        strings = [(1, 2, 3), (2, 1, 4)]
        with pytest.raises(ps.FingerprintCollision):
            build_from_strings(strings, 2, fp.FpFunction(1))
        build_from_strings(strings, 3, fp.FpFunction(1))


class TestWeakSearch:
    def run_set(self, rng, count, max_len, sigma, x):
        strings = sorted(
            {tuple(random_text(rng, sigma, rng.randint(1, max_len))) for _ in range(count)}
        )
        structure, distinct = build_from_strings(strings, x, FN)
        patterns = {s[:k] for s in distinct for k in range(1, len(s) + 1)}
        for pattern in sorted(patterns):
            pattern_fp, pattern_symbol = query_fns(pattern, FN)
            structure.reset_counters()
            res = structure_search = ps.weak_search(
                structure, len(pattern), pattern_fp, pattern_symbol
            )
            expected = oracle_range(distinct, pattern)
            assert structure_search is not None
            assert res[1:] == expected
            assert structure.h_lookups <= len(pattern) // x
            assert structure.g_lookups <= math.ceil(math.log2(2 * x)) + 2

    def test_ranges_match_oracle(self):
        rng = random.Random(52)
        for x in (1, 2, 3, 7, 50):
            self.run_set(rng, count=120, max_len=30, sigma=3, x=x)

    def test_certified_small_primes_answer_every_prefix(self):
        # under bases of small multiplicative order many functions collide;
        # the build must reject exactly those under which two different
        # indexed prefixes of a key length share a value, and whichever
        # function it accepts must answer every indexed prefix
        rng = random.Random(54)
        outcomes = {True: 0, False: 0}
        for _ in range(600):
            strings = [tuple(random_text(rng, 3, rng.randint(1, 25)))
                       for _ in range(rng.randint(1, 30))]
            fn = fp.FpFunction(rng.choice(SMALL_ORDER_BASES))
            x = rng.choice((1, 2, 3, 5))
            try:
                structure, distinct = build_from_strings(strings, x, fn)
            except ps.FingerprintCollision:
                accepted = False
            else:
                accepted = True
                for s in distinct:
                    pattern_fp, pattern_symbol = query_fns(s, fn)
                    for k in range(1, len(s) + 1):
                        res = ps.weak_search(structure, k, pattern_fp, pattern_symbol)
                        assert res is not None and res[1:] == oracle_range(distinct, s[:k])
            assert accepted == collision_free_by_strings(strings, x, fn)
            outcomes[accepted] += 1
        assert outcomes[True] >= 100 and outcomes[False] >= 316, outcomes

    def test_empty_pattern_full_range(self):
        structure, distinct = build_from_strings(ABC_SET, 2, FN)
        assert ps.weak_search(structure, 0, None, None) == (0, 1, len(distinct))

    def test_definite_mismatch_is_none(self):
        structure, _ = build_from_strings(ABC_SET, 2, FN)
        pattern = (9, 9)
        pattern_fp, pattern_symbol = query_fns(pattern, FN)
        assert ps.weak_search(structure, 2, pattern_fp, pattern_symbol) is None

    def test_non_prefix_never_crashes(self):
        rng = random.Random(53)
        strings = [tuple(random_text(rng, 3, rng.randint(1, 20))) for _ in range(100)]
        structure, distinct = build_from_strings(strings, 3, FN)
        for _ in range(300):
            pattern = tuple(random_text(rng, 4, rng.randint(1, 25)))
            pattern_fp, pattern_symbol = query_fns(pattern, FN)
            res = ps.weak_search(structure, len(pattern), pattern_fp, pattern_symbol)
            if oracle_range(distinct, pattern) is None:
                # weak semantics: any range or None, but no exception
                assert res is None or len(res) == 3
            else:
                assert res[1:] == oracle_range(distinct, pattern)


class TestFindSteps:
    def test_small_pattern_stays_at_root(self):
        structure, _ = build_from_strings(ABC_SET, 10, FN)
        pattern_fp, _ = query_fns((1,), FN)
        v, status = ps.find_x_range(structure, 1, pattern_fp)
        assert v == 0 and status == ps.X_RANGE

    def test_exact_string_found_with_x_one(self):
        structure, distinct = build_from_strings(ABC_SET, 1, FN)
        pattern = (2,)
        # the leaf's string includes the terminator, so the locus is reached
        # by the exit-vertex step rather than the x-range step
        pattern_fp, pattern_symbol = query_fns(pattern, FN)
        res = ps.weak_search(structure, 1, pattern_fp, pattern_symbol)
        rank = distinct.index((2,)) + 1
        assert res[1:] == (rank, rank)

    def test_exit_vertex_example(self):
        structure, _ = build_from_strings(ABC_SET, 10, FN)
        pattern_fp, _ = query_fns((1, 2), FN)
        v, status = ps.find_exit_vertex(structure, 0, 2, pattern_fp)
        assert structure.trie.strlen[v] == 2
        assert structure.trie.leaf_range(v) == (1, 2)
