import random

import pytest

from lzindex import fingerprints as fp
from lzindex import prefix_search as ps

from conftest import random_text
from reference import build_from_strings, fingerprint, two_fattest

R = fp.select_function(0)
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


def query_fns(pattern, r):
    """The per-length prefix key and the symbol access of a pattern; a
    search asks only for prefixes of length 1 to len(pattern)."""
    value = fp.PatternFps(r, tuple(pattern)).value

    def prefix_fp(b):
        assert 1 <= b <= len(pattern)
        return value(1, b)

    def pattern_symbol(i):
        return pattern[i - 1]

    return prefix_fp, pattern_symbol


def collision_free_by_strings(strings, r) -> bool:
    """The definition: at every key length l of the trie over the strings,
    equal values of length-l prefixes of the strings mean equal prefixes.
    The key lengths are the 2-fattest numbers of the skip intervals (lo, hi],
    where hi is the length of a distinct prefix that is a whole string or
    branches, and lo the longest such prefix shorter than it."""
    full = set(strings)
    # a prefix is a vertex when it is empty, a whole string (which may also
    # prefix others) or one after which two of them branch
    nexts: dict[tuple, set] = {}
    for s in full:
        for k in range(len(s)):
            nexts.setdefault(s[:k], set()).add(s[k])
    vertices = {()} | full | {q for q, follow in nexts.items() if len(follow) > 1}
    lengths = set()
    for v in vertices - {()}:
        lo = max(len(v[:k]) for k in range(len(v)) if v[:k] in vertices)
        lengths.add(two_fattest(lo, len(v)))
    for l in lengths:
        seen: dict[int, tuple] = {}
        for s in full:
            if len(s) >= l and seen.setdefault(fingerprint(r, s[:l]).value, s[:l]) != s[:l]:
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
        structure, _ = build_from_strings([(1, 1, 1, 1)], R)
        # one non-root vertex (the single leaf) -> exactly one G entry
        assert len(structure.G) == structure.trie.num_vertices - 1

    def test_h_empty_when_x_too_large(self):
        # H, once keyed at multiples of a sampling step x, is only an empty
        # stand-in: no build fills it and no search looks it up
        structure, distinct = build_from_strings(ABC_SET, R)
        assert structure.H == {}
        for s in distinct:
            prefix_fp, pattern_symbol = query_fns(s, R)
            for k in range(1, len(s) + 1):
                assert ps.weak_search(structure, k, prefix_fp, pattern_symbol) is not None
        assert structure.H == {} and structure.h_lookups == 0

    def test_x_one_gives_every_vertex_an_x_prefix(self):
        # every vertex has exactly one key, in G: its string's prefix at the
        # 2-fattest length of its skip interval
        rng = random.Random(55)
        random_set = [tuple(random_text(rng, 3, rng.randint(1, 12))) for _ in range(40)]
        for strings in (ABC_SET, random_set):
            structure, distinct = build_from_strings(strings, R)
            t = structure.trie
            expected = {}
            for v in range(1, t.num_vertices):
                l = two_fattest(t.strlen[t.parent[v]], t.strlen[v])
                expected[fingerprint(R, distinct[t.sample[v]][:l]).value | l << 61] = v
            assert structure.G == expected

    def test_collision_triggers_reselection_signal(self):
        # symbols 1 and 1 + p are equal mod p, so the two leaves collide
        with pytest.raises(ps.FingerprintCollision):
            build_from_strings([(1,), (1 + P,)], R)

    def test_same_length_prefixes_collide(self):
        # under r = 1 a value is the sum of the symbols; both pairs share
        # the root's one skip interval (0, 5], whose 2-fattest length is 4.
        # The first pair collides at lengths 2 and 4, the second at 2 only
        strings = [(1, 2, 3, 5, 1), (2, 1, 4, 4, 2)]
        with pytest.raises(ps.FingerprintCollision):
            build_from_strings(strings, 1)
        build_from_strings([(1, 2, 3, 5, 1), (2, 1, 4, 5, 2)], 1)


class TestWeakSearch:
    def run_set(self, rng, count, max_len, sigma):
        strings = sorted(
            {tuple(random_text(rng, sigma, rng.randint(1, max_len))) for _ in range(count)}
        )
        structure, distinct = build_from_strings(strings, R)
        patterns = {s[:k] for s in distinct for k in range(1, len(s) + 1)}
        for pattern in sorted(patterns):
            prefix_fp, pattern_symbol = query_fns(pattern, R)
            structure.g_lookups = 0
            res = ps.weak_search(structure, len(pattern), prefix_fp, pattern_symbol)
            assert res is not None
            assert res[1:] == oracle_range(distinct, pattern)
            # one lookup per halving of (0, 2^bit_length(m))
            assert structure.g_lookups <= len(pattern).bit_length()

    def test_ranges_match_oracle(self):
        rng = random.Random(52)
        for max_len in (5, 30, 30, 60, 120):
            self.run_set(rng, count=120, max_len=max_len, sigma=3)

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
            r = rng.choice(SMALL_ORDER_BASES)
            try:
                structure, distinct = build_from_strings(strings, r)
            except ps.FingerprintCollision:
                accepted = False
            else:
                accepted = True
                for s in distinct:
                    prefix_fp, pattern_symbol = query_fns(s, r)
                    for k in range(1, len(s) + 1):
                        res = ps.weak_search(structure, k, prefix_fp, pattern_symbol)
                        assert res is not None and res[1:] == oracle_range(distinct, s[:k])
            assert accepted == collision_free_by_strings(strings, r)
            outcomes[accepted] += 1
        assert outcomes[True] >= 100 and outcomes[False] >= 316, outcomes

    def test_empty_pattern_full_range(self):
        # no lookup: the search starts and ends at the root
        structure, distinct = build_from_strings(ABC_SET, R)
        assert ps.weak_search(structure, 0, None, None) == (0, 1, len(distinct))
        assert structure.g_lookups == 0

    def test_empty_string_at_root(self):
        # the empty string ranks first and ends at the root, and "a" ends
        # at the inner vertex above "ab"
        structure, distinct = build_from_strings([(1, 2), (), (1,)], R)
        assert distinct == [(), (1,), (1, 2)]
        t = structure.trie
        assert t.num_vertices == 3

        def access(sid, pos):
            return distinct[sid][pos - 1]

        for rank, s in enumerate(distinct, start=1):
            v = t.locus_by_walk(s, access)
            assert t.strlen[v] == len(s) and t.leaf_range(v)[0] == rank
        assert t.locus_by_walk((), access) == 0
        assert ps.weak_search(structure, 0, None, None) == (0, 1, 3)
        for pattern, expected in (((1,), (2, 3)), ((1, 2), (3, 3))):
            prefix_fp, pattern_symbol = query_fns(pattern, R)
            res = ps.weak_search(structure, len(pattern), prefix_fp, pattern_symbol)
            assert res[1:] == expected

    def test_definite_mismatch_is_none(self):
        structure, _ = build_from_strings(ABC_SET, R)
        pattern = (9, 9)
        prefix_fp, pattern_symbol = query_fns(pattern, R)
        assert ps.weak_search(structure, 2, prefix_fp, pattern_symbol) is None

    def test_non_prefix_never_crashes(self):
        rng = random.Random(53)
        strings = [tuple(random_text(rng, 3, rng.randint(1, 20))) for _ in range(100)]
        structure, distinct = build_from_strings(strings, R)
        for _ in range(300):
            pattern = tuple(random_text(rng, 4, rng.randint(1, 25)))
            prefix_fp, pattern_symbol = query_fns(pattern, R)
            res = ps.weak_search(structure, len(pattern), prefix_fp, pattern_symbol)
            if oracle_range(distinct, pattern) is None:
                # weak semantics: any range or None, but no exception
                assert res is None or len(res) == 3
            else:
                assert res[1:] == oracle_range(distinct, pattern)


class TestFindSteps:
    def test_small_pattern_stays_at_root(self):
        # the one lookup, at length 1, misses: the search stays at the root
        # and takes its child on P[1], the vertex of "1 2"
        structure, _ = build_from_strings(ABC_SET, R)
        prefix_fp, pattern_symbol = query_fns((1,), R)
        v, l, r = ps.weak_search(structure, 1, prefix_fp, pattern_symbol)
        assert structure.g_lookups == 1
        assert v == structure.trie.child(0, 1) and structure.trie.strlen[v] == 2
        assert (l, r) == (1, 2)

    def test_exact_string_found_at_its_vertex(self):
        structure, distinct = build_from_strings(ABC_SET, R)
        pattern = (2,)
        # the string ends at its own vertex at depth 1, which G keys at
        # length 1, so the first lookup reaches the locus
        prefix_fp, pattern_symbol = query_fns(pattern, R)
        v, l, r = ps.weak_search(structure, 1, prefix_fp, pattern_symbol)
        assert structure.g_lookups == 1 and structure.trie.strlen[v] == 1
        rank = distinct.index((2,)) + 1
        assert (l, r) == (rank, rank)

    def test_exit_vertex_example(self):
        structure, _ = build_from_strings(ABC_SET, R)
        prefix_fp, pattern_symbol = query_fns((1, 2), R)
        v, l, r = ps.weak_search(structure, 2, prefix_fp, pattern_symbol)
        assert structure.trie.strlen[v] == 2
        assert (l, r) == (1, 2)
