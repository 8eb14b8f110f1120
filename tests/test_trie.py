import random

import pytest

from lzindex import trie

from conftest import random_text

ABC_SET = [(1, 2, 3), (1, 2, 4), (2,)]  # "abc", "abd", "b"


def brute_locus_range(strings, pattern):
    """Rank range of the sorted distinct strings that `pattern` prefixes."""
    ranks = [
        r + 1
        for r, s in enumerate(strings)
        if len(s) >= len(pattern) and tuple(s[: len(pattern)]) == tuple(pattern)
    ]
    return (ranks[0], ranks[-1]) if ranks else None


def edges(t):
    """Every edge of t as {(vertex, first symbol): child}, read off the one
    children dict; each key must name the child's own parent."""
    out = {}
    for key, child in t.children.items():
        c, v = divmod(key, t.num_vertices)
        assert t.parent[child] == v
        out[v, c] = child
    return out


def kids(t, v):
    """The children of v by the first symbol of their edge, in symbol order."""
    return {c: child for (u, c), child in sorted(edges(t).items()) if u == v}


def char_access_for(distinct):
    """The character access of a trie from trie.build: its samples index
    the distinct strings."""
    return lambda sid, pos: distinct[sid][pos - 1]


class TestBuild:
    def test_single_string(self):
        t, distinct = trie.build([(1,)])
        assert t.r_rank[0] == 1
        assert distinct == [(1,)]
        assert t.leaf_range(0) == (1, 1)

    def test_three_strings_shape(self):
        t, distinct = trie.build(ABC_SET)
        assert distinct == [(1, 2, 3), (1, 2, 4), (2,)]
        assert t.r_rank[0] == 3
        # root branches on symbols 1 and 2
        assert sorted(kids(t, 0)) == [1, 2]
        assert t.child(0, 3) is None
        # the shared "ab" vertex has string length 2 and covers ranks 1..2
        ab = t.child(0, 1)
        assert kids(t, 0)[1] == ab
        assert t.strlen[ab] == 2
        assert t.leaf_range(ab) == (1, 2)
        assert sorted(kids(t, ab)) == [3, 4]
        # four edges: "ab", "b", and "c" and "d" below "ab"
        assert len(t.children) == t.num_vertices - 1 == 4

    def test_ranks_lexicographic(self):
        t, distinct = trie.build(ABC_SET)
        assert distinct.index((1, 2, 3)) + 1 == 1
        assert distinct.index((2,)) + 1 == 3

    def test_duplicates_merge(self):
        # equal strings share a rank (the index's own grouping of equal
        # reversed substrings is tested by TestItemRanks in test_index.py)
        t, distinct = trie.build([(1, 2), (3,), (1, 2)])
        assert t.r_rank[0] == 2
        assert distinct == [(1, 2), (3,)]
        access = char_access_for(distinct)
        assert t.leaf_range(t.locus_by_walk((1, 2), access)) == (1, 1)
        assert t.leaf_range(t.locus_by_walk((3,), access)) == (2, 2)

    def test_prefix_marks_inner_vertex_and_ranks_first(self):
        # "a" ranks before "ab" and ends at the inner vertex above it
        t, distinct = trie.build([(1, 2), (1,)])
        assert distinct == [(1,), (1, 2)]
        access = char_access_for(distinct)
        v = t.locus_by_walk(distinct[0], access)
        assert v == t.child(0, 1)
        assert t.strlen[v] == 1
        assert t.leaf_range(v) == (1, 2)
        assert list(kids(t, v)) == [2]
        w = t.locus_by_walk(distinct[1], access)
        assert w == t.child(v, 2)
        assert t.strlen[w] == 2 and t.leaf_range(w) == (2, 2)


class TestLeafRanges:
    def test_root_covers_all(self):
        rng = random.Random(41)
        strings = {tuple(random_text(rng, 3, rng.randint(1, 12))) for _ in range(300)}
        t, distinct = trie.build(sorted(strings))
        assert t.leaf_range(0) == (1, len(distinct))

    def test_every_vertex_consistent(self):
        rng = random.Random(42)
        for _ in range(10):
            strings = [tuple(random_text(rng, 4, rng.randint(1, 20))) for _ in range(1000)]
            t, distinct = trie.build(strings)
            # recompute ranges from the vertex where each string ends, via
            # parent pointers
            access = char_access_for(distinct)
            below = [set() for _ in range(t.num_vertices)]
            for rank, s in enumerate(distinct, start=1):
                v = t.locus_by_walk(s, access)
                assert t.strlen[v] == len(s)
                while v != -1:
                    below[v].add(rank)
                    v = t.parent[v]
            for v in range(t.num_vertices):
                l, r = t.leaf_range(v)
                assert below[v] == set(range(l, r + 1))
            # one key per edge, the first symbol of the child's edge below
            # its parent, and children keyed in vertex order
            assert list(t.children.values()) == list(range(1, t.num_vertices))
            assert edges(t) == {
                (t.parent[u], distinct[t.sample[u]][t.strlen[t.parent[u]]]): u
                for u in range(1, t.num_vertices)}


class TestLocusByWalk:
    def test_example(self):
        t, distinct = trie.build(ABC_SET)
        v = t.locus_by_walk((1, 2), char_access_for(distinct))
        assert t.leaf_range(v) == (1, 2)

    def test_empty_pattern_is_root(self):
        t, distinct = trie.build(ABC_SET)
        assert t.locus_by_walk((), char_access_for(distinct)) == 0

    def test_absent_symbol(self):
        t, distinct = trie.build(ABC_SET)
        assert t.locus_by_walk((9, 9), char_access_for(distinct)) is None

    def test_matches_brute_force(self):
        rng = random.Random(43)
        for _ in range(20):
            strings = sorted({tuple(random_text(rng, 3, rng.randint(1, 10))) for _ in range(60)})
            t, distinct = trie.build(strings)
            access = char_access_for(distinct)
            patterns = [s[:k] for s in strings for k in range(len(s) + 1)]
            patterns += [tuple(random_text(rng, 4, rng.randint(1, 8))) for _ in range(50)]
            for pat in patterns:
                v = t.locus_by_walk(pat, access)
                expected = brute_locus_range(distinct, pat)
                if expected is None:
                    assert v is None
                else:
                    assert t.leaf_range(v) == expected


class TestByteKeys:
    def test_widths(self):
        # the least width that holds the largest symbol
        assert [trie.key_width(sigma) for sigma in (
            0, 255, 256, 65_535, 65_536, (1 << 32) - 1, 1 << 32, (1 << 64) - 1)] == [
            1, 1, 2, 2, 4, 4, 8, 8]
        with pytest.raises(ValueError):
            trie.key_width(1 << 64)

    def test_order_and_lcps_match_tuples(self):
        rng = random.Random(44)
        for alphabet in ([1, 2, 3], [1, 254, 255], [1, 255, 256, 257], [1, 65_535, 65_536], [1, 1 << 40]):
            width = trie.key_width(max(alphabet))
            strings = sorted({tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
                              for _ in range(200)})
            keys = [trie.encode(s, width) for s in strings]
            assert sorted(keys) == keys
            lcps = [0] + [next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
                          for a, b in zip(strings, strings[1:])]
            assert trie.key_lcps(keys, width) == lcps
            t, distinct = trie.build(strings)
            assert distinct == strings

    def test_wide_symbols(self):
        # child keys past the int64 range are Python ints, and a symbol
        # past every stored one misses without colliding with another key
        big = [1, (1 << 62) + 3, (1 << 63) + 1, (1 << 64) - 1]
        rng = random.Random(45)
        strings = sorted({tuple(rng.choice(big) for _ in range(rng.randint(1, 6)))
                          for _ in range(150)})
        t, distinct = trie.build(strings)
        assert distinct == strings
        assert edges(t)  # every key decodes to its own parent
        access = char_access_for(distinct)
        for pat in [s[:k] for s in strings for k in range(len(s) + 1)] + [(1 << 64,), (0,)]:
            v = t.locus_by_walk(pat, access)
            expected = brute_locus_range(distinct, pat)
            assert (v is None) if expected is None else t.leaf_range(v) == expected
