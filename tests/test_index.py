import gc
import random
import sys

import numpy as np
import pytest

from lzindex import Index, IndexConfig, _suffixes, fingerprints as fp, index as ix, lz77, trie
from lzindex._io import Reader, Writer
from lzindex._text import to_symbols

from conftest import (absent_pattern, descending_prefix_text, mutated_copies, planted_pattern,
                      random_text)
from reference import classify, naive_locate, primary_pairs, suffix_rank_order


def all_patterns(sigma, max_len):
    out = []
    stack = [()]
    while stack:
        s = stack.pop()
        if s:
            out.append(bytes(s))
        if len(s) < max_len:
            stack.extend(s + (c,) for c in range(1, sigma + 1))
    return out


class TestBuild:
    def test_exhaustive_small_text(self):
        text = b"\x01\x02\x03" * 3
        idx = Index.build(text, IndexConfig(tau=2))
        for pattern in all_patterns(3, len(text)):
            assert idx.locate(pattern) == naive_locate(text, pattern)

    def test_single_symbol_text(self):
        idx = Index.build(b"\x01")
        assert idx.locate(b"\x01") == [1]

    def test_parse_size_independent_of_k(self):
        for k in (3, 10, 1000):
            idx = Index.build(b"\x01\x02\x03" * k)
            assert idx.stats()["phrases"] == 4

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="empty text"):
            Index.build(b"")

    def test_zero_byte_rejected(self):
        # symbols start at 1; the CLI shifts every byte up by one instead
        with pytest.raises(ValueError, match="symbols must be >= 1"):
            Index.build(b"a\x00b")

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            Index.build(b"\x01\x02", IndexConfig(tau=0))

    def test_symbol_past_int64_rejected(self):
        for big in (1 << 63, 1 << 64):
            with pytest.raises(ValueError, match="int64"):
                Index.build([1, big])

    @pytest.mark.parametrize("text", [[1.5, 2.7], np.array([1.5, 2.7]), [1, 2.0], ["a"]],
                             ids=["list", "array", "mixed", "str"])
    def test_non_integral_symbols_rejected(self, text):
        # not truncated to the integers below them
        with pytest.raises(ValueError, match="integers"):
            Index.build(text)

    def test_uint64_past_int64_rejected(self):
        # as the same values in a list are, not wrapped to negative symbols
        with pytest.raises(ValueError, match="int64"):
            Index.build(np.array([1, 1 << 63], dtype=np.uint64))
        assert Index.build(np.array([1, 2, 1, 2], dtype=np.uint64)).locate([1, 2]) == [1, 3]

    def test_tau_past_int64(self):
        # a tau past n gives the substrings of tau = n, however large
        rng = random.Random(121)
        text = mutated_copies(rng, 40, 400, 2)
        patterns = [planted_pattern(rng, text, 1, 60) for _ in range(30)]
        patterns.append(absent_pattern(rng, text, 4, 12))
        for tau in (1 << 62, (1 << 63) - 1, 1 << 63, 1 << 64):
            idx = Index.build(text, IndexConfig(tau=tau))
            assert idx.tau == tau
            assert bytes(idx.extract(1, len(text))) == text
            for pattern in patterns:
                assert idx.locate(pattern) == naive_locate(text, pattern)
            blob = idx.to_bytes()
            assert Index.from_bytes(blob).to_bytes() == blob

    def test_build_makes_no_lcp_array(self, monkeypatch):
        # the build compares its few adjacent suffixes directly; Kasai's LCP
        # array, a Python loop over n, is only for the tracer's certification
        lcp_array = _suffixes.lcp_array

        def refuse(*args):
            raise AssertionError("the build made an LCP array")

        for name, module in list(sys.modules.items()):
            if name.startswith("lzindex") and getattr(module, "lcp_array", None) is lcp_array:
                monkeypatch.setattr(module, "lcp_array", refuse)
        rng = random.Random(120)
        for text in (mutated_copies(rng, 300, 4_000, 3), random_text(rng, 4, 1_500)):
            idx = Index.build(text)
            blob = idx.to_bytes()
            assert Index.from_bytes(blob).to_bytes() == blob
            patterns = [planted_pattern(rng, text, 1, 60) for _ in range(40)]
            patterns.append(absent_pattern(rng, text, 4, 12))
            for pattern in patterns:
                assert idx.locate(pattern) == naive_locate(text, pattern)


class TestLocate:
    def test_example(self):
        idx = Index.build(b"\x01\x02\x03" * 3)
        assert idx.locate(b"\x01\x02\x03") == [1, 4, 7]

    def test_whole_text(self):
        text = b"\x02\x01\x02\x02\x01"
        idx = Index.build(text)
        assert idx.locate(text) == [1]

    def test_absent_symbol(self):
        idx = Index.build(b"\x01\x02\x03" * 3)
        assert idx.locate(b"\x09\x09\x09") == []

    @pytest.mark.parametrize("call", [
        lambda idx, c: idx.locate([c]),
        lambda idx, c: idx.locate([1] * idx.tau + [c]),
    ], ids=["locate", "locate_long"])
    def test_symbol_past_int64_is_absent(self, call):
        # no symbol above sigma occurs, however large
        idx = Index.build(b"\x01\x02\x03" * 3)
        for big in (1 << 63, 1 << 64):
            assert call(idx, big) == []

    def test_uint64_pattern_past_int64_is_absent(self):
        idx = Index.build(b"\x01\x02\x03" * 3)
        assert idx.locate(np.array([1, 1 << 63], dtype=np.uint64)) == []
        assert idx.locate(np.array([1, 2], dtype=np.uint64)) == [1, 4, 7]

    @pytest.mark.parametrize("pattern", [[97.9, 98.2], np.array([97.9, 98.2])],
                             ids=["list", "array"])
    def test_non_integral_pattern_rejected(self, pattern):
        # not read as "ab"
        idx = Index.build(b"abcabcab")
        with pytest.raises(ValueError, match="integers"):
            idx.locate(pattern)

    def test_matches_scan_after_descending_prefix(self):
        # the parse of the prefix climbs the reversed tree of block minima
        # to its top at every phrase start
        rng = random.Random(124)
        text = descending_prefix_text(rng)
        idx = Index.build(text)
        patterns = [planted_pattern(rng, text, 1, 60) for _ in range(60)]
        patterns += [text[990:1010], text[1000:1050], text[240:260], [6, 6], [7, 5]]
        for pattern in patterns:
            assert idx.locate(pattern) == naive_locate(text, pattern)

    def test_pattern_longer_than_text(self):
        idx = Index.build(b"\x01\x02")
        assert idx.locate(b"\x01\x02\x01") == []

    def test_empty_pattern_rejected(self):
        idx = Index.build(b"\x01\x02")
        with pytest.raises(ValueError, match="empty pattern"):
            idx.locate(b"")

    def test_answer_is_sorted_python_ints(self, monkeypatch):
        # whichever route the copy queue takes, the answer is a sorted list
        # of Python ints, as the command line's JSON output needs
        from lzindex import range_report
        rng = random.Random(96)
        text = mutated_copies(rng, 200, 6_000, 4)
        idx = Index.build(text)
        patterns = [planted_pattern(rng, text, m, m) for m in (1, 2, 3, 8, 40) for _ in range(3)]
        for wide in (1, range_report.WIDE_SCAN, 1 << 62):
            monkeypatch.setattr(range_report, "WIDE_SCAN", wide)
            for pattern in patterns:
                got = idx.locate(pattern)
                assert type(got) is list and all(type(o) is int for o in got)
                assert got == naive_locate(text, pattern)
        assert max(len(idx.locate(p)) for p in patterns) > 1_000

    def test_absent_pattern_skips_the_expansion(self, monkeypatch):
        # a pattern with no primary occurrence has no occurrence at all, so
        # locate returns before the copy queue and leaves empty stats
        rng = random.Random(97)
        text = mutated_copies(rng, 200, 3_000, 4)
        idx = Index.build(text)
        expanded = []
        expand = idx.sources.expand
        monkeypatch.setattr(idx.sources, "expand", lambda *a: expanded.append(a) or expand(*a))
        for m in (idx.tau, idx.tau + 1, 40):
            # a near miss: a planted pattern with one symbol changed
            near = text[:m]
            while near in text:
                near = bytearray(planted_pattern(rng, text, m, m))
                k = rng.randrange(m)
                near[k] = near[k] % 4 + 1
                near = bytes(near)
            assert idx.locate(near) == []
            assert idx.last_stats == {"identified": {}, "primary": [], "secondary": []}
        assert not expanded
        assert idx.locate(planted_pattern(rng, text, 5, 5)) and expanded

    def test_random_texts_match_oracle(self):
        rng = random.Random(91)
        for _ in range(15):
            sigma = rng.choice([2, 4, 26])
            n = rng.randint(20, 600)
            text = random_text(rng, sigma, n)
            idx = Index.build(text, IndexConfig(tau=rng.choice([None, 1, 2, 5])))
            for _ in range(60):
                if rng.random() < 0.6:
                    pattern = planted_pattern(rng, text, 1, n)
                else:
                    pattern = bytes(rng.randint(1, sigma) for _ in range(rng.randint(1, 12)))
                assert idx.locate(pattern) == naive_locate(text, pattern)


class TestLongPatterns:
    """Long patterns whose cuts compare many blocks of text with the
    pattern, present and with one substitution."""

    @staticmethod
    def check(rng, text, idx, lengths):
        n = len(text)
        for m in lengths:
            for _ in range(6):
                start = rng.randint(0, n - m)
                pattern = bytearray(text[start : start + m])
                assert idx.locate(bytes(pattern)) == naive_locate(text, bytes(pattern))
                pos = rng.randrange(m)
                pattern[pos] = pattern[pos] % 4 + 1
                assert idx.locate(bytes(pattern)) == naive_locate(text, bytes(pattern))

    def test_near_periodic_text(self):
        rng = random.Random(111)
        text = bytearray(b"\x01\x02\x03\x01\x02\x04\x03" * 1500)
        for pos in rng.sample(range(len(text)), 12):
            text[pos] = text[pos] % 4 + 1
        text = bytes(text)
        idx = Index.build(text)
        b = idx.block_len
        assert b > 100
        self.check(rng, text, idx, [3 * b, 5 * b, len(text) // 2])

    def test_repetitive_text_around_block_len(self):
        rng = random.Random(112)
        base = random_text(rng, 4, 400)
        text = bytearray()
        while len(text) < 8000:
            copy = bytearray(base)
            for pos in rng.sample(range(len(copy)), 3):
                copy[pos] = copy[pos] % 4 + 1
            text += copy
        text = bytes(text)
        idx = Index.build(text)
        b = idx.block_len
        assert b > idx.tau
        self.check(rng, text, idx, [b - 1, b + 1, 3 * b])


class TestWeakSearchProbes:
    """The weak searches locate runs on the index's own tries."""

    @staticmethod
    def record(monkeypatch, idx) -> list:
        """(whether on t_d, m, lookups) per weak search locate runs from now
        on, a lookup being one call for a prefix's value; each asks for a
        prefix length b with 1 <= b <= m, on both tries."""
        searches = []
        weak_search = ix.prefix_search.weak_search

        def counted(ps, m, prefix_fp, pattern_symbol):
            lookups = []

            def value(b):
                assert 1 <= b <= m
                lookups.append(b)
                return prefix_fp(b)

            res = weak_search(ps, m, value, pattern_symbol)
            searches.append((ps is idx.ps_d, m, len(lookups)))
            return res

        monkeypatch.setattr(ix.prefix_search, "weak_search", counted)
        return searches

    def test_lookups_per_search_at_most_bit_length(self, monkeypatch):
        # one lookup per halving of (0, 2^bit_length(m)), not one per
        # multiple of the block length
        rng = random.Random(121)
        text = random_text(rng, 4, 30_000)
        idx = Index.build(text)
        searches = self.record(monkeypatch, idx)
        for _ in range(3):
            pattern = planted_pattern(rng, text, 10_000, 10_000)
            assert idx.locate(pattern) == naive_locate(text, pattern)
        assert max(m for _, m, _ in searches) > 10 * idx.block_len
        assert all(lookups <= m.bit_length() for _, m, lookups in searches)
        assert {d for d, _, lookups in searches if lookups} == {True, False}

    def test_tail_cut_only_where_a_string_can_hold_it(self, monkeypatch):
        # a t_d string runs from a phrase start to at most tau - 1 past its
        # border, so it is at most block_len + tau - 1 long, and locate
        # searches the tail cut k = m only up to that length
        rng = random.Random(122)
        text = random_text(rng, 4, 3_000)
        idx = Index.build(text)
        b, tau = idx.block_len, idx.tau
        assert tau > 1 and max(idx.t_d.strlen) <= b + tau - 1
        searches = self.record(monkeypatch, idx)
        for m in range(tau + 1, b + 3 * tau):
            if m % tau:
                pattern = planted_pattern(rng, text, m, m)
                searches.clear()
                assert idx.locate(pattern) == naive_locate(text, pattern)
                assert ((True, m) in {(d, k) for d, k, _ in searches}) == (m < b + tau)


class TestPhaseOps:
    def build_case(self, seed, n=400, sigma=4):
        rng = random.Random(seed)
        text = random_text(rng, sigma, n)
        return rng, text, Index.build(text)

    def primaries_by_oracle(self, text, idx, pattern):
        occ = naive_locate(text, pattern)
        flags = classify(text, idx.capped, occ, len(pattern))
        return occ, [o for o, f in zip(occ, flags) if f]

    def test_long_primary_pairs(self):
        rng, text, idx = self.build_case(92)
        for _ in range(40):
            pattern = planted_pattern(rng, text, idx.tau + 1, len(text) // 2)
            occ, primaries = self.primaries_by_oracle(text, idx, pattern)
            pairs = primary_pairs(idx, pattern)
            assert [p for p, _ in pairs] == primaries
            for p, b in pairs:  # the border lies inside the occurrence
                assert p <= b <= p + len(pattern) - 1

    def test_short_primary_pairs(self):
        rng, text, idx = self.build_case(93)
        cases = [(text, idx, [planted_pattern(rng, text, 1, idx.tau) for _ in range(40)])]
        # a reloaded index over an integer alphabet, asked every pattern
        # that ends in the text's largest symbol
        base = [rng.randint(1, 300) for _ in range(150)] + [300]
        ints = [c if rng.random() > 0.05 else rng.randint(1, 300) for c in base * 8]
        loaded = Index.from_bytes(Index.build(ints, IndexConfig(tau=4)).to_bytes())
        top = max(ints)
        ends = {tuple(ints[i - m + 1 : i + 1]) for i, c in enumerate(ints) if c == top
                for m in range(1, min(loaded.tau, i + 1) + 1)}
        ends.update((top,) * m for m in range(1, loaded.tau + 1))
        cases.append((ints, loaded, sorted(ends)))
        for text, idx, patterns in cases:
            found = 0
            for pattern in patterns:
                occ, primaries = self.primaries_by_oracle(text, idx, pattern)
                pairs = primary_pairs(idx, pattern)
                assert [p for p, _ in pairs] == primaries
                for p, b in pairs:
                    assert p <= b <= p + len(pattern) - 1
                found += bool(pairs)
            assert found

    @pytest.mark.parametrize("tau", [40, 10_000])
    def test_short_patterns_with_large_tau(self, tau):
        # tau at least the block length, and past n: a short occurrence may
        # span several borders and reach the text's end
        rng = random.Random(tau)
        base = random_text(rng, 4, 30)
        text = bytearray()
        while len(text) < 300:
            copy = bytearray(base)
            copy[rng.randrange(len(copy))] = rng.randint(1, 4)
            text += copy
        text = bytes(text[:300])
        n = len(text)
        idx = Index.build(text, IndexConfig(tau=tau))
        assert idx.tau == tau >= idx.block_len
        found = longest = 0
        for m in sorted({*range(1, min(tau, n + 1) + 1), tau}):
            patterns = {b"\x01" * m}
            for i in rng.sample(range(n - m + 1), min(3, max(n - m + 1, 0))):
                p = text[i : i + m]
                patterns |= {p, p[:-1] + bytes([p[-1] % 4 + 1])}
            for pattern in sorted(patterns):
                occ, primaries = self.primaries_by_oracle(text, idx, pattern)
                assert idx.locate(pattern) == occ
                pairs = primary_pairs(idx, pattern)
                assert [p for p, _ in pairs] == primaries
                for p, b in pairs:
                    assert p <= b <= p + m - 1
                if pairs:
                    found += 1
                    longest = m
        # primaries of patterns longer than a block span two borders or more
        assert found >= min(tau, n) and longest > 2 * idx.block_len

    def test_secondary_completes_the_partition(self):
        # the expansion locate runs, from the primaries alone, lists every
        # other occurrence once
        rng, text, idx = self.build_case(94)
        for _ in range(40):
            pattern = planted_pattern(rng, text, 1, len(text) // 2)
            occ, primaries = self.primaries_by_oracle(text, idx, pattern)
            secondary = idx.sources.expand(primaries, len(pattern))
            assert len(set(secondary)) == len(secondary)
            assert not set(primaries) & set(secondary)
            assert sorted([*primaries, *secondary]) == occ

    def test_no_primaries_no_secondaries(self):
        _, _, idx = self.build_case(95)
        assert idx.sources.expand([], 3) == []

    def test_chained_copies(self):
        idx = Index.build(b"\x01" * 64)
        assert idx.locate(b"\x01\x01") == list(range(1, 64))


class TestVerifyCandidates:
    """The check locate runs on a weak-search candidate of the suffix side
    (Index._suffix_holds): a t_dp vertex passes iff its string, the text
    read forwards from the vertex's sample, starts with the query, a slice
    of the pattern that may have symbols before it."""

    def setup_method(self):
        rng = random.Random(97)
        self.text = random_text(rng, 3, 300)
        self.idx = Index.build(self.text)
        self.t = self.idx.t_dp

    def vertex_string(self, v, length):
        """The length symbols of the text that str(v) starts with, read past
        str(v) if it is shorter; fewer at the text's end."""
        start = self.t.sample[v] - 1
        return tuple(self.text[start : start + length])

    def holds(self, v, query) -> bool:
        # the pattern holds two symbols outside the alphabet before the query
        pattern = [9, 9, *query]
        return self.idx._suffix_holds(v, pattern, 2, len(pattern))

    def pick_vertex(self, min_len):
        for v in range(1, self.t.num_vertices):
            if self.t.strlen[v] >= min_len:
                return v
        raise AssertionError("no deep enough vertex")

    def test_genuine_retained(self):
        v = self.pick_vertex(4)
        q = self.vertex_string(v, 4)
        assert self.holds(v, q)

    def test_false_discarded(self):
        v = self.pick_vertex(4)
        q = self.vertex_string(v, 4)
        wrong = tuple(c % 3 + 1 for c in q)  # same length, differs everywhere
        assert not self.holds(v, wrong)

    def test_mixed(self):
        # two cuts of one pattern, each with its candidate: only the one
        # whose vertex spells its query passes
        v = self.pick_vertex(4)
        q = self.vertex_string(v, 4)
        tail = q[-2:]
        other = next(
            u for u in range(1, self.t.num_vertices)
            if self.t.strlen[u] >= 2 and self.vertex_string(u, 2) != tail
        )
        cands = [(tail, other), (q, v)]
        assert [(s, u) for s, u in cands if self.holds(u, s)] == [(q, v)]

    def test_order_and_short_vertex(self):
        # the text is compared in order, so the query's symbols in another
        # order fail at the vertex that spells the query; and a vertex whose
        # string is shorter than the query fails, even where the text it is
        # read from goes on to spell the query
        v = self.pick_vertex(6)
        q = self.vertex_string(v, 6)
        assert self.holds(v, q)
        others = {q[::-1], q[1:] + q[:1], tuple(sorted(q))} - {q}
        assert others
        for other in others:
            assert not self.holds(v, other)
        short = next(u for u in range(1, self.t.num_vertices)
                     if self.t.strlen[u] == 2 and len(self.vertex_string(u, 4)) == 4)
        assert self.holds(short, self.vertex_string(short, 2))
        assert not self.holds(short, self.vertex_string(short, 3))
        assert not self.holds(short, self.vertex_string(short, 4))


class TestPrefixCandidates(TestVerifyCandidates):
    """The same cases on the prefix side (Index._prefix_holds): a t_d vertex
    passes iff its string, the text read backwards from the vertex's sample,
    starts with the query, the reversal of the pattern's first symbols."""

    def setup_method(self):
        super().setup_method()
        self.t = self.idx.t_d

    def vertex_string(self, v, length):
        end = self.t.sample[v]
        return tuple(self.text[max(end - length, 0) : end][::-1])

    def holds(self, v, query) -> bool:
        # the pattern holds two symbols outside the alphabet after the prefix
        return self.idx._prefix_holds(v, [*query[::-1], 9, 9], len(query))


class TestExtract:
    def test_random_ranges(self):
        rng = random.Random(98)
        text = random_text(rng, 26, 1200)
        idx = Index.build(text)
        assert bytes(idx.extract(1, len(text))) == text
        assert idx.extract(7, 6) == []
        for _ in range(500):
            i = rng.randint(1, len(text))
            j = rng.randint(i, len(text))
            assert bytes(idx.extract(i, j)) == text[i - 1 : j]

    def test_out_of_range(self):
        idx = Index.build(b"\x01\x02\x03")
        with pytest.raises(ValueError):
            idx.extract(0, 2)
        with pytest.raises(ValueError):
            idx.extract(1, 4)


class TestSerialization:
    def build_random(self, seed, n=500, sigma=4):
        rng = random.Random(seed)
        text = random_text(rng, sigma, n)
        return rng, text, Index.build(text)

    @staticmethod
    def trie_fields(t):
        """Every field of a trie, with the children dict in insertion order."""
        fields = dict(vars(t))
        fields["children"] = list(t.children.items())
        return fields

    def test_byte_identical_round_trip(self):
        _, _, idx = self.build_random(99)
        blob = idx.to_bytes()
        loaded = Index.from_bytes(blob)
        assert loaded.to_bytes() == blob
        # the file holds no grammar; loading derives the same one
        for attr in ("left", "right", "length", "height", "exp"):
            assert getattr(loaded.bt.arena, attr) == getattr(idx.bt.arena, attr)
        assert loaded.bt.roots == idx.bt.roots
        # nor the phrase sources; loading derives them from the parse
        for attr in ("starts", "ends", "shifts"):
            assert np.array_equal(getattr(loaded.sources, attr), getattr(idx.sources, attr))
        # nor the tries, the grid or the dictionaries: loading rebuilds them
        # from the parse, sorting the suffix trie's strings again, and
        # recomputes the dictionary values from the text
        for attr in ("t_d", "t_dp"):
            assert self.trie_fields(getattr(loaded, attr)) == self.trie_fields(getattr(idx, attr))
        assert vars(loaded.grid_r) == vars(idx.grid_r)
        everything = (1, loaded.t_d.num_leaves, 1, loaded.t_dp.num_leaves)
        assert loaded.grid_r.query(*everything) == idx.grid_r.query(*everything)
        for attr in ("ps_d", "ps_dp"):
            a, b = getattr(loaded, attr), getattr(idx, attr)
            assert list(a.G.items()) == list(b.G.items())

    def test_locate_identical_after_load(self, tmp_path):
        rng, text, idx = self.build_random(100)
        path = tmp_path / "t.idx"
        idx.save(path)
        loaded = Index.load(path)
        for _ in range(80):
            pattern = planted_pattern(rng, text, 1, 40)
            assert loaded.locate(pattern) == idx.locate(pattern)
        absent = absent_pattern(rng, text, 4, 6)
        assert loaded.locate(absent) == []

    def test_build_deterministic(self):
        text = random_text(random.Random(101), 4, 300)
        a = Index.build(text, IndexConfig(seed=7))
        b = Index.build(text, IndexConfig(seed=7))
        assert a.to_bytes() == b.to_bytes()

    def test_component_sizes_sum_to_file(self):
        _, _, idx = self.build_random(102)
        sizes = idx.component_sizes()
        assert sum(sizes.values()) == len(idx.to_bytes())
        assert sizes["header"] > 0 and sizes["parse"] > 0
        # rebuilt on load, so stored empty
        for name, size in sizes.items():
            if name not in ("header", "parse"):
                assert size == 0, name

    def test_bad_magic(self):
        # the older formats: the first stored node fingerprints and a grammar
        # of the reversed text, the second a grid of the phrase sources, the
        # third the grammar, every trie and the border grid
        # the fourth the same sections as the fifth but no checksum, the
        # fifth a prime p and two certification flags in the header and
        # dictionary values as wide as p, the sixth the dictionary values,
        # 8 bytes each, which loading now recomputes, and the seventh the
        # lcps of the suffix trie's adjacent strings, which loading derives,
        # and the eighth n, sigma and the block length in the header and the
        # suffix trie's string order, which loading derives from the parse
        for blob in (b"garbage!", b"LZXIDX1\n", b"LZXIDX2\n", b"LZXIDX3\n", b"LZXIDX4\n",
                     b"LZXIDX5\n", b"LZXIDX6\n", b"LZXIDX7\n", b"LZXIDX8\n"):
            with pytest.raises(ValueError, match="not an index file"):
                Index.from_bytes(blob + b"\x00" * 40)

    @staticmethod
    def sealed(blob: bytes) -> bytes:
        """The file with its checksum recomputed, so that loading reaches
        the checks behind it."""
        at = ix._CRC_AT
        return blob[:at] + ix._checksum(blob).to_bytes(4, "little") + blob[at + 4 :]

    @classmethod
    def with_sections(cls, idx, **replaced) -> bytes:
        """The index file with the named sections replaced."""
        return cls.sealed(b"".join(replaced.get(name, data) for name, data in idx._sections()))

    @classmethod
    def with_parse(cls, idx, phrases) -> bytes:
        """The index file with its parse section replaced by `phrases`."""
        w = Writer()
        w.u(len(phrases))
        for ph in phrases:
            w.u(ph.start)
            w.u(ph.len)
            w.u(ph.border)
        return cls.with_sections(idx, parse=bytes(w.buf))

    @staticmethod
    def header_fields(idx) -> list[int]:
        """z, tau, seed and r."""
        r = Reader(dict(idx._sections())["header"])
        r.pos = ix._CRC_AT + 4
        fields = [r.u() for _ in range(4)]
        assert r.pos == len(r.data)
        return fields

    @staticmethod
    def order_section(idx) -> bytes:
        """The suffix trie's string order as the previous format stored it:
        the item count, then an item index per rank."""
        _, ends, _ = ix._relevant_substrings(idx.capped, idx.tau, idx.n)
        order = suffix_rank_order(lz77.decompress(idx.capped), ends)
        w = Writer()
        for v in (len(order), *order):
            w.u(v)
        return bytes(w.buf)

    def assert_corrupt(self, crafted: dict) -> None:
        for case, blob in crafted.items():
            with pytest.raises(ValueError, match="corrupt index"):
                Index.from_bytes(blob)

    def test_corrupt_parse(self, monkeypatch):
        _, text, idx = self.build_random(107)
        phrases = list(idx.capped.phrases)
        assert Index.from_bytes(self.with_parse(idx, phrases)).to_bytes() == idx.to_bytes()
        i, pos = next((i, sum(ph.span() for ph in phrases[:i]) + 1)
                      for i, ph in enumerate(phrases) if ph.len > 0)
        ph = phrases[i]
        j = next(j for j, ph in enumerate(phrases) if j > 0 and ph.len == 0)
        last = phrases[-1]
        # the file stores no n: a parse with a phrase more or less is the
        # parse of another text, so only its own rules can refuse it
        self.assert_corrupt({
            case: self.with_parse(idx, bad) for case, bad in {
                "source start 0": phrases[:i] + [lz77.Phrase(0, ph.len, ph.border)] + phrases[i + 1 :],
                "source at its phrase": phrases[:i] + [lz77.Phrase(pos, ph.len, ph.border)] + phrases[i + 1 :],
                "start without a source": phrases[:j] + [lz77.Phrase(1, 0, phrases[j].border)] + phrases[j + 1 :],
                "border 0": phrases[:-1] + [lz77.Phrase(last.start, last.len, 0)],
                # fingerprints read symbols mod p: 2 + p and 2^62 = 2 (mod p)
                # would pass for the text's 2s
                "border 2 + p": phrases[:-1] + [lz77.Phrase(last.start, last.len, 2 + fp.P)],
                "border 2^62": phrases[:-1] + [lz77.Phrase(last.start, last.len, 1 << 62)],
                # sigma is the largest border, and the build reads symbols as int64
                "border 2^63": phrases[:-1] + [lz77.Phrase(last.start, last.len, 1 << 63)],
                "border 2^64": phrases[:-1] + [lz77.Phrase(last.start, last.len, 1 << 64)],
                # capping z phrases of spans s_i at a block B makes at most
                # sum ceil(s_i / B) <= (n + z (B - 1)) / B of them
                "one phrase per symbol": [lz77.Phrase(0, 0, c) for c in text],
            }.items()
        })
        # one phrase of 2^40 symbols after the first whole block, z = 1: the
        # bound is 1 phrase, so the file is refused before its text is decoded
        def no_decode(capped):
            raise AssertionError(f"decoding {capped.n} symbols")

        monkeypatch.setattr(lz77, "decompress", no_decode)
        w = Writer()
        w.raw(ix.MAGIC + bytes(4))
        for v in (1, 1, 0, fp.select_function(0), 2, 0, 0, 1, 1, 1 << 40, 2):
            w.u(v)
        self.assert_corrupt({"z 1, two phrases": self.sealed(bytes(w.buf))})

    def test_phrase_longer_than_block(self):
        # a valid LZ77 parse of the text, but not capped at the block length
        base = random_text(random.Random(106), 4, 80)
        text = base * 6
        idx = Index.build(text)
        uncapped = lz77.parse(text).phrases
        assert max(ph.span() for ph in uncapped) > idx.block_len
        with pytest.raises(ValueError, match="corrupt index"):
            Index.from_bytes(self.with_parse(idx, uncapped))

    def with_field(self, idx, at: int, value: int) -> bytes:
        """The index file with header field `at` set to value."""
        w = Writer()
        w.raw(ix.MAGIC + bytes(4))  # with_sections fills the checksum in
        for k, v in enumerate(self.header_fields(idx)):
            w.u(value if k == at else v)
        return self.with_sections(idx, header=bytes(w.buf))

    def test_corrupt_header(self):
        rng, text, idx = self.build_random(109)
        # z lies in [1, capped z], tau is at least 1 and r in [1, p)
        z, capped_z = self.header_fields(idx)[0], idx.capped.z
        assert z < capped_z
        self.assert_corrupt({
            case: self.with_field(idx, at, bad)
            for case, at, bad in (("z 0", 0, 0), ("z above capped z", 0, capped_z + 1),
                                  ("tau 0", 1, 0), ("r 0", 3, 0), ("r = p", 3, fp.P))
        })
        # any tau of at least 1 is valid, past int64 too: a tau past n
        # reads as n
        patterns = [planted_pattern(rng, text, 1, 40) for _ in range(30)]
        patterns.append(absent_pattern(rng, text, 4, 8))
        for tau in (1 << 62, (1 << 63) - 1, 1 << 63, 1 << 64):
            blob = self.with_field(idx, 1, tau)
            loaded = Index.from_bytes(blob)
            assert loaded.tau == tau and loaded.to_bytes() == blob
            for pattern in patterns:
                assert loaded.locate(pattern) == naive_locate(text, pattern)

    def test_derived_order_matches_suffix_array(self):
        # the suffix trie's string order is sorted again at every build and
        # load, so it must be the suffix array's order of the suffixes after
        # the items; the last item ends at n, so its empty suffix ranks
        # first; and the suffix trie and grid a load derives are the built
        # ones, vertex for vertex
        rng = random.Random(480)
        for _ in range(40):
            text = mutated_copies(rng, rng.randint(20, 60), 480, 2, sigma=2)
            idx = Index.build(text)
            _, ends, _ = ix._relevant_substrings(idx.capped, idx.tau, idx.n)
            order = _suffixes.sort_suffixes(to_symbols(text), ends)
            assert order == suffix_rank_order(text, ends)
            assert ends[order[0]] == len(text)
            loaded = Index.from_bytes(idx.to_bytes())
            assert self.trie_fields(loaded.t_dp) == self.trie_fields(idx.t_dp)
            assert vars(loaded.grid_r) == vars(idx.grid_r)

    def test_corrupt_dictionaries(self):
        # loading recomputes the dictionary values and sorts the suffix
        # trie's strings, so the file stores neither and any byte after the
        # parse is corrupt, among them the values and the order that
        # earlier formats stored there
        _, _, idx = self.build_random(111)
        mask = (1 << 61) - 1
        w = Writer()
        for ps in (idx.ps_d, idx.ps_dp):
            w.u(len(ps.G))
            for k in ps.G:
                w.raw((k & mask).to_bytes(8, "little"))
        stored_values = bytes(w.buf)
        blob = idx.to_bytes()
        parse = dict(idx._sections())["parse"]
        assert blob.endswith(parse)
        self.assert_corrupt({
            "one zero byte": self.sealed(blob + b"\x00"),
            "one byte 1": self.sealed(blob + b"\x01"),
            "four empty value arrays": self.sealed(blob + bytes(4)),
            "the stored values": self.sealed(blob + stored_values),
            "the stored order": self.sealed(blob + self.order_section(idx)),
            "the parse twice": self.sealed(blob + parse),
        })

    def test_truncated(self):
        _, _, idx = self.build_random(103)
        with pytest.raises(ValueError, match="corrupt index"):
            Index.from_bytes(idx.to_bytes()[:50])

    def test_stale_checksum(self):
        # a changed seed still loads under a recomputed checksum, so only
        # the checksum tells the damage apart
        _, _, idx = self.build_random(115)
        fields = self.header_fields(idx)
        w = Writer()
        w.raw(ix.MAGIC + dict(idx._sections())["header"][ix._CRC_AT : ix._CRC_AT + 4])
        for k, v in enumerate(fields):
            w.u(v + 1 if k == 2 else v)  # the seed
        sections = dict(idx._sections(), header=bytes(w.buf))
        assert Index.from_bytes(self.with_sections(idx, header=sections["header"])).seed == idx.seed + 1
        with pytest.raises(ValueError, match="corrupt index"):
            Index.from_bytes(b"".join(sections.values()))

    def test_bit_flips_and_truncations(self):
        """Every damaged file must fail with a clean ValueError or load and
        answer exactly right."""
        rng = random.Random(116)
        text = random_text(rng, 4, 600)
        blob = Index.build(text).to_bytes()
        patterns = [planted_pattern(rng, text, 1, 40) for _ in range(20)]
        patterns.append(absent_pattern(rng, text, 4, 8))
        expected = [naive_locate(text, pattern) for pattern in patterns]

        def loads(data: bytes) -> bool:
            try:
                loaded = Index.from_bytes(data)
            except ValueError:
                return False
            assert bytes(loaded.extract(1, loaded.n)) == text
            assert [loaded.locate(pattern) for pattern in patterns] == expected
            return True

        assert loads(blob)
        flipped = []
        for k in rng.sample(range(8 * len(blob)), 300):
            bad = bytearray(blob)
            bad[k // 8] ^= 1 << (k % 8)
            flipped.append(loads(bytes(bad)))
        # CRC-32 detects every single-bit error
        assert not any(flipped)
        for cut in rng.sample(range(len(blob)), 150):
            assert not loads(blob[:cut])


class TestLoadFuzz:
    """Seeded single edits to a CRC-resealed file: each edited file must be
    refused with ValueError("corrupt index"), or load into an index that
    answers right on the text its parse decodes to and writes the same file
    back."""

    DELTAS = (1, -1, 2, -2, 5, -5)
    # values at the int64 edge and past it, set in place of stored integers
    LARGE = (1 << 62, (1 << 63) - 1, 1 << 63, 1 << 64)

    @staticmethod
    def fields(idx) -> tuple[list[int], ...]:
        """The integers the file stores, by section: the header fields and
        the parse (phrase count, then start, length and border per
        phrase)."""
        r = Reader(idx.to_bytes())
        r.pos = ix._CRC_AT + 4
        header = [r.u() for _ in range(4)]
        z = r.u()
        parse = [z] + [r.u() for _ in range(3 * z)]
        assert r.pos == len(r.data)
        return header, parse

    @staticmethod
    def file(lists) -> bytes:
        w = Writer()
        w.raw(ix.MAGIC + bytes(4))
        for values in lists:
            for v in values:
                w.u(v)
        return TestSerialization.sealed(bytes(w.buf))

    def edits(self, idx, lists, rng):
        """(kind, file) per edit: every stored integer moved by every delta
        and swapped with the next one in its section, every header integer
        and 12 of the parse's set to each LARGE value, the parse replaced by
        one phrase per symbol of its text, the suffix trie's order that the
        previous format stored appended after the parse, and the file cut
        after each of its bytes past the checksum."""
        for at, values in enumerate(lists):
            kind = ("header", "parse")[at]
            ks = range(len(values)) if at == 0 else rng.sample(range(len(values)), 12)
            for k in ks:
                for v in self.LARGE:
                    bad = list(values)
                    bad[k] = v
                    yield f"{kind} large", self.file(lists[:at] + (bad,) + lists[at + 1 :])
        for at, values in enumerate(lists):
            kind = ("header", "parse")[at]
            for k in range(len(values)):
                for d in self.DELTAS:
                    if values[k] + d >= 0:
                        bad = list(values)
                        bad[k] += d
                        yield f"{kind} +-", self.file(lists[:at] + (bad,) + lists[at + 1 :])
                if k + 1 < len(values) and values[k] != values[k + 1]:
                    bad = list(values)
                    bad[k], bad[k + 1] = bad[k + 1], bad[k]
                    yield f"{kind} swap", self.file(lists[:at] + (bad,) + lists[at + 1 :])
        # more phrases than capping the header's z makes
        text = lz77.decompress(idx.capped)
        yield "phrase per symbol", self.file((lists[0], [len(text), *(v for c in text for v in (0, 0, c))]))
        blob = self.file(lists)
        yield "bytes after the parse", TestSerialization.sealed(
            blob + TestSerialization.order_section(idx))
        for cut in range(ix._CRC_AT + 4, len(blob)):
            yield "truncated", TestSerialization.sealed(blob[:cut])

    def loads(self, data: bytes, rng) -> bool:
        try:
            idx = Index.from_bytes(data)
        except ValueError as e:
            assert str(e) == "corrupt index"
            return False
        assert idx.to_bytes() == data
        text = lz77.decompress(idx.capped)
        symbols = sorted(set(text))
        patterns = [text[i : i + m] for m in (1, 2, idx.tau, idx.tau + 1, 9, 30) if m < len(text)
                    for i in rng.sample(range(len(text) - m + 1), 2)]
        patterns += [tuple(rng.choice(symbols) for _ in range(rng.randint(1, 9))) for _ in range(4)]
        for pattern in patterns:
            assert idx.locate(pattern) == naive_locate(text, pattern), pattern
        return True

    def test_single_edits(self):
        rng = random.Random(27)
        texts = [mutated_copies(rng, 40, 480, 2, sigma=2), mutated_copies(rng, 60, 480, 3),
                 random_text(rng, 4, 300), random_text(rng, 2, 200),
                 [rng.choice((1, 300, 70_000)) for _ in range(200)]]
        loaded: dict[str, int] = {}
        tried: dict[str, int] = {}
        for text in texts:
            idx = Index.build(text)
            lists = self.fields(idx)
            assert self.file(lists) == idx.to_bytes()
            for kind, data in self.edits(idx, lists, rng):
                tried[kind] = tried.get(kind, 0) + 1
                ok = self.loads(data, rng)
                loaded[kind] = loaded.get(kind, 0) + ok
                assert not (ok and kind in ("bytes after the parse", "truncated",
                                            "phrase per symbol")), kind
        assert set(tried) == {"header +-", "header swap", "parse +-", "parse swap",
                              "header large", "parse large", "phrase per symbol",
                              "bytes after the parse", "truncated"}
        print("\nloaded / tried per edit kind:",
              {kind: f"{loaded[kind]}/{tried[kind]}" for kind in tried})


def relevant_substrings_reference(capped, tau, n):
    """(start, end, border) of every relevant substring by end, one dict
    entry per end, as the index listed them before it made arrays."""
    best = {}
    pos = 1
    for ph in capped.phrases:
        e = pos + ph.span() - 1
        for end in range(e, min(e + tau - 1, n) + 1):
            best.setdefault(end, pos)
        pos = e + 1
    borders = capped.border_positions()
    return [(best[end], end, max(b for b in borders if b <= end)) for end in sorted(best)]


class TestDerivedArrays:
    """What the constructor derives as arrays, against direct references."""

    @staticmethod
    def texts():
        rng = random.Random(28)
        return [mutated_copies(rng, 40, 600, 2, sigma=2), mutated_copies(rng, 90, 900, 3),
                random_text(rng, 4, 400), random_text(rng, 2, 50), b"\x01" * 30,
                [rng.choice((1, 300, 70_000, 1 << 40)) for _ in range(300)]]

    def test_relevant_substrings(self):
        for text in self.texts():
            for tau in (1, 2, 3, 7, 40):
                idx = Index.build(text, IndexConfig(tau=tau))
                got = ix._relevant_substrings(idx.capped, tau, idx.n)
                assert all(a.dtype == np.int64 for a in got)
                assert (list(zip(*(a.tolist() for a in got)))
                        == relevant_substrings_reference(idx.capped, tau, idx.n))

    def test_item_ranks_and_grid_points(self):
        # equal reversed relevant substrings share their t_d rank, the
        # grid's x; each grid point y is the item of t_dp rank y, carrying
        # that item's end and border
        for text in self.texts():
            for tau in (None, 2, 9):
                idx = Index.build(text, IndexConfig(tau=tau))
                arr = to_symbols(text)
                starts, ends, borders = ix._relevant_substrings(idx.capped, idx.tau, idx.n)
                rev = [tuple(arr[s - 1 : e][::-1].tolist())
                       for s, e in zip(starts.tolist(), ends.tolist())]
                rank = {r: k for k, r in enumerate(sorted(set(rev)), start=1)}
                order = suffix_rank_order(arr, ends)
                t_d, t_dp, x = ix._tries(starts, ends, arr, trie.key_width(idx.sigma),
                                         np.array(order))
                assert x.tolist() == [rank[r] for r in rev]
                assert t_d.num_leaves == len(rank) == idx.t_d.num_leaves
                assert t_dp.num_leaves == len(ends) == idx.t_dp.num_leaves
                assert idx.t_d.r_rank[0] == len(rank)
                for r in range(len(rank) + 2):
                    assert list(idx.grid_r.column(r, r)) == [
                        (int(ends[i]), int(borders[i])) for i in order if x[i] == r]
                everything = (1, len(rank), 1, len(order))
                assert sorted(idx.grid_r.query(*everything)) == list(zip(ends.tolist(),
                                                                         borders.tolist()))


def tracked_containers(root) -> list[str]:
    """The type names of the GC-tracked objects reachable from root, root
    included. Types are not followed: a class reaches its module and all
    that it holds. An untracked object holds no tracked one."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if isinstance(ref, type) or id(ref) in seen or not gc.is_tracked(ref):
                continue
            seen[id(ref)] = ref
            stack.append(ref)
    return sorted(type(obj).__name__ for obj in seen.values())


class TestResidentContainers:
    def test_tries_and_grid_hold_a_fixed_few(self):
        # the tries and the grid keep per-vertex and per-point values in
        # flat int lists and one int-keyed dict, never a container per
        # vertex, string or point, so the collector has the same few to
        # walk whatever z * tau is
        rng = random.Random(29)
        small = Index.build(random_text(rng, 2, 60))
        large = Index.build(mutated_copies(rng, 1500, 40_000, 30))
        assert large.grid_r.size > 30 * small.grid_r.size
        for attr in ("t_d", "t_dp", "grid_r"):
            got = tracked_containers(getattr(large, attr))
            assert got == tracked_containers(getattr(small, attr)), attr
            assert len(got) <= 6, (attr, got)
        # the children dict holds only ints, so the collector does not track it
        assert not gc.is_tracked(large.t_d.children)


class TestKeyWidths:
    """The reversed relevant substrings are sorted as byte keys of 1, 2, 4
    or 8 bytes a symbol, the least that holds sigma."""

    @staticmethod
    def texts(sigma):
        rng = random.Random(sigma)
        alphabet = [1, 2, sigma - 1, sigma]
        base = [rng.choice(alphabet) for _ in range(24)]
        repetitive = list(base)
        for _ in range(5):
            copy = list(base)
            copy[rng.randrange(len(copy))] = rng.choice(alphabet)
            repetitive += copy
        rand = [rng.choice(alphabet) for _ in range(120)]
        return [text + [sigma] for text in (repetitive, rand)]

    @pytest.mark.parametrize("sigma, width", [
        (254, 1), (255, 1), (256, 2), (65_535, 2), (65_536, 4), (1 << 40, 8),
        # edge keys past int64, so the tries key their children by Python ints
        ((1 << 62) + 7, 8),
    ])
    def test_locate_and_load(self, sigma, width):
        assert trie.key_width(sigma) == width
        for text in self.texts(sigma):
            idx = Index.build(text)
            loaded = Index.from_bytes(idx.to_bytes())
            assert loaded.sigma == sigma
            assert loaded.to_bytes() == idx.to_bytes()
            for attr in ("t_d", "t_dp"):
                assert (TestSerialization.trie_fields(getattr(loaded, attr))
                        == TestSerialization.trie_fields(getattr(idx, attr)))
            # every substring up to tau + 1 long, and each with its last
            # symbol replaced by sigma, which needs the full width
            patterns = set()
            for m in range(1, loaded.tau + 2):
                for i in range(len(text) - m + 1):
                    p = tuple(text[i : i + m])
                    patterns.add(p)
                    patterns.add(p[:-1] + (sigma,))
            for p in sorted(patterns):
                assert loaded.locate(p) == naive_locate(text, p), p
            for index in (idx, loaded):
                for i, j in self.extract_ranges(index.bt):
                    assert index.extract(i, j) == text[i - 1 : j], (i, j)

    @staticmethod
    def extract_ranges(bt):
        """(1, n), every range inside a node that holds its expansion and
        is the child of one that does not (or a block root), and ranges
        across every block border."""
        arena, n, b = bt.arena, bt.n, bt.block_len
        ranges = [(1, n)]
        for k, root in enumerate(bt.roots):
            stack = [(root, k * b + 1)]
            while stack:
                v, start = stack.pop()
                if arena.exp[v] is None:
                    stack.append((arena.left[v], start))
                    stack.append((arena.right[v], start + arena.length[arena.left[v]]))
                    continue
                end = start + arena.length[v] - 1
                ranges += [(i, j) for i in range(start, end + 1) for j in range(i, end + 1)]
            if k:
                s = k * b + 1  # the first position of block k
                ranges += [(i, j) for i in range(max(1, s - 3), s)
                           for j in (s, s + 2, min(n, s + b), n) if j <= n]
        return ranges


class TestCertification:
    @staticmethod
    def colliding_text():
        # under r = 1 any two strings that permute each other collide
        return random_text(random.Random(117), 26, 400)

    @staticmethod
    def select_r1_first(monkeypatch) -> list[int]:
        """Have the build's attempt 0 draw r = 1; returns the seeds drawn."""
        select = fp.select_function
        seeds = []

        def select_r1(rng_seed=0):
            seeds.append(rng_seed)
            return 1 if rng_seed == 0 else select(rng_seed)

        monkeypatch.setattr(fp, "select_function", select_r1)
        return seeds

    def assert_answers(self, idx, text) -> None:
        rng = random.Random(118)
        patterns = [planted_pattern(rng, text, 1, 60) for _ in range(60)]
        patterns += [absent_pattern(rng, text, 26, 5) for _ in range(5)]
        for pattern in patterns:
            assert idx.locate(pattern) == naive_locate(text, pattern)

    def test_retries_after_a_collision(self, monkeypatch):
        # attempt 0 gets a function under which a dictionary collides; the
        # build must reject it and certify the one of attempt 1, and make
        # the grammar, which no function touches, once
        text = self.colliding_text()
        seeds = self.select_r1_first(monkeypatch)
        grammars = []
        build = ix.build_slp

        def build_slp(*args):
            grammars.append(args)
            return build(*args)

        monkeypatch.setattr(ix, "build_slp", build_slp)
        idx = Index.build(text)
        assert seeds == [0, 1]
        assert len(grammars) == 1
        assert idx.r == fp.select_function(1)
        self.assert_answers(idx, text)

    def test_retries_after_a_dictionary_collision(self, monkeypatch):
        # the build runs no check on the text's own substrings: r = 1 must
        # be rejected by a dictionary's check, in attempt 0 and no later
        text = self.colliding_text()
        seeds = self.select_r1_first(monkeypatch)

        def text_check(fn, ctx):
            raise AssertionError("the build checked the text")

        monkeypatch.setattr(fp, "verify_pow2_collision_free", text_check)
        rejected = []
        build = ix.prefix_search.build

        def certify(*args):
            try:
                return build(*args)
            except ix.prefix_search.FingerprintCollision:
                rejected.append(seeds[-1])
                raise

        monkeypatch.setattr(ix.prefix_search, "build", certify)
        idx = Index.build(text)
        assert seeds == [0, 1]
        assert rejected == [0]
        assert idx.r == fp.select_function(1)
        self.assert_answers(idx, text)

    def test_every_attempt_collides(self, monkeypatch):
        text = self.colliding_text()
        seeds = []

        def select_r1(rng_seed=0):
            seeds.append(rng_seed)
            return 1

        monkeypatch.setattr(fp, "select_function", select_r1)
        with pytest.raises(RuntimeError, match="cannot certify"):
            Index.build(text)
        assert len(seeds) == ix._MAX_FN_ATTEMPTS == 8


class TestStats:
    def test_keys_and_values(self):
        text = random_text(random.Random(104), 4, 800)
        idx = Index.build(text)
        s = idx.stats()
        assert s["n"] == 800
        assert s["alphabet_size"] == 4
        assert s["phrases"] <= s["capped_phrases"]
        assert s["tau"] >= 1 and s["block_len"] >= 1
        for key in ("grammar_nodes", "grammar_height",
                    "trie_d_vertices", "trie_suffix_vertices",
                    "grid_points", "source_points"):
            assert s[key] > 0
        assert 0 < s["leaf_symbols"] <= s["n"]
        # the file's sections, in file order; size reports read them by name
        assert list(idx.component_sizes()) == [
            "header", "parse", "grammar", "reverse_grammar", "substring_trie",
            "suffix_trie", "short_trie", "dictionaries", "grids",
        ]
        assert idx.component_sizes()["reverse_grammar"] == 0

    def test_build_leaves_small_power_cache(self):
        # the prefix tables make their own powers of r and the grammar uses
        # none, so the function is its base, a plain int that can hold
        # nothing else: a build and a load both keep the r drawn
        rng = random.Random(108)
        base = random_text(rng, 4, 500)
        text = (base * 40)[:20_000]
        idx = Index.build(text)
        r = fp.select_function(0)
        for got in (idx, Index.from_bytes(idx.to_bytes())):
            assert type(got.r) is int and got.r == r

    def test_queries_leave_power_cache_alone(self):
        # queries take their powers of r from the pattern's own tables, so
        # a batch of them leaves the function as drawn
        rng = random.Random(109)
        base = random_text(rng, 4, 300)
        text = (base * 12)[:3_000]
        built = Index.build(text)
        r = fp.select_function(0)
        for idx in (built, Index.from_bytes(built.to_bytes())):
            for _ in range(20):
                long = planted_pattern(rng, text, idx.tau + 1, 15 * idx.block_len)
                idx.locate(long)
                idx.locate(planted_pattern(rng, text, 1, idx.tau))
                near = bytearray(long)
                near[rng.randrange(len(near))] = rng.randint(1, 4)
                idx.locate(bytes(near))
                i = rng.randint(1, len(text))
                idx.extract(i, min(len(text), i + rng.randint(0, 500)))
            t = idx.t_dp
            v = next(u for u in range(1, t.num_vertices) if t.strlen[u] >= 6)
            q = tuple(idx.extract(t.sample[v], t.sample[v] + 5))
            assert idx._suffix_holds(v, list(q), 0, len(q))
            assert type(idx.r) is int and idx.r == r

    def test_last_stats_partition(self):
        rng = random.Random(105)
        text = random_text(rng, 4, 500)
        idx = Index.build(text)
        for _ in range(40):
            pattern = planted_pattern(rng, text, 1, 100)
            positions = idx.locate(pattern)
            prim = idx.last_stats["primary"]
            sec = idx.last_stats["secondary"]
            assert sorted([*prim, *sec]) == positions
            assert not set(prim) & set(sec)
            assert max(idx.last_stats["identified"].values(), default=0) <= 2
