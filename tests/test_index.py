import dataclasses
import gc
import random
import sys

import numpy as np
import pytest

from lzindex import Index, IndexConfig, _suffixes, fingerprints as fp, index as ix, lz77, oracle, trie
from lzindex._io import Reader, Writer
from lzindex._suffixes import SuffixContext
from lzindex._text import to_symbols

from conftest import absent_pattern, mutated_copies, planted_pattern, random_text


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
            assert idx.locate(pattern) == oracle.naive_locate(text, pattern)

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
                assert idx.locate(pattern) == oracle.naive_locate(text, pattern)


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
        lambda idx, c: idx.locate_short_primary([c]),
        lambda idx, c: idx.locate_long_primary([1] * idx.tau + [c]),
    ], ids=["locate", "locate_long", "locate_short_primary", "locate_long_primary"])
    def test_symbol_past_int64_is_absent(self, call):
        # no symbol above sigma occurs, however large
        idx = Index.build(b"\x01\x02\x03" * 3)
        for big in (1 << 63, 1 << 64):
            assert call(idx, big) == []

    def test_pattern_longer_than_text(self):
        idx = Index.build(b"\x01\x02")
        assert idx.locate(b"\x01\x02\x01") == []

    def test_empty_pattern_rejected(self):
        idx = Index.build(b"\x01\x02")
        with pytest.raises(ValueError, match="empty pattern"):
            idx.locate(b"")

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
                assert idx.locate(pattern) == oracle.naive_locate(text, pattern)


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
                assert idx.locate(bytes(pattern)) == oracle.naive_locate(text, bytes(pattern))
                pos = rng.randrange(m)
                pattern[pos] = pattern[pos] % 4 + 1
                assert idx.locate(bytes(pattern)) == oracle.naive_locate(text, bytes(pattern))

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


class TestPhaseOps:
    def build_case(self, seed, n=400, sigma=4):
        rng = random.Random(seed)
        text = random_text(rng, sigma, n)
        return rng, text, Index.build(text)

    def primaries_by_oracle(self, text, idx, pattern):
        occ = oracle.naive_locate(text, pattern)
        flags = oracle.classify(text, idx.capped, occ, len(pattern))
        return occ, [o for o, f in zip(occ, flags) if f]

    def test_long_primary_pairs(self):
        rng, text, idx = self.build_case(92)
        for _ in range(40):
            pattern = planted_pattern(rng, text, idx.tau + 1, len(text) // 2)
            occ, primaries = self.primaries_by_oracle(text, idx, pattern)
            pairs = idx.locate_long_primary(pattern)
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
                pairs = idx.locate_short_primary(pattern)
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
                pairs = idx.locate_short_primary(pattern)
                assert [p for p, _ in pairs] == primaries
                for p, b in pairs:
                    assert p <= b <= p + m - 1
                if pairs:
                    found += 1
                    longest = m
        # primaries of patterns longer than a block span two borders or more
        assert found >= min(tau, n) and longest > 2 * idx.block_len

    def test_secondary_completes_the_partition(self):
        rng, text, idx = self.build_case(94)
        for _ in range(40):
            pattern = planted_pattern(rng, text, 1, len(text) // 2)
            occ, primaries = self.primaries_by_oracle(text, idx, pattern)
            secondary = idx.locate_secondary(primaries, len(pattern))
            assert not set(primaries) & set(secondary)
            assert sorted(primaries + secondary) == occ

    def test_no_primaries_no_secondaries(self):
        _, _, idx = self.build_case(95)
        assert idx.locate_secondary([], 3) == []

    def test_primary_given_with_its_own_copy(self):
        # the expansion meets the given copy again from its primary; it is
        # not reported, since it was given, and nothing is reported twice
        rng, text, idx = self.build_case(114)
        for _ in range(40):
            pattern = planted_pattern(rng, text, 2, 6)
            occ, primaries = self.primaries_by_oracle(text, idx, pattern)
            for o in primaries:
                copies = idx.locate_secondary([o], len(pattern))
                if copies:
                    break
            else:
                continue
            secondary = idx.locate_secondary(primaries, len(pattern))
            given = primaries + [copies[0]]
            got = idx.locate_secondary(given, len(pattern))
            assert got == [s for s in secondary if s != copies[0]]
            assert len(set(got)) == len(got)
            return
        raise AssertionError("no primary with a copy")

    def test_chained_copies(self):
        idx = Index.build(b"\x01" * 64)
        assert idx.locate(b"\x01\x01") == list(range(1, 64))

    def test_length_dispatch_errors(self):
        _, _, idx = self.build_case(96)
        with pytest.raises(ValueError):
            idx.locate_long_primary(b"\x01" * idx.tau)
        with pytest.raises(ValueError):
            idx.locate_short_primary(b"\x01" * (idx.tau + 1))


class TestVerifyCandidates:
    def setup_method(self):
        rng = random.Random(97)
        self.text = random_text(rng, 3, 300)
        self.idx = Index.build(self.text)
        self.t = self.idx.t_dp

    def vertex_string(self, v, length):
        start = self.t.sample[v]
        return tuple(self.idx.bt.extract(start, start + length - 1))

    def pick_vertex(self, min_len):
        for v in range(1, self.t.num_vertices):
            if self.t.strlen[v] >= min_len:
                return v
        raise AssertionError("no deep enough vertex")

    def test_genuine_retained(self):
        v = self.pick_vertex(4)
        q = self.vertex_string(v, 4)
        assert self.idx.verify_candidates([(q, v)]) == [(q, v)]

    def test_false_discarded(self):
        v = self.pick_vertex(4)
        q = self.vertex_string(v, 4)
        wrong = tuple(c % 3 + 1 for c in q)  # same length, differs everywhere
        assert self.idx.verify_candidates([(wrong, v)]) == []

    def test_mixed(self):
        v = self.pick_vertex(4)
        q = self.vertex_string(v, 4)
        tail = q[-2:]
        other = next(
            u for u in range(1, self.t.num_vertices)
            if self.t.strlen[u] >= 2 and self.vertex_string(u, 2) != tail
        )
        got = self.idx.verify_candidates([(tail, other), (q, v)])
        assert got == [(q, v)]

    def test_suffix_precondition(self):
        v = self.pick_vertex(4)
        q = self.vertex_string(v, 4)
        not_suffix = tuple(c % 3 + 1 for c in q[-2:])
        if not_suffix == q[-2:]:
            not_suffix = (q[-1] % 3 + 1,) * 2
        with pytest.raises(ValueError):
            self.idx.verify_candidates([(not_suffix, v), (q, v)])

    def test_order_and_short_vertex(self):
        # the output runs from the shortest suffix up, whatever the input
        # order; a vertex whose string is shorter than its suffix is dropped
        v = self.pick_vertex(6)
        q = self.vertex_string(v, 6)
        short = next(u for u in range(1, self.t.num_vertices) if self.t.strlen[u] == 2)
        cands = [(q, v), (q[-4:], v), (q[-4:], short), (q[-1:], v), (q[-2:], v)]
        got = self.idx.verify_candidates(cands)
        assert [len(s) for s, _ in got] == sorted(len(s) for s, _ in got)
        assert (q[-4:], short) not in got
        assert (q, v) in got
        for s, u in got:
            assert self.vertex_string(u, len(s)) == s


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
        # from the parse and the suffix trie's leaf order, and recomputes the
        # dictionary values from the text
        for attr in ("t_d", "t_dp"):
            assert self.trie_fields(getattr(loaded, attr)) == self.trie_fields(getattr(idx, attr))
        assert loaded.order == idx.order
        assert vars(loaded.grid_r) == vars(idx.grid_r)
        everything = (1, loaded.t_d.num_leaves, 1, loaded.t_dp.num_leaves)
        assert loaded.grid_r.query(*everything) == idx.grid_r.query(*everything)
        for attr in ("ps_d", "ps_dp"):
            a, b = getattr(loaded, attr), getattr(idx, attr)
            assert list(a.G.items()) == list(b.G.items())
            assert list(a.H.items()) == list(b.H.items())

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
        assert sizes["suffix_trie"] > 0
        # rebuilt on load, so stored empty
        for name in ("grammar", "reverse_grammar", "substring_trie",
                     "short_trie", "dictionaries", "grids"):
            assert sizes[name] == 0

    def test_bad_magic(self):
        # the older formats: the first stored node fingerprints and a grammar
        # of the reversed text, the second a grid of the phrase sources, the
        # third the grammar, every trie and the border grid
        # the fourth the same sections as the fifth but no checksum, the
        # fifth a prime p and two certification flags in the header and
        # dictionary values as wide as p, the sixth the dictionary values,
        # 8 bytes each, which loading now recomputes, and the seventh the
        # lcps of the suffix trie's adjacent strings, which loading derives
        for blob in (b"garbage!", b"LZXIDX1\n", b"LZXIDX2\n", b"LZXIDX3\n", b"LZXIDX4\n",
                     b"LZXIDX5\n", b"LZXIDX6\n", b"LZXIDX7\n"):
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
        """n, sigma, z, tau, block_len, seed and r."""
        r = Reader(dict(idx._sections())["header"])
        r.pos = ix._CRC_AT + 4
        return [r.u() for _ in range(7)]

    def assert_corrupt(self, crafted: dict) -> None:
        for case, blob in crafted.items():
            with pytest.raises(ValueError, match="corrupt index"):
                Index.from_bytes(blob)

    def test_corrupt_parse(self):
        _, _, idx = self.build_random(107)
        phrases = list(idx.capped.phrases)
        assert Index.from_bytes(self.with_parse(idx, phrases)).to_bytes() == idx.to_bytes()
        i, pos = next((i, sum(ph.span() for ph in phrases[:i]) + 1)
                      for i, ph in enumerate(phrases) if ph.len > 0)
        ph = phrases[i]
        j = next(j for j, ph in enumerate(phrases) if j > 0 and ph.len == 0)
        last = phrases[-1]
        self.assert_corrupt({
            case: self.with_parse(idx, bad) for case, bad in {
                "spans past n": phrases + [lz77.Phrase(0, 0, 1)],
                "spans short of n": phrases[:-1],
                "source start 0": phrases[:i] + [lz77.Phrase(0, ph.len, ph.border)] + phrases[i + 1 :],
                "source at its phrase": phrases[:i] + [lz77.Phrase(pos, ph.len, ph.border)] + phrases[i + 1 :],
                "start without a source": phrases[:j] + [lz77.Phrase(1, 0, phrases[j].border)] + phrases[j + 1 :],
                "border 0": phrases[:-1] + [lz77.Phrase(last.start, last.len, 0)],
                "border above sigma": phrases[:-1] + [lz77.Phrase(last.start, last.len, idx.sigma + 1)],
            }.items()
        })

    def test_phrase_longer_than_block(self):
        # a valid LZ77 parse of the text, but not capped at the block length
        base = random_text(random.Random(106), 4, 80)
        text = base * 6
        idx = Index.build(text)
        uncapped = lz77.parse(text).phrases
        assert max(ph.span() for ph in uncapped) > idx.block_len
        with pytest.raises(ValueError, match="corrupt index"):
            Index.from_bytes(self.with_parse(idx, uncapped))

    def test_corrupt_header(self):
        _, _, idx = self.build_random(109)
        fields = self.header_fields(idx)
        crafted = {}
        # the largest border is sigma: a header sigma no parse can have
        # written is refused, also one too wide for a byte key; z lies in
        # [1, capped z], and the block length is n / z rounded up
        z, capped_z = fields[2], idx.capped.z
        assert z < capped_z
        for case, at, bad in (("n 0", 0, 0), ("tau 0", 3, 0), ("block_len 0", 4, 0),
                              ("r 0", 6, 0), ("r = p", 6, fp.P),
                              ("sigma + 1", 1, fields[1] + 1), ("sigma 2^64", 1, 1 << 64),
                              ("z 0", 2, 0), ("z above capped z", 2, capped_z + 1),
                              ("block_len + 1", 4, fields[4] + 1),
                              ("block_len - 1", 4, fields[4] - 1)):
            w = Writer()
            w.raw(ix.MAGIC + bytes(4))  # with_sections fills the checksum in
            for k, v in enumerate(fields):
                w.u(bad if k == at else v)
            crafted[case] = self.with_sections(idx, header=bytes(w.buf))
        self.assert_corrupt(crafted)

    def test_corrupt_suffix_trie(self):
        _, text, idx = self.build_random(110)
        arr = to_symbols(text)
        _, ends, _ = ix._relevant_substrings(idx.capped, idx.tau, idx.n)
        # the file holds the order that the build took from the suffix
        # array, and nothing after it
        r = Reader(dict(idx._sections())["suffix_trie"])
        order = r.seq()
        assert r.pos == len(r.data)
        assert order == ix._suffix_trie_order(SuffixContext(arr), ends) == idx.order

        def section(*lists) -> bytes:
            w = Writer()
            for values in lists:
                w.seq(values)
            return bytes(w.buf)

        blob = self.with_sections(idx, suffix_trie=section(order))
        assert Index.from_bytes(blob).to_bytes() == idx.to_bytes()
        # the last item ends at n, so its suffix is empty and ranks first
        assert order[0] == len(ends) - 1
        # the lcps of adjacent strings that the previous format stored
        starts = ends[order]
        lcps = [0] + _suffixes.pair_lcps(arr, starts[:-1], starts[1:]).tolist()
        self.assert_corrupt({
            case: self.with_sections(idx, suffix_trie=section(*lists)) for case, lists in {
                "item repeated": ([order[1]] + order[1:],),
                "item out of range": (order[:-1] + [len(order)],),
                "item missing": (order[:-1],),
                "ranks 3 and 4 swapped": (order[:2] + [order[3], order[2]] + order[4:],),
                "empty suffix ranked second": ([order[1], order[0]] + order[2:],),
                "empty suffix ranked last": (order[1:] + order[:1],),
                "lcps after the order": (order, lcps),
            }.items()
        })

    def test_order_values_out_of_range(self):
        # the order is read as unsigned varints of any size; a value past
        # int64, the value N (one past the items) or a repeated item is
        # refused before the order becomes an int64 array, so neither
        # OverflowError nor IndexError gets out
        _, _, idx = self.build_random(112)
        order = idx.order
        count = len(order)
        cases = {}
        for at in (0, 1, count // 2, count - 1):
            for name, value in (("2^63", 1 << 63), ("2^64", 1 << 64), ("2^64 + 5", (1 << 64) + 5),
                                ("N", count), ("N + 1", count + 1),
                                ("repeated", order[(at + 1) % count])):
                w = Writer()
                w.seq(order[:at] + [value] + order[at + 1 :])
                cases[f"{name} at {at}"] = self.with_sections(idx, suffix_trie=bytes(w.buf))
        self.assert_corrupt(cases)

    def test_adjacent_ranks_swapped(self):
        # loading checks the order at the lcps it derives, so a swap of any
        # two adjacent ranks is refused; and the suffix trie it derives from
        # the order is the built one, vertex for vertex
        rng = random.Random(480)
        for _ in range(40):
            text = mutated_copies(rng, rng.randint(20, 60), 480, 2, sigma=2)
            idx = Index.build(text)
            loaded = Index.from_bytes(idx.to_bytes())
            assert self.trie_fields(loaded.t_dp) == self.trie_fields(idx.t_dp)
            assert loaded.order == idx.order
            order = Reader(dict(idx._sections())["suffix_trie"]).seq()
            for k in range(1, len(order)):
                w = Writer()
                w.seq(order[: k - 1] + [order[k], order[k - 1]] + order[k + 1 :])
                with pytest.raises(ValueError, match="corrupt index"):
                    Index.from_bytes(self.with_sections(idx, suffix_trie=bytes(w.buf)))

    def test_corrupt_dictionaries(self):
        # loading recomputes the dictionary values, so the file stores none
        # and any byte after the suffix trie is corrupt, among them the
        # values that the previous format stored there
        _, _, idx = self.build_random(111)
        mask = (1 << 61) - 1
        w = Writer()
        for ps in (idx.ps_d, idx.ps_dp):
            for keys in (ps.G, ps.H):
                w.u(len(keys))
                for k in keys:
                    w.raw((k & mask).to_bytes(8, "little"))
        stored_values = bytes(w.buf)
        blob = idx.to_bytes()
        assert blob.endswith(dict(idx._sections())["suffix_trie"])
        self.assert_corrupt({
            "one zero byte": self.sealed(blob + b"\x00"),
            "one byte 1": self.sealed(blob + b"\x01"),
            "four empty value arrays": self.sealed(blob + bytes(4)),
            "the stored values": self.sealed(blob + stored_values),
            "the suffix trie twice": self.sealed(blob + dict(idx._sections())["suffix_trie"]),
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
            w.u(v + 1 if k == 5 else v)  # the seed
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
        expected = [oracle.naive_locate(text, pattern) for pattern in patterns]

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

    @staticmethod
    def fields(idx) -> tuple[list[int], ...]:
        """The integers the file stores, by section: the header fields, the
        parse (phrase count, then start, length and border per phrase) and
        the suffix trie's order (count, then an item per rank)."""
        r = Reader(idx.to_bytes())
        r.pos = ix._CRC_AT + 4
        header = [r.u() for _ in range(7)]
        z = r.u()
        parse = [z] + [r.u() for _ in range(3 * z)]
        order = [r.u()]
        order += [r.u() for _ in range(order[0])]
        assert r.pos == len(r.data)
        return header, parse, order

    @staticmethod
    def file(lists) -> bytes:
        w = Writer()
        w.raw(ix.MAGIC + bytes(4))
        for values in lists:
            for v in values:
                w.u(v)
        return TestSerialization.sealed(bytes(w.buf))

    def edits(self, lists):
        """(kind, file) per edit: every stored integer moved by every delta
        and swapped with the next one in its section, and the file cut after
        each of its bytes past the checksum."""
        for at, values in enumerate(lists):
            kind = ("header", "parse", "order")[at]
            for k in range(len(values)):
                for d in self.DELTAS:
                    if values[k] + d >= 0:
                        bad = list(values)
                        bad[k] += d
                        yield f"{kind} +-", self.file(lists[:at] + (bad,) + lists[at + 1 :])
                if k + 1 < len(values) and values[k] != values[k + 1]:
                    bad = list(values)
                    bad[k], bad[k + 1] = bad[k + 1], bad[k]
                    # the order's count is its first entry, so a swap of
                    # entries 1 and 2 is the first swap of two ranks
                    swap = "order swap" if kind == "order" and k else f"{kind} swap"
                    yield swap, self.file(lists[:at] + (bad,) + lists[at + 1 :])
        blob = self.file(lists)
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
        patterns = [text[i : i + m] for m in (1, 2, idx.tau, idx.tau + 1, 9, 30)
                    for i in rng.sample(range(len(text) - m + 1), 2)]
        patterns += [tuple(rng.choice(symbols) for _ in range(rng.randint(1, 9))) for _ in range(4)]
        for pattern in patterns:
            assert idx.locate(pattern) == oracle.naive_locate(text, pattern), pattern
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
            for kind, data in self.edits(lists):
                tried[kind] = tried.get(kind, 0) + 1
                ok = self.loads(data, rng)
                loaded[kind] = loaded.get(kind, 0) + ok
                assert not (ok and kind in ("order swap", "truncated")), kind
        assert set(tried) == {"header +-", "header swap", "parse +-", "parse swap",
                              "order +-", "order swap", "truncated"}
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
                t_d, t_dp, x = ix._tries(starts, ends, arr, trie.key_width(idx.sigma),
                                         np.array(idx.order))
                assert x.tolist() == [rank[r] for r in rev]
                assert t_d.num_leaves == len(rank) == idx.t_d.num_leaves
                assert t_dp.num_leaves == len(ends) == idx.t_dp.num_leaves
                assert idx.t_d.r_rank[0] == len(rank)
                order = idx.order
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
                assert loaded.locate(p) == oracle.naive_locate(text, p), p
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
            return fp.FpFunction(1) if rng_seed == 0 else select(rng_seed)

        monkeypatch.setattr(fp, "select_function", select_r1)
        return seeds

    def assert_answers(self, idx, text) -> None:
        rng = random.Random(118)
        patterns = [planted_pattern(rng, text, 1, 60) for _ in range(60)]
        patterns += [absent_pattern(rng, text, 26, 5) for _ in range(5)]
        for pattern in patterns:
            assert idx.locate(pattern) == oracle.naive_locate(text, pattern)

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
        assert idx.fn.r == fp.select_function(1).r
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
        assert idx.fn.r == fp.select_function(1).r
        self.assert_answers(idx, text)

    def test_every_attempt_collides(self, monkeypatch):
        text = self.colliding_text()
        seeds = []

        def select_r1(rng_seed=0):
            seeds.append(rng_seed)
            return fp.FpFunction(1)

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
        # the file's sections, in file order; size reports read them by name
        assert list(idx.component_sizes()) == [
            "header", "parse", "grammar", "reverse_grammar", "substring_trie",
            "suffix_trie", "short_trie", "dictionaries", "grids",
        ]
        assert idx.component_sizes()["reverse_grammar"] == 0

    def test_build_leaves_small_power_cache(self):
        # the prefix tables make their own powers of r and the grammar uses
        # none, so the function holds its base and nothing else, and cannot
        # be changed: neither a build nor a load caches anything in it
        assert [f.name for f in dataclasses.fields(fp.FpFunction)] == ["r"]
        rng = random.Random(108)
        base = random_text(rng, 4, 500)
        text = (base * 40)[:20_000]
        idx = Index.build(text)
        r = fp.select_function(0).r
        for fn in (idx.fn, Index.from_bytes(idx.to_bytes()).fn):
            assert vars(fn) == {"r": r}
            with pytest.raises(dataclasses.FrozenInstanceError):
                fn.r = 1

    def test_queries_leave_power_cache_alone(self):
        # queries take their powers of r from the pattern's own tables, so
        # a batch of them leaves the function as drawn
        rng = random.Random(109)
        base = random_text(rng, 4, 300)
        text = (base * 12)[:3_000]
        built = Index.build(text)
        r = fp.select_function(0).r
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
            assert (q, v) in idx.verify_candidates([(q[-3:], v), (q, v)])
            assert idx.fn == fp.FpFunction(r)
            assert vars(idx.fn) == {"r": r}

    def test_last_stats_partition(self):
        rng = random.Random(105)
        text = random_text(rng, 4, 500)
        idx = Index.build(text)
        for _ in range(40):
            pattern = planted_pattern(rng, text, 1, 100)
            positions = idx.locate(pattern)
            prim = idx.last_stats["primary"]
            sec = idx.last_stats["secondary"]
            assert sorted(prim + sec) == positions
            assert not set(prim) & set(sec)
            assert max(idx.last_stats["identified"].values(), default=0) <= 2
