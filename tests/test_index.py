import random

import pytest

from lzindex import Index, IndexConfig, index as ix, oracle
from lzindex._io import Reader

from conftest import absent_pattern, planted_pattern, random_text


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

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            Index.build(b"\x01\x02", IndexConfig(tau=0))


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
            pairs = ix.locate_long_primary(idx, pattern)
            assert [p for p, _ in pairs] == primaries
            for p, b in pairs:  # the border lies inside the occurrence
                assert p <= b <= p + len(pattern) - 1

    def test_short_primary_pairs(self):
        rng, text, idx = self.build_case(93)
        for _ in range(40):
            pattern = planted_pattern(rng, text, 1, idx.tau)
            occ, primaries = self.primaries_by_oracle(text, idx, pattern)
            pairs = ix.locate_short_primary(idx, pattern)
            assert [p for p, _ in pairs] == primaries
            for p, b in pairs:
                assert p <= b <= p + len(pattern) - 1

    def test_secondary_completes_the_partition(self):
        rng, text, idx = self.build_case(94)
        for _ in range(40):
            pattern = planted_pattern(rng, text, 1, len(text) // 2)
            occ, primaries = self.primaries_by_oracle(text, idx, pattern)
            secondary = ix.locate_secondary(idx, primaries, len(pattern))
            assert not set(primaries) & set(secondary)
            assert sorted(primaries + secondary) == occ

    def test_no_primaries_no_secondaries(self):
        _, _, idx = self.build_case(95)
        assert ix.locate_secondary(idx, [], 3) == []

    def test_chained_copies(self):
        idx = Index.build(b"\x01" * 64)
        assert idx.locate(b"\x01\x01") == list(range(1, 64))

    def test_length_dispatch_errors(self):
        _, _, idx = self.build_case(96)
        with pytest.raises(ValueError):
            ix.locate_long_primary(idx, b"\x01" * idx.tau)
        with pytest.raises(ValueError):
            ix.locate_short_primary(idx, b"\x01" * (idx.tau + 1))


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
            if self.t.usable_len(v) >= min_len:
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
            if self.t.usable_len(u) >= 2 and self.vertex_string(u, 2) != tail
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

    def test_byte_identical_round_trip(self):
        _, _, idx = self.build_random(99)
        blob = idx.to_bytes()
        loaded = Index.from_bytes(blob)
        assert loaded.to_bytes() == blob
        # the file holds no fingerprints; loading derives the same ones
        assert loaded.bt.arena.fpv == idx.bt.arena.fpv
        assert loaded.bt.arena.rfpv == idx.bt.arena.rfpv
        assert loaded.bt.run_fpv == idx.bt.run_fpv
        assert loaded.bt.run_rfpv == idx.bt.run_rfpv

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
        assert sizes["grammar"] > 0 and sizes["grids"] > 0

    def test_bad_magic(self):
        # the second is the magic of the older format, which stored node
        # fingerprints and a grammar of the reversed text
        for blob in (b"garbage!", b"LZXIDX1\n"):
            with pytest.raises(ValueError, match="not an index file"):
                Index.from_bytes(blob + b"\x00" * 40)

    def test_grammar_child_not_below_node(self):
        _, _, idx = self.build_random(106)
        sizes = idx.component_sizes()
        blob = idx.to_bytes()
        start = sizes["header"] + sizes["parse"]
        r = Reader(blob)
        r.pos = start
        r.u(), r.u(), r.u()  # n, block_len, node count
        first = r.pos  # node 0: a terminal, written as (0, symbol)
        assert blob[first] == 0
        # make node 0 the pair (node 0, node 0), which refers to itself
        crafted = blob[:first] + b"\x01\x00" + blob[first + 2 :]
        with pytest.raises(ValueError, match="corrupt index"):
            Index.from_bytes(crafted)

    def test_truncated(self):
        _, _, idx = self.build_random(103)
        with pytest.raises(ValueError, match="corrupt index"):
            Index.from_bytes(idx.to_bytes()[:50])


class TestStats:
    def test_keys_and_values(self):
        text = random_text(random.Random(104), 4, 800)
        idx = Index.build(text)
        s = idx.stats()
        assert s["n"] == 800
        assert s["alphabet_size"] == 4
        assert s["phrases"] <= s["capped_phrases"]
        assert s["tau"] >= 1 and s["x"] == s["block_len"]
        for key in ("grammar_nodes", "grammar_height",
                    "trie_d_vertices", "trie_suffix_vertices",
                    "trie_short_vertices", "grid_points", "source_points"):
            assert s[key] > 0
        # the file's sections, in file order; size reports read them by name
        assert list(idx.component_sizes()) == [
            "header", "parse", "grammar", "reverse_grammar", "substring_trie",
            "suffix_trie", "short_trie", "dictionaries", "grids",
        ]
        assert idx.component_sizes()["reverse_grammar"] == 0

    def test_build_leaves_no_inverse_power_cache(self):
        # the build's prefix tables keep their own inverse powers, so the
        # fingerprint function the index keeps holds none per text position
        rng = random.Random(108)
        base = random_text(rng, 4, 500)
        text = (base * 40)[:20_000]
        idx = Index.build(text)
        assert len(idx.fn._inv_pows) < idx.n // 10

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
