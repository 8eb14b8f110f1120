import random

import pytest

from lzindex import fingerprints as fp
from lzindex import grammar, lz77

from conftest import random_text

FN = fp.select_function(10_000, 0)


def build_for(text: bytes) -> grammar.BlockTable:
    parsed = lz77.parse(text)
    block_len = -(-parsed.n // parsed.z)
    return grammar.build_slp(lz77.cap_phrases(parsed, block_len), FN, block_len)


class TestBuild:
    def test_round_trip_example(self):
        text = b"\x01\x02\x03" * 3
        bt = build_for(text)
        assert bytes(bt.extract(1, 9)) == text

    def test_single_symbol(self):
        bt = build_for(b"\x01")
        assert bt.extract(1, 1) == [1]
        assert bt.node_count == 1

    def test_uncapped_parse_rejected(self):
        parsed = lz77.parse(b"\x01" * 32)  # one long copy phrase
        with pytest.raises(ValueError, match="phrase exceeds block length"):
            grammar.build_slp(parsed, FN, 2)

    def test_blocks_concatenate_to_text(self):
        rng = random.Random(31)
        for sigma in (2, 26):
            text = random_text(rng, sigma, 1500)
            bt = build_for(text)
            out = []
            for root in bt.roots:
                piece: list[int] = []
                bt.arena.expand(root, piece, [0])
                out.extend(piece)
            assert bytes(out) == text


class TestExtract:
    def test_full_and_empty(self):
        text = random_text(random.Random(32), 4, 777)
        bt = build_for(text)
        assert bytes(bt.extract(1, len(text))) == text
        assert bt.extract(5, 4) == []

    def test_mid_slice_example(self):
        bt = build_for(b"\x01\x02\x03" * 3)
        assert bt.extract(4, 6) == [1, 2, 3]

    def test_random_slices(self):
        rng = random.Random(33)
        for sigma in (2, 4, 26):
            text = random_text(rng, sigma, 2048)
            bt = build_for(text)
            for _ in range(800):
                i = rng.randint(1, len(text))
                j = rng.randint(i, len(text))
                assert bytes(bt.extract(i, j)) == text[i - 1 : j]

    def test_out_of_range(self):
        bt = build_for(b"\x01\x02\x03")
        for i, j in ((0, 2), (1, 4), (4, 2)):
            with pytest.raises(ValueError):
                bt.extract(i, j)


class TestSubstringFp:
    def test_matches_prefix_table(self):
        rng = random.Random(34)
        text = random_text(rng, 4, 1024)
        bt = build_for(text)
        table = fp.prefix_table(FN, text)
        for j in range(1, len(text) + 1):
            assert bt.substring_fp(1, j) == table.prefix_fp(j)

    def test_empty(self):
        bt = build_for(b"\x01\x02\x03")
        assert bt.substring_fp(2, 1) == fp.empty_fp(FN)

    def test_full_block_equals_stored(self):
        text = random_text(random.Random(35), 4, 900)
        bt = build_for(text)
        b = bt.block_len
        root = bt.roots[0]
        assert bt.substring_fp(1, b).value == bt.arena.fpv[root]

    def test_random_ranges(self):
        rng = random.Random(36)
        text = random_text(rng, 26, 2000)
        bt = build_for(text)
        b = bt.block_len
        assert len(bt.roots) > 3
        for _ in range(500):
            i = rng.randint(1, len(text))
            j = rng.randint(i - 1, len(text))
            assert bt.substring_fp(i, j) == fp.fingerprint(FN, text[i - 1 : j])
            assert bt.reversed_fp(i, j) == fp.fingerprint(FN, text[i - 1 : j][::-1])
        for _ in range(300):  # ranges inside one block
            i = rng.randint(1, len(text))
            j = min(len(text), i + rng.randint(0, b - 1 - (i - 1) % b))
            assert bt.substring_fp(i, j) == fp.fingerprint(FN, text[i - 1 : j])
            assert bt.reversed_fp(i, j) == fp.fingerprint(FN, text[i - 1 : j][::-1])

    def test_node_visits_logarithmic(self):
        rng = random.Random(37)
        text = random_text(rng, 4, 4096)
        bt = build_for(text)
        for _ in range(200):
            i = rng.randint(1, len(text))
            j = rng.randint(i - 1, len(text))
            before = bt.node_visits
            bt.substring_fp(i, j)
            # two descents per touched block end, each bounded by the height
            assert bt.node_visits - before <= 4 * (max(bt.block_heights()) + 1)
