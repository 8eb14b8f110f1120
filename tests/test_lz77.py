import random

import numpy as np
import pytest

from lzindex import lz77
from lzindex._suffixes import SuffixContext
from lzindex.lz77 import Lz77Parse, Phrase
from lzindex.oracle import naive_lz77

from conftest import random_text


def P(*triples):
    return tuple(Phrase(*t) for t in triples)


class TestParse:
    def test_abcabcabc(self):
        parsed = lz77.parse(b"\x01\x02\x03" * 3)
        assert parsed.phrases == P((0, 0, 1), (0, 0, 2), (0, 0, 3), (1, 5, 3))
        assert parsed.z == 4

    def test_single_symbol(self):
        parsed = lz77.parse(b"\x01")
        assert parsed.phrases == P((0, 0, 1))

    def test_aaaa(self):
        parsed = lz77.parse(b"\x01\x01\x01\x01")
        assert parsed.phrases == P((0, 0, 1), (1, 2, 1))

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="empty text"):
            lz77.parse(b"")

    def test_matches_naive_parser(self):
        rng = random.Random(11)
        for _ in range(60):
            sigma = rng.choice([2, 4, 26])
            n = rng.randint(1, 512)
            text = random_text(rng, sigma, n)
            assert lz77.parse(text).phrases == naive_lz77(text).phrases

    def test_matches_naive_parser_on_repetitive_texts(self):
        # long phrases with many equal-length sources
        rng = random.Random(15)
        for _ in range(3):
            base = list(random_text(rng, rng.choice([2, 4, 26]), 300))
            text = []
            while len(text) < 3000:
                copy = base[:]
                for _ in range(rng.randint(0, 4)):
                    copy[rng.randrange(len(copy))] = rng.randint(1, 26)
                text += copy
            text = bytes(text)
            assert lz77.parse(text).phrases == naive_lz77(text).phrases

    def test_matches_naive_parser_on_self_overlapping_sources(self):
        for n in (2, 3, 10, 257, 1000):
            for text in (b"\x01" * n, (b"\x01\x02\x03" * n)[:n]):
                assert lz77.parse(text).phrases == naive_lz77(text).phrases

    def test_matches_naive_parser_on_integer_alphabet(self):
        rng = random.Random(16)
        for _ in range(4):
            base = [rng.randint(1, 1000) for _ in range(rng.randint(1, 200))]
            text = [c if rng.random() < 0.97 else rng.randint(1, 1000)
                    for c in base * rng.randint(1, 5)]
            assert lz77.parse(text).phrases == naive_lz77(text).phrases

    def test_given_context_matches_own(self):
        rng = random.Random(17)
        for sigma in (2, 26, 1000):
            text = [rng.randint(1, sigma) for _ in range(rng.randint(1, 400))] * 3
            arr = np.asarray(text, dtype=np.int64)
            assert lz77.parse(text) == lz77.parse(text, SuffixContext(arr))

    def test_phrase_spans_cover_text(self):
        rng = random.Random(12)
        for _ in range(20):
            text = random_text(rng, 4, rng.randint(1, 2000))
            parsed = lz77.parse(text)
            assert sum(ph.span() for ph in parsed.phrases) == parsed.n


class TestDecompress:
    def test_example_round_trip(self):
        parsed = Lz77Parse(P((0, 0, 1), (0, 0, 2), (0, 0, 3), (1, 5, 3)), 9, 4, 3)
        assert lz77.decompress(parsed) == b"\x01\x02\x03" * 3

    def test_single(self):
        assert lz77.decompress(Lz77Parse(P((0, 0, 1)), 1, 1, 1)) == b"\x01"

    def test_self_overlap(self):
        assert lz77.decompress(Lz77Parse(P((0, 0, 1), (1, 2, 1)), 4, 2, 1)) == b"\x01" * 4

    def test_round_trip_random(self):
        rng = random.Random(13)
        for sigma in (2, 4, 26):
            text = random_text(rng, sigma, 10_000)
            assert lz77.decompress(lz77.parse(text)) == text

    def test_malformed_source_rejected(self):
        bad = Lz77Parse(P((5, 3, 1),), 4, 1, 1)
        with pytest.raises(ValueError, match="malformed parse"):
            lz77.decompress(bad)


class TestCapPhrases:
    def test_splits_long_phrase(self):
        text = b"\x01" * 10
        capped = lz77.cap_phrases(lz77.parse(text), 5, text)
        assert all(ph.span() <= 5 for ph in capped.phrases)
        assert lz77.decompress(capped) == text

    def test_limit_n_is_identity(self):
        text = b"\x01\x02\x03" * 3
        parsed = lz77.parse(text)
        assert lz77.cap_phrases(parsed, parsed.n, text).phrases == parsed.phrases

    def test_example_limit_3(self):
        text = b"\x01\x02\x03" * 3
        capped = lz77.cap_phrases(lz77.parse(text), 3, text)
        assert max(ph.span() for ph in capped.phrases) <= 3
        assert lz77.decompress(capped) == text

    def test_phrase_count_bound(self):
        rng = random.Random(14)
        for _ in range(30):
            text = random_text(rng, rng.choice([2, 4]), rng.randint(2, 1500))
            parsed = lz77.parse(text)
            limit = rng.randint(1, parsed.n)
            capped = lz77.cap_phrases(parsed, limit, text)
            assert lz77.decompress(capped) == text
            assert all(ph.span() <= limit for ph in capped.phrases)
            assert capped.z <= parsed.z + -(-parsed.n // limit)

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            lz77.cap_phrases(lz77.parse(b"\x01"), 0, b"\x01")
