import random

import numpy as np
import pytest

from lzindex import lz77
from lzindex._suffixes import SuffixContext
from lzindex.lz77 import Lz77Parse, Phrase

from conftest import descending_prefix_text, random_text
from reference import naive_lz77


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

    def test_matches_naive_parser_on_wide_symbols(self):
        # byte keys 4 and 8 bytes wide
        rng = random.Random(18)
        for top in (1 << 20, (1 << 62) + 5):
            alphabet = [top] + [rng.randint(1, top) for _ in range(5)]
            base = [rng.choice(alphabet) for _ in range(rng.randint(20, 120))]
            text = [c if rng.random() < 0.97 else rng.choice(alphabet)
                    for c in base * rng.randint(2, 6)]
            assert lz77.parse(text).phrases == naive_lz77(text).phrases

    def test_matches_naive_parser_on_long_smaller_chains(self):
        # in "b a^k c" the suffixes a^i c sort by ascending start, so the
        # previous smaller start of "b a^k c" lies k ranks back
        for k in (1, 63, 64, 65, 700, 5000):
            for text in (b"\x02" + b"\x01" * k + b"\x03", b"\x02\x01" * 3 + b"\x01" * k + b"\x03\x02"):
                assert lz77.parse(text).phrases == naive_lz77(text).phrases

    def test_matches_naive_parser_after_descending_prefix(self):
        # no suffix that starts in the prefix has a smaller start below its
        # rank, so each phrase there climbs the reversed tree to its top
        text = descending_prefix_text(random.Random(21))
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
            assert sum(ph.span() for ph in parsed.phrases) == parsed.n == len(text)
            assert parsed.alphabet_size == max(text)


class TestSmallerNeighbours:
    @staticmethod
    def check(rng, values, ranks=()) -> None:
        """around(r) against a scan at up to 200 sampled ranks and at the
        given ones; and each tree's climb from r itself, so the climbs are
        checked past the scanned window on any n: rank t of the reversed
        tree is rank n - 1 - t."""
        n = len(values)
        smaller = lz77._SmallerNeighbours(np.array(values, dtype=np.int64))
        for r in {*rng.sample(range(n), min(n, 200)), *(r for r in ranks if 0 <= r < n)}:
            x = values[r]
            before = [i for i in range(r) if values[i] < x]
            after = [i for i in range(r + 1, n) if values[i] < x]
            want = (before[-1] if before else -1, after[0] if after else n)
            assert smaller.around(r) == want
            assert n - 1 - smaller._from(smaller.before, n - r, x) == want[0]
            assert smaller._from(smaller.after, r + 1, x) == want[1]

    def test_matches_scan(self):
        # up to three levels of block minima; the first and last ranks and
        # those on either side of each block edge
        rng = random.Random(19)
        for n in (1, 2, 63, 64, 65, 129, 4096, 4097, 9000):
            edges = [64 * k + d for k in range(1, n // 64 + 1) for d in (-1, 1)]
            self.check(rng, rng.sample(range(n), n), [0, n - 1, *edges])

    def test_far_neighbours(self):
        # runs of rising (falling) values between a few small ones: the next
        # (previous) smaller value lies past the run, while the block around
        # a rank holds smaller values only on its other side
        rng = random.Random(20)
        n = 9000
        low = rng.sample(range(n), 40)
        rest = sorted(set(range(n)) - set(low))
        for rising in (True, False):
            values = [0] * n
            for v, i in enumerate(low):
                values[i] = v
            for v, i in enumerate(rest if rising else rest[::-1], start=len(low)):
                values[i] = v
            self.check(rng, values)


class TestDecompress:
    def test_example_round_trip(self):
        parsed = Lz77Parse(P((0, 0, 1), (0, 0, 2), (0, 0, 3), (1, 5, 3)))
        assert (parsed.n, parsed.z, parsed.alphabet_size) == (9, 4, 3)
        assert lz77.decompress(parsed) == b"\x01\x02\x03" * 3

    def test_single(self):
        assert lz77.decompress(Lz77Parse(P((0, 0, 1)))) == b"\x01"

    def test_self_overlap(self):
        parsed = Lz77Parse(P((0, 0, 1), (1, 2, 1)))
        assert (parsed.n, parsed.z, parsed.alphabet_size) == (4, 2, 1)
        assert lz77.decompress(parsed) == b"\x01" * 4

    def test_round_trip_random(self):
        rng = random.Random(13)
        for sigma in (2, 4, 26):
            text = random_text(rng, sigma, 10_000)
            assert lz77.decompress(lz77.parse(text)) == text

    def test_malformed_source_rejected(self):
        bad = Lz77Parse(P((5, 3, 1),))
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
