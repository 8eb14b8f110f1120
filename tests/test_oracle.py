import random

from lzindex import lz77

from conftest import random_text
from reference import classify, naive_locate, naive_lz77


class TestNaiveLocate:
    def test_example(self):
        assert naive_locate(b"\x01\x02\x03" * 3, b"\x01\x02\x03") == [1, 4, 7]

    def test_whole_text(self):
        text = b"\x01\x02\x02"
        assert naive_locate(text, text) == [1]

    def test_empty_pattern(self):
        assert naive_locate(b"\x01\x02", b"") == []

    def test_overlapping(self):
        assert naive_locate(b"\x01" * 5, b"\x01\x01") == [1, 2, 3, 4]


class TestClassify:
    def test_spanning_border_is_primary(self):
        text = b"\x01\x02\x03" * 3
        parse = lz77.parse(text)  # borders at 1, 2, 3, 9
        flags = classify(text, parse, [1], 3)
        assert flags == [True]

    def test_inside_copy_is_secondary(self):
        text = b"\x01\x02\x03" * 3
        parse = lz77.parse(text)
        # occurrence at 4 lies strictly inside the copy region of phrase 4
        assert classify(text, parse, [4], 3) == [False]

    def test_full_text_is_primary(self):
        text = b"\x01\x02\x01\x01"
        parse = lz77.parse(text)
        assert classify(text, parse, [1], len(text)) == [True]


class TestNaiveLz77:
    def test_definitional_examples(self):
        parsed = naive_lz77(b"\x01\x02\x03" * 3)
        assert [(p.start, p.len, p.border) for p in parsed.phrases] == [
            (0, 0, 1), (0, 0, 2), (0, 0, 3), (1, 5, 3),
        ]
        parsed = naive_lz77(b"\x01\x01\x01\x01")
        assert [(p.start, p.len, p.border) for p in parsed.phrases] == [
            (0, 0, 1), (1, 2, 1),
        ]

    def test_round_trip(self):
        rng = random.Random(71)
        for _ in range(30):
            text = random_text(rng, rng.choice([2, 4, 26]), rng.randint(1, 300))
            assert lz77.decompress(naive_lz77(text)) == text
