import random

import pytest

from lzindex._io import Reader, Writer


class TestVarints:
    def test_round_trip(self):
        rng = random.Random(81)
        values = [0, 1, 127, 128, 300, 2**61 - 1, 2**200]
        values += [rng.randrange(0, 2**64) for _ in range(200)]
        w = Writer()
        for v in values:
            w.u(v)
        r = Reader(bytes(w.buf))
        assert [r.u() for _ in values] == values
        assert r.pos == len(w.buf)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative varint"):
            Writer().u(-1)

    def test_truncated_input(self):
        w = Writer()
        w.u(300)
        with pytest.raises(ValueError, match="corrupt index"):
            Reader(bytes(w.buf[:-1])).u()

    def test_raw_bounds(self):
        r = Reader(b"ab")
        assert r.raw(2) == b"ab"
        with pytest.raises(ValueError, match="corrupt index"):
            r.raw(1)
