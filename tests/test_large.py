"""Oracle checks on a text above 2^16 characters.

At this length the build skips both fingerprint certification passes and
relies on the size of p alone, so these tests cover the uncertified build
path: locate against a naive scan and extract against slicing.
"""

import random

import pytest

from lzindex import Index, oracle
from lzindex.index import _POW2_CERT_LIMIT

from conftest import absent_pattern, planted_pattern

N = 70_000


def mutated_copies(rng: random.Random, base_len: int, n: int, substitutions: int) -> bytes:
    """Copies of one random base over {1..4}, each with a few substitutions."""
    base = bytes(rng.randint(1, 4) for _ in range(base_len))
    out = bytearray()
    while len(out) < n:
        copy = bytearray(base)
        for _ in range(substitutions):
            copy[rng.randrange(base_len)] = rng.randint(1, 4)
        out += copy
    return bytes(out[:n])


@pytest.fixture(scope="module")
def large():
    rng = random.Random(70_000)
    text = mutated_copies(rng, 1_500, N, 6)
    return rng, text, Index.build(text)


def test_build_is_uncertified(large):
    _, _, idx = large
    assert idx.n > _POW2_CERT_LIMIT
    assert not idx.pow2_certified and not idx.prefix_certified


def test_locate_matches_naive_scan(large):
    rng, text, idx = large
    tau, b = idx.tau, idx.block_len
    patterns = []
    for m in (1, tau, tau + 1, tau + 2, 3 * b, 5 * b + 7):
        for _ in range(5):
            patterns.append(planted_pattern(rng, text, m, m))
        # a near miss: a planted pattern with one symbol changed
        near = bytearray(planted_pattern(rng, text, m, m))
        k = rng.randrange(m)
        near[k] = near[k] % 4 + 1
        patterns.append(bytes(near))
        if m > tau:
            patterns.append(absent_pattern(rng, text, 4, m))
    assert len(patterns) >= 40
    for pattern in patterns:
        assert idx.locate(pattern) == oracle.naive_locate(text, pattern)


def test_extract_across_block_borders(large):
    rng, text, idx = large
    b = idx.block_len
    for _ in range(60):
        border = b * rng.randint(1, (N - 1) // b)
        i = max(1, border - rng.randint(0, b))
        j = min(N, border + 1 + rng.randint(0, 3 * b))
        assert bytes(idx.extract(i, j)) == text[i - 1 : j]
    assert bytes(idx.extract(1, N)) == text
