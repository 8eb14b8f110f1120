"""Oracle checks on a text above 2^16 characters.

The build certifies its fingerprint function's dictionaries at every n.
Here its first attempt draws r = 1, under which any two strings that
permute each other collide, so the index these tests check is the one the
build makes after rejecting it: locate against a naive scan and extract
against slicing.
"""

import random

import pytest

from lzindex import Index, fingerprints as fp, range_report

from conftest import absent_pattern, mutated_copies, planted_pattern
from reference import naive_locate

N = 70_000


@pytest.fixture(scope="module")
def large():
    rng = random.Random(70_000)
    text = mutated_copies(rng, 1_500, N, 6)
    select = fp.select_function
    seeds = []

    def select_r1_first(rng_seed=0):
        seeds.append(rng_seed)
        return 1 if rng_seed == 0 else select(rng_seed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fp, "select_function", select_r1_first)
        idx = Index.build(text)
    return rng, text, idx, seeds


def test_build_rejects_a_colliding_function(large):
    _, _, idx, seeds = large
    assert idx.n == N > 1 << 16
    assert seeds == [0, 1]
    assert idx.r == fp.select_function(1) != 1


def test_locate_matches_naive_scan(large, monkeypatch):
    rng, text, idx, _ = large
    # the widths of the copy-queue levels that ran as one numpy pass
    wide = []
    wide_level = range_report.SourceIndex._wide_level

    def spy(self, level, *args):
        wide.append(len(level))
        return wide_level(self, level, *args)

    monkeypatch.setattr(range_report.SourceIndex, "_wide_level", spy)
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
        assert idx.locate(pattern) == naive_locate(text, pattern)
    assert wide and min(wide) >= range_report.WIDE_LEVEL


def test_extract_across_block_borders(large):
    rng, text, idx, _ = large
    b = idx.block_len
    for _ in range(60):
        border = b * rng.randint(1, (N - 1) // b)
        i = max(1, border - rng.randint(0, b))
        j = min(N, border + 1 + rng.randint(0, 3 * b))
        assert bytes(idx.extract(i, j)) == text[i - 1 : j]
    assert bytes(idx.extract(1, N)) == text
