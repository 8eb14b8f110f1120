"""Oracle checks on certified builds, over a binary and an integer
alphabet.

Every build certifies that the text's power-of-two length substrings, and
those of its reversal, have no fingerprint collision, and that neither
dictionary has one. These tests check locate against a naive scan and
extract against slicing.
"""

import random

import pytest

from lzindex import Index, fingerprints as fp, oracle
from lzindex._suffixes import SuffixContext
from lzindex._text import to_symbols


def mutated_copies(rng: random.Random, sigma: int, base_len: int, n: int, substitutions: int) -> list[int]:
    """Copies of one random base over [1, sigma], each with a few substitutions."""
    base = [rng.randint(1, sigma) for _ in range(base_len)]
    out: list[int] = []
    while len(out) < n:
        copy = list(base)
        for _ in range(substitutions):
            copy[rng.randrange(base_len)] = rng.randint(1, sigma)
        out += copy
    return out[:n]


# (sigma, n, kind): texts long enough to be repetitive, and short random
# ones, where the dictionaries are certified too
CASES = [(2, 30_000, "repetitive"), (2, 3_000, "random"),
         (1_000, 30_000, "repetitive"), (1_000, 3_000, "random")]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"sigma{c[0]}-{c[2]}-{c[1]}")
def case(request):
    sigma, n, kind = request.param
    rng = random.Random(sigma * n)
    if kind == "repetitive":
        text = mutated_copies(rng, sigma, 1_000, n, 4)
    else:
        text = [rng.randint(1, sigma) for _ in range(n)]
    return rng, sigma, text, Index.build(text)


def planted(rng: random.Random, text: list[int], m: int) -> list[int]:
    start = rng.randrange(len(text) - m + 1)
    return text[start : start + m]


def test_build_is_certified(case):
    _, _, text, idx = case
    assert idx.n == len(text)
    assert fp.verify_pow2_collision_free(idx.fn, SuffixContext(to_symbols(text)))
    # no two vertices share a dictionary key
    for ps in (idx.ps_d, idx.ps_dp):
        assert len(ps.G) == len(ps.g_values) and len(ps.H) == len(ps.h_values)


def test_locate_matches_naive_scan(case):
    rng, sigma, text, idx = case
    tau, b = idx.tau, idx.block_len
    occurring = set(text)
    patterns = []
    for m in sorted({1, tau, tau + 1, 3 * b}):
        patterns += [planted(rng, text, m) for _ in range(5)]
        # a near miss: a planted pattern with one symbol changed
        near = planted(rng, text, m)
        k = rng.randrange(m)
        near[k] = near[k] % sigma + 1
        patterns.append(near)
        # an absent pattern, where the text leaves room for one
        for _ in range(100):
            absent = [rng.randint(1, sigma) for _ in range(m)]
            if not oracle.naive_locate(text, absent):
                patterns.append(absent)
                break
    # a symbol of the alphabet the text does not hold
    patterns += [[c] for c in range(1, sigma + 1) if c not in occurring][:3]
    for pattern in patterns:
        assert idx.locate(pattern) == oracle.naive_locate(text, pattern)


def test_extract_matches_slicing(case):
    rng, _, text, idx = case
    n, b = idx.n, idx.block_len
    assert idx.extract(1, n) == text
    for _ in range(100):
        border = b * rng.randint(1, (n - 1) // b)
        i = max(1, border - rng.randint(0, b))
        j = min(n, border + 1 + rng.randint(0, 3 * b))
        assert idx.extract(i, j) == text[i - 1 : j]
