"""The index against the paper's space bound, O(z lg(n/z)) words.

The texts are mutated copies of one base, the repetitive texts the index
targets, at three lengths. The file holds a header and the capped parse,
O(z) numbers of lg n bits, so its bits per z_capped * ceil(lg n) must stay
flat across them, and its 8-byte words per z * ceil(lg(n/z)) stay under the
paper's bound; the grammar's nodes per z_capped * ceil(lg(n/z)) must stay
flat too.
"""

import math
import random

import pytest

from lzindex import Index
from lzindex.index import default_tau


def edited_copies(rng: random.Random, sigma: int, base_len: int, n: int, edits: int) -> list[int]:
    """Copies of one random base over [1, sigma], each with `edits` edits at
    distinct positions, in the cycle substitution, substitution, insertion
    of 1-3 symbols, substitution, deletion of 1-3 symbols."""
    base = [rng.randint(1, sigma) for _ in range(base_len)]
    out: list[int] = []
    k = 0
    while len(out) < n:
        copy = list(base)
        # right to left, so each edit leaves the positions before it alone
        for pos in sorted(rng.sample(range(base_len), edits), reverse=True):
            kind = "SSISD"[k % 5]
            k += 1
            if kind == "S":
                copy[pos] = copy[pos] % sigma + 1
            elif kind == "I":
                copy[pos:pos] = [rng.randint(1, sigma) for _ in range(rng.randint(1, 3))]
            else:
                del copy[pos : pos + rng.randint(1, 3)]
        out += copy
    return out[:n]


@pytest.fixture(scope="module")
def indexes():
    return [(n, Index.build(edited_copies(random.Random(n), 4, 2_000, n, 3)))
            for n in (20_000, 40_000, 80_000)]


def test_file_words_per_z_lg_n_over_z_stay_flat(indexes):
    words, bits = [], []
    for n, idx in indexes:
        s = idx.stats()
        z = s["phrases"]
        size = len(idx.to_bytes())
        words.append(size / 8 / (z * default_tau(n, z)))
        bits.append(size * 8 / (s["capped_phrases"] * math.ceil(math.log2(n))))
    # measured 1.93 to 2.11 bits, spread 1.05 to 1.10 times the least, also
    # with the texts' seeds moved by 1 or 2. Words per z * ceil(lg(n/z))
    # measured 0.126 to 0.149; they fall as lg(n/z) grows, since the file
    # no longer stores the suffix trie's order, which gave 0.52 to 0.58
    # words and a spread within 1.1 times
    assert max(bits) <= 1.15 * min(bits), bits
    assert max(bits) < 2.5, bits
    assert max(words) < 0.2, words


def test_grammar_nodes_per_capped_z_lg_n_over_z_stay_flat(indexes):
    # the nodes the block roots reach, each pair made once
    ratios = []
    for n, idx in indexes:
        s = idx.stats()
        ratios.append(s["grammar_nodes"] / (s["capped_phrases"] * default_tau(n, s["phrases"])))
    # measured 0.89, 1.04 and 1.09; with the text's seed moved by 1 or 2
    # the spread reads up to 1.38 times the least. Keeping unreachable
    # nodes and repeated pairs gave 3.25 to 3.78.
    assert max(ratios) <= 1.4 * min(ratios), ratios
    assert max(ratios) < 1.5, ratios


def test_leaf_symbols_at_most_n(indexes):
    # the frontier tuples partition each block, so they hold at most n
    # symbols; holding every node of at most SHORT symbols could pass n
    checked = 0
    for n, idx in indexes:
        assert 0 < idx.stats()["leaf_symbols"] <= n
        checked += 1
    assert checked == 3
