"""The index file against the paper's space bound, O(z lg(n/z)) words.

The texts are mutated copies of one base, the repetitive texts the index
targets, at three lengths; the file's 8-byte words per z * ceil(lg(n/z))
must stay flat across them.
"""

import random

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


def test_file_words_per_z_lg_n_over_z_stay_flat():
    ratios = []
    for n in (20_000, 40_000, 80_000):
        text = edited_copies(random.Random(n), 4, 2_000, n, 3)
        idx = Index.build(text)
        z = idx.stats()["phrases"]
        ratios.append(len(idx.to_bytes()) / 8 / (z * default_tau(n, z)))
    # measured 0.83 to 0.88 words over three seeds
    assert max(ratios) <= 1.1 * min(ratios), ratios
    assert max(ratios) < 1.0, ratios
