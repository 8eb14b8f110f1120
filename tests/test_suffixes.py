import random

import numpy as np

from lzindex._suffixes import SuffixContext, lcp_array, suffix_array

from conftest import random_text


def naive_sa(text) -> list[int]:
    """Suffix starts sorted as Python tuples: a proper prefix sorts first."""
    t = tuple(text)
    return sorted(range(len(t)), key=lambda i: t[i:])


def naive_lcp(text, sa) -> list[int]:
    t = tuple(text)
    out = [0] * len(sa)
    for r in range(1, len(sa)):
        a, b = t[sa[r - 1]:], t[sa[r]:]
        while out[r] < min(len(a), len(b)) and a[out[r]] == b[out[r]]:
            out[r] += 1
    return out


def check(text) -> None:
    arr = np.asarray(list(text), dtype=np.int64)
    sa = naive_sa(text)
    assert suffix_array(arr).tolist() == sa
    ctx = SuffixContext(arr)
    assert ctx.sa.tolist() == sa
    assert ctx.rank.tolist() == [sa.index(i) for i in range(len(sa))]
    assert ctx.lcp.tolist() == naive_lcp(text, sa)
    assert lcp_array(arr, ctx.sa, ctx.rank).tolist() == ctx.lcp.tolist()


def test_random_texts():
    rng = random.Random(31)
    for sigma in (2, 4, 26):
        for _ in range(12):
            check(random_text(rng, sigma, rng.randint(1, 600)))


def test_single_symbol():
    check(b"\x05")


def test_runs_and_periods():
    for n in (2, 3, 17, 256, 600):
        check(b"\x01" * n)
        check(b"\x01\x02" * n)


def test_large_integer_symbols():
    # a doubling key rank * (n + 2) + next rank built from raw symbols this
    # large would let the second half spill into the first, or overflow
    rng = random.Random(32)
    for top in (10**12, 10**12, 10**12, 2**62):
        alphabet = [rng.randint(1, top) for _ in range(rng.choice([2, 5, 300]))]
        alphabet[0] = top
        base = [rng.choice(alphabet) for _ in range(rng.randint(1, 80))]
        check(base * rng.randint(1, 6))
