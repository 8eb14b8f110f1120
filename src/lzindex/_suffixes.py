"""The one suffix-array pass of a build: suffix array, ranks and LCP array.

Everything here treats the text as a numpy int array and end-of-string as
smaller than any symbol, so suffix order matches Python's prefix-first
ordering of the raw sequences. The parser (lz77.parse) reads the suffix
array to find each phrase's longest previous factor and source, the index
builder reads the ranks and the LCP array for the suffix trie's leaf order
and adjacent lcps, and then drops all three. No range-minimum table is
built: the parser compares characters, and the builder takes its minima of
the LCP array in one pass.
"""

from __future__ import annotations

import numpy as np


def suffix_array(text: np.ndarray) -> np.ndarray:
    """Suffix array by prefix doubling, O(lg n) rounds of one stable argsort.

    The symbols are first mapped to dense ranks, so the round key
    rank * (n + 2) + (rank k later, + 1; 0 past the end) fits in int64
    whatever the alphabet.
    """
    n = len(text)
    _, rank = np.unique(text, return_inverse=True)
    rank = rank.astype(np.int64).reshape(n)
    sa = np.argsort(rank, kind="stable")
    k = 1
    while k < n:
        key = rank * (n + 2)
        key[: n - k] += rank[k:] + 1
        sa = np.argsort(key, kind="stable")
        sorted_key = key[sa]
        rank = np.empty(n, dtype=np.int64)
        rank[sa[0]] = 0
        rank[sa[1:]] = np.cumsum(sorted_key[1:] != sorted_key[:-1])
        if rank[sa[-1]] == n - 1:
            break
        k <<= 1
    return sa


def lcp_array(text: np.ndarray, sa: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Kasai: lcp[i] = lcp(suffix sa[i-1], suffix sa[i]), lcp[0] = 0."""
    n = len(text)
    # a sentinel no symbol equals ends every comparison at the text's end:
    # the two suffixes differ, so at most one of them reaches it
    t = text.tolist() + [None]
    s = sa.tolist()
    lcp = [0] * n
    h = 0
    for i, r in enumerate(rank.tolist()):
        if r > 0:
            j = s[r - 1]
            while t[i + h] == t[j + h]:
                h += 1
            lcp[r] = h
            if h > 0:
                h -= 1
        else:
            h = 0
    return np.array(lcp, dtype=np.int64)


class SuffixContext:
    """A text with its suffix array, ranks (the inverse suffix array) and
    LCP array; its length is the text's."""

    def __init__(self, text: np.ndarray):
        self.text = text
        self.n = len(text)
        self.sa = suffix_array(text)
        self.rank = np.empty(self.n, dtype=np.int64)
        self.rank[self.sa] = np.arange(self.n)
        self.lcp = lcp_array(text, self.sa, self.rank)

    def __len__(self) -> int:
        return self.n
