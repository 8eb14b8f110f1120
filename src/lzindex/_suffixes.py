"""The one suffix-array pass of a build, and the sorts and lcps after it.

Everything here treats the text as a numpy int array and end-of-string as
smaller than any symbol, so suffix order matches Python's prefix-first
ordering of the raw sequences. The parser (lz77.parse) reads the suffix
array and the ranks to find each phrase's longest previous factor and
source, and then both are dropped. The index constructor, at build and at
load alike, sorts only the suffixes that follow the relevant substrings
(sort_suffixes) and takes the lcps of adjacent ones by direct comparison
(pair_lcps). No LCP array and no range-minimum table is built: those
suffixes are about z·tau, not n.

The suffix array comes from prefix doubling on numpy's default (unstable)
argsort. A round's ranks are the dense ranks of its key values, which do
not depend on how equal keys are ordered, and the rounds stop only once
every key is distinct, when the order is the unique suffix array; so the
result, and every file built from it, is the same whatever order the sort
leaves equal keys in.
"""

from __future__ import annotations

import numpy as np

from . import trie

# bits of a packed first key; the dense symbols keep it below 2^62, so the
# shifts never reach the int64 sign bit
_KEY_BITS = 62
# pair_lcps compares spans of _FIRST_SPAN symbols per pair at first,
# doubling up to _MAX_SPAN, and gathers at most _GATHER symbols per side at
# once
_FIRST_SPAN = 8
_MAX_SPAN = 1 << 12
_GATHER = 1 << 16
# sort_suffixes compares the first _SORT_SPAN symbols of each suffix, and
# then, in the groups still tied, four times as many a round
_SORT_SPAN = 256


def suffix_array(text: np.ndarray) -> np.ndarray:
    """Suffix array by prefix doubling, one argsort a round.

    The first key packs floor(62 / b) symbols of each suffix, where b is the
    bit length of the number of distinct symbols: each symbol is its dense
    rank plus one, and 0 stands for past the end. Later rounds double the
    width with the key rank * (n + 1) + (rank w later, + 1; 0 past the end),
    which fits int64 whatever the alphabet.
    """
    n = len(text)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    _, sym = np.unique(text, return_inverse=True)
    sym = sym.astype(np.int64).reshape(n) + 1
    bits = int(sym.max()).bit_length()
    width = _KEY_BITS // bits
    key = sym << (bits * (width - 1))
    for q in range(1, min(width, n)):
        key[: n - q] |= sym[q:] << (bits * (width - 1 - q))
    del sym
    while True:
        sa = np.argsort(key)
        sorted_key = key[sa]
        rank = np.empty(n, dtype=np.int64)
        rank[sa[0]] = 0
        rank[sa[1:]] = np.cumsum(sorted_key[1:] != sorted_key[:-1])
        if rank[sa[-1]] == n - 1:
            return sa
        del sorted_key
        key = rank * (n + 1)
        key[: n - width] += rank[width:] + 1
        width <<= 1


def pair_lcps(text: np.ndarray, a: np.ndarray, b: np.ndarray, cap=None) -> np.ndarray:
    """lcp of the suffixes at 0-based starts a[i] != b[i] of text, per pair,
    or cap[i] where that is smaller (cap, when given, an int array).

    All pairs are compared in lockstep, a span of symbols a round, doubling
    from 8 up to 4096 symbols; a pair leaves at its first mismatch or where
    the shorter suffix ends. A round gathers at most 2^16 symbols per side
    at once, so the pairs run in batches when there are many. The symbols
    are read from a copy in the narrowest unsigned type that holds them,
    unless one is negative, so a gather moves fewer bytes.
    """
    n = len(text)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    limit = n - np.maximum(a, b)
    if cap is not None:
        limit = np.minimum(limit, cap)
    out = np.zeros(len(a), dtype=np.int64)
    # the padding lets a span run past the text's end; whatever it reads
    # there is cut back to the limit
    top = int(text.max(initial=0))
    narrow = np.min_scalar_type(top) if text.min(initial=0) >= 0 else text.dtype
    padded = np.zeros(n + _MAX_SPAN, dtype=narrow)
    padded[:n] = text
    live = np.flatnonzero(limit > 0)
    span = _FIRST_SPAN
    while len(live):
        windows = np.lib.stride_tricks.sliding_window_view(padded, span)
        step = _GATHER // span
        keep = []
        for lo in range(0, len(live), step):
            batch = live[lo : lo + step]
            at = out[batch]
            differ = windows[a[batch] + at] != windows[b[batch] + at]
            first = differ.argmax(axis=1)
            hit = differ[np.arange(len(batch)), first]
            reach = np.minimum(np.where(hit, at + first, at + span), limit[batch])
            out[batch] = reach
            keep.append(batch[~hit & (reach < limit[batch])])
        live = np.concatenate(keep)
        span = min(span << 1, _MAX_SPAN)
    return out


def sort_suffixes(text: np.ndarray, starts) -> list[int]:
    """The order of the suffixes of text at the distinct 0-based starts, an
    index into starts per rank; the empty suffix (a start of len(text))
    ranks first.

    Sorts bytes slices of the text, encoded once by trie.encode, over the
    first 256 symbols; only the groups whose keys tie over the whole window
    are sorted again, by the next window, four times the symbols compared
    so far (Larsson and Sadakane, "Faster suffix sorting", 2007). Keys of
    distinct suffixes tie only when both fill the window, so the rounds end.
    """
    width = trie.key_width(int(text.max(initial=0)))
    enc = trie.encode(text, width)
    at = (np.asarray(starts, dtype=np.int64) * width).tolist()
    order = list(range(len(at)))
    groups = [(0, len(order))]
    lo, hi = 0, _SORT_SPAN * width  # the window, in bytes past each start
    while groups:
        tied = []
        for a, b in groups:
            group = order[a:b]
            keys = [enc[at[i] + lo : at[i] + hi] for i in group]
            by_key = sorted(range(len(group)), key=keys.__getitem__)
            order[a:b] = [group[k] for k in by_key]
            keys = [keys[k] for k in by_key]
            run = 0  # the first of the current run of equal keys
            for r in range(1, len(keys) + 1):
                if r == len(keys) or keys[r] != keys[run]:
                    if r - run > 1 and len(keys[run]) == hi - lo:
                        tied.append((a + run, a + r))
                    run = r
        groups = tied
        lo, hi = hi, 4 * hi
    return order


def lcp_array(text: np.ndarray, sa: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Kasai: lcp[i] = lcp(suffix sa[i-1], suffix sa[i]), lcp[0] = 0.

    A Python loop over n; no build reads it, only
    fingerprints.verify_pow2_collision_free."""
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
    """A text with its suffix array and ranks (the inverse suffix array);
    its length is the text's."""

    def __init__(self, text: np.ndarray):
        self.text = text
        self.n = len(text)
        self.sa = suffix_array(text)
        self.rank = np.empty(self.n, dtype=np.int64)
        self.rank[self.sa] = np.arange(self.n)

    def __len__(self) -> int:
        return self.n
