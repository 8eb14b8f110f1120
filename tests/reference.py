"""Reference implementations the tests compare the library against.

Brute-force scans and definitions applied verbatim, independent of the
structures they check: locate by a direct scan, the primary/secondary
classification of occurrences, a quadratic greedy LZ77 parser and the
2-fattest number of an interval. The primary occurrences the index's own
phases find, as the tests reach them. A fingerprint as a (value, length)
pair, evaluated symbol by symbol and composed by phi(yz) = phi(y) +
r^|y| phi(z): the definition that fingerprints.PrefixFpTable and
fingerprints.PatternFps must agree with. A prefix search structure over
materialized strings, for testing prefix_search without a text. And the
order of a set of suffixes read off the suffix array's ranks, which
_suffixes.sort_suffixes must agree with.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from lzindex import fingerprints as fp
from lzindex import prefix_search as ps
from lzindex import trie
from lzindex._suffixes import SuffixContext
from lzindex._text import to_symbols
from lzindex.lz77 import Lz77Parse, Phrase


def to_bytes_if_possible(arr: np.ndarray) -> bytes | None:
    """The symbols as bytes when all fit in one, so a scan runs at C speed."""
    if len(arr) == 0 or (arr.min() >= 0 and arr.max() <= 255):
        return arr.astype(np.uint8).tobytes()
    return None


def naive_locate(text, pattern) -> list[int]:
    """All 1-based starting positions of `pattern` in `text`, by direct scan."""
    t = to_symbols(text)
    p = to_symbols(pattern)
    m = len(p)
    if m == 0 or m > len(t):
        return []
    tb = to_bytes_if_possible(t)
    pb = to_bytes_if_possible(p)
    out = []
    if tb is not None and pb is not None:
        i = tb.find(pb)
        while i != -1:
            out.append(i + 1)
            i = tb.find(pb, i + 1)
    else:
        tt = tuple(t.tolist())
        pp = tuple(p.tolist())
        for i in range(len(tt) - m + 1):
            if tt[i : i + m] == pp:
                out.append(i + 1)
    return out


def classify(text, parse: Lz77Parse, positions, m: int) -> list[bool]:
    """primary_flags[i] is True iff occurrence [pos, pos+m-1] contains a
    phrase border of the given parse."""
    borders = parse.border_positions()
    flags = []
    for pos in positions:
        i = bisect_left(borders, pos)
        flags.append(i < len(borders) and borders[i] <= pos + m - 1)
    return flags


def naive_lz77(text) -> Lz77Parse:
    """Greedy leftmost-longest LZ77 by quadratic search; smallest source."""
    arr = to_symbols(text)
    n = len(arr)
    if n == 0:
        raise ValueError("empty text")
    tb = to_bytes_if_possible(arr)
    seq = tb if tb is not None else tuple(arr.tolist())

    def find_before(sub, j0: int) -> int:
        # leftmost occurrence of sub starting at < j0 (0-based), -1 if none
        if tb is not None:
            return seq.find(sub, 0, j0 - 1 + len(sub))
        for i in range(j0):
            if seq[i : i + len(sub)] == sub:
                return i
        return -1

    phrases = []
    j = 0
    while j < n:
        length = 0
        src = -1
        while j + length + 1 <= n - 1:
            cand = find_before(seq[j : j + length + 1], j)
            if cand == -1:
                break
            length += 1
            src = cand
        if length == 0:
            phrases.append(Phrase(0, 0, int(arr[j])))
        else:
            phrases.append(Phrase(src + 1, length, int(arr[j + length])))
        j += length + 1
    return Lz77Parse(tuple(phrases))


def two_fattest(lo: int, hi: int) -> int:
    """The unique integer in (lo, hi] with the most trailing binary zeros;
    prefix_search.key_lengths computes it for every vertex at once."""
    if not 0 <= lo < hi:
        raise ValueError("empty interval")
    # clear the bits of hi below the highest one where lo and hi differ
    return hi & ~((1 << ((lo ^ hi).bit_length() - 1)) - 1)


def primary_pairs(idx, pattern) -> list[tuple[int, int]]:
    """The primary occurrences that locate finds for a pattern of symbols in
    [1, sigma] and of length at most n, as sorted (position, border) pairs:
    from the short phase when m <= tau, else from the long one, whose border
    is the one stored with the relevant substring that identified the
    occurrence."""
    p = tuple(pattern)
    phase = idx._primary_short if len(p) <= idx.tau else idx._primary_long
    return sorted(phase(p, {}).items())


@dataclass(frozen=True)
class Fingerprint:
    value: int
    length: int
    r: int = field(repr=False, compare=False)

    @property
    def r_pow(self) -> int:
        return pow(self.r, self.length, fp.P)


def fingerprint(r: int, s) -> Fingerprint:
    symbols = to_symbols(s).tolist()
    value = 0
    rp = 1
    for c in symbols:
        value = (value + c * rp) % fp.P
        rp = rp * r % fp.P
    return Fingerprint(value, len(symbols), r)


def compose(fy: Fingerprint, fz: Fingerprint) -> Fingerprint:
    """Fingerprint of the concatenation yz."""
    return Fingerprint((fy.value + fy.r_pow * fz.value) % fp.P, fy.length + fz.length, fy.r)


def build_from_strings(strings, x: int, r: int):
    """The certified search structure over materialized strings: the
    compact trie, one prefix table over the distinct strings joined end to
    end, and prefix_search.build over them. Returns
    (structure, distinct_strings)."""
    t, distinct = trie.build(strings)
    joined: list[int] = []
    offsets = []
    for s in distinct:
        offsets.append(len(joined))
        joined += s
    table = fp.PrefixFpTable(r, joined)
    starts = np.array(offsets, dtype=np.int64)
    sample = np.array(t.sample, dtype=np.int64)

    def prefix_values(vertices, lengths):
        return table.values(starts[sample[vertices]], lengths)

    return ps.build(t, x, prefix_values), distinct


def suffix_rank_order(text, starts) -> list[int]:
    """The order of the suffixes of text at the distinct 0-based starts, an
    index into starts per rank, by their suffix array ranks; a start of
    len(text), the empty suffix, ranks first. The index built its suffix
    trie's string order this way before it sorted the suffixes itself."""
    rank = np.append(SuffixContext(to_symbols(text)).rank, -1)
    return np.argsort(rank[np.asarray(starts, dtype=np.int64)], kind="stable").tolist()
