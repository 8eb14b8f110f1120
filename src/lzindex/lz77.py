"""LZ77 parsing, decompression and the phrase-length cap.

A phrase copies a (possibly empty, possibly self-overlapping) source from
earlier in the text and appends one literal character, the phrase border.
Parsing is greedy leftmost-longest; when several sources of maximal length
exist the one with the smallest start is chosen so parses are deterministic.

The parser reads one suffix array and its ranks and follows Kärkkäinen,
Kempa and Puglisi (CPM 2013): the longest previous factor is needed only
where a phrase starts, and there it is the longer lcp with the previous and
next smaller suffix starts. So those two neighbours are found only at
phrase starts, by numpy scans of the suffix array and one climb of a small
tree of block minima, over the suffix array for the next smaller start and
over its reversal for the previous one. Nothing is computed per text
position: no PSV/NSV array, and no Python object per symbol. (Pointer
jumping would fill whole PSV/NSV arrays in numpy, but needs a round per
rank on a text such as "b a^k c", whose suffixes a^i c sort by start.) The
lcps, and the search for a leftmost source, compare bytes slices of the
text's byte key (trie.encode), a span of symbols at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import trie
from ._suffixes import SuffixContext
from ._text import to_symbols


@dataclass(frozen=True)
class Phrase:
    """One LZ77 phrase: source (start, len) plus the trailing border symbol.

    `start` is 1-based; start == 0 means the source is empty (len == 0).
    """

    start: int
    len: int
    border: int

    def span(self) -> int:
        """Number of text positions the phrase covers."""
        return self.len + 1


@dataclass(frozen=True)
class Lz77Parse:
    """A parse as its phrases alone; the rest is read off them."""

    phrases: tuple[Phrase, ...]

    @property
    def n(self) -> int:
        """The text's length, the phrases' spans together."""
        return len(self.phrases) + sum(ph.len for ph in self.phrases)

    @property
    def z(self) -> int:
        return len(self.phrases)

    @property
    def alphabet_size(self) -> int:
        """The largest border: the first occurrence of every symbol ends a
        phrase."""
        return max(ph.border for ph in self.phrases)

    def border_positions(self) -> list[int]:
        """1-based positions of the phrase borders, ascending."""
        out = []
        pos = 0
        for ph in self.phrases:
            pos += ph.span()
            out.append(pos)
        return out


def parse(text, ctx: SuffixContext | None = None) -> Lz77Parse:
    """Greedy leftmost-longest LZ77 parse of `text` (symbols >= 1).

    The longest previous factor is taken only at phrase starts, by direct
    comparison with the previous and next smaller suffix starts in suffix
    array order (Kärkkäinen, Kempa and Puglisi, "Linear time Lempel-Ziv
    factorization: simple, fast, small", CPM 2013); each comparison stops
    within the phrase, so all of them take O(n) together. The source is the
    smallest start in the suffix array interval of the factor, whose ends
    are found by galloping out from those two neighbours. Comparisons
    are of bytes slices of the text's byte key (trie.encode), a span at a
    time, so none of them loops over symbols in Python. `ctx` is the text's
    suffix context when the caller already has one; without it the parse
    builds its own.
    """
    arr = to_symbols(text)
    n = len(arr)
    if n == 0:
        raise ValueError("empty text")
    sigma = int(arr.max())
    if int(arr.min()) < 1:
        raise ValueError("symbols must be >= 1")

    if ctx is None:
        ctx = SuffixContext(arr)
    sa, rank = ctx.sa, ctx.rank
    smaller = _SmallerNeighbours(sa)
    width = trie.key_width(sigma)
    key = trie.encode(arr, width)

    phrases = []
    j = 0  # 0-based position of the next phrase
    while j < n:
        r = int(rank[j])
        p, q = smaller.around(r)
        # the sources start before j, so the suffix at j ends first
        lp = _common(key, width, int(sa[p]), j, n - j) if p >= 0 else 0
        lq = _common(key, width, int(sa[q]), j, n - j) if q < n else 0
        length = min(max(lp, lq), n - 1 - j)
        if length == 0:
            phrases.append(Phrase(0, 0, int(arr[j])))
            j += 1
            continue
        factor = key[j * width : (j + length) * width]

        def holds(i: int) -> bool:
            s = int(sa[i])
            return key[s * width : (s + length) * width] == factor

        # the suffixes at ranks strictly between p and q all start after j,
        # so a leftmost source sits at p or before, or at q or after
        src = j
        if lp >= length:
            src = int(sa[_gallop(holds, p, -1, n) : p + 1].min())
        if lq >= length:
            src = min(src, int(sa[q : _gallop(holds, q, 1, n) + 1].min()))
        phrases.append(Phrase(src + 1, length, int(arr[j + length])))
        j += length + 1
    return Lz77Parse(tuple(phrases))


def _common(key: bytes, width: int, a: int, b: int, limit: int) -> int:
    """Symbols the suffixes at a and b share, up to limit, from the byte key
    of their text: spans of 8, 16, 32, ... symbols are compared as bytes,
    and the first that differs is XOR-ed to find the symbol
    (trie.shared_symbols)."""
    l = 0
    span = 8
    while l < limit:
        m = min(span, limit - l)
        x = key[(a + l) * width : (a + l + m) * width]
        y = key[(b + l) * width : (b + l + m) * width]
        if x != y:
            return l + trie.shared_symbols(x, y, width)
        l += m
        span <<= 1
    return limit


def _gallop(holds, r: int, step: int, n: int) -> int:
    """The farthest rank from r, stepping by step (-1 or 1), up to which
    holds is true, given that it holds on an interval of ranks holding r:
    steps of 1, 2, 4, ... until it fails, then a bisection."""
    inside, out = 0, 1
    while 0 <= r + step * out < n and holds(r + step * out):
        inside, out = out, out * 2
    while out - inside > 1:
        mid = (inside + out) // 2
        if 0 <= r + step * mid < n and holds(r + step * mid):
            inside = mid
        else:
            out = mid
    return r + step * inside


class _SmallerNeighbours:
    """Previous and next smaller values in the suffix array, asked only at
    phrase starts: for a rank r, the nearest ranks before and after r whose
    suffixes start before the suffix at r.

    A query scans the 64 ranks on each side of r. A side that holds no
    smaller start climbs a tree of block minima (each level the minima of
    64-entry blocks of the level below) to the nearest block that does,
    and descends into it. There is one tree per direction, over the suffix
    array and over its reversal, and one climb, forward, serves both: rank
    t of the reversal is rank n - 1 - t of the suffix array. So a query
    costs a few numpy scans of at most 129 entries, and the trees add
    2n / 63 entries to the suffix array.
    """

    _B = 64

    def __init__(self, sa: np.ndarray):
        self.sa = sa
        self.after, self.before = self._tree(sa), self._tree(sa[::-1])

    def _tree(self, a: np.ndarray) -> list[np.ndarray]:
        b, levels = self._B, [a]
        while len(levels[-1]) > b:
            a = levels[-1]
            padded = np.concatenate((a, np.full(-len(a) % b, len(self.sa), dtype=a.dtype)))
            levels.append(padded.reshape(-1, b).min(axis=1))
        return levels

    def around(self, r: int) -> tuple[int, int]:
        """The nearest ranks before and after r whose suffixes start before
        the suffix at r, -1 or n where there is none."""
        sa = self.sa
        n, x = len(sa), int(sa[r])
        lo, hi = max(0, r - self._B), r + self._B + 1
        hits = ((sa[lo:hi] < x).nonzero()[0] + lo).tolist()
        k = bisect_left(hits, r)
        return (hits[k - 1] if k else n - 1 - self._from(self.before, n - lo, x),
                hits[k] if k < len(hits) else self._from(self.after, hi, x))

    def _from(self, levels: list[np.ndarray], i: int, x: int) -> int:
        """The nearest index from i on of the tree's base whose entry is
        below x, or the base's length."""
        b = self._B
        lv = 0  # search entries from i on of level lv
        while True:
            hi = (i // b + 1) * b
            hits = (levels[lv][i:hi] < x).nonzero()[0]
            if len(hits):
                i += int(hits[0])
                break
            if hi >= len(levels[lv]):
                return len(levels[0])
            lv, i = lv + 1, hi // b
        while lv > 0:
            lv -= 1
            i = i * b + int((levels[lv][i * b : (i + 1) * b] < x).nonzero()[0][0])
        return i


def decompress(parsed: Lz77Parse) -> bytes | tuple[int, ...]:
    """Rebuild the text; returns bytes when all symbols fit in a byte."""
    out: list[int] = []
    for ph in parsed.phrases:
        if ph.len > 0:
            src = ph.start - 1
            if src < 0 or src >= len(out):
                raise ValueError("malformed parse")
            if src + ph.len <= len(out):
                out += out[src : src + ph.len]
            else:
                for k in range(ph.len):  # left to right so self-overlap works
                    out.append(out[src + k])
        elif ph.start != 0:
            raise ValueError("malformed parse")
        out.append(ph.border)
    try:
        return bytes(out)
    except ValueError:  # a symbol above 255
        return tuple(out)


def cap_phrases(parsed: Lz77Parse, limit: int, text) -> Lz77Parse:
    """Split phrases so every phrase covers at most `limit` positions.

    Pieces keep copying from the original source region; the borders of the
    intermediate pieces are the copied characters themselves, read from
    `text`, the text the parse spells.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    phrases: list[Phrase] = []
    for ph in parsed.phrases:
        total = ph.span()
        off = 0
        while off < total:
            piece = min(limit, total - off)
            if off + piece < total:
                border = int(text[ph.start - 1 + off + piece - 1])
            else:
                border = ph.border
            if piece == 1:
                phrases.append(Phrase(0, 0, border))
            else:
                phrases.append(Phrase(ph.start + off, piece - 1, border))
            off += piece
    return Lz77Parse(tuple(phrases))
