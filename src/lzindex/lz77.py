"""LZ77 parsing, decompression and the phrase-length cap.

A phrase copies a (possibly empty, possibly self-overlapping) source from
earlier in the text and appends one literal character, the phrase border.
Parsing is greedy leftmost-longest; when several sources of maximal length
exist the one with the smallest start is chosen so parses are deterministic.

The parser reads one suffix array and follows Kärkkäinen, Kempa and Puglisi
(CPM 2013): the longest previous factor is needed only where a phrase
starts, and there it is the longer lcp with the previous and next smaller
suffix starts, found by comparing characters. Nothing is computed per text
position beyond those two neighbours.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

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
    phrases: tuple[Phrase, ...]
    n: int
    z: int
    alphabet_size: int

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
    smallest start in the suffix array interval of the factor, found by
    bisecting the suffix array against the text. `ctx` is the
    text's suffix context when the caller already has one; without it the
    parse builds its own.
    """
    arr = to_symbols(text)
    n = len(arr)
    if n == 0:
        raise ValueError("empty text")
    sigma = int(arr.max())
    if int(arr.min()) < 1:
        raise ValueError("symbols must be >= 1")
    if n == 1:
        return Lz77Parse((Phrase(0, 0, int(arr[0])),), 1, 1, sigma)

    if ctx is None:
        ctx = SuffixContext(arr)
    sa = ctx.sa.tolist()
    psv, nsv = _smaller_neighbours(sa)
    # the sentinel stops a comparison at the text's end: the source side
    # starts earlier, so it never reaches the end first
    t = arr.tolist() + [None]

    phrases = []
    j = 0  # 0-based position of the next phrase
    while j < n:
        lpf = 0
        for c in (psv[j], nsv[j]):
            if c >= 0:
                l = 0
                while t[c + l] == t[j + l]:
                    l += 1
                lpf = max(lpf, l)
        length = min(lpf, n - 1 - j)
        if length == 0:
            phrases.append(Phrase(0, 0, t[j]))
            j += 1
            continue
        factor = t[j : j + length]

        def prefix(s: int) -> list:
            return t[s : min(s + length, n)]  # never the sentinel

        r = int(ctx.rank[j])
        lo = bisect_left(sa, factor, 0, r, key=prefix)
        hi = bisect_right(sa, factor, r + 1, n, key=prefix)
        src = int(ctx.sa[lo:hi].min())
        phrases.append(Phrase(src + 1, length, t[j + length]))
        j += length + 1
    return Lz77Parse(tuple(phrases), n, len(phrases), sigma)


def _smaller_neighbours(sa: list[int]) -> tuple[list[int], list[int]]:
    """Per text position, the previous and the next smaller suffix start in
    suffix array order (-1 where there is none), by one stack pass."""
    n = len(sa)
    psv = [-1] * n
    nsv = [-1] * n
    stack: list[int] = []
    for pos in sa:
        while stack and stack[-1] > pos:
            nsv[stack.pop()] = pos
        if stack:
            psv[pos] = stack[-1]
        stack.append(pos)
    return psv, nsv


def decompress(parsed: Lz77Parse) -> bytes | tuple[int, ...]:
    """Rebuild the text; returns bytes when all symbols fit in a byte."""
    out: list[int] = []
    for ph in parsed.phrases:
        if ph.len > 0:
            src = ph.start - 1
            if src < 0 or src >= len(out):
                raise ValueError("malformed parse")
            for k in range(ph.len):  # left to right so self-overlap works
                out.append(out[src + k])
        elif ph.start != 0:
            raise ValueError("malformed parse")
        out.append(ph.border)
    if len(out) != parsed.n:
        raise ValueError("malformed parse")
    if all(0 <= c <= 255 for c in out):
        return bytes(out)
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
        if total <= limit:
            phrases.append(ph)
        else:
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
    return Lz77Parse(tuple(phrases), parsed.n, len(phrases), parsed.alphabet_size)
