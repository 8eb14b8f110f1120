"""LZ77 parsing, decompression and the phrase-length cap.

A phrase copies a (possibly empty, possibly self-overlapping) source from
earlier in the text and appends one literal character, the phrase border.
Parsing is greedy leftmost-longest; when several sources of maximal length
exist the one with the smallest start is chosen so parses are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    Built from the suffix array via longest-previous-factor queries; each
    phrase source is the leftmost occurrence of the factor. `ctx` is the
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
    lpf = _longest_previous_factor(ctx)

    phrases = []
    j = 0  # 0-based position of the next phrase
    while j < n:
        length = min(int(lpf[j]), n - 1 - j)
        if length == 0:
            phrases.append(Phrase(0, 0, int(arr[j])))
            j += 1
        else:
            src = ctx.leftmost_occurrence(j, length)
            phrases.append(Phrase(src + 1, length, int(arr[j + length])))
            j += length + 1
    return Lz77Parse(tuple(phrases), n, len(phrases), sigma)


def _longest_previous_factor(ctx: SuffixContext) -> np.ndarray:
    """lpf[j] = longest l such that text[j:j+l] occurs starting before j.

    Uses the previous/next smaller suffix-start neighbours in suffix array
    order; the longer of the two lcps is the LPF.
    """
    n = ctx.n
    sa = ctx.sa
    prev_smaller = np.full(n, -1, dtype=np.int64)
    next_smaller = np.full(n, -1, dtype=np.int64)
    stack: list[int] = []
    for r in range(n):
        pos = int(sa[r])
        while stack and stack[-1] > pos:
            stack.pop()
        if stack:
            prev_smaller[r] = stack[-1]
        stack.append(pos)
    stack.clear()
    for r in range(n - 1, -1, -1):
        pos = int(sa[r])
        while stack and stack[-1] > pos:
            stack.pop()
        if stack:
            next_smaller[r] = stack[-1]
        stack.append(pos)

    lpf = np.zeros(n, dtype=np.int64)
    for r in range(n):
        pos = int(sa[r])
        best = 0
        for cand in (int(prev_smaller[r]), int(next_smaller[r])):
            if cand >= 0:
                best = max(best, ctx.lcp_between(pos, cand))
        lpf[pos] = best
    return lpf


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


def cap_phrases(parsed: Lz77Parse, limit: int) -> Lz77Parse:
    """Split phrases so every phrase covers at most `limit` positions.

    Pieces keep copying from the original source region; the borders of the
    intermediate pieces are the copied characters themselves.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    text = to_symbols(decompress(parsed))
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
