"""Balanced straight-line program over a capped LZ77 parse.

The text is carved into fixed-length blocks and each block gets its own
AVL-balanced binary grammar, after Rytter's AVL-grammar construction (TCS
2003); nodes are shared freely across blocks. Queries read the text only
through BlockTable.extract: the index checks a weak-search candidate by
comparing the text it stands for with the pattern (BlockTable.matches),
one block-bounded piece at a time, and stops at the first piece that
differs.

The build hash-conses its pairs, so no two nodes share both children,
and children come before their parents. A block is built as a list of
existing nodes, its pieces: each phrase adds the cover of its source and
its terminal, and the block's root is their one concat (_Arena.concat).
The grammar holds no fingerprint: it depends on the parse alone, so a
build makes it once whatever fingerprint function it keeps. It lives only
inside the build (_grammar): build_slp cuts the extraction table from it,
counts the nodes the block roots reach and the tallest root's height, and
drops it, so no node is renumbered and none is resident after the build.

A block's frontier nodes are the nodes of at most SHORT symbols that are
its root or a child of a node longer than SHORT; they partition the
block. The build walks each block down to them once, in text order, and
keeps one table of frontier pieces for the whole text (_Arena.cut_pieces):
each piece's start, its expansion as a tuple, and each block's first
piece. A node's tuple is cut from the text at its first occurrence and
shared by its later ones, so the tuples hold at most n symbols. Build and
load make the same table from the same parse. An extract finds its end
pieces by block arithmetic, and by a bisection of the block's piece
starts only when the block has more than one piece; it slices the end
pieces and copies those between, one tuple each, and counts each piece
it reads as one visit (BlockTable.node_visits).

How many pieces that is follows from the AVL balance. A pair's children
differ in height by at most one; a node of height h holds at most
2^(h - 1) symbols and at least F(h + 1), the Fibonacci number
(F(1) = F(2) = 1). A node longer than SHORT = 128 so has height at least
9, and each of its children height at least 7 and at least F(8) = 21
symbols. Every piece is such a child or a whole block, so every piece but
the text's last holds at least s = min(block_len, 21) symbols. An extract
of l >= 2 symbols reads its two end pieces and the whole ones between, at
most 2 + (l - 2) // s pieces, plus a bisection of O(lg(block_len))
steps; a block of L > SHORT symbols has from ceil(L / SHORT) to L // 21
pieces (tests/test_bounds.py).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from . import fingerprints as fp
from ._text import to_symbols
from .lz77 import Lz77Parse

# the longest expansion a node keeps as a tuple
SHORT = 128


class _Arena:
    """Node store, append-only. Terminals have no children (left = -1);
    pairs carry two.

    Every node knows its expansion length and AVL height (terminal = 1).
    Nodes the block roots stop reaching are kept, and none is renumbered:
    the arena lives only inside build_slp, which drops it once the table
    is cut from it.
    """

    def __init__(self):
        self.left: list[int] = []
        self.right: list[int] = []
        self.length: list[int] = []
        self.height: list[int] = []
        # build only: the node of each symbol and of each pair, keyed
        # left << 32 | right
        self._terminals: dict[int, int] = {}
        self._pairs: dict[int, int] = {}

    def terminal(self, symbol: int) -> int:
        v = self._terminals.get(symbol)
        if v is None:
            v = self._terminals[symbol] = len(self.left)
            self.left.append(-1)
            self.right.append(-1)
            self.length.append(1)
            self.height.append(1)
        return v

    def pair(self, a: int, b: int) -> int:
        key = a << 32 | b
        pairs = self._pairs
        v = pairs.get(key)
        if v is None:
            left, length, height = self.left, self.length, self.height
            v = pairs[key] = len(left)
            left.append(a)
            self.right.append(b)
            length.append(length[a] + length[b])
            ha, hb = height[a], height[b]
            height.append((ha if ha > hb else hb) + 1)
        return v

    def reached(self, roots: list[int]) -> int:
        """The number of nodes the roots reach."""
        left, right = self.left, self.right
        seen = bytearray(len(left))
        stack = list(roots)
        while stack:
            v = stack.pop()
            if not seen[v]:
                seen[v] = 1
                if left[v] >= 0:
                    stack += (left[v], right[v])
        return seen.count(1)

    def cut_pieces(self, roots: list[int], block_len: int,
                   text: np.ndarray) -> tuple[list[int], list[tuple], list[int]]:
        """The frontier pieces of every block, in text order, as three lists:
        each piece's 1-based start in the text, then n + 1; each piece's
        expansion; and the index of each block's first piece, then the
        piece count.

        One in-order walk of each block, block k starting at offset
        k * block_len of text, down to the nodes of at most SHORT symbols.
        A node's tuple is cut from the text at its first occurrence, and
        every later occurrence shares it.
        """
        left, right, length = self.left, self.right, self.length
        exp: list[tuple | None] = [None] * len(left)
        starts: list[int] = []
        pieces: list[tuple] = []
        first: list[int] = []
        for k, root in enumerate(roots):
            first.append(len(pieces))
            start = k * block_len
            stack = [root]
            while stack:
                v = stack.pop()
                while length[v] > SHORT:
                    stack.append(right[v])
                    v = left[v]
                t = exp[v]
                if t is None:
                    t = exp[v] = tuple(text[start : start + length[v]].tolist())
                starts.append(start + 1)
                pieces.append(t)
                start += length[v]
        starts.append(len(text) + 1)
        first.append(len(pieces))
        return starts, pieces, first

    # -- balanced concatenation ------------------------------------------

    def _node(self, a: int, b: int) -> int:
        """Pair with rebalancing; tolerates a height gap of two."""
        ha, hb = self.height[a], self.height[b]
        if abs(ha - hb) <= 1:
            return self.pair(a, b)
        if ha == hb + 2:
            al, ar = self.left[a], self.right[a]
            if self.height[al] >= self.height[ar]:
                return self.pair(al, self.pair(ar, b))
            arl, arr = self.left[ar], self.right[ar]
            return self.pair(self.pair(al, arl), self.pair(arr, b))
        if hb == ha + 2:
            bl, br = self.left[b], self.right[b]
            if self.height[br] >= self.height[bl]:
                return self.pair(self.pair(a, bl), br)
            bll, blr = self.left[bl], self.right[bl]
            return self.pair(self.pair(a, bll), self.pair(blr, br))
        raise AssertionError("join gap > 2")

    def join(self, a: int, b: int) -> int:
        """AVL join: expansion is expansion(a) + expansion(b)."""
        ha, hb = self.height[a], self.height[b]
        if abs(ha - hb) <= 2:
            return self._node(a, b)
        if ha > hb:
            t = self.join(self.right[a], b)
            return self._node(self.left[a], t)
        t = self.join(a, self.left[b])
        return self._node(t, self.right[b])

    def concat(self, nodes: list[int]) -> int:
        """The join of nodes, left to right, in one pass for any order of
        heights.

        A stack holds runs whose heights fall from bottom to top: a node
        absorbs the top while that is no taller, then goes on top, and the
        stack is folded right to left at the end. Short nodes so join each
        other, where a left-to-right fold walks down a tall run's right
        spine for each. A terminal absorbed by a pair of terminals makes
        ((u x) y), as three terminals in a row do, so equal three-symbol
        runs share one node.
        """
        join, pair, height = self.join, self.pair, self.height
        stack: list[int] = []
        for v in nodes:
            h = height[v]
            while stack and height[stack[-1]] <= h:
                u = stack.pop()
                if h == 2 and height[u] == 1:
                    v = pair(pair(u, self.left[v]), self.right[v])
                else:
                    v = join(u, v)
                h = height[v]
            stack.append(v)
        v = stack.pop()
        while stack:
            v = join(stack.pop(), v)
        return v

    # -- queries ----------------------------------------------------------

    def cover(self, v: int, lo: int, hi: int, out: list[int]) -> None:
        """Append the existing nodes whose expansions concatenate to
        expansion(v)[lo, hi] to out, left to right.

        One iterative descent: down to the node that splits the range, then
        down the suffix of its left child and the prefix of its right one,
        taking each whole sibling met on the way. Raises ValueError unless
        1 <= lo <= hi <= |v|.
        """
        length, left, right = self.length, self.left, self.right
        if not 1 <= lo <= hi <= length[v]:
            raise ValueError("range out of bounds")
        while lo > 1 or hi < length[v]:
            l = left[v]
            ll = length[l]
            if hi <= ll:
                v = l
            elif lo > ll:
                v, lo, hi = right[v], lo - ll, hi - ll
            else:
                break
        else:
            out.append(v)
            return
        # the suffix [lo, |left|] of the left child; its pieces come right
        # to left
        pieces = []
        u = left[v]
        while lo > 1:
            l = left[u]
            ll = length[l]
            if lo > ll:
                u, lo = right[u], lo - ll
            else:
                pieces.append(right[u])
                u = l
        pieces.append(u)
        out += reversed(pieces)
        # the prefix [1, hi - |left|] of the right child, left to right
        hi -= length[left[v]]
        u = right[v]
        while hi < length[u]:
            l = left[u]
            ll = length[l]
            if hi <= ll:
                u = l
            else:
                out.append(l)
                u, hi = right[u], hi - ll
        out.append(u)


class BlockTable:
    """The table of the blocks' frontier pieces that extraction reads, cut
    from a grammar's arena and block roots; the grammar is not kept."""

    def __init__(self, arena: _Arena, block_len: int, roots: list[int], text: np.ndarray):
        self.n = len(text)
        self.block_len = block_len
        # piece p is text[starts[p], starts[p + 1] - 1], and block k's
        # pieces are first[k] to first[k + 1] - 1 (see _Arena.cut_pieces)
        self.starts, self.pieces, self.first = arena.cut_pieces(roots, block_len, text)
        # the nodes the block roots reach, and the tallest root's height
        self.node_count = arena.reached(roots)
        self.height = max((arena.height[r] for r in roots), default=0)
        self.node_visits = 0  # pieces read, cumulative over queries

    @property
    def leaf_symbols(self) -> int:
        """The symbols the distinct frontier tuples hold, at most n."""
        return sum(len(t) for t in {id(t): t for t in self.pieces}.values())

    def extract(self, i: int, j: int) -> list[int]:
        """text[i, j] as a list of symbols, 1-based inclusive, for
        1 <= i <= j + 1 <= n + 1: i = j + 1 gives the empty list, and any
        other range raises ValueError.

        Each end's piece is its block's first piece, found by block
        arithmetic, unless that piece ends before it: then a bisection of
        the block's piece starts finds it. The end pieces are sliced and
        the pieces between them copied whole; each counts one visit.
        """
        if i < 1 or j > self.n or i > j + 1:
            raise ValueError("range out of bounds")
        if i > j:
            return []
        b, starts, first = self.block_len, self.starts, self.first
        k = (i - 1) // b
        p = first[k]
        e = starts[p + 1]
        if e <= i:
            p = bisect_right(starts, i, p + 2, first[k + 1]) - 1
            e = starts[p + 1]
        s = starts[p]
        if j < e:
            self.node_visits += 1
            return list(self.pieces[p][i - s : j - s + 1])
        k = (j - 1) // b
        q = first[k]
        if starts[q + 1] <= j:
            q = bisect_right(starts, j, q + 2, first[k + 1]) - 1
        pieces = self.pieces
        out = list(pieces[p][i - s :])
        if q - p > 1:
            for t in pieces[p + 1 : q]:
                out += t
        out += pieces[q][: j - starts[q] + 1]
        self.node_visits += q - p + 1
        return out

    def matches(self, i: int, symbols: list, lo: int = 0, hi: int | None = None) -> bool:
        """True iff text[i, i + hi - lo - 1] equals symbols[lo:hi] (a list;
        hi defaults to its length).

        Reads the text one piece at a time, each inside one block, through
        extract, and stops at the first piece that differs: a mismatch at
        offset d costs the pieces up to d, not the whole range.
        """
        if hi is None:
            hi = len(symbols)
        j = i + hi - lo - 1
        if i < 1 or j > self.n or i > j + 1:
            raise ValueError("range out of bounds")
        b = self.block_len
        while i <= j:
            e = min(j, (i - 1) // b * b + b)  # the end of i's block
            if self.extract(i, e) != symbols[lo : lo + e - i + 1]:
                return False
            lo += e - i + 1
            i = e + 1
        return True

    # kept because bench/tracing.py wraps it by name (ROADMAP item 1)
    def substring_fp(self, i: int, j: int, r: int) -> int:
        return int(fp.PrefixFpTable(r, self.extract(i, j)).values(0, j - i + 1))


def build_slp(parse: Lz77Parse, block_len: int, text) -> BlockTable:
    """The extraction table of text, the text the parse produces (bytes or
    integer symbols), cut from the grammar _grammar makes of the parse;
    the grammar is dropped with this call."""
    text = to_symbols(text)
    if len(text) != parse.n:
        raise ValueError("text length differs from the parse's")
    arena, roots = _grammar(parse, block_len)
    return BlockTable(arena, block_len, roots, text)


def _grammar(parse: Lz77Parse, block_len: int) -> tuple[_Arena, list[int]]:
    """The per-block balanced grammar of the parse, as its arena and the
    root of each block.

    Every phrase must fit inside block_len positions. A block is a list of
    pieces, each an existing node: a phrase adds its source's cover and its
    terminal, and a piece that crosses the block's end is split in two by
    covers. The block's root is made by one concat once the block is full.
    A self-overlapping source is the period before the phrase, doubled
    until it is long enough and then covered.
    """
    if any(ph.span() > block_len for ph in parse.phrases):
        raise ValueError("phrase exceeds block length")

    arena = _Arena()
    length, cover = arena.length, arena.cover
    roots: list[int] = []
    block: list[int] = []  # the pieces of the unfinished block
    ends = [0]  # 0, then each piece's end offset in it, extended when read
    filled = 0  # the symbols they stand for

    def cover_global(a: int, b: int) -> list[int]:
        # a, b are 1-based text positions before the current phrase
        pieces: list[int] = []
        k = (a - 1) // block_len
        while k < len(roots) and k * block_len < b:
            lo = max(a - k * block_len, 1)
            cover(roots[k], lo, min(b - k * block_len, block_len), pieces)
            k += 1
        # the rest lies in the unfinished block, at offsets lo to hi of it:
        # its piece i starts after offset ends[i], so a bisection finds the
        # first piece the range meets
        lo, hi = a - k * block_len, b - k * block_len
        for v in block[len(ends) - 1 :]:
            ends.append(ends[-1] + length[v])
        i = bisect_left(ends, lo, 1) - 1
        while i < len(block) and ends[i] < hi:
            start = ends[i]
            cover(block[i], max(lo - start, 1), min(hi, ends[i + 1]) - start, pieces)
            i += 1
        return pieces

    for ph in parse.phrases:
        pos = len(roots) * block_len + filled + 1
        pieces: list[int] = []
        if 0 < ph.len <= pos - ph.start:
            pieces = cover_global(ph.start, ph.start + ph.len - 1)
        elif ph.len:  # self-overlapping
            g = arena.concat(cover_global(ph.start, pos - 1))
            while length[g] < ph.len:
                g = arena.join(g, g)
            cover(g, 1, ph.len, pieces)
        pieces.append(arena.terminal(ph.border))
        for v in pieces:
            span = length[v]
            if filled + span < block_len:
                block.append(v)
                filled += span
                continue
            head = block_len - filled
            cover(v, 1, head, block)
            roots.append(arena.concat(block))
            block, ends = [], [0]
            if head < span:
                cover(v, head + 1, span, block)
            filled = span - head

    if block:
        roots.append(arena.concat(block))
    return arena, roots
