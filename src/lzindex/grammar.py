"""Balanced straight-line program over a capped LZ77 parse.

The text is carved into fixed-length blocks and each block gets its own
AVL-balanced binary grammar, after Rytter's AVL-grammar construction (TCS
2003); nodes are shared freely across blocks. Extraction of a substring
visits O(lg(block) + length / SHORT) nodes, as it passes only nodes longer
than SHORT and stops at their children, and queries read the text only
that way: the index checks a weak-search candidate by comparing the text it
stands for with the pattern (BlockTable.matches), one block-bounded piece
at a time, and stops at the first piece that differs.

The build hash-conses its pairs, so no two nodes share both children, and
then keeps only the nodes the block roots reach, renumbered in their old
order, so children still come before their parents. A block is built as
a list of existing nodes, its pieces: each phrase adds the cover of its
source and its terminal, and the block's root is their one concat
(_Arena.concat). The grammar holds no fingerprint: it depends on the
parse alone, so a build makes it once whatever fingerprint function it
keeps.

A node of at most SHORT symbols holds its expansion as a tuple when it
is on the descent frontier: it is a block root, or a child of a node
longer than SHORT. Every descent starts at a root and passes only through
longer nodes, so the first node it meets that is not longer holds its
tuple, and the nodes below it hold none. The frontier nodes of a block
partition it, so the tuples hold at most n symbols; the build cuts each
from the text at the node's first occurrence (_Arena.cut_leaves).
Extraction copies those tuples whole, or slices one, and splits only the
longer nodes; it makes a constant number of Python calls whatever the
length. A range inside one block is found by a descent from the block's
root; a range that a node splits is a suffix of its left child and a
prefix of its right one, each read down one path. The nodes read whole
wait on one stack, and a node taken off it is read down its left spine,
so only right children are pushed. When every block root holds its
expansion, as when block_len <= SHORT, the blocks between the ends of a
range are copied one tuple each. A node whose tuple is copied or sliced
counts one visit (BlockTable.node_visits), as does every node passed on
the way down.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from . import fingerprints as fp
from ._text import to_symbols
from .lz77 import Lz77Parse

# the longest expansion a node keeps as a tuple
SHORT = 128


class _Arena:
    """Node store, append-only until compact. Terminals have no children
    (left = -1); pairs carry two.

    Every node knows its expansion length and AVL height (terminal = 1).
    Both follow from the children, so a stored grammar needs only its
    structure.
    """

    def __init__(self):
        self.left: list[int] = []
        self.right: list[int] = []
        self.length: list[int] = []
        self.height: list[int] = []
        # the expansion of every frontier node (at most SHORT symbols, a
        # block root or a child of a longer node), else None; cut from the
        # text by cut_leaves
        self.exp: list[tuple | None] = []
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

    def compact(self, roots: list[int]) -> list[int]:
        """Keep only the nodes the roots reach, renumbered in id order, and
        drop the build's lookups; returns the roots' new ids."""
        left, right, length = self.left, self.right, self.length
        keep = bytearray(len(left))
        stack = list(roots)
        while stack:
            v = stack.pop()
            if not keep[v]:
                keep[v] = 1
                if left[v] >= 0:
                    stack.append(left[v])
                    stack.append(right[v])
        old = [v for v in range(len(keep)) if keep[v]]
        # new[-1] stays -1, so a terminal's missing children map to -1
        new = [-1] * (len(keep) + 1)
        for i, v in enumerate(old):
            new[v] = i
        self.left = [new[left[v]] for v in old]
        self.right = [new[right[v]] for v in old]
        self.length = [length[v] for v in old]
        self.height = [self.height[v] for v in old]
        self._terminals = {}
        self._pairs = {}
        return [new[v] for v in roots]

    def cut_leaves(self, roots: list[int], block_len: int, text: np.ndarray) -> None:
        """Fill exp: every frontier node gets text at its first occurrence.

        One walk from each root, block k starting at offset k * block_len of
        text; a node longer than SHORT is walked below once, as its frontier
        children hold their tuples after that.
        """
        left, right, length = self.left, self.right, self.length
        exp: list[tuple | None] = [None] * len(left)
        walked = bytearray(len(left))
        for k, root in enumerate(roots):
            stack = [(root, k * block_len)]
            while stack:
                v, start = stack.pop()
                if length[v] <= SHORT:
                    if exp[v] is None:
                        exp[v] = tuple(text[start : start + length[v]].tolist())
                elif not walked[v]:
                    walked[v] = 1
                    l = left[v]
                    stack.append((right[v], start + length[l]))
                    stack.append((l, start))
        self.exp = exp

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

    def expand(self, stack: list[int], out: list[int]) -> int:
        """Append the expansions of the nodes on stack to out, the last
        node's first; empties the stack and returns the nodes visited.

        Each node taken off the stack is read down its left spine to the
        first node that holds its expansion, and only the right children
        met on the way wait on the stack.
        """
        exp, left, right = self.exp, self.left, self.right
        visits = len(stack)
        while stack:
            v = stack.pop()
            t = exp[v]
            while t is None:
                stack.append(right[v])
                v = left[v]
                t = exp[v]
                visits += 2
            out += t
        return visits

    def suffix(self, v: int, lo: int, out: list[int]) -> int:
        """Append expansion(v)[lo, |v|] to out; returns the nodes visited.

        One path down: the right sibling of every left turn is read whole
        after the slice where the path ends, so it waits on a stack.
        """
        exp = self.exp
        t = exp[v]
        if t is not None:
            out += t[lo - 1 :]
            return 1
        length, left, right = self.length, self.left, self.right
        stack: list[int] = []
        visits = 0
        while t is None and lo > 1:
            visits += 1
            l = left[v]
            ll = length[l]
            if lo > ll:
                v, lo = right[v], lo - ll
            else:
                stack.append(right[v])
                v = l
            t = exp[v]
        if t is None:  # v is read whole
            stack.append(v)
        else:
            out += t[lo - 1 :]
            visits += 1
        return visits + self.expand(stack, out) if stack else visits

    def prefix(self, v: int, hi: int, out: list[int]) -> int:
        """Append expansion(v)[1, hi] to out; returns the nodes visited.

        One path down: the left sibling of every right turn is read whole,
        in the order met, before the slice where the path ends.
        """
        exp = self.exp
        t = exp[v]
        if t is not None:
            out += t[:hi]
            return 1
        length, left, right = self.length, self.left, self.right
        whole: list[int] = []
        visits = 0
        while t is None and hi < length[v]:
            visits += 1
            l = left[v]
            ll = length[l]
            if hi <= ll:
                v = l
            else:
                whole.append(l)
                v, hi = right[v], hi - ll
            t = exp[v]
        if t is None:  # v is read whole
            whole.append(v)
        if whole:
            whole.reverse()
            visits += self.expand(whole, out)
        if t is not None:
            out += t[:hi]
            visits += 1
        return visits


class BlockTable:
    """The grammar's nodes plus the root of each block."""

    def __init__(self, arena: _Arena, n: int, block_len: int, roots: list[int]):
        self.arena = arena
        self.n = n
        self.block_len = block_len
        self.roots = roots
        # whether extract may copy the blocks between a range's ends one
        # root tuple each
        self.roots_held = all(arena.exp[r] is not None for r in roots)
        self.node_visits = 0  # instrumentation, cumulative over queries

    @property
    def node_count(self) -> int:
        return len(self.arena.length)

    def block_heights(self) -> list[int]:
        return [self.arena.height[r] for r in self.roots]

    @property
    def leaf_symbols(self) -> int:
        """The symbols the frontier tuples hold, at most n."""
        return sum(len(t) for t in self.arena.exp if t is not None)

    def extract(self, i: int, j: int) -> list[int]:
        """text[i, j] as a list of symbols (1-based inclusive; empty if i > j).

        A range inside one block descends from the block's root to the node
        that holds it or splits it; only a split calls into the arena. Across
        blocks, the end blocks are read the same way and every block between
        them is expanded whole. A root that holds its expansion (every root
        when block_len <= SHORT) is copied or sliced and counts one visit.
        """
        if i < 1 or j > self.n or i > j + 1:
            raise ValueError("range out of bounds")
        if i > j:
            return []
        b = self.block_len
        k1, k2 = (i - 1) // b, (j - 1) // b
        arena, roots = self.arena, self.roots
        exp = arena.exp
        v = roots[k1]
        t = exp[v]
        if k1 == k2:
            lo, hi = i - k1 * b, j - k1 * b
            length, left = arena.length, arena.left
            visits = 1
            while t is None:
                l = left[v]
                ll = length[l]
                if hi <= ll:
                    v = l
                elif lo > ll:
                    v, lo, hi = arena.right[v], lo - ll, hi - ll
                else:
                    out: list[int] = []
                    self.node_visits += (visits + arena.suffix(l, lo, out)
                                         + arena.prefix(arena.right[v], hi - ll, out))
                    return out
                visits += 1
                t = exp[v]
            self.node_visits += visits
            return list(t[lo - 1 : hi])
        if t is None:
            out = []
            visits = arena.suffix(v, i - k1 * b, out)
        else:
            out = list(t[i - k1 * b - 1 :])
            visits = 1
        if k2 - k1 > 1 and self.roots_held:
            visits += k2 - k1 - 1
            for v in roots[k1 + 1 : k2]:
                out += exp[v]
        elif k2 - k1 > 1:
            visits += arena.expand(roots[k2 - 1 : k1 : -1], out)
        v, hi = roots[k2], j - k2 * b
        t = exp[v]
        if t is None:
            visits += arena.prefix(v, hi, out)
        else:
            out += t[:hi]
            visits += 1
        self.node_visits += visits
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
    """Build the per-block balanced grammar for text, the text the parse
    produces (bytes or integer symbols), whose frontier tuples are cut from
    it.

    Every phrase must fit inside block_len positions. A block is a list of
    pieces, each an existing node: a phrase adds its source's cover and its
    terminal, and a piece that crosses the block's end is split in two by
    covers. The block's root is made by one concat once the block is full.
    A self-overlapping source is the period before the phrase, doubled
    until it is long enough and then covered.
    """
    if any(ph.span() > block_len for ph in parse.phrases):
        raise ValueError("phrase exceeds block length")
    text = to_symbols(text)
    if len(text) != parse.n:
        raise ValueError("text length differs from the parse's")

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
    roots = arena.compact(roots)
    arena.cut_leaves(roots, block_len, text)
    return BlockTable(arena, parse.n, block_len, roots)
