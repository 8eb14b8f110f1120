"""Balanced straight-line program over a capped LZ77 parse.

The text is carved into fixed-length blocks and each block gets its own
AVL-balanced binary grammar; nodes are shared freely across blocks. Every
node carries the fingerprints of its expansion and of its reversal, and
running fingerprints over whole blocks give substring extraction in
O(lg(block) + length) node visits and the fingerprint of any substring, or
of its reversal, in O(lg(block)).
"""

from __future__ import annotations

from . import fingerprints as fp
from ._text import to_symbols
from .lz77 import Lz77Parse


class _Arena:
    """Append-only node store. Terminals carry a symbol; pairs carry children.

    Every node knows its expansion length, AVL height (terminal = 1) and the
    fingerprint values of its expansion (fpv) and of its expansion reversed
    (rfpv). All four follow from the children, so a stored grammar needs
    only its structure.
    """

    def __init__(self, fn: fp.FpFunction):
        self.fn = fn
        self.sym: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.length: list[int] = []
        self.height: list[int] = []
        self.fpv: list[int] = []
        self.rfpv: list[int] = []
        self._terminals: dict[int, int] = {}

    def terminal(self, symbol: int) -> int:
        v = self._terminals.get(symbol)
        if v is None:
            v = self._push(symbol, -1, -1)
            self._terminals[symbol] = v
        return v

    def pair(self, a: int, b: int) -> int:
        return self._push(-1, a, b)

    def _push(self, sym: int, left: int, right: int) -> int:
        """Append a terminal (sym >= 0) or the pair (left, right)."""
        if sym >= 0:
            length, height = 1, 1
            fpv = rfpv = sym % self.fn.p
        else:
            fn = self.fn
            la, lb = self.length[left], self.length[right]
            length = la + lb
            height = max(self.height[left], self.height[right]) + 1
            # phi(ab) = phi(a) + r^|a| phi(b); phi(rev(ab)) = phi(rev b) + r^|b| phi(rev a)
            fpv = (self.fpv[left] + fn.r_pow(la) * self.fpv[right]) % fn.p
            rfpv = (self.rfpv[right] + fn.r_pow(lb) * self.rfpv[left]) % fn.p
        self.sym.append(sym)
        self.left.append(left)
        self.right.append(right)
        self.length.append(length)
        self.height.append(height)
        self.fpv.append(fpv)
        self.rfpv.append(rfpv)
        return len(self.sym) - 1

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
        root = nodes[0]
        for v in nodes[1:]:
            root = self.join(root, v)
        return root

    # -- queries ----------------------------------------------------------

    def cover(self, v: int, lo: int, hi: int, out: list[int], counter) -> None:
        """Existing nodes whose expansions concatenate to expansion(v)[lo,hi]."""
        counter[0] += 1
        if lo <= 1 and hi >= self.length[v]:
            out.append(v)
            return
        l = self.left[v]
        ll = self.length[l]
        if hi <= ll:
            self.cover(l, lo, hi, out, counter)
        elif lo > ll:
            self.cover(self.right[v], lo - ll, hi - ll, out, counter)
        else:
            self.cover(l, lo, ll, out, counter)
            self.cover(self.right[v], 1, hi - ll, out, counter)

    def expand(self, v: int, out: list[int], counter) -> None:
        stack = [v]
        while stack:
            u = stack.pop()
            counter[0] += 1
            s = self.sym[u]
            if s >= 0:
                out.append(s)
            else:
                stack.append(self.right[u])
                stack.append(self.left[u])


class BlockTable:
    """Per-block grammar roots plus running fingerprints over whole blocks."""

    def __init__(self, arena: _Arena, n: int, block_len: int, roots: list[int]):
        self.arena = arena
        self.fn = fn = arena.fn
        self.n = n
        self.block_len = block_len
        self.roots = roots
        self.node_visits = 0  # instrumentation, cumulative over queries
        # run_fpv[k] = phi(blocks k, k+1, ... to the end of the text);
        # run_rfpv[k] = phi(reversal of blocks 0 .. k-1)
        self.run_fpv = [0] * (len(roots) + 1)
        for k in range(len(roots) - 1, -1, -1):
            v = roots[k]
            self.run_fpv[k] = (arena.fpv[v] + fn.r_pow(arena.length[v]) * self.run_fpv[k + 1]) % fn.p
        self.run_rfpv = [0]
        for v in roots:
            self.run_rfpv.append((arena.rfpv[v] + fn.r_pow(arena.length[v]) * self.run_rfpv[-1]) % fn.p)

    @property
    def node_count(self) -> int:
        return len(self.arena.sym)

    def block_heights(self) -> list[int]:
        return [self.arena.height[r] for r in self.roots]

    def _check_range(self, i: int, j: int) -> None:
        if i < 1 or j > self.n or i > j + 1:
            raise ValueError("range out of bounds")

    def extract(self, i: int, j: int) -> list[int]:
        """text[i, j] as a list of symbols (1-based inclusive; empty if i > j)."""
        self._check_range(i, j)
        if i > j:
            return []
        out: list[int] = []
        counter = [0]
        arena = self.arena
        b = self.block_len
        k = (i - 1) // b
        while k * b < j:
            root = self.roots[k]
            lo = max(i - k * b, 1)
            hi = min(j - k * b, arena.length[root])
            pieces: list[int] = []
            arena.cover(root, lo, hi, pieces, counter)
            for v in pieces:
                arena.expand(v, out, counter)
            k += 1
        self.node_visits += counter[0]
        return out

    def _cover(self, i: int, j: int) -> tuple[list[int], int, int, list[int]]:
        """text[i, j] (i <= j) as (head, lo, hi, tail): the nodes covering
        its part of its first block, the run of whole blocks lo .. hi-1 and
        the nodes covering its part of its last block, left to right. The
        run and the tail are empty for a range inside one block. Touches
        O(lg block_len) nodes."""
        b = self.block_len
        k1, k2 = (i - 1) // b, (j - 1) // b
        arena = self.arena
        head: list[int] = []
        tail: list[int] = []
        counter = [0]
        if k1 == k2:
            arena.cover(self.roots[k1], i - k1 * b, j - k1 * b, head, counter)
        else:
            arena.cover(self.roots[k1], i - k1 * b, b, head, counter)
            arena.cover(self.roots[k2], 1, j - k2 * b, tail, counter)
        self.node_visits += counter[0]
        return head, k1 + 1, k2, tail

    def _horner(self, nodes, values: list[int], acc: int) -> int:
        """Fold nodes into acc, each as acc = value + r^length * acc."""
        arena, fn = self.arena, self.fn
        p = fn.p
        for v in nodes:
            acc = (values[v] + fn.r_pow(arena.length[v]) * acc) % p
        return acc

    def substring_fp(self, i: int, j: int) -> fp.Fingerprint:
        """phi(text[i, j]): the cover folded right to left."""
        self._check_range(i, j)
        if i > j:
            return fp.empty_fp(self.fn)
        head, lo, hi, tail = self._cover(i, j)
        fpv = self.arena.fpv
        acc = self._horner(reversed(tail), fpv, 0)
        if lo < hi:
            run = self.run_fpv
            acc = (run[lo] + self.fn.r_pow((hi - lo) * self.block_len) * (acc - run[hi])) % self.fn.p
        return fp.Fingerprint(self._horner(reversed(head), fpv, acc), j - i + 1, self.fn)

    def reversed_fp(self, i: int, j: int) -> fp.Fingerprint:
        """phi(reversal of text[i, j]): the cover folded left to right."""
        self._check_range(i, j)
        if i > j:
            return fp.empty_fp(self.fn)
        head, lo, hi, tail = self._cover(i, j)
        rfpv = self.arena.rfpv
        acc = self._horner(head, rfpv, 0)
        if lo < hi:
            run = self.run_rfpv
            acc = (run[hi] + self.fn.r_pow((hi - lo) * self.block_len) * (acc - run[lo])) % self.fn.p
        return fp.Fingerprint(self._horner(tail, rfpv, acc), j - i + 1, self.fn)


def build_slp(parse: Lz77Parse, fn: fp.FpFunction, block_len: int | None = None) -> BlockTable:
    """Build the per-block balanced grammar for the text the parse produces.

    Every phrase must fit inside `block_len` positions (default: ceil(n/z) of
    the given parse); sources copy node covers from already-built blocks, with
    self-overlapping sources handled by doubling the available periodic part.
    """
    n = parse.n
    if block_len is None:
        block_len = max(1, -(-n // parse.z))
    if any(ph.span() > block_len for ph in parse.phrases):
        raise ValueError("phrase exceeds block length")

    arena = _Arena(fn)
    counter = [0]
    completed: list[int] = []
    cur: int | None = None
    cur_len = 0
    produced = 0  # characters generated so far

    def cover_global(a: int, b: int) -> list[int]:
        # a, b are 1-based text positions, b <= produced
        pieces: list[int] = []
        k = (a - 1) // block_len
        while k * block_len < b:
            root = completed[k] if k < len(completed) else cur
            lo = max(a - k * block_len, 1)
            hi = min(b - k * block_len, arena.length[root])
            arena.cover(root, lo, hi, pieces, counter)
            k += 1
        return pieces

    def take(g: int, lo: int, hi: int) -> int:
        pieces: list[int] = []
        arena.cover(g, lo, hi, pieces, counter)
        return arena.concat(pieces)

    def push(g: int) -> None:
        nonlocal cur, cur_len, completed
        span = arena.length[g]
        if cur_len + span > block_len:
            head = block_len - cur_len
            left = take(g, 1, head)
            right = take(g, head + 1, span)
            completed.append(arena.join(cur, left) if cur is not None else left)
            cur, cur_len = right, span - head
        else:
            cur = g if cur is None else arena.join(cur, g)
            cur_len += span
        if cur_len == block_len:
            completed.append(cur)
            cur, cur_len = None, 0

    for ph in parse.phrases:
        pos = produced + 1
        if ph.len == 0:
            g = arena.terminal(ph.border)
        else:
            avail = pos - ph.start
            if ph.len <= avail:
                g = arena.concat(cover_global(ph.start, ph.start + ph.len - 1))
            else:
                g = arena.concat(cover_global(ph.start, pos - 1))
                covered = avail
                while covered < ph.len:
                    g = arena.join(g, g)
                    covered <<= 1
                g = take(g, 1, ph.len)
            g = arena.join(g, arena.terminal(ph.border))
        push(g)
        produced += ph.span()

    if cur is not None:
        completed.append(cur)
    return BlockTable(arena, n, block_len, completed)


def extract(bt: BlockTable, i: int, j: int) -> list[int]:
    return bt.extract(i, j)


def substring_fp(bt: BlockTable, i: int, j: int) -> fp.Fingerprint:
    return bt.substring_fp(i, j)
