"""Balanced straight-line program over a capped LZ77 parse.

The text is carved into fixed-length blocks and each block gets its own
AVL-balanced binary grammar, after Rytter's AVL-grammar construction (TCS
2003); nodes are shared freely across blocks. Extraction of a substring
visits O(lg(block) + length / SHORT) nodes, and queries read the text only
that way: the index checks a weak-search candidate by comparing the text it
stands for with the pattern (BlockTable.matches), one block-bounded piece
at a time, and stops at the first piece that differs.

The build hash-conses its pairs, so no two nodes share both children, and
then keeps only the nodes the block roots reach, renumbered in their old
order, so children still come before their parents. Every node whose
expansion has at most SHORT symbols holds that expansion as a tuple, made
from its children's tuples; extraction copies those tuples whole, or slices
one, and splits only the longer nodes.

Every node also carries the fingerprint of its expansion, and running
fingerprints over whole blocks give the fingerprint of any substring in
O(lg(block)) node visits: one iterative descent (`_Arena.cover`), which the
grammar's own construction uses too, finds the nodes that cover a range of
a node's expansion, and the fold is Horner's rule over the cover of the
range's first and last block and the running value of the whole blocks
between, in raw ints, after Bille et al. ("Fingerprints in compressed
strings", WADS 2013). The powers of r it needs, r^l for l <= 2 * block_len
and r^(k * block_len), are tables that build_slp and BlockTable make once,
so the build never touches the fingerprint function's own power cache.
"""

from __future__ import annotations

from . import fingerprints as fp
from .lz77 import Lz77Parse

# the longest expansion a node keeps as a tuple
SHORT = 32


class _Arena:
    """Node store, append-only until compact. Terminals have no children
    (left = -1); pairs carry two.

    Every node knows its expansion length, AVL height (terminal = 1) and the
    fingerprint value of its expansion (fpv). All three follow from the
    children, so a stored grammar needs only its structure. pw[l] = r^l for
    every length a node may have.
    """

    def __init__(self, pw: list[int]):
        self.pw = pw
        self.left: list[int] = []
        self.right: list[int] = []
        self.length: list[int] = []
        self.height: list[int] = []
        self.fpv: list[int] = []
        # the expansion of every node of length <= SHORT, else None; made
        # by compact
        self.exp: list[tuple | None] = []
        # build only: the node of each symbol and of each pair, keyed
        # left << 32 | right
        self._terminals: dict[int, int] = {}
        self._pairs: dict[int, int] = {}

    def terminal(self, symbol: int) -> int:
        v = self._terminals.get(symbol)
        if v is None:
            v = self._terminals[symbol] = self._push(1, 1, symbol % fp.P, -1, -1)
        return v

    def pair(self, a: int, b: int) -> int:
        key = a << 32 | b
        v = self._pairs.get(key)
        if v is None:
            la, fpv = self.length[a], self.fpv
            # phi(ab) = phi(a) + r^|a| phi(b)
            v = self._pairs[key] = self._push(
                la + self.length[b], max(self.height[a], self.height[b]) + 1,
                (fpv[a] + self.pw[la] * fpv[b]) % fp.P, a, b)
        return v

    def _push(self, length: int, height: int, fpv: int, left: int, right: int) -> int:
        self.left.append(left)
        self.right.append(right)
        self.length.append(length)
        self.height.append(height)
        self.fpv.append(fpv)
        return len(self.left) - 1

    def compact(self, roots: list[int]) -> list[int]:
        """Keep only the nodes the roots reach, renumbered in id order, make
        the expansion table and drop the build's lookups; returns the roots'
        new ids."""
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
        symbol = {v: s for s, v in self._terminals.items()}
        exp: list[tuple | None] = []
        for v in old:
            if left[v] < 0:
                exp.append((symbol[v],))
            elif length[v] <= SHORT:
                exp.append(exp[new[left[v]]] + exp[new[right[v]]])
            else:
                exp.append(None)
        self.exp = exp
        self.left = [new[left[v]] for v in old]
        self.right = [new[right[v]] for v in old]
        for name in ("length", "height", "fpv"):
            values = getattr(self, name)
            setattr(self, name, [values[v] for v in old])
        self._terminals = {}
        self._pairs = {}
        return [new[v] for v in roots]

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

    def cover(self, v: int, lo: int, hi: int, out: list[int]) -> int:
        """Append the existing nodes whose expansions concatenate to
        expansion(v)[lo, hi] to out, left to right; returns the nodes visited.

        One iterative descent: down to the node that splits the range, then
        down the suffix of its left child and the prefix of its right one,
        taking each whole sibling met on the way.
        """
        length, left, right = self.length, self.left, self.right
        visits = 1
        while lo > 1 or hi < length[v]:
            l = left[v]
            ll = length[l]
            if hi <= ll:
                v = l
            elif lo > ll:
                v, lo, hi = right[v], lo - ll, hi - ll
            else:
                break
            visits += 1
        else:
            out.append(v)
            return visits
        # the suffix [lo, |left|] of the left child; its pieces come right
        # to left
        pieces = []
        u = left[v]
        visits += 1
        while lo > 1:
            l = left[u]
            ll = length[l]
            if lo > ll:
                u, lo = right[u], lo - ll
            else:
                pieces.append(right[u])
                u = l
                visits += 1
            visits += 1
        pieces.append(u)
        out += reversed(pieces)
        # the prefix [1, hi - |left|] of the right child, left to right
        hi -= length[left[v]]
        u = right[v]
        visits += 1
        while hi < length[u]:
            l = left[u]
            ll = length[l]
            if hi <= ll:
                u = l
            else:
                out.append(l)
                u, hi = right[u], hi - ll
                visits += 1
            visits += 1
        out.append(u)
        return visits

    def expand(self, v: int, out: list[int]) -> int:
        """Append the symbols of expansion(v) to out; returns the nodes visited."""
        exp, left, right = self.exp, self.left, self.right
        stack = [v]
        splits = 0
        while stack:
            u = stack.pop()
            t = exp[u]
            if t is None:
                stack.append(right[u])
                stack.append(left[u])
                splits += 1
            else:
                out += t
        return 2 * splits + 1

    def extract(self, v: int, lo: int, hi: int, out: list[int]) -> int:
        """Append expansion(v)[lo, hi] to out; returns the nodes visited.

        The descent of cover, down to the first node that holds its
        expansion, of which the range is a slice, or to a longer node that
        splits the range, whose two children then give its two parts. Each
        split recurses one level down, so no deeper than v's height.
        """
        exp, length, left = self.exp, self.length, self.left
        visits = 1
        while exp[v] is None:
            l = left[v]
            ll = length[l]
            if hi <= ll:
                v = l
            elif lo > ll:
                v, lo, hi = self.right[v], lo - ll, hi - ll
            elif lo == 1 and hi == length[v]:
                return visits - 1 + self.expand(v, out)
            else:
                return (visits + self.extract(l, lo, ll, out)
                        + self.extract(self.right[v], 1, hi - ll, out))
            visits += 1
        out += exp[v][lo - 1 : hi]
        return visits


class BlockTable:
    """Per-block grammar roots plus running fingerprints over whole blocks.

    The arena's pw[l] = r^l, for l up to twice block_len, and run_pw[k] =
    r^(k * block_len), made here, hold every power of r that a fold needs:
    folds never grow the function's own power cache.
    """

    def __init__(self, arena: _Arena, fn: fp.FpFunction, n: int, block_len: int, roots: list[int]):
        self.arena = arena
        self.fn = fn
        self.n = n
        self.block_len = block_len
        self.roots = roots
        self.node_visits = 0  # instrumentation, cumulative over queries
        p = fp.P
        self.pw = pw = arena.pw
        self.run_pw = run_pw = [1] * (len(roots) + 1)
        for k in range(1, len(roots) + 1):
            run_pw[k] = run_pw[k - 1] * pw[block_len] % p
        # run_fpv[k] = phi(blocks k, k+1, ... to the end of the text)
        length, fpv = arena.length, arena.fpv
        self.run_fpv = [0] * (len(roots) + 1)
        for k in range(len(roots) - 1, -1, -1):
            v = roots[k]
            self.run_fpv[k] = (fpv[v] + pw[length[v]] * self.run_fpv[k + 1]) % p

    @property
    def node_count(self) -> int:
        return len(self.arena.length)

    def block_heights(self) -> list[int]:
        return [self.arena.height[r] for r in self.roots]

    def _check_range(self, i: int, j: int) -> None:
        if i < 1 or j > self.n or i > j + 1:
            raise ValueError("range out of bounds")

    def _cover(self, i: int, j: int) -> tuple[list[int], int, int, list[int]]:
        """text[i, j] (i <= j) as (head, lo, hi, tail): the nodes covering
        its part of its first block, the run of whole blocks lo .. hi-1 and
        the nodes covering its part of its last block, left to right. The
        run and the tail are empty for a range inside one block. Touches
        O(lg block_len) nodes."""
        b = self.block_len
        k1, k2 = (i - 1) // b, (j - 1) // b
        cover = self.arena.cover
        head: list[int] = []
        tail: list[int] = []
        if k1 == k2:
            self.node_visits += cover(self.roots[k1], i - k1 * b, j - k1 * b, head)
        else:
            self.node_visits += (cover(self.roots[k1], i - k1 * b, b, head)
                                 + cover(self.roots[k2], 1, j - k2 * b, tail))
        return head, k1 + 1, k2, tail

    def extract(self, i: int, j: int) -> list[int]:
        """text[i, j] as a list of symbols (1-based inclusive; empty if i > j)."""
        self._check_range(i, j)
        if i > j:
            return []
        b = self.block_len
        k1, k2 = (i - 1) // b, (j - 1) // b
        arena, roots = self.arena, self.roots
        out: list[int] = []
        if k1 == k2:
            visits = arena.extract(roots[k1], i - k1 * b, j - k1 * b, out)
        else:
            visits = arena.extract(roots[k1], i - k1 * b, b, out)
            for v in roots[k1 + 1 : k2]:
                visits += arena.expand(v, out)
            visits += arena.extract(roots[k2], 1, j - k2 * b, out)
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
        self._check_range(i, j)
        b = self.block_len
        while i <= j:
            e = min(j, (i - 1) // b * b + b)  # the end of i's block
            if self.extract(i, e) != symbols[lo : lo + e - i + 1]:
                return False
            lo += e - i + 1
            i = e + 1
        return True

    def _horner(self, nodes, values: list[int], acc: int) -> int:
        """Fold nodes into acc, each as acc = value + r^length * acc."""
        length, pw, p = self.arena.length, self.pw, fp.P
        for v in nodes:
            acc = (values[v] + pw[length[v]] * acc) % p
        return acc

    def substring_value(self, i: int, j: int) -> int:
        """The raw value of phi(text[i, j]): the cover folded right to left."""
        self._check_range(i, j)
        if i > j:
            return 0
        head, lo, hi, tail = self._cover(i, j)
        fpv = self.arena.fpv
        acc = self._horner(reversed(tail), fpv, 0)
        if lo < hi:
            run = self.run_fpv
            acc = (run[lo] + self.run_pw[hi - lo] * (acc - run[hi])) % fp.P
        return self._horner(reversed(head), fpv, acc)

    def substring_fp(self, i: int, j: int) -> fp.Fingerprint:
        """phi(text[i, j])."""
        return fp.Fingerprint(self.substring_value(i, j), j - i + 1, self.fn)


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

    # no node is longer than twice block_len: the doubling of a
    # self-overlapping source stops short of that
    pw = [1] * (2 * block_len + 1)
    for l in range(1, len(pw)):
        pw[l] = pw[l - 1] * fn.r % fp.P
    arena = _Arena(pw)
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
            arena.cover(root, lo, hi, pieces)
            k += 1
        return pieces

    def take(g: int, lo: int, hi: int) -> int:
        pieces: list[int] = []
        arena.cover(g, lo, hi, pieces)
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
    return BlockTable(arena, fn, n, block_len, arena.compact(completed))

