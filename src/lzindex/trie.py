"""Compact (PATRICIA) tries over strings with no terminator.

Only the first symbol of every edge is stored; full edge labels are read back
through a caller-supplied character access when needed. Every indexed string
ends at a vertex of its own, which may also have children: a string that
prefixes another marks the inner vertex at its length, and the empty string
marks the root. The strings are ranked in lexicographic order, a prefix
before the strings it prefixes, and every vertex knows the rank range of the
strings in its subtree, filled in by the same stack pass that makes the
vertices.

A trie holds no container per vertex: its per-vertex fields are flat int
lists or int64 arrays, and all its edges sit in one dict keyed by a packed
(vertex, first symbol) int, filled in one pass by finalize.

Strings are sorted as byte keys: each symbol becomes a big-endian word of a
fixed width (`key_width`), so the bytes order of two keys is the order of
their symbol sequences, a shorter prefix first, and the lcp of two adjacent
keys comes from the bit length of the XOR of their common-length prefixes.
The index's one sorter (_suffixes.sort_suffixes) encodes each text it
sorts strings of this way once, takes every string's prefix as a slice of
it, and takes the adjacent lcps from the text itself (_suffixes.pair_lcps)
rather than from the keys.
"""

from __future__ import annotations

from array import array

import numpy as np


class CompactTrie:
    """Vertex 0 is the root. Ranks are 1-based, and a vertex's rank range
    holds the strings in its subtree, its own string first when one ends at
    it.

    strlen is the length of a vertex's string. `sample` holds one
    represented string id per vertex so edge labels can be recovered from
    the original text. strlen and sample, read on every step of a walk,
    are int lists; parent, l_rank and r_rank, read once per locus, are
    int64 arrays (array('q')) once built. Every edge is one entry of a
    single dict, `children`: the child whose edge starts with symbol c
    hangs off vertex v under the key c * num_vertices + v (set by
    finalize), so a trie holds the same few containers whatever its size.
    """

    def __init__(self):
        self.parent: list[int] | array = [-1]
        self.strlen: list[int] = [0]
        self.l_rank: list[int] | array = [0]
        self.r_rank: list[int] | array = [0]
        self.sample: list[int] = [-1]
        self.children: dict[int, int] = {}

    @property
    def num_vertices(self) -> int:
        return len(self.parent)

    def child(self, v: int, c: int) -> int | None:
        """The child of v whose edge starts with symbol c, or None."""
        return self.children.get(c * len(self.parent) + v)

    def leaf_range(self, v: int) -> tuple[int, int]:
        return self.l_rank[v], self.r_rank[v]

    def locus_by_walk(self, pattern, char_access) -> int | None:
        """Minimum depth vertex whose string the pattern prefixes, walking
        edge labels character by character; None when there is no such vertex.
        char_access(s, q) -> the symbol at 1-based depth q of sample s's string."""
        pattern = list(pattern)
        m = len(pattern)
        children, stride = self.children, len(self.parent)
        v = 0
        depth = 0
        while depth < m:
            child = children.get(pattern[depth] * stride + v)
            if child is None:
                return None
            end = min(self.strlen[child], m)
            sample = self.sample[child]
            for q in range(depth + 2, end + 1):
                if char_access(sample, q) != pattern[q - 1]:
                    return None
            v = child
            depth = self.strlen[child]
        return v


def key_width(sigma: int) -> int:
    """Bytes per symbol of the byte keys over symbols 0..sigma: the smallest
    of 1, 2, 4 and 8 that holds sigma."""
    for width in (1, 2, 4, 8):
        if sigma < 1 << 8 * width:
            return width
    raise ValueError("symbol too large for a byte key")


def encode(symbols, width: int) -> bytes:
    """The byte key of a symbol sequence: each symbol as a big-endian
    width-byte word."""
    return np.asarray(symbols, dtype=f">u{width}").tobytes()


def key_lcps(keys: list[bytes], width: int) -> list[int]:
    """Symbols shared by each sorted byte key and the one before it; the
    first entry is 0."""
    lcps = [0] * len(keys)
    for i in range(1, len(keys)):
        a, b = keys[i - 1], keys[i]
        common = min(len(a), len(b))
        lcps[i] = shared_symbols(a[:common], b[:common], width)
    return lcps


def shared_symbols(a: bytes, b: bytes, width: int) -> int:
    """Symbols two byte keys of the same length share before they differ."""
    diff = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    # the first differing byte sits (bit length + 7) // 8 bytes from the end
    return (len(a) - (diff.bit_length() + 7) // 8) // width


def build_from_sorted(keys: list[int], real_lens, lcps) -> CompactTrie:
    """Core constructor from distinct strings already in lexicographic order.

    keys are opaque string ids used as `sample`s; real_lens[i] is the i-th
    string's length; lcps[i] is the longest common prefix with string i-1
    (lcps[0] ignored), less than real_lens[i]. String i has rank i + 1.
    Edge first-symbols are filled in by finalize.

    The stack holds the rightmost path. A vertex's first rank is that of the
    string it is made with (a split vertex takes over the first rank of the
    subtree it splits off), and its last rank the newest one when it leaves
    the stack.
    """
    t = CompactTrie()
    parent, strlen, sample = t.parent, t.strlen, t.sample
    l_rank, r_rank = t.l_rank, t.r_rank
    stack = [0]
    rank = 0  # of the newest string; the rank lists share its int objects
    for i, key in enumerate(keys):
        l = 0 if i == 0 else lcps[i]
        last = -1
        while strlen[stack[-1]] > l:
            last = stack.pop()
            r_rank[last] = rank
        top = stack[-1]
        if strlen[top] < l:
            # split the edge into last at depth l
            mid = len(parent)
            parent.append(top)
            strlen.append(l)
            sample.append(sample[last])
            l_rank.append(l_rank[last])
            r_rank.append(0)
            parent[last] = mid
            stack.append(mid)
            top = mid
        rank = i + 1
        if real_lens[i] == l:
            # only the empty string, first in the order, ends at a vertex
            # that is already there: the root
            sample[top] = key
            continue
        stack.append(len(parent))
        parent.append(top)
        strlen.append(real_lens[i])
        sample.append(key)
        l_rank.append(rank)
        r_rank.append(0)
    for v in stack:
        r_rank[v] = rank
    l_rank[0] = 1
    if len(stack) > 1:
        sample[0] = sample[stack[1]]
    t.parent, t.l_rank, t.r_rank = array("q", parent), array("q", l_rank), array("q", r_rank)
    return t


def finalize(t: CompactTrie, symbols_at) -> CompactTrie:
    """Fill the children dict, keying every edge by the first symbol of the
    child's edge, read for every edge at once: symbols_at(samples, depths)
    gives, as an int64 array or an object array of ints, the symbols at
    those 1-based depths of the strings of those samples, both given as
    int64 arrays. The keys are made in one numpy pass, as Python ints only
    where one would pass the int64 range, and go into the dict in vertex
    order."""
    parent = np.array(t.parent[1:], dtype=np.int64)
    depth = np.array(t.strlen, dtype=np.int64)[parent] + 1
    symbols = symbols_at(np.array(t.sample[1:], dtype=np.int64), depth)
    stride = t.num_vertices
    wide = (int(symbols.max(initial=0)) + 1) * stride > 1 << 63
    keys = symbols.astype(object if wide else np.int64) * stride + parent
    t.children = dict(zip(keys.tolist(), range(1, stride)))
    return t


# kept because bench/tracing.py wraps it by name (ROADMAP item 1)
def build(strings) -> tuple[CompactTrie, list]:
    """Compact trie over materialized symbol sequences of symbols >= 0.

    Returns the trie plus the distinct sorted strings as tuples; `sample`
    values index into that list, and a string's rank is its place there
    plus one. Duplicate strings share one rank.
    """
    distinct = {tuple(s) for s in strings}
    width = key_width(max((max(s) for s in distinct if s), default=0))
    keys = {s: encode(s, width) for s in distinct}
    distinct = sorted(distinct, key=keys.__getitem__)
    t = build_from_sorted(
        list(range(len(distinct))),
        [len(s) for s in distinct],
        key_lcps([keys[s] for s in distinct], width),
    )

    finalize(t, lambda sids, depths: np.array([distinct[s][q - 1] for s, q
                                               in zip(sids.tolist(), depths.tolist())],
                                              dtype=object))
    return t, distinct
