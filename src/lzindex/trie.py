"""Compact (PATRICIA) tries over strings with no terminator.

Only the first symbol of every edge is stored; full edge labels are read back
through a caller-supplied character access when needed. Every indexed string
ends at a vertex of its own, which may also have children: a string that
prefixes another marks the inner vertex at its length, and the empty string
marks the root. The strings are ranked in lexicographic order, a prefix
before the strings it prefixes, and every vertex knows the rank range of the
strings in its subtree, filled in by the same stack pass that makes the
vertices.

Strings are sorted as byte keys: each symbol becomes a big-endian word of a
fixed width (`key_width`), so the bytes order of two keys is the order of
their symbol sequences, a shorter prefix first, and the lcp of two adjacent
keys comes from the bit length of the XOR of their common-length prefixes.
The index encodes its reversed text this way once and takes every string it
sorts as a slice of it.
"""

from __future__ import annotations

import numpy as np


class CompactTrie:
    """Vertex 0 is the root. Ranks are 1-based, and a vertex's rank range
    holds the strings in its subtree, its own string first when one ends at
    it.

    strlen is the length of a vertex's string. `sample` holds one
    represented string id per vertex so edge labels can be recovered from
    the original text.
    """

    def __init__(self):
        self.parent: list[int] = [-1]
        self.strlen: list[int] = [0]
        self.children: list[dict[int, int]] = [{}]
        self.l_rank: list[int] = [0]
        self.r_rank: list[int] = [0]
        self.sample: list[int] = [-1]
        self.leaf_ids: list[list[int]] = [[]]  # rank -> original string ids; [0] unused

    @property
    def num_leaves(self) -> int:
        return len(self.leaf_ids) - 1

    @property
    def num_vertices(self) -> int:
        return len(self.parent)

    def leaf_range(self, v: int) -> tuple[int, int]:
        return self.l_rank[v], self.r_rank[v]

    def edge_symbol(self, v: int, pos: int, char_access) -> int:
        """Symbol at 1-based depth pos of str(v)."""
        return char_access(self.sample[v], pos)

    def locus_by_walk(self, pattern, char_access) -> int | None:
        """Minimum depth vertex whose string the pattern prefixes, walking
        edge labels character by character; None when there is no such vertex."""
        pattern = list(pattern)
        m = len(pattern)
        v = 0
        depth = 0
        while depth < m:
            child = self.children[v].get(pattern[depth])
            if child is None:
                return None
            end = min(self.strlen[child], m)
            for q in range(depth + 2, end + 1):
                if self.edge_symbol(child, q, char_access) != pattern[q - 1]:
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


def build_from_sorted(keys: list[int], real_lens, lcps, ids_per_key) -> CompactTrie:
    """Core constructor from distinct strings already in lexicographic order.

    keys are opaque string ids used as `sample`s; real_lens[i] is the i-th
    string's length; lcps[i] is the longest common prefix with string i-1
    (lcps[0] ignored), less than real_lens[i]; ids_per_key[i] lists the
    original ids collapsed into string i. Edge first-symbols are filled in
    by finalize.

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
    t.children = [{} for _ in parent]
    t.leaf_ids += [list(ids) for ids in ids_per_key]
    return t


def finalize(t: CompactTrie, symbols_at) -> CompactTrie:
    """Key each child dict by the first symbol of the child's edge, read for
    every edge at once: symbols_at(samples, depths) gives, as an array or a
    list, the symbols at those 1-based depths of the strings of those
    samples, both given as int64 arrays.

    Vertices are visited in creation order, which is lexicographic among
    siblings, so each child dict ends up ordered by symbol.
    """
    parent = t.parent[1:]
    depth = np.array(t.strlen, dtype=np.int64)[parent] + 1
    symbols = np.asarray(symbols_at(np.array(t.sample[1:], dtype=np.int64), depth)).tolist()
    children = t.children
    for child, (p, c) in enumerate(zip(parent, symbols), start=1):
        children[p][c] = child
    return t


# kept because bench/tracing.py wraps it by name (ROADMAP item 1)
def build(strings, ids=None) -> tuple[CompactTrie, list]:
    """Compact trie over materialized symbol sequences of symbols >= 0.

    Returns the trie plus the distinct sorted strings as tuples; `sample`
    values index into that list. Duplicate strings merge into one rank with
    all their ids.
    """
    seqs = [tuple(s) for s in strings]
    if ids is None:
        ids = range(len(seqs))
    groups: dict[tuple, list] = {}
    for s, i in zip(seqs, ids):
        groups.setdefault(s, []).append(i)
    width = key_width(max((max(s) for s in groups if s), default=0))
    keys = {s: encode(s, width) for s in groups}
    distinct = sorted(groups, key=keys.__getitem__)
    t = build_from_sorted(
        list(range(len(distinct))),
        [len(s) for s in distinct],
        key_lcps([keys[s] for s in distinct], width),
        [groups[s] for s in distinct],
    )

    finalize(t, lambda sids, depths: [distinct[s][q - 1] for s, q
                                      in zip(sids.tolist(), depths.tolist())])
    return t, distinct
