"""Batched weak prefix search over a compact trie.

Two fingerprint dictionaries drive the search: G maps each vertex's fat
prefix (length = the 2-fattest number in its skip interval) and H maps each
vertex's x-prefix (shortest multiple of x in the interval). A query first
jumps within x of its locus via H, then binary searches the remaining depth
via G. Answers are the rank ranges of the indexed strings the pattern
prefixes, and may be arbitrary when it prefixes none. The strings carry no
terminator, so every key is a prefix that a query can spell.

A dictionary key is one int, value | length << 61, of a prefix's
fingerprint value (below 2^61) and its length, so only equal-length prefixes
can ever collide, and the build certifies that those do not either, at
every length a lookup can match. Two vertices whose skip intervals both
hold l spell different length-l strings, so any two equal values at the
same l are a collision, and no symbol is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .trie import CompactTrie


class FingerprintCollision(Exception):
    """Raised at build time when the chosen function is not collision-free
    for the required prefix set; the caller reselects r and retries."""


def two_fattest(lo: int, hi: int) -> int:
    """The unique integer in (lo, hi] with the most trailing binary zeros."""
    if not 0 <= lo < hi:
        raise ValueError("empty interval")
    # clear the bits of hi below the highest one where lo and hi differ
    return hi & ~((1 << ((lo ^ hi).bit_length() - 1)) - 1)


def key_lengths(t: CompactTrie, x: int):
    """Per vertex 1, 2, ... in vertex order, as int64 arrays: the ends of the
    skip interval (lo, hi], the G key length (its 2-fattest number) and the
    H key length (its least multiple of x, 0 when it holds none)."""
    if x < 1:
        raise ValueError("x must be >= 1")
    strlen = np.array(t.strlen, dtype=np.int64)
    hi = strlen[1:]
    lo = strlen[t.parent[1:]]
    # two_fattest per vertex; frexp gives bit lengths exactly below 2^53
    top = np.frexp((lo ^ hi).astype(np.float64))[1].astype(np.int64) - 1
    fat = hi & ~((np.int64(1) << top) - 1)
    mult = (lo // x + 1) * x
    mult[mult > hi] = 0
    return lo, hi, fat, mult


@dataclass
class PrefixSearchStructure:
    """G and H, each mapping a key value | length << 61 to a vertex."""

    trie: CompactTrie
    x: int
    G: dict[int, int] = field(repr=False)
    H: dict[int, int] = field(repr=False)
    # instrumentation
    h_lookups: int = field(default=0, compare=False)
    g_lookups: int = field(default=0, compare=False)

    def reset_counters(self) -> None:
        self.h_lookups = 0
        self.g_lookups = 0


def derive(t: CompactTrie, x: int, prefix_values) -> PrefixSearchStructure:
    """G and H of trie t, keyed in vertex order so that a later vertex wins
    any key clash. Build and load both make them here; only the build
    certifies them first (see build).

    prefix_values(vertices, lengths) -> the fingerprint values of
    str(v)[1, l] per vertex v and length l, given and returned as numpy
    arrays.
    """
    _, _, fat, mult = key_lengths(t, x)
    vertices = np.arange(1, t.num_vertices)
    has_h = mult > 0

    def keys(vertices, lengths) -> list[int]:
        values = prefix_values(vertices, lengths).tolist()
        return [v | l << 61 for v, l in zip(values, lengths.tolist())]

    G = dict(zip(keys(vertices, fat), vertices.tolist()))
    H = dict(zip(keys(vertices[has_h], mult[has_h]), vertices[has_h].tolist()))
    return PrefixSearchStructure(t, x, G, H)


def build(t: CompactTrie, x: int, prefix_values) -> PrefixSearchStructure:
    """Prove the function collision-free at every length a lookup can
    match, then derive G and H; raises FingerprintCollision on a collision.

    A lookup of length l can hit only a vertex whose G or H key has length
    l, and when P prefixes an indexed string, P[1, l] is the prefix of the
    vertex whose skip interval holds l. So the check takes each key length l
    in turn with the vertices whose skip intervals hold it, and both
    vertices of any wrong hit are among them. Those vertices spell different
    length-l strings, so their values must be distinct.
    """
    lo, hi, fat, mult = key_lengths(t, x)
    vertices = np.arange(1, t.num_vertices)
    # one key length at a time keeps the arrays at one vertex each
    for l in np.unique(np.concatenate([fat, mult[mult > 0]])).tolist():
        at = vertices[(lo < l) & (l <= hi)]
        values = np.sort(prefix_values(at, np.full(len(at), l)))
        if np.any(values[1:] == values[:-1]):
            raise FingerprintCollision(l)
    return derive(t, x, prefix_values)


def find_x_range(ps: PrefixSearchStructure, m: int, pattern_fp) -> int:
    """Vertex v with str(v) prefixing P and m - |v| <= x, or the locus itself
    (|v| >= m), valid whenever P prefixes an indexed string.
    pattern_fp(i, j) -> value."""
    t = ps.trie
    v = 0
    if m >= ps.x:
        for i in range(1, m // ps.x + 1):
            ix = i * ps.x
            if ix > t.strlen[v]:
                ps.h_lookups += 1
                u = ps.H.get(pattern_fp(1, ix) | ix << 61)
                if u is not None:
                    v = u
    return v


def find_exit_vertex(ps: PrefixSearchStructure, start: int, m: int, pattern_fp) -> int:
    """Fat binary search from an ancestor of the exit vertex: the exit
    vertex (|v| < m), or the locus itself (|v| >= m)."""
    t = ps.trie
    d = m - t.strlen[start]
    y = 1 << d.bit_length()  # smallest power of two > d
    z = t.strlen[start] // y * y
    l, r = z, z + 2 * y
    vc = start
    while r - l > 1:
        b = (l + r) // 2
        if b > m:
            r = b
        elif b <= t.strlen[vc]:
            l = b
        else:
            ps.g_lookups += 1
            u = ps.G.get(pattern_fp(1, b) | b << 61)
            if u is None:
                r = b
            elif t.strlen[u] < m:
                vc = u
                l = b
            else:
                return u
    return vc


def weak_search(ps: PrefixSearchStructure, m: int, pattern_fp, pattern_symbol):
    """Rank range [l, r] of the strings the pattern prefixes, plus the locus
    candidate vertex; None on a definite mismatch. Correct whenever the
    pattern prefixes an indexed string, arbitrary otherwise.

    pattern_symbol(i) -> P[i] (1-based)."""
    t = ps.trie
    if m == 0:
        return 0, 1, t.num_leaves
    v = find_x_range(ps, m, pattern_fp)
    if t.strlen[v] < m:
        v = find_exit_vertex(ps, v, m, pattern_fp)
        if t.strlen[v] < m:
            v = t.child(v, pattern_symbol(t.strlen[v] + 1))
            if v is None:
                return None  # true negative
    l, r = t.leaf_range(v)
    return v, l, r
