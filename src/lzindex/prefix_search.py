"""Batched weak prefix search over a compact trie.

Two fingerprint dictionaries drive the search: G maps each vertex's fat
prefix (length = the 2-fattest number in its skip interval) and H maps each
vertex's x-prefix (shortest multiple of x in the interval). A query first
jumps within x of its locus via H, then binary searches the remaining depth
via G. Answers are leaf rank ranges and may be arbitrary when the pattern
prefixes no indexed string.

Dictionary keys are (fingerprint value, prefix length) pairs, so only
equal-length prefixes can ever collide, and the build certifies that those
do not either, at every length a lookup can match. Two vertices whose skip
intervals both hold l spell different length-l strings, so any two equal
values at the same l are a collision, and no symbol is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fingerprints as fp
from .trie import CompactTrie, build as build_trie

LOCUS_FOUND = "locus_found"
X_RANGE = "x_range"
EXIT_FOUND = "exit_found"


class FingerprintCollision(Exception):
    """Raised at build time when the chosen function is not collision-free
    for the required prefix set; the caller reselects (p, r) and retries."""


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
    """The per-vertex fingerprint values are the source of truth: g_values
    holds one per vertex, h_values one per vertex with an x-prefix, both in
    vertex order. G and H are keyed from them in that order, so a later
    vertex wins any key clash, whoever made the values."""

    trie: CompactTrie
    g_values: list[int]
    h_values: list[int]
    x: int
    G: dict[tuple[int, int], int] = field(init=False, repr=False)
    H: dict[tuple[int, int], int] = field(init=False, repr=False)
    # instrumentation
    h_lookups: int = field(default=0, compare=False)
    g_lookups: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        _, _, fat, mult = key_lengths(self.trie, self.x)
        h_vertices = np.flatnonzero(mult) + 1
        if len(self.g_values) != len(fat) or len(self.h_values) != len(h_vertices):
            raise ValueError("dictionary values do not match the trie")
        self.G = dict(zip(zip(self.g_values, fat.tolist()), range(1, len(fat) + 1)))
        self.H = dict(zip(zip(self.h_values, mult[mult > 0].tolist()), h_vertices.tolist()))

    def reset_counters(self) -> None:
        self.h_lookups = 0
        self.g_lookups = 0


def build(t: CompactTrie, x: int, prefix_values) -> PrefixSearchStructure:
    """Compute the G and H values and prove the function collision-free at
    every length a lookup can match; raises FingerprintCollision otherwise.

    A lookup of length l can hit only a vertex whose G or H key has length
    l, and when P prefixes an indexed string, P[1, l] is the prefix of the
    vertex whose skip interval holds l. So the check takes each key length l
    in turn with the vertices whose skip intervals hold it, and both
    vertices of any wrong hit are among them. Those vertices spell different
    length-l strings, so their values must be distinct.

    prefix_values(vertices, lengths) -> the fingerprint values of
    str(v)[1, l] per vertex v and length l, given and returned as numpy
    arrays (l may include the terminator of a leaf).
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    lo, hi, fat, mult = key_lengths(t, x)
    vertices = np.arange(1, t.num_vertices)
    g_values = prefix_values(vertices, fat)
    h_values = prefix_values(vertices[mult > 0], mult[mult > 0])
    # one key length at a time keeps the arrays at one vertex each
    for l in np.unique(np.concatenate([fat, mult[mult > 0]])).tolist():
        at = vertices[(lo < l) & (l <= hi)]
        values = np.sort(prefix_values(at, np.full(len(at), l)))
        if np.any(values[1:] == values[:-1]):
            raise FingerprintCollision(l)
    return PrefixSearchStructure(t, g_values.tolist(), h_values.tolist(), x)


def find_x_range(ps: PrefixSearchStructure, m: int, pattern_fp) -> tuple[int, str]:
    """Vertex v with str(v) prefixing P and m - |v| <= x, or the locus itself,
    valid whenever P prefixes an indexed string. pattern_fp(i, j) -> value."""
    t = ps.trie
    v = 0
    if m >= ps.x:
        for i in range(1, m // ps.x + 1):
            ix = i * ps.x
            if ix > t.strlen[v]:
                ps.h_lookups += 1
                u = ps.H.get((pattern_fp(1, ix), ix))
                if u is not None:
                    v = u
    if t.strlen[v] >= m:
        return v, LOCUS_FOUND
    return v, X_RANGE


def find_exit_vertex(ps: PrefixSearchStructure, start: int, m: int, pattern_fp) -> tuple[int, str]:
    """Fat binary search from an ancestor of the exit vertex."""
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
            u = ps.G.get((pattern_fp(1, b), b))
            if u is None:
                r = b
            elif t.strlen[u] < m:
                vc = u
                l = b
            else:
                return u, LOCUS_FOUND
    return vc, EXIT_FOUND


def weak_search(ps: PrefixSearchStructure, m: int, pattern_fp, pattern_symbol):
    """Rank range [l, r] of the strings the pattern prefixes, plus the locus
    candidate vertex; None on a definite mismatch. Correct whenever the
    pattern prefixes an indexed string, arbitrary otherwise.

    pattern_symbol(i) -> P[i] (1-based)."""
    t = ps.trie
    if m == 0:
        return 0, 1, t.num_leaves
    v, status = find_x_range(ps, m, pattern_fp)
    if status == LOCUS_FOUND:
        l, r = t.leaf_range(v)
        return v, l, r
    v, status = find_exit_vertex(ps, v, m, pattern_fp)
    if status == LOCUS_FOUND or t.strlen[v] >= m:
        l, r = t.leaf_range(v)
        return v, l, r
    child = t.children[v].get(pattern_symbol(t.strlen[v] + 1))
    if child is None:
        return None  # true negative
    l, r = t.leaf_range(child)
    return child, l, r


def build_from_strings(strings, x: int, fn: fp.FpFunction):
    """Convenience constructor over materialized strings: builds the compact
    trie, one prefix table over the distinct strings, each followed by the
    terminator, and the search structure in one go.

    Returns (structure, distinct_strings); useful for tests and small sets.
    """
    t, distinct = build_trie(strings)
    term = terminator_symbol(distinct)
    joined: list[int] = []
    offsets = []
    for s in distinct:
        offsets.append(len(joined))
        joined += [*s, term]
    table = fp.PrefixFpTable(fn, joined)
    starts = np.array(offsets, dtype=np.int64)
    sample = np.array(t.sample, dtype=np.int64)

    def prefix_values(vertices, lengths):
        return table.values(starts[sample[vertices]], lengths)

    return build(t, x, prefix_values), distinct


def terminator_symbol(strings) -> int:
    """Fingerprint symbol standing in for the terminator: one past the
    largest symbol in use, never zero."""
    top = 0
    for s in strings:
        for c in s:
            top = max(top, c)
    return top + 1
