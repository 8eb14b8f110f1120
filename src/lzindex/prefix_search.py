"""Weak prefix search over a compact trie, one query at a time.

One fingerprint dictionary, G, drives the search: it maps each vertex's
fat prefix (length = the 2-fattest number in its skip interval) to the
vertex, and a query binary searches its depth from the root through G, the
fat binary search of Belazzougui, Boldi, Pagh and Vigna. Answers are the
rank ranges of the indexed strings the pattern prefixes, and may be
arbitrary when it prefixes none. The strings carry no terminator, so every
key is a prefix that a query can spell.

A dictionary key is one int, value | length << 61, of a prefix's
fingerprint value (below 2^61) and its length, so only equal-length prefixes
can ever collide, and the build certifies that those do not either, at
every length a lookup can match. Two vertices whose skip intervals both
hold l spell different length-l strings, so any two equal values at the
same l are a collision, and no symbol is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .trie import CompactTrie


class FingerprintCollision(Exception):
    """Raised at build time when the chosen function is not collision-free
    for the required prefix set; the caller reselects r and retries."""


def key_lengths(t: CompactTrie):
    """Per vertex 1, 2, ... in vertex order, as int64 arrays: the ends of the
    skip interval (lo, hi] and the G key length, its 2-fattest number."""
    strlen = np.array(t.strlen, dtype=np.int64)
    hi = strlen[1:]
    lo = strlen[t.parent[1:]]
    # the 2-fattest number is hi less its bits below the highest one where
    # lo and hi differ; frexp gives bit lengths exactly below 2^53
    top = np.frexp((lo ^ hi).astype(np.float64))[1].astype(np.int64) - 1
    return lo, hi, hi & ~((np.int64(1) << top) - 1)


@dataclass
class PrefixSearchStructure:
    """G, mapping a key value | length << 61 to a vertex."""

    trie: CompactTrie
    G: dict[int, int] = field(repr=False)
    # instrumentation
    g_lookups: int = field(default=0, compare=False)
    # H is gone; each name is kept because bench/run.py reads it (ROADMAP
    # item 1), as an empty dict and a count that stays 0
    H: ClassVar[dict[int, int]] = {}
    h_lookups: ClassVar[int] = 0


def derive(t: CompactTrie, prefix_values) -> PrefixSearchStructure:
    """G of trie t, keyed in vertex order so that a later vertex wins any
    key clash. Build and load both make it here; only the build certifies
    it first (see build).

    prefix_values(vertices, lengths) -> the fingerprint values of
    str(v)[1, l] per vertex v and length l, given and returned as numpy
    arrays.
    """
    _, _, fat = key_lengths(t)
    vertices = np.arange(1, t.num_vertices)
    values = prefix_values(vertices, fat).tolist()
    keys = [v | l << 61 for v, l in zip(values, fat.tolist())]
    return PrefixSearchStructure(t, dict(zip(keys, vertices.tolist())))


def build(t: CompactTrie, prefix_values) -> PrefixSearchStructure:
    """Prove the function collision-free at every length a lookup can
    match, then derive G; raises FingerprintCollision on a collision.

    A lookup of length l can hit only a vertex whose G key has length l,
    and when P prefixes an indexed string, P[1, l] is the prefix of the
    vertex whose skip interval holds l. So the check takes each key length l
    in turn with the vertices whose skip intervals hold it, and both
    vertices of any wrong hit are among them. Those vertices spell different
    length-l strings, so their values must be distinct.
    """
    lo, hi, fat = key_lengths(t)
    vertices = np.arange(1, t.num_vertices)
    # one key length at a time keeps the arrays at one vertex each
    for l in np.unique(fat).tolist():
        at = vertices[(lo < l) & (l <= hi)]
        values = np.sort(prefix_values(at, np.full(len(at), l)))
        if np.any(values[1:] == values[:-1]):
            raise FingerprintCollision(l)
    return derive(t, prefix_values)


def weak_search(ps: PrefixSearchStructure, m: int, pattern_fp, pattern_symbol):
    """Rank range [l, r] of the strings the pattern prefixes, plus the locus
    candidate vertex; None on a definite mismatch. Correct whenever the
    pattern prefixes an indexed string, arbitrary otherwise.

    The fat binary search from the root finds the exit vertex (|v| < m) or
    the locus itself (|v| >= m), in at most m.bit_length() lookups; the
    exit vertex's child on P[|v| + 1] is the locus.
    pattern_fp(i, j) -> the value of P[i, j]; pattern_symbol(i) -> P[i]
    (1-based)."""
    t = ps.trie
    if m == 0:
        return 0, 1, t.num_leaves
    strlen = t.strlen
    l, r = 0, 1 << m.bit_length()  # the smallest power of two > m
    v = 0
    while r - l > 1:
        b = (l + r) // 2
        if b > m:
            r = b
        elif b <= strlen[v]:
            l = b
        else:
            ps.g_lookups += 1
            u = ps.G.get(pattern_fp(1, b) | b << 61)
            if u is None:
                r = b
            else:
                v, l = u, b
                if strlen[v] >= m:
                    break
    if strlen[v] < m:
        v = t.child(v, pattern_symbol(strlen[v] + 1))
        if v is None:
            return None  # true negative
    return (v, *t.leaf_range(v))
