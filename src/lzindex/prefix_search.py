"""Batched weak prefix search over a compact trie.

Two fingerprint dictionaries drive the search: G maps each vertex's fat
prefix (length = the 2-fattest number in its skip interval) and H maps each
vertex's x-prefix (shortest multiple of x in the interval). A query first
jumps within x of its locus via H, then binary searches the remaining depth
via G. Answers are leaf rank ranges and may be arbitrary when the pattern
prefixes no indexed string.

Dictionary keys are (fingerprint value, prefix length) pairs, so only
equal-length prefixes can ever collide; the optional build-time
certification makes even those impossible by comparing the underlying
strings whenever two fingerprints agree. It checks only the lengths that
some G or H key has: a lookup of length l can hit only a vertex keyed at l,
and the vertex a correct answer names, whose skip interval holds l, is
checked at l as well.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

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
    if lo == 0:
        return 1 << (hi.bit_length() - 1)
    return hi & ~((1 << ((lo ^ hi).bit_length() - 1)) - 1)


def key_lengths(t: CompactTrie, x: int):
    """Per vertex in vertex order: (vertex, G key length, H key length or 0
    when the skip interval holds no multiple of x)."""
    for v in range(1, t.num_vertices):
        lo, hi = t.skip_interval(v)
        mult = (lo // x + 1) * x
        yield v, two_fattest(lo, hi), mult if mult <= hi else 0


@dataclass
class PrefixSearchStructure:
    """The per-vertex fingerprint values are the source of truth: g_values
    holds one per vertex, h_values one per vertex with an x-prefix, both in
    vertex order. G and H are keyed from them in that order, so a later
    vertex wins an (uncertified) key clash however the values were made."""

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
        keys = list(key_lengths(self.trie, self.x))
        h_keys = [(v, mult) for v, _, mult in keys if mult]
        if len(self.g_values) != len(keys) or len(self.h_values) != len(h_keys):
            raise ValueError("dictionary values do not match the trie")
        self.G = {(value, fat): v for value, (v, fat, _) in zip(self.g_values, keys)}
        self.H = {(value, mult): v for value, (v, mult) in zip(self.h_values, h_keys)}

    def reset_counters(self) -> None:
        self.h_lookups = 0
        self.g_lookups = 0


def build(t: CompactTrie, x: int, prefix_fp_value, char_access,
          certify: bool = True) -> PrefixSearchStructure:
    """Compute the G and H values; with certify=True additionally prove the
    function collision-free at every length a lookup can match.

    A lookup of length l can hit only a vertex whose G or H key has length
    l, and when P prefixes an indexed string, P[1, l] is the prefix of the
    vertex whose skip interval holds l. Certification therefore checks each
    vertex at the key lengths of all vertices that fall in its skip interval,
    found by bisection in their sorted set: both vertices of any wrong hit
    are checked at l, and two fingerprints that agree there are compared
    symbol by symbol (equal-length prefixes only; the keys carry the
    length).

    prefix_fp_value(v, l) -> fingerprint value of str(v)[1, l] (l may include
    the terminator of a leaf); char_access(sample_id, pos) -> symbol.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    g_values: list[int] = []
    h_values: list[int] = []
    for v, fat, mult in key_lengths(t, x):
        g_values.append(prefix_fp_value(v, fat))
        if mult:
            h_values.append(prefix_fp_value(v, mult))
    if certify:
        lengths = sorted({l for _, fat, mult in key_lengths(t, x) for l in (fat, mult) if l})
        seen: dict[tuple[int, int], int] = {}  # (value, length) -> vertex
        for (v, fat, _), fat_value in zip(key_lengths(t, x), g_values):
            lo, hi = t.skip_interval(v)
            for l in lengths[bisect_right(lengths, lo) : bisect_right(lengths, hi)]:
                key = (fat_value if l == fat else prefix_fp_value(v, l), l)
                ov = seen.setdefault(key, v)
                if ov == v:
                    continue
                for pos in range(1, l + 1):  # bucket clash: compare the real strings
                    if t.edge_symbol(v, pos, char_access) != t.edge_symbol(ov, pos, char_access):
                        raise FingerprintCollision(key)
    return PrefixSearchStructure(t, g_values, h_values, x)


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
    trie, prefix tables and the search structure in one go.

    Returns (structure, distinct_strings); useful for tests and small sets.
    """
    t, distinct = build_trie(strings)
    tables = [fp.PrefixFpTable(fn, s) for s in distinct]
    term_fp = fp.fingerprint(fn, [terminator_symbol(distinct)])

    def prefix_fp_value(v: int, l: int) -> int:
        sid = t.sample[v]
        if t.is_leaf(v) and l == t.strlen[v]:
            return fp.compose(tables[sid].prefix_fp(l - 1), term_fp).value
        return tables[sid].prefix_fp(l).value

    def char_access(sid: int, pos: int) -> int:
        return distinct[sid][pos - 1]

    ps = build(t, x, prefix_fp_value, char_access)
    return ps, distinct


def terminator_symbol(strings) -> int:
    """Fingerprint symbol standing in for the terminator: one past the
    largest symbol in use, never zero."""
    top = 0
    for s in strings:
        for c in s:
            top = max(top, c)
    return top + 1
