"""The compressed self-index: build, locate, extract, save and load.

The index stores a capped LZ77 parse of the text and answers locate(P) by
finding the primary occurrences (those spanning a phrase border) and then
expanding them through the phrase sources into the secondary ones
(Kärkkäinen and Ukkonen), one breadth-first level at a time. The sources
are derived from the parse whenever an index is built or loaded and sorted
by start; an occurrence's copies come from those that start in a window no
wider than the longest source, scanned by one numpy pass for a level of at
least 48 occurrences and by a Python loop for a narrower one. An occurrence
costs the sources in its window, 1.3 to 2.0 per copy on the benchmark's
texts, but all of them where they crowd together. Long patterns are cut at
multiples of tau and each cut is matched as a (reversed prefix, suffix)
pair. A weak prefix search in the trie of reversed relevant substrings
narrows the prefix side to a rank range and a locus candidate, and
the candidate is checked at once by reading the text it stands for off
the grammar and comparing it with the pattern, one block-bounded piece at
a time up to the first piece that differs. Only a prefix side that passes
runs the same search and check on the suffix side, in the trie of the
suffixes that follow the relevant substrings, and only then does a 2-d
range query report the border positions where the two ranges meet.
Neither trie ends its strings with a terminator, which no query holds: a
string that prefixes another ends at an inner vertex, and the empty suffix
after the last relevant substring at the root. Weak search compares raw
fingerprint values, the pattern's from one pass over it
(fingerprints.PatternFps). Patterns of length at most tau instead bisect
the sorted list of the short strings around each border: the strings a
pattern prefixes form one run of it. Extraction and the candidate check
both run on the balanced grammar built from the parse, so the reversed
side has no grammar of its own.

No answer is left to chance. Each dictionary is certified at every key
length: the vertices whose skip intervals hold that length have distinct
values. So when a side's query prefixes an indexed string, each lookup it
makes either misses or hits the vertex of the query's own path at that
length, and weak search returns the true locus, which the check confirms.
When the query prefixes no indexed string, no vertex's string starts with
it, and the check rejects whatever weak search returns. A loaded index
relies on the build's certification of the same r on the same text: only
damage to the file that its CRC-32 misses, a chance of about 2^-32, could
pair a parse with an r that was not certified on it.

The build makes one suffix array with its ranks and LCP array, for the
parse and for the suffix trie's string order and adjacent lcps, and drops
them before it draws a fingerprint function. The file stores only the header
with a CRC-32 of the file and the base r, the parse, and that string order
with the lcps of adjacent strings, and the constructor takes exactly those
with the text: the build passes the text it was given, loading decodes it
from the checked parse. From them the constructor derives the rest in one
order: the two tries over the relevant substrings; the dictionaries keyed
on them, whose values come from one numpy prefix table over the text; the
grammar (build_slp); the border grid; the sorted short strings; and the
phrase sources. The function keys only the dictionaries, and the caller
says how they are made: the build passes prefix_search.build, which
certifies both, and retries the constructor with the next seed's function
when one collides, so nothing past the dictionaries is made for a function
that fails; loading passes prefix_search.derive and does not certify them
again, since the build certified this r on this text. The derivations make
no Python object per symbol of a string they sort: the text is encoded once
as fixed-width big-endian bytes (trie.encode, the width the least that
holds sigma + 1), forwards for the short strings and backwards for the
reversed relevant substrings, and each such string is a bytes slice of it,
so sorting them is a memcmp sort.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import fingerprints as fp
from . import lz77, prefix_search, trie
from ._io import Reader, Writer
from ._suffixes import SuffixContext
from ._text import to_symbols
from .grammar import build_slp
from .range_report import Grid, SourceIndex
from .trie import CompactTrie

MAGIC = b"LZXIDX7\n"
# the file's CRC-32 takes the four bytes after the magic and covers the rest
_CRC_AT = len(MAGIC)
_MAX_FN_ATTEMPTS = 8


@dataclass(frozen=True)
class IndexConfig:
    """Build-time knobs. tau = None picks ceil(lg(n/z)); seed drives the
    fingerprint function selection."""

    tau: int | None = None
    seed: int = 0


def default_tau(n: int, z: int) -> int:
    """Smallest t >= 1 with 2^t * z >= n."""
    t = 1
    while (1 << t) * z < n:
        t += 1
    return t


class Index:
    """Compressed text self-index over an LZ77 parse.

    Construct with Index.build(text) or Index.load(path). Texts are byte
    strings or sequences of integer symbols >= 1; a 0 byte or symbol raises
    ValueError (the command line shifts every byte up by one instead).
    """

    # -- construction -------------------------------------------------------

    def __init__(
        self, *, n: int, sigma: int, orig_z: int, tau: int, block_len: int, seed: int,
        fn: fp.FpFunction, capped: lz77.Lz77Parse, order: list[int], lcps: list[int],
        arr: np.ndarray, make_dictionary,
    ):
        """The index from what its file stores: the header fields, the
        function, the capped parse and the suffix trie's string order (an
        item index per rank) with the lcps of adjacent strings. Everything
        else is derived from those and the text arr, which construction may
        read directly (queries go through the grammar instead). make_dictionary
        is prefix_search.build, which certifies each dictionary and raises
        FingerprintCollision, or prefix_search.derive, which trusts fn. A
        string order that is not a permutation of the items, or an lcp list
        that does not fit it, raises ValueError("corrupt index"): each lcp L
        must fit both suffixes, leave the later one longer, and, unless the
        earlier suffix has length L, the symbol after L must be smaller in
        the earlier suffix. Their first L symbols are not compared."""
        self.n = n
        self.sigma = sigma
        self.orig_z = orig_z
        self.tau = tau
        self.block_len = block_len
        self.seed = seed
        self.fn = fn
        self.capped = capped
        self._key_width = width = trie.key_width(sigma)
        self.last_stats: dict = {}

        items = _relevant_substrings(capped, tau, n)
        self.t_d, self.t_dp = _tries(items, arr, width, order, lcps)
        # the dictionaries are all that depends on fn
        self.ps_d, self.ps_dp = _dictionaries(fn, arr, block_len, self.t_d, self.t_dp,
                                              make_dictionary)
        # the rest is made only now, so it is not resident while the
        # certification and the prefix table peak
        self.bt = build_slp(capped, block_len)
        # the grid joining both tries: one point per relevant substring
        xr = [0] * len(items)
        for rank in range(1, self.t_d.num_leaves + 1):
            for i in self.t_d.leaf_ids[rank]:
                xr[i] = rank
        self.grid_r = Grid((xr[i], rank, items[i][1:]) for rank, i in enumerate(order, start=1))
        self.f_strings, self.f_pairs = _short_strings(capped, tau, arr, width)
        # each phrase's source and where it is copied
        self.sources = SourceIndex(_phrase_sources(capped))

    @classmethod
    def build(cls, text, config: IndexConfig | None = None) -> "Index":
        cfg = config or IndexConfig()
        arr = to_symbols(text)
        n = len(arr)
        if n == 0:
            raise ValueError("empty text")
        if int(arr.min()) < 1:
            raise ValueError("symbols must be >= 1")

        ctx = SuffixContext(arr)
        orig = lz77.parse(arr, ctx)
        block_len = -(-n // orig.z)
        tau = cfg.tau if cfg.tau is not None else default_tau(n, orig.z)
        if tau < 1:
            raise ValueError("tau must be >= 1")
        capped = lz77.cap_phrases(orig, block_len, arr)
        order, lcps = _suffix_trie_order(ctx, _relevant_substrings(capped, tau, n))
        del ctx

        for attempt in range(_MAX_FN_ATTEMPTS):
            try:
                return cls(n=n, sigma=int(arr.max()), orig_z=orig.z, tau=tau,
                           block_len=block_len, seed=cfg.seed,
                           fn=fp.select_function(cfg.seed * 1009 + attempt), capped=capped,
                           order=order, lcps=lcps, arr=arr, make_dictionary=prefix_search.build)
            except prefix_search.FingerprintCollision:
                continue
        raise RuntimeError("cannot certify a collision-free fingerprint function")

    # -- queries -------------------------------------------------------------

    @staticmethod
    def _coerce(pattern) -> tuple:
        if isinstance(pattern, (bytes, bytearray)):
            return tuple(pattern)
        if isinstance(pattern, np.ndarray):
            return tuple(to_symbols(pattern).tolist())
        # Python ints, so a symbol past the int64 range is merely above sigma
        return tuple(map(int, pattern))

    def locate(self, pattern) -> list[int]:
        """All 1-based starting positions of the pattern, sorted."""
        p = self._coerce(pattern)
        m = len(p)
        if m == 0:
            raise ValueError("empty pattern")
        self.last_stats = {"identified": {}, "primary": [], "secondary": []}
        if m > self.n or any(c < 1 or c > self.sigma for c in p):
            return []
        identified = self.last_stats["identified"]
        if m <= self.tau:
            prim = self._primary_short(p, identified)
        else:
            prim = self._primary_long(p, identified)
        # expand lists each copy once and no primary, so one sort suffices;
        # the secondaries are kept in the order it found them
        sec = self.sources.expand(prim, m)
        self.last_stats["primary"] = prim = sorted(prim)
        self.last_stats["secondary"] = sec
        out = sec + prim
        out.sort()
        return out

    def locate_long_primary(self, pattern) -> list[tuple[int, int]]:
        """Primary occurrences of a pattern with m > tau, as sorted
        (position, border) pairs; the border is the one stored with the
        relevant substring that identified the occurrence."""
        p = self._coerce(pattern)
        if len(p) <= self.tau:
            raise ValueError("pattern not longer than tau")
        if len(p) > self.n or any(c < 1 or c > self.sigma for c in p):
            return []
        return sorted(self._primary_long(p, {}).items())

    def locate_short_primary(self, pattern) -> list[tuple[int, int]]:
        """Primary occurrences of a pattern with m <= tau, as sorted
        (position, border) pairs."""
        p = self._coerce(pattern)
        if not p or len(p) > self.tau:
            raise ValueError("pattern length must be in [1, tau]")
        if any(c < 1 or c > self.sigma for c in p):
            return []
        return sorted(self._primary_short(p, {}).items())

    def locate_secondary(self, primaries, m: int) -> list[int]:
        """The secondary occurrences reachable from the given primary
        positions of a length-m pattern."""
        # positions that are not primaries may copy one another, so the
        # expansion may meet them twice; locate never passes such input
        found = set(primaries)
        return sorted(set(self.sources.expand(found, m)) - found)

    def verify_candidates(self, suffix_candidates) -> list[tuple[tuple, int]]:
        """Filter weak-search candidates for the suffix trie down to the
        genuine ones.

        suffix_candidates: (suffix, vertex) pairs where every suffix is a
        suffix of the longest one and vertex is its locus candidate. Returns
        the pairs whose vertex string really starts with the suffix.
        """
        cands = sorted(((tuple(s), v) for s, v in suffix_candidates),
                       key=lambda c: len(c[0]))
        if not cands:
            return []
        longest = cands[-1][0]
        ln = len(longest)
        for s, _ in cands:
            if longest[ln - len(s):] != s:
                raise ValueError("candidates must share the longest suffix")
        return [(s, v) for s, v in cands if self._suffix_holds(v, list(s), 0, len(s))]

    def extract(self, i: int, j: int) -> list[int]:
        """text[i, j], 1-based inclusive."""
        return self.bt.extract(i, j)

    def _primary_short(self, p: tuple, identified: dict) -> dict[int, int]:
        # the short strings p prefixes sort from p up to, not including, p
        # with its last symbol raised by one, which is at most sigma + 1
        strings = self.f_strings
        width = self._key_width
        lo = bisect_left(strings, trie.encode(p, width))
        hi = bisect_left(strings, trie.encode(p[:-1] + (p[-1] + 1,), width), lo)
        m = len(p)
        out: dict[int, int] = {}
        for pairs in self.f_pairs[lo:hi]:
            for k, border in pairs:
                if border <= k + m - 1:  # the occurrence spans the border
                    identified[k] = identified.get(k, 0) + 1
                    out[k] = border
        return out

    def _primary_long(self, p: tuple, identified: dict) -> dict[int, int]:
        m = len(p)
        tau = self.tau
        tab = fp.PatternFps(self.fn, p)
        value, reversed_value = tab.value, tab.reversed_value
        symbols = list(p)

        i_max = min(m // tau, -(-self.block_len // tau))
        ks = [i * tau for i in range(1, i_max + 1)]
        if m % tau:
            ks.append(m)  # catches occurrences whose border sits in the tail

        out: dict[int, int] = {}
        for k in ks:
            # left side: the reversed length-k prefix against the reversed
            # relevant substrings; weak search may answer anything when the
            # prefix ends none of them, so its candidate is checked against
            # the text
            def rfp(a, b, k=k):
                return reversed_value(k + 1 - b, k + 1 - a)

            def rsym(q, k=k):
                return p[k - q]

            res = prefix_search.weak_search(self.ps_d, k, rfp, rsym)
            if res is None or not self._prefix_holds(res[0], symbols, k):
                continue
            _, l1, r1 = res
            # right side: the remaining suffix against the suffixes that
            # follow each relevant substring, checked the same way
            def qfp(a, b, k=k):
                return value(k + a, k + b)

            def qsym(q, k=k):
                return p[k + q - 1]

            res = prefix_search.weak_search(self.ps_dp, m - k, qfp, qsym)
            if res is None or not self._suffix_holds(res[0], symbols, k, m):
                continue
            _, l2, r2 = res
            pts = self.grid_r.query(l1, r1, l2, r2)
            for j, b in pts:
                o = j - k + 1
                identified[o] = identified.get(o, 0) + 1
                out.setdefault(o, b)
        return out

    # A weak-search candidate v stands for its query only if the query
    # prefixes str(v). When it does, the query prefixes an indexed string,
    # so weak search was exact and v is the locus (see the module
    # docstring). Each side reads str(v)'s first symbols off the text and
    # compares them with the pattern.

    def _prefix_holds(self, v: int, symbols: list, k: int) -> bool:
        """Whether str(v) of the t_d vertex v starts with the reversal of
        symbols[:k]: str(v) is the text read backwards from a position e, so
        text[e - k + 1, e] must equal symbols[:k]."""
        if self.t_d.strlen[v] < k:
            return False
        return self.bt.matches(self.t_d.sample[v] - k + 1, symbols, 0, k)

    def _suffix_holds(self, v: int, symbols: list, lo: int, hi: int) -> bool:
        """Whether str(v) of the t_dp vertex v starts with symbols[lo:hi]."""
        if self.t_dp.strlen[v] < hi - lo:
            return False
        return self.bt.matches(self.t_dp.sample[v], symbols, lo, hi)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        return {
            "n": self.n,
            "alphabet_size": self.sigma,
            "phrases": self.orig_z,
            "capped_phrases": self.capped.z,
            "tau": self.tau,
            "block_len": self.block_len,
            "seed": self.seed,
            "grammar_nodes": self.bt.node_count,
            "grammar_height": max(self.bt.block_heights(), default=0),
            "trie_d_vertices": self.t_d.num_vertices,
            "trie_suffix_vertices": self.t_dp.num_vertices,
            "short_strings": len(self.f_strings),
            "grid_points": self.grid_r.size,
            "source_points": self.sources.size,
        }

    # -- serialization -------------------------------------------------------

    def _sections(self) -> list[tuple[str, bytes]]:
        """The serialized index as named (component, bytes) sections, in file
        order; to_bytes is their concatenation. Loading rebuilds every part
        the file does not hold, the dictionaries included, so the sections
        it does not fill stay empty for size reports to keep listing them."""
        w = Writer()
        for v in (self.n, self.sigma, self.orig_z, self.tau, self.block_len,
                  self.seed, self.fn.r):
            w.u(v)
        fields = bytes(w.buf)

        w = Writer()
        w.u(len(self.capped.phrases))
        for ph in self.capped.phrases:
            w.u(ph.start)
            w.u(ph.len)
            w.u(ph.border)
        parse = bytes(w.buf)

        # the suffix trie as its order (an item per rank) and the lcps of
        # adjacent ranks: rank r leaves rank r - 1's path at their lcp
        t = self.t_dp
        lcps = [0] * t.num_leaves
        for u in range(1, t.num_vertices):
            p = t.parent[u]
            if t.l_rank[u] != t.l_rank[p]:
                lcps[t.l_rank[u] - 1] = t.strlen[p]
        w = Writer()
        w.seq(ids[0] for ids in t.leaf_ids[1:])
        w.seq(lcps)
        suffix_trie = bytes(w.buf)

        sections = [
            ("header", MAGIC + bytes(4) + fields), ("parse", parse), ("grammar", b""),
            ("reverse_grammar", b""), ("substring_trie", b""),
            ("suffix_trie", suffix_trie), ("short_trie", b""),
            ("dictionaries", b""), ("grids", b""),
        ]
        crc = _checksum(b"".join(data for _, data in sections))
        sections[0] = ("header", MAGIC + crc.to_bytes(4, "little") + fields)
        return sections

    def component_sizes(self) -> dict[str, int]:
        """Bytes each component occupies in the index file."""
        return {name: len(data) for name, data in self._sections()}

    def to_bytes(self) -> bytes:
        return b"".join(data for _, data in self._sections())

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "Index":
        r = Reader(data)
        if r.raw(len(MAGIC)) != MAGIC:
            raise ValueError("not an index file")
        if int.from_bytes(r.raw(4), "little") != _checksum(data):
            raise ValueError("corrupt index")
        n, sigma, orig_z, tau, block_len, seed, base = (r.u() for _ in range(7))
        if min(n, tau) < 1 or not 1 <= base < fp.P:
            raise ValueError("corrupt index")
        phrases = tuple(lz77.Phrase(r.u(), r.u(), r.u()) for _ in range(r.u()))
        # capping splits phrases, never joins them; block_len is n / z rounded up
        if not 1 <= orig_z <= len(phrases) or block_len != -(-n // orig_z):
            raise ValueError("corrupt index")
        _check_parse(phrases, n, sigma, block_len)
        capped = lz77.Lz77Parse(phrases, n, len(phrases), sigma)
        order = r.seq()
        lcps = r.seq()
        if r.pos != len(data):
            raise ValueError("corrupt index")
        # the build certified this function on this text, so its dictionary
        # values need no second check
        return cls(n=n, sigma=sigma, orig_z=orig_z, tau=tau, block_len=block_len, seed=seed,
                   fn=fp.FpFunction(base), capped=capped, order=order, lcps=lcps,
                   arr=to_symbols(lz77.decompress(capped)), make_dictionary=prefix_search.derive)

    @classmethod
    def load(cls, path) -> "Index":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def _relevant_substrings(capped: lz77.Lz77Parse, tau: int, n: int) -> list:
    """For each phrase border e, the strings ending at e..e+tau-1 that start
    at the phrase start, deduplicated by end position keeping the longest
    (smallest start); as (start, end, rightmost border <= end) by end."""
    best: dict[int, int] = {}
    pos = 1
    for ph in capped.phrases:
        e = pos + ph.span() - 1
        for k in range(tau):
            end = e + k
            if end > n:
                break
            cur = best.get(end)
            if cur is None or pos < cur:
                best[end] = pos
        pos = e + 1
    borders = capped.border_positions()
    items = []
    for end in sorted(best):
        b = borders[bisect_right(borders, end) - 1]
        items.append((best[end], end, b))
    return items


def _suffix_trie_order(ctx: SuffixContext, items) -> tuple[list[int], list[int]]:
    """The suffix trie's string order (an item index per rank) and the lcps
    of adjacent strings, from the suffix context.

    Item i's suffix starts after its end, at 0-based text position e. Ends
    are distinct and ascending, so only the last item can end at n; its
    suffix is empty and sorts first, with lcp 0 to both neighbours. The lcp
    of two adjacent suffixes is the least LCP entry after the first one's
    rank up to the second one's.
    """
    n = ctx.n
    ranks = ctx.rank[[e for _, e, _ in items if e < n]]
    order = np.argsort(ranks).tolist()
    sorted_ranks = ranks[order]
    lcps = []
    if len(order) > 1:
        lcps = np.minimum.reduceat(
            ctx.lcp[: sorted_ranks[-1] + 1], sorted_ranks[:-1] + 1
        ).tolist()
    if len(order) < len(items):
        order.insert(0, len(items) - 1)
    # the first suffix, and the one after the empty suffix, have lcp 0
    return order, [0] * (len(order) - len(lcps)) + lcps


def _phrase_sources(capped: lz77.Lz77Parse) -> list[tuple[int, int, int]]:
    """(start, end, phrase position) of every nonempty phrase source."""
    out = []
    pos = 1
    for ph in capped.phrases:
        if ph.len > 0:
            out.append((ph.start, ph.start + ph.len - 1, pos))
        pos += ph.span()
    return out


def _check_parse(phrases, n: int, sigma: int, block_len: int) -> None:
    """The stored parse must tile the text with phrases that fit a block,
    copy only from earlier and end in a symbol of the alphabet. The first
    occurrence of every symbol ends a phrase, so the largest border is
    sigma, and the build reads symbols as int64."""
    pos = 1
    top = 0
    for ph in phrases:
        # a phrase without a source stores start 0
        if not (1 <= ph.start < pos if ph.len > 0 else ph.start == 0):
            raise ValueError("corrupt index")
        if not 1 <= ph.border <= sigma or ph.span() > block_len:
            raise ValueError("corrupt index")
        top = max(top, ph.border)
        pos += ph.span()
    if pos != n + 1 or top != sigma or sigma >= 1 << 63:
        raise ValueError("corrupt index")


def _checksum(data) -> int:
    """CRC-32 of an index file's bytes, all but the checksum's own four."""
    view = memoryview(data)
    return zlib.crc32(view[_CRC_AT + 4 :], zlib.crc32(view[:_CRC_AT]))


def _tries(items, arr: np.ndarray, width: int, order, lcps) -> tuple[CompactTrie, CompactTrie]:
    """The tries the dictionaries are keyed on, from the relevant substrings,
    the text, the byte key width and the suffix trie's string order with the
    lcps of adjacent strings: the trie over the reversed relevant substrings,
    each vertex's sample the end of an item it spells, and the trie over the
    suffixes that follow them, each vertex's sample the start of one.
    Neither depends on the fingerprint function."""
    n = len(arr)
    if (sorted(order) != list(range(len(items))) or len(lcps) != len(order)
            or lcps[0] != 0 or max(lcps) > n):
        raise ValueError("corrupt index")
    starts = [items[i][1] + 1 for i in order]
    # each adjacent pair: the earlier suffix may prefix the later one, never
    # the reverse, and where it does not, the symbol after their lcp sorts
    # the pair
    s1 = np.array(starts[:-1], dtype=np.int64)
    s2 = np.array(starts[1:], dtype=np.int64)
    lcp = np.array(lcps[1:], dtype=np.int64)
    if np.any(lcp > n + 1 - s1) or np.any(lcp >= n + 1 - s2):
        raise ValueError("corrupt index")
    differ = lcp < n + 1 - s1
    if np.any(arr[(s1 - 1 + lcp)[differ]] >= arr[(s2 - 1 + lcp)[differ]]):
        raise ValueError("corrupt index")

    # trie over the reversed relevant substrings, sorted as byte keys: each
    # is a slice of the reversed text's encoding, item (s, e) its 0-based
    # [n - e, n + 1 - s)
    rtext = trie.encode(arr[::-1], width)
    groups: dict[bytes, list[int]] = {}
    for i, (s, e, _) in enumerate(items):
        groups.setdefault(rtext[(n - e) * width : (n + 1 - s) * width], []).append(i)
    keys = sorted(groups)
    ids = [groups[key] for key in keys]
    t_d = trie.build_from_sorted(
        [items[same[0]][1] for same in ids], [len(key) // width for key in keys],
        trie.key_lcps(keys, width), ids,
    )
    # depth q of a string read backwards from end e is arr[e - q]
    trie.finalize(t_d, lambda ends, q: arr[ends - q])

    # trie over the suffixes that follow them, assembled in suffix array
    # order so the suffixes never have to be materialized
    t_dp = trie.build_from_sorted(
        starts, [n - st + 1 for st in starts], lcps, [[i] for i in order]
    )
    trie.finalize(t_dp, lambda starts, q: arr[starts + q - 2])
    return t_d, t_dp


def _dictionaries(fn: fp.FpFunction, arr: np.ndarray, x: int, t_d: CompactTrie,
                  t_dp: CompactTrie, make_dictionary) -> tuple:
    """make_dictionary(trie, x, prefix_values) for t_d and for t_dp, the
    values read off one prefix table over the text. A t_d vertex spells the
    text backwards from the end in its sample, a t_dp vertex forwards from
    the start in its sample."""
    table = fp.PrefixFpTable(fn, arr)
    ends = np.array(t_d.sample, dtype=np.int64)
    starts = np.array(t_dp.sample, dtype=np.int64)
    return (
        make_dictionary(t_d, x, lambda v, l: table.reversed_values(ends[v] - l, l)),
        make_dictionary(t_dp, x, lambda v, l: table.values(starts[v] - 1, l)),
    )


def _short_strings(capped: lz77.Lz77Parse, tau: int, arr: np.ndarray, width: int) -> tuple:
    """The strings short patterns are looked up in: all strings from at most
    tau before a border up to tau - 1 past it, sorted as byte keys (slices
    of the text's encoding), and per distinct one the (start, border) pairs
    it occurs at."""
    n = len(arr)
    text = trie.encode(arr, width)
    groups: dict[bytes, list[tuple[int, int]]] = {}
    pos = 1
    for ph in capped.phrases:
        e = pos + ph.span() - 1
        hi = min(e + tau - 1, n) * width
        for k in range(max(pos, e - tau + 1), e + 1):
            groups.setdefault(text[(k - 1) * width : hi], []).append((k, e))
        pos = e + 1
    strings = sorted(groups)
    return strings, [groups[s] for s in strings]
