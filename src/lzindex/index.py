"""The compressed self-index: build, locate, extract, save and load.

The index stores a capped LZ77 parse of the text and answers locate(P) by
finding the primary occurrences (those spanning a phrase border) and then
expanding them through the phrase sources into the secondary ones
(Kärkkäinen and Ukkonen), one breadth-first level at a time. The sources
are derived from the parse whenever an index is built or loaded and sorted
by start; an occurrence's copies come from those that start in a window no
wider than the longest source, scanned by one numpy pass for a level whose
windows hold enough sources and by a Python loop for a smaller one (see
range_report), and the answer is sorted once: in numpy when a level ran as
a pass, as a list when none did. An occurrence costs the sources in its
window, 1.3 to 2.0 per copy on the benchmark's texts, but all of them
where they crowd together. Long patterns are cut at
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
(fingerprints.PatternFps). A pattern of length at most tau needs no cut:
an occurrence of it that spans a border ends at most tau - 1 past the
first border it holds, so it ends where a relevant substring that holds it
ends. Its reversal is walked down the trie of reversed relevant substrings
symbol by symbol, reading the text off the grammar, and the border grid's
points in the locus's rank range, in x order, give each such item's end
and border; the occurrence ending there is primary when it starts at or
before that border. Extraction and both checks run on the balanced grammar
built from the parse, so the reversed side has no grammar of its own.

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

The build makes one suffix array with its ranks, for the parse alone, and
drops both once the parse is made. The file stores only the header with a
CRC-32 of the file, the phrase count z before capping, tau, the seed and
the base r, and the capped parse; the constructor takes exactly those with
the text: the build passes the text it was given, loading decodes it from
the checked parse. n, sigma and the block length follow from the parse and
z. From them the constructor derives the rest in one order: the relevant
substrings, as arrays of starts, ends and borders computed from the phrase
spans; the suffix trie's string order, by sorting the suffixes that follow
them (sort_suffixes); the lcps of its adjacent strings, about z·tau of
them, by comparing the two suffixes (pair_lcps), so no n-length LCP array
is made; the two tries over the relevant substrings; the dictionaries keyed
on them, whose values come from one numpy prefix table over the text; the
grammar (build_slp); the border grid; and the phrase sources. The function
keys only the dictionaries, and the caller says how they are made: the
build passes prefix_search.build, which certifies both, and retries the
constructor with the next seed's function when one collides, so nothing
past the dictionaries is made for a function that fails; loading passes
prefix_search.derive and does not certify them again, since the build
certified this r on this text. The derivations are numpy passes over
arrays of the items and make no Python container per item, vertex or grid
point, nor any Python object per symbol of a string they sort: the text
and its reversal are each encoded once as fixed-width big-endian bytes
(trie.encode, the width the least that holds sigma), each suffix's window
and each reversed relevant substring is a bytes slice of one of them, so
sorting them is a memcmp sort, and the adjacent lcps come from one
pair_lcps call on each text. The
tries keep flat per-vertex int lists and one int-keyed dict of edges, the
grid one flat list for all its levels, so what loading leaves for the
garbage collector to walk does not grow with the index.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import fingerprints as fp
from . import lz77, prefix_search, trie
from ._io import Reader, Writer
from ._suffixes import SuffixContext, pair_lcps, sort_suffixes
from ._text import to_symbols
from .grammar import build_slp
from .range_report import Grid, SourceIndex
from .trie import CompactTrie

MAGIC = b"LZXIDX9\n"
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
        self, *, orig_z: int, tau: int, seed: int, r: int,
        capped: lz77.Lz77Parse, arr: np.ndarray, make_dictionary,
    ):
        """The index from what its file stores: the header fields, the
        fingerprint base r and the capped parse. Everything else is derived
        from those and the text arr, which construction may read directly
        (queries go through the grammar instead): n and sigma are the
        parse's, the block length is n / orig_z rounded up, and the suffix
        trie's string order is the sorted order of the suffixes after the
        relevant substrings (sort_suffixes).
        make_dictionary is prefix_search.build, which certifies each
        dictionary and raises FingerprintCollision, or prefix_search.derive,
        which trusts r."""
        self.n = n = capped.n
        self.sigma = capped.alphabet_size
        self.orig_z = orig_z
        self.tau = tau
        self.block_len = block_len = -(-n // orig_z)
        self.seed = seed
        self.r = r
        self.capped = capped
        self.last_stats: dict = {}

        starts, ends, borders = _relevant_substrings(capped, tau, n)
        order = np.array(sort_suffixes(arr, ends), dtype=np.int64)
        self.t_d, self.t_dp, x = _tries(starts, ends, arr, trie.key_width(self.sigma), order)
        # the dictionaries are all that depends on r
        self.ps_d, self.ps_dp = _dictionaries(r, arr, self.t_d, self.t_dp, make_dictionary)
        # the rest is made only now, so it is not resident while the
        # certification and the prefix table peak
        self.bt = build_slp(capped, block_len)
        # the grid joining both tries: one point per relevant substring, at
        # the t_d rank of its reversal and the t_dp rank of its suffix, with
        # its end and border
        self.grid_r = Grid(x[order], ends[order], borders[order])
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

        orig = lz77.parse(arr, SuffixContext(arr))
        tau = cfg.tau if cfg.tau is not None else default_tau(n, orig.z)
        if tau < 1:
            raise ValueError("tau must be >= 1")
        capped = lz77.cap_phrases(orig, -(-n // orig.z), arr)

        for attempt in range(_MAX_FN_ATTEMPTS):
            try:
                return cls(orig_z=orig.z, tau=tau, seed=cfg.seed,
                           r=fp.select_function(cfg.seed * 1009 + attempt), capped=capped,
                           arr=arr, make_dictionary=prefix_search.build)
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
        if m > self.n or not self._in_alphabet(p):
            return []
        identified = self.last_stats["identified"]
        if m <= self.tau:
            prim = self._primary_short(p, identified)
        else:
            prim = self._primary_long(p, identified)
        if not prim:
            return []
        # expand lists each copy once and no primary, so one sort suffices;
        # the secondaries are kept as it found them, a list or an int64 array
        sec = self.sources.expand(prim, m)
        self.last_stats["primary"] = prim = sorted(prim)
        self.last_stats["secondary"] = sec
        if isinstance(sec, list):
            out = sec + prim
            out.sort()
            return out
        out = np.concatenate((sec, prim))
        out.sort()
        return out.tolist()

    def extract(self, i: int, j: int) -> list[int]:
        """text[i, j], 1-based inclusive."""
        return self.bt.extract(i, j)

    def _in_alphabet(self, p: tuple) -> bool:
        """Whether every symbol of the nonempty pattern p is in [1, sigma]."""
        return min(p) >= 1 and max(p) <= self.sigma

    def _primary_short(self, p: tuple, identified: dict) -> dict[int, int]:
        # an occurrence at o that spans a border ends within tau - 1 of the
        # first border at or after o, so it ends where a relevant substring
        # that holds it ends, and that item's border is the rightmost at or
        # before the end; each end has one item, so o is found once
        extract = self.bt.extract
        v = self.t_d.locus_by_walk(p[::-1], lambda e, q: extract(e - q + 1, e - q + 1)[0])
        if v is None:
            return {}
        m = len(p)
        out: dict[int, int] = {}
        for end, border in self.grid_r.column(*self.t_d.leaf_range(v)):
            o = end - m + 1
            if o <= border:  # the occurrence spans the border
                out[o] = border
        identified.update(dict.fromkeys(out, 1))
        return out

    def _primary_long(self, p: tuple, identified: dict) -> dict[int, int]:
        m = len(p)
        tau = self.tau
        tab = fp.PatternFps(self.r, p)
        value, reversed_value = tab.value, tab.reversed_value
        symbols = list(p)

        i_max = min(m // tau, -(-self.block_len // tau))
        ks = [i * tau for i in range(1, i_max + 1)]
        # catches occurrences whose border sits in the tail; no t_d string
        # is longer than block_len + tau - 1, so a longer prefix side fails
        if m % tau and m < self.block_len + tau:
            ks.append(m)

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
            for j, b in self.grid_r.query(l1, r1, l2, r2):
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
        for v in (self.orig_z, self.tau, self.seed, self.r):
            w.u(v)
        fields = bytes(w.buf)

        w = Writer()
        w.u(len(self.capped.phrases))
        for ph in self.capped.phrases:
            w.u(ph.start)
            w.u(ph.len)
            w.u(ph.border)
        parse = bytes(w.buf)

        sections = [
            ("header", MAGIC + bytes(4) + fields), ("parse", parse), ("grammar", b""),
            ("reverse_grammar", b""), ("substring_trie", b""),
            ("suffix_trie", b""), ("short_trie", b""),
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
        orig_z, tau, seed, base = (r.u() for _ in range(4))
        if tau < 1 or not 1 <= base < fp.P:
            raise ValueError("corrupt index")
        phrases = tuple(lz77.Phrase(r.u(), r.u(), r.u()) for _ in range(r.u()))
        # capping splits phrases, never joins them
        if not 1 <= orig_z <= len(phrases) or r.pos != len(data):
            raise ValueError("corrupt index")
        capped = _check_parse(phrases, orig_z)
        # the build certified this function on this text, so its dictionary
        # values need no second check
        return cls(orig_z=orig_z, tau=tau, seed=seed, r=base, capped=capped,
                   arr=to_symbols(lz77.decompress(capped)), make_dictionary=prefix_search.derive)

    @classmethod
    def load(cls, path) -> "Index":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def _relevant_substrings(capped: lz77.Lz77Parse, tau: int, n: int):
    """For each phrase border e, the strings ending at e..e+tau-1 that start
    at the phrase start, deduplicated by end position keeping the longest
    (smallest start); as int64 arrays of their starts, their ends and the
    rightmost border <= each end, by end.

    Each phrase reaches the ends from its border to tau - 1 past it, and an
    end keeps the first phrase that reaches it, whose start is the smallest.
    Those reaches only move right, so a phrase keeps the ends past the
    previous one's reach. A tau past n gives the same strings, so it is cut
    to n first: a stored tau may not fit in int64."""
    borders = np.array(capped.border_positions(), dtype=np.int64)
    reach = np.minimum(borders + min(tau, n) - 1, n)
    first = np.maximum(borders, np.concatenate(([0], reach[:-1])) + 1)
    count = reach - first + 1
    # phrase i's ends run first[i], first[i] + 1, ..., reach[i]
    ends = np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)
    starts = np.repeat(np.concatenate(([1], borders[:-1] + 1)), count)
    return starts, ends, borders[np.searchsorted(borders, ends, "right") - 1]


def _phrase_sources(capped: lz77.Lz77Parse) -> list[tuple[int, int, int]]:
    """(start, end, phrase position) of every nonempty phrase source."""
    out = []
    pos = 1
    for ph in capped.phrases:
        if ph.len > 0:
            out.append((ph.start, ph.start + ph.len - 1, pos))
        pos += ph.span()
    return out


def _check_parse(phrases, orig_z: int) -> lz77.Lz77Parse:
    """The capped parse of the stored phrases, which must copy only from
    earlier, end in a symbol >= 1 and fit a block, whose length is the
    text's over orig_z rounded up, and be no more phrases than capping
    orig_z phrases can make: spans s_i summing to n split into at most
    sum ceil(s_i / B) <= (n + orig_z (B - 1)) / B pieces of a block B. The
    build reads symbols as int64, and its fingerprints read them mod p, so
    it certifies no function for a text with two symbols alike mod p."""
    capped = lz77.Lz77Parse(phrases)
    block_len = -(-capped.n // orig_z)
    if capped.z > (capped.n + orig_z * (block_len - 1)) // block_len:
        raise ValueError("corrupt index")
    pos = 1
    for ph in phrases:
        # a phrase without a source stores start 0
        if not (1 <= ph.start < pos if ph.len > 0 else ph.start == 0):
            raise ValueError("corrupt index")
        if ph.border < 1 or ph.span() > block_len:
            raise ValueError("corrupt index")
        pos += ph.span()
    symbols = {ph.border for ph in phrases}
    if capped.alphabet_size >= 1 << 63 or len({s % fp.P for s in symbols}) < len(symbols):
        raise ValueError("corrupt index")
    return capped


def _checksum(data) -> int:
    """CRC-32 of an index file's bytes, all but the checksum's own four."""
    view = memoryview(data)
    return zlib.crc32(view[_CRC_AT + 4 :], zlib.crc32(view[:_CRC_AT]))


def _tries(starts: np.ndarray, ends: np.ndarray, arr: np.ndarray, width: int,
           order: np.ndarray) -> tuple[CompactTrie, CompactTrie, np.ndarray]:
    """The tries the dictionaries are keyed on, from the relevant substrings'
    starts and ends, the text, the byte key width and the sorted order of
    the suffixes after the items (an item index per rank): the trie over the
    reversed relevant substrings, each vertex's sample the end of an item it
    spells, and the trie over the suffixes that follow them, each vertex's
    sample the start of one; and each item's rank in the first. Neither
    depends on the fingerprint function."""
    n = len(arr)
    # 0-based starts of the suffixes, and the lcp of each adjacent pair
    after = ends[order]
    lcps = pair_lcps(arr, after[:-1], after[1:])

    # the reversed relevant substrings, sorted as byte keys: each is a slice
    # of the reversed text's encoding, item (s, e) its 0-based
    # [n - e, n + 1 - s); their adjacent lcps are those of the reversed
    # text's suffixes at n - e, cut at the shorter string, and equal strings
    # share a rank
    rtext = trie.encode(arr[::-1], width)
    keys = [rtext[a:b] for a, b in zip(((n - ends) * width).tolist(),
                                       ((n + 1 - starts) * width).tolist())]
    by_key = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)
    del keys
    lens = (ends - starts + 1)[by_key]
    rstarts = n - ends[by_key]
    key_lcps = pair_lcps(arr[::-1], rstarts[:-1], rstarts[1:], np.minimum(lens[:-1], lens[1:]))
    new = np.ones(len(by_key), dtype=bool)
    new[1:] = (key_lcps < lens[1:]) | (lens[:-1] != lens[1:])
    x = np.empty(len(by_key), dtype=np.int64)
    x[by_key] = np.cumsum(new)
    t_d = trie.build_from_sorted(ends[by_key[new]].tolist(), lens[new].tolist(),
                                 np.concatenate(([0], key_lcps))[new].tolist())
    # depth q of a string read backwards from end e is arr[e - q]
    trie.finalize(t_d, lambda ends, q: arr[ends - q])

    # trie over the suffixes that follow them, assembled in suffix array
    # order so the suffixes never have to be materialized
    t_dp = trie.build_from_sorted((after + 1).tolist(), (n - after).tolist(),
                                  [0, *lcps.tolist()])
    trie.finalize(t_dp, lambda starts, q: arr[starts + q - 2])
    return t_d, t_dp, x


def _dictionaries(r: int, arr: np.ndarray, t_d: CompactTrie, t_dp: CompactTrie,
                  make_dictionary) -> tuple:
    """make_dictionary(trie, prefix_values) for t_d and for t_dp, the
    values read off one prefix table over the text. A t_d vertex spells the
    text backwards from the end in its sample, a t_dp vertex forwards from
    the start in its sample."""
    table = fp.PrefixFpTable(r, arr)
    ends = np.array(t_d.sample, dtype=np.int64)
    starts = np.array(t_dp.sample, dtype=np.int64)
    return (
        make_dictionary(t_d, lambda v, l: table.reversed_values(ends[v] - l, l)),
        make_dictionary(t_dp, lambda v, l: table.values(starts[v] - 1, l)),
    )
