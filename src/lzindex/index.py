"""The compressed self-index: build, locate, extract, save and load.

The index stores a capped LZ77 parse of the text and answers locate(P) by
finding the primary occurrences (those spanning a phrase border) and then
recursively mapping phrase sources onto copies for the secondary ones. Long
patterns are cut at multiples of tau and each cut is matched as a (reversed
prefix, suffix) pair: a weak prefix search in two tries narrows both sides to
leaf rank ranges, a 2-d range query reports the border positions where they
meet, and a fingerprint verification pass removes the false positives weak
search may produce. Patterns of length at most tau instead walk a trie of
the short strings around each border. Extraction runs on the balanced
grammar built from the parse; the same grammar gives the fingerprints of
text substrings and of their reversals, so the reversed side has no grammar
of its own. The build makes one suffix array, for the parse and the suffix
trie. The file stores the grammar's structure only, and loading derives
every node's fingerprints from its children.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from . import fingerprints as fp
from . import lz77, prefix_search, trie
from ._io import Reader, Writer
from ._suffixes import SuffixContext
from ._text import to_symbols
from .grammar import BlockTable, _Arena, build_slp
from .range_report import Grid
from .trie import CompactTrie

MAGIC = b"LZXIDX2\n"
_MAX_FN_ATTEMPTS = 8
_POW2_CERT_LIMIT = 1 << 16
# above this text length the per-length prefix certification is skipped and
# the p = Theta(n^5) union bound carries the collision-freeness guarantee
_PREFIX_CERT_LIMIT = 1 << 12


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
    strings or sequences of integer symbols >= 1.
    """

    def __init__(
        self,
        *,
        n: int,
        sigma: int,
        orig_z: int,
        tau: int,
        x: int,
        block_len: int,
        seed: int,
        pow2_certified: bool,
        prefix_certified: bool,
        fn: fp.FpFunction,
        capped: lz77.Lz77Parse,
        bt: BlockTable,
        t_d: CompactTrie,
        rd_pos: list[int],
        ps_d: prefix_search.PrefixSearchStructure,
        t_dp: CompactTrie,
        ps_dp: prefix_search.PrefixSearchStructure,
        grid_r: Grid,
        grid_q: Grid,
        t_f: CompactTrie,
        f_strings: list[tuple[int, ...]],
        f_info: list[tuple[int, int]],
    ):
        self.n = n
        self.sigma = sigma
        self.orig_z = orig_z
        self.tau = tau
        self.x = x
        self.block_len = block_len
        self.seed = seed
        self.pow2_certified = pow2_certified
        self.prefix_certified = prefix_certified
        self.fn = fn
        self.capped = capped
        self.bt = bt
        self.t_d = t_d
        self.rd_pos = rd_pos
        self.ps_d = ps_d
        self.t_dp = t_dp
        self.ps_dp = ps_dp
        self.grid_r = grid_r
        self.grid_q = grid_q
        self.t_f = t_f
        self.f_strings = f_strings
        self.f_info = f_info
        self.last_stats: dict = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, text, config: IndexConfig | None = None) -> "Index":
        cfg = config or IndexConfig()
        arr = to_symbols(text)
        n = len(arr)
        if n == 0:
            raise ValueError("empty text")
        if int(arr.min()) < 1:
            raise ValueError("symbols must be >= 1")
        sigma = int(arr.max())

        ctx = SuffixContext(arr)
        orig = lz77.parse(arr, ctx)
        block_len = -(-n // orig.z)
        tau = cfg.tau if cfg.tau is not None else default_tau(n, orig.z)
        if tau < 1:
            raise ValueError("tau must be >= 1")
        capped = lz77.cap_phrases(orig, block_len)

        for attempt in range(_MAX_FN_ATTEMPTS):
            fn = fp.select_function(n, cfg.seed * 1009 + attempt)
            try:
                return cls._assemble(
                    arr, n, sigma, orig.z, tau, block_len, capped, ctx, fn, cfg.seed,
                )
            except prefix_search.FingerprintCollision:
                continue
        raise RuntimeError("cannot certify a collision-free fingerprint function")

    @classmethod
    def _assemble(cls, arr, n, sigma, orig_z, tau, block_len, capped, ctx, fn,
                  seed) -> "Index":
        x = block_len
        # the build reads the reversed text to certify reversal fingerprints
        # and for its own prefix table; the index keeps no reversed copy
        rev_arr = arr[::-1].copy()
        prefix_certified = n <= _PREFIX_CERT_LIMIT
        pow2_certified = n <= _POW2_CERT_LIMIT
        if pow2_certified:
            if not fp.verify_pow2_collision_free(fn, arr):
                raise prefix_search.FingerprintCollision("text")
            if not fp.verify_pow2_collision_free(fn, rev_arr):
                raise prefix_search.FingerprintCollision("reversed text")

        bt = build_slp(capped, fn, block_len)
        term_fp = fp.fingerprint(fn, [sigma + 1])
        # construction may read the text directly; queries go through the
        # grammar instead
        symbols = arr.tolist()

        # relevant substrings: for each phrase border e, the strings ending
        # at e..e+tau-1 that start at the phrase start; dedup by end position
        # keeping the longest (smallest start).
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
        items = []  # (start, end, rightmost border <= end)
        for end in sorted(best):
            b = borders[bisect_right(borders, end) - 1]
            items.append((best[end], end, b))

        # trie over the reversed relevant substrings
        rd_strings = [tuple(reversed(symbols[s - 1 : e])) for s, e, _ in items]
        t_d, d_distinct = trie.build(rd_strings, ids=range(len(items)))
        rd_pos = [0] * len(d_distinct)
        first_pos = {}
        for idx, (s, e, _) in enumerate(items):
            first_pos.setdefault(rd_strings[idx], n - e + 1)
        for sid, key in enumerate(d_distinct):
            rd_pos[sid] = first_pos[key]

        # each prefix table lives only while its dictionaries are built:
        # one value and one inverse power per text position
        rtab = fp.PrefixFpTable(fn, rev_arr)

        def d_prefix_fp(v: int, l: int) -> int:
            p0 = rd_pos[t_d.sample[v]]
            if t_d.is_leaf(v) and l == t_d.strlen[v]:
                return fp.compose(rtab.substring_fp(p0, p0 + l - 2), term_fp).value
            return rtab.substring_value(p0, p0 + l - 1)

        def d_char(sid: int, q: int) -> int:
            return symbols[n + 1 - rd_pos[sid] - q]

        ps_d = prefix_search.build(t_d, x, fn, d_prefix_fp, d_char, certify=prefix_certified)
        del rtab

        # trie over the associated suffixes, assembled in suffix array order
        # so the suffixes never have to be materialized
        starts = [e + 1 for _, e, _ in items]  # distinct since ends are
        item_of = {e + 1: idx for idx, (_, e, _) in enumerate(items)}
        starts.sort(key=lambda st: -1 if st > n else int(ctx.rank[st - 1]))
        lcps = [0] * len(starts)
        for i in range(1, len(starts)):
            a, b = starts[i - 1], starts[i]
            lcps[i] = 0 if a > n or b > n else ctx.lcp_between(a - 1, b - 1)
        t_dp = trie.build_from_sorted(
            starts, [n - st + 1 for st in starts], lcps,
            [[item_of[st]] for st in starts],
        )

        def dp_char(start: int, q: int) -> int:
            return symbols[start + q - 2]

        trie.finalize(t_dp, dp_char)

        ptab = fp.PrefixFpTable(fn, arr)

        def dp_prefix_fp(v: int, l: int) -> int:
            p0 = t_dp.sample[v]
            if t_dp.is_leaf(v) and l == t_dp.strlen[v]:
                return fp.compose(ptab.substring_fp(p0, p0 + l - 2), term_fp).value
            return ptab.substring_value(p0, p0 + l - 1)

        ps_dp = prefix_search.build(t_dp, x, fn, dp_prefix_fp, dp_char, certify=prefix_certified)
        del ptab

        # the grid joining both tries: one point per relevant substring
        xr = [0] * len(items)
        for rank in range(1, t_d.num_leaves + 1):
            for idx in t_d.leaf_ids[rank]:
                xr[idx] = rank
        yr = [0] * len(items)
        for rank in range(1, t_dp.num_leaves + 1):
            for idx in t_dp.leaf_ids[rank]:
                yr[idx] = rank
        grid_r = Grid(
            (xr[idx], yr[idx], (e, b)) for idx, (_, e, b) in enumerate(items)
        )

        # phrase sources for the secondary occurrence expansion
        q_points = []
        pos = 1
        for ph in capped.phrases:
            if ph.len > 0:
                q_points.append((ph.start, ph.start + ph.len - 1, (ph.start, pos)))
            pos += ph.span()
        grid_q = Grid(q_points)

        # short pattern trie: all strings from at most tau before a border
        # up to tau - 1 past it, tagged with their start and that border
        f_info: list[tuple[int, int]] = []
        f_raw = []
        pos = 1
        for ph in capped.phrases:
            e = pos + ph.span() - 1
            hi = min(e + tau - 1, n)
            for k in range(max(pos, e - tau + 1), e + 1):
                f_info.append((k, e))
                f_raw.append(tuple(symbols[k - 1 : hi]))
            pos = e + 1
        t_f, f_strings = trie.build(f_raw, ids=range(len(f_info)))

        return cls(
            n=n, sigma=sigma, orig_z=orig_z, tau=tau, x=x, block_len=block_len,
            seed=seed, pow2_certified=pow2_certified,
            prefix_certified=prefix_certified, fn=fn, capped=capped,
            bt=bt, t_d=t_d, rd_pos=rd_pos, ps_d=ps_d,
            t_dp=t_dp, ps_dp=ps_dp, grid_r=grid_r, grid_q=grid_q,
            t_f=t_f, f_strings=f_strings, f_info=f_info,
        )

    # -- queries -------------------------------------------------------------

    @staticmethod
    def _coerce(pattern) -> tuple:
        if isinstance(pattern, (bytes, bytearray)):
            return tuple(pattern)
        return tuple(to_symbols(pattern).tolist())

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
            prim = set(self._primary_short(p, identified))
        else:
            prim = set(self._primary_long(p, identified))
        sec = self._secondary(prim, m)
        self.last_stats["primary"] = sorted(prim)
        self.last_stats["secondary"] = sorted(sec)
        return sorted(prim | set(sec))

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
        return sorted(self._secondary(set(primaries), m))

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
        tab = fp.PrefixFpTable(self.fn, longest)
        verified: set = set()
        self._verify_side(
            [{"v": v, "qlen": len(s), "key": (s, v)} for s, v in cands],
            self.t_dp,
            node_fp=self._node_fp_dp,
            q_fp=lambda c, a, b: tab.substring_fp(ln - c["qlen"] + a, ln - c["qlen"] + b).value,
            node_extract=self._node_extract_dp,
            q_tail=lambda c: longest[ln - c["qlen"]:],
            verified=verified,
        )
        return [c for c in cands if c in verified]

    def extract(self, i: int, j: int) -> list[int]:
        """text[i, j], 1-based inclusive."""
        return self.bt.extract(i, j)

    def _primary_short(self, p: tuple, identified: dict) -> dict[int, int]:
        t = self.t_f

        def f_char(sid: int, q: int) -> int:
            return self.f_strings[sid][q - 1]

        locus = t.locus_by_walk(p, f_char)
        if locus is None:
            return {}
        m = len(p)
        out: dict[int, int] = {}
        lo, hi = t.leaf_range(locus)
        for rank in range(lo, hi + 1):
            for fid in t.leaf_ids[rank]:
                k, border = self.f_info[fid]
                if border <= k + m - 1:  # the occurrence spans the border
                    identified[k] = identified.get(k, 0) + 1
                    out[k] = border
        return out

    def _primary_long(self, p: tuple, identified: dict) -> dict[int, int]:
        m = len(p)
        tau = self.tau
        rp = tuple(reversed(p))
        ptab = fp.PrefixFpTable(self.fn, p)
        rtab = fp.PrefixFpTable(self.fn, rp)

        i_max = min(m // tau, -(-self.block_len // tau))
        ks = [i * tau for i in range(1, i_max + 1)]
        if m % tau:
            ks.append(m)  # catches occurrences whose border sits in the tail

        d_res: dict[int, tuple] = {}
        dp_res: dict[int, tuple] = {}
        for k in ks:
            # left side: the reversed length-k prefix against the reversed
            # relevant substrings
            def rfp(a, b, k=k):
                return rtab.substring_fp(m - k + a, m - k + b).value

            def rsym(q, k=k):
                return rp[m - k + q - 1]

            res = prefix_search.weak_search(self.ps_d, k, rfp, rsym)
            if res is None:
                continue
            d_res[k] = res
            if k < m:
                # right side: the remaining suffix against the suffixes that
                # follow each relevant substring
                def qfp(a, b, k=k):
                    return ptab.substring_fp(k + a, k + b).value

                def qsym(q, k=k):
                    return p[k + q - 1]

                res2 = prefix_search.weak_search(self.ps_dp, m - k, qfp, qsym)
                if res2 is None:
                    del d_res[k]
                    continue
                dp_res[k] = res2

        ver_d: set[int] = set()
        self._verify_side(
            [{"v": d_res[k][0], "qlen": k, "key": k} for k in sorted(d_res)],
            self.t_d,
            node_fp=self._node_fp_d,
            q_fp=lambda c, a, b: rtab.substring_fp(m - c["qlen"] + a, m - c["qlen"] + b).value,
            node_extract=self._node_extract_d,
            q_tail=lambda c: rp[m - c["qlen"] :],
            verified=ver_d,
        )
        ver_dp: set[int] = set()
        self._verify_side(
            [{"v": dp_res[k][0], "qlen": m - k, "key": k}
             for k in sorted(dp_res, reverse=True) if k < m],
            self.t_dp,
            node_fp=self._node_fp_dp,
            q_fp=lambda c, a, b: ptab.substring_fp(m - c["qlen"] + a, m - c["qlen"] + b).value,
            node_extract=self._node_extract_dp,
            q_tail=lambda c: p[m - c["qlen"] :],
            verified=ver_dp,
        )

        out: dict[int, int] = {}
        for k in ks:
            if k not in d_res or k not in ver_d:
                continue
            _, l1, r1 = d_res[k]
            if k == m:
                # whole-pattern cut: the suffix side is empty, match any
                pts = self.grid_r.query(l1, r1, 1, self.t_dp.num_leaves)
                for j, b in pts:
                    o = j - m + 1
                    identified[o] = identified.get(o, 0) + 1
                    if m % tau:
                        # only report what no shorter cut already reports
                        kk = (b - j + m) // tau + 1  # smallest kk with j - m + kk*tau > b
                        if kk * tau > m:
                            out.setdefault(o, b)
                    else:
                        out.setdefault(o, b)
            else:
                if k not in dp_res or k not in ver_dp:
                    continue
                _, l2, r2 = dp_res[k]
                pts = self.grid_r.query(l1, r1, l2, r2)
                for j, b in pts:
                    o = j - k + 1
                    identified[o] = identified.get(o, 0) + 1
                    out.setdefault(o, b)
        return out

    def _verify_side(self, cands, t: CompactTrie, node_fp, q_fp, node_extract,
                     q_tail, verified: set) -> None:
        """Filter weak search results down to the true loci.

        cands come sorted by ascending query length and each query is a
        suffix of every longer one. A candidate survives if its own prefix
        and suffix fingerprints match the query and if it chains to the
        previous survivor: the fingerprints certify that each survivor's
        string is a suffix of the next one's, so one real comparison at the
        longest survivor settles them all.
        """
        kept = []
        for c in cands:
            v, ln = c["v"], c["qlen"]
            if t.usable_len(v) < ln:
                continue
            h = 1 << (ln.bit_length() - 1)
            if node_fp(v, ln - h + 1, ln) != q_fp(c, ln - h + 1, ln):
                continue
            if node_fp(v, 1, h) != q_fp(c, 1, h):
                continue
            if kept:
                a = kept[-1]
                la = a["qlen"]
                ha = 1 << (la.bit_length() - 1)
                if node_fp(v, ln - ha + 1, ln) != q_fp(a, la - ha + 1, la):
                    continue
                if node_fp(v, ln - la + 1, ln - la + ha) != q_fp(a, 1, ha):
                    continue
            kept.append(c)
        if not kept:
            return
        f = kept[-1]
        pf = node_extract(f["v"], f["qlen"])
        qf = list(q_tail(f))
        lcs = 0
        while lcs < len(pf) and pf[len(pf) - 1 - lcs] == qf[len(qf) - 1 - lcs]:
            lcs += 1
        for c in kept:
            if c["qlen"] <= lcs:
                verified.add(c["key"])

    # the d side reads the reversed text: reversed position q is forward
    # position n - q + 1, so reversed [q1, q2] is forward [n-q2+1, n-q1+1]
    # read backwards

    def _node_fp_d(self, v: int, a: int, b: int) -> int:
        e = self.n + 2 - self.rd_pos[self.t_d.sample[v]]
        return self.bt.reversed_fp(e - b, e - a).value

    def _node_extract_d(self, v: int, ln: int) -> list[int]:
        e = self.n + 1 - self.rd_pos[self.t_d.sample[v]]
        return self.bt.extract(e - ln + 1, e)[::-1]

    def _node_fp_dp(self, v: int, a: int, b: int) -> int:
        p0 = self.t_dp.sample[v]
        return self.bt.substring_fp(p0 + a - 1, p0 + b - 1).value

    def _node_extract_dp(self, v: int, ln: int) -> list[int]:
        p0 = self.t_dp.sample[v]
        return self.bt.extract(p0, p0 + ln - 1)

    def _secondary(self, found: set[int], m: int) -> list[int]:
        """Expand every known occurrence through the phrase sources that
        cover it; each copy is produced by exactly one source."""
        out = []
        seen = set(found)
        queue = list(found)
        while queue:
            o = queue.pop()
            for src, phrase_pos in self.grid_q.query(1, o, o + m - 1, self.n):
                o2 = phrase_pos + o - src
                if o2 in seen:
                    continue
                seen.add(o2)
                out.append(o2)
                queue.append(o2)
        return out

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        return {
            "n": self.n,
            "alphabet_size": self.sigma,
            "phrases": self.orig_z,
            "capped_phrases": self.capped.z,
            "tau": self.tau,
            "x": self.x,
            "block_len": self.block_len,
            "seed": self.seed,
            "pow2_certified": self.pow2_certified,
            "prefix_certified": self.prefix_certified,
            "grammar_nodes": self.bt.node_count,
            "grammar_height": max(self.bt.block_heights(), default=0),
            "trie_d_vertices": self.t_d.num_vertices,
            "trie_suffix_vertices": self.t_dp.num_vertices,
            "trie_short_vertices": self.t_f.num_vertices,
            "grid_points": self.grid_r.size,
            "source_points": self.grid_q.size,
        }

    # -- serialization -------------------------------------------------------

    def _sections(self) -> list[tuple[str, bytes]]:
        """The serialized index as named (component, bytes) sections, in file
        order; to_bytes is their concatenation."""
        out: list[tuple[str, bytes]] = []

        w = Writer()
        w.raw(MAGIC)
        for v in (self.n, self.sigma, self.orig_z, self.tau, self.x,
                  self.block_len, self.seed, int(self.pow2_certified),
                  int(self.prefix_certified)):
            w.u(v)
        w.u(self.fn.p)
        w.u(self.fn.r)
        out.append(("header", bytes(w.buf)))

        w = Writer()
        w.u(len(self.capped.phrases))
        for ph in self.capped.phrases:
            w.u(ph.start)
            w.u(ph.len)
            w.u(ph.border)
        out.append(("parse", bytes(w.buf)))

        w = Writer()
        _write_grammar(w, self.bt)
        out.append(("grammar", bytes(w.buf)))

        # empty: the grammar above serves the reversed side too; the section
        # stays so that size reports keep listing it
        out.append(("reverse_grammar", b""))

        w = Writer()
        _write_trie(w, self.t_d)
        w.seq(self.rd_pos)
        out.append(("substring_trie", bytes(w.buf)))

        w = Writer()
        _write_trie(w, self.t_dp)
        out.append(("suffix_trie", bytes(w.buf)))

        w = Writer()
        _write_trie(w, self.t_f)
        w.u(len(self.f_strings))
        for s in self.f_strings:
            w.seq(s)
        w.u(len(self.f_info))
        for k, b in self.f_info:
            w.u(k)
            w.u(b)
        out.append(("short_trie", bytes(w.buf)))

        w = Writer()
        for ps in (self.ps_d, self.ps_dp):
            for table in (ps.G, ps.H):
                w.u(len(table))
                for (value, length), v in table.items():
                    w.u(value)
                    w.u(length)
                    w.u(v)
        out.append(("dictionaries", bytes(w.buf)))

        w = Writer()
        for grid in (self.grid_r, self.grid_q):
            pts = grid.points()
            w.u(len(pts))
            for gx, gy, (pa, pb) in pts:
                w.u(gx)
                w.u(gy)
                w.u(pa)
                w.u(pb)
        out.append(("grids", bytes(w.buf)))
        return out

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
        (n, sigma, orig_z, tau, x, block_len, seed,
         pow2_cert, prefix_cert) = (r.u() for _ in range(9))
        fn = fp.FpFunction(r.u(), r.u())
        phrases = tuple(lz77.Phrase(r.u(), r.u(), r.u()) for _ in range(r.u()))
        capped = lz77.Lz77Parse(phrases, n, len(phrases), sigma)
        bt = _read_grammar(r, fn)
        t_d = _read_trie(r)
        rd_pos = r.seq()
        t_dp = _read_trie(r)
        t_f = _read_trie(r)
        f_strings = [tuple(r.seq()) for _ in range(r.u())]
        f_info = [(r.u(), r.u()) for _ in range(r.u())]
        tables = []
        for _ in range(4):
            tables.append({(r.u(), r.u()): r.u() for _ in range(r.u())})
        grids = []
        for _ in range(2):
            grids.append(Grid(
                (r.u(), r.u(), (r.u(), r.u())) for _ in range(r.u())
            ))

        def d_char(sid: int, q: int) -> int:
            pos = n + 2 - rd_pos[sid] - q
            return bt.extract(pos, pos)[0]

        def dp_char(start: int, q: int) -> int:
            return bt.extract(start + q - 1, start + q - 1)[0]

        def f_char(sid: int, q: int) -> int:
            return f_strings[sid][q - 1]

        trie.finalize(t_d, d_char)
        trie.finalize(t_dp, dp_char)
        trie.finalize(t_f, f_char)
        ps_d = prefix_search.PrefixSearchStructure(t_d, tables[0], tables[1], x, fn)
        ps_dp = prefix_search.PrefixSearchStructure(t_dp, tables[2], tables[3], x, fn)
        return cls(
            n=n, sigma=sigma, orig_z=orig_z, tau=tau, x=x, block_len=block_len,
            seed=seed, pow2_certified=bool(pow2_cert),
            prefix_certified=bool(prefix_cert), fn=fn, capped=capped,
            bt=bt, t_d=t_d, rd_pos=rd_pos, ps_d=ps_d,
            t_dp=t_dp, ps_dp=ps_dp, grid_r=grids[0], grid_q=grids[1],
            t_f=t_f, f_strings=f_strings, f_info=f_info,
        )

    @classmethod
    def load(cls, path) -> "Index":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def _write_grammar(w: Writer, bt: BlockTable) -> None:
    """Structure only: a terminal as (0, symbol), a pair as (left + 1, right)."""
    ar = bt.arena
    w.u(bt.n)
    w.u(bt.block_len)
    w.u(len(ar.sym))
    for i in range(len(ar.sym)):
        if ar.sym[i] >= 0:
            w.u(0)
            w.u(ar.sym[i])
        else:
            w.u(ar.left[i] + 1)
            w.u(ar.right[i])
    w.seq(bt.roots)


def _read_grammar(r: Reader, fn: fp.FpFunction) -> BlockTable:
    """Rebuild the grammar, deriving every node's lengths and fingerprints
    from its children in one bottom-up pass."""
    n = r.u()
    block_len = r.u()
    count = r.u()
    ar = _Arena(fn)
    for i in range(count):
        a = r.u()
        if a == 0:
            sym = r.u()
            ar._push(sym, -1, -1)
            ar._terminals.setdefault(sym, i)
        else:
            b = r.u()
            if a > i or b >= i:  # children come before their parent
                raise ValueError("corrupt index")
            ar._push(-1, a - 1, b)
    roots = r.seq()
    if any(v >= count for v in roots):
        raise ValueError("corrupt index")
    return BlockTable(ar, n, block_len, roots)


def _write_trie(w: Writer, t: CompactTrie) -> None:
    w.u(t.num_vertices)
    for v in range(1, t.num_vertices):
        w.u(t.parent[v])
        w.u(t.strlen[v])
        w.u(t.sample[v] + 1)
        w.u(t.leaf_rank[v])
    w.u(t.num_leaves)
    for rank in range(1, t.num_leaves + 1):
        w.u(t.real_len[rank])
        w.seq(t.leaf_ids[rank])


def _read_trie(r: Reader) -> CompactTrie:
    t = CompactTrie()
    count = r.u()
    for v in range(1, count):
        t._new_vertex(r.u(), r.u())
        t.sample[v] = r.u() - 1
        t.leaf_rank[v] = r.u()
    for _ in range(r.u()):
        t.real_len.append(r.u())
        t.leaf_ids.append(r.seq())
    return t


def build(text, config: IndexConfig | None = None) -> Index:
    return Index.build(text, config)


def locate(idx: Index, pattern) -> list[int]:
    return idx.locate(pattern)


def locate_long_primary(idx: Index, pattern) -> list[tuple[int, int]]:
    return idx.locate_long_primary(pattern)


def locate_short_primary(idx: Index, pattern) -> list[tuple[int, int]]:
    return idx.locate_short_primary(pattern)


def locate_secondary(idx: Index, primaries, m: int) -> list[int]:
    return idx.locate_secondary(primaries, m)


def verify_candidates(idx: Index, suffix_candidates) -> list[tuple[tuple, int]]:
    return idx.verify_candidates(suffix_candidates)


def extract(idx: Index, i: int, j: int) -> list[int]:
    return idx.extract(i, j)
