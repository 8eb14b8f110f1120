"""Spans and counters for the traced run, recorded from outside lzindex.

`Tracer.install` replaces functions and classes of the lzindex modules, at
the names their callers look them up by, with wrappers that record a span
(name, start, end, parent) in process CPU nanoseconds. The benchmark opens
a root span around each of its own calls to Index.build, Index.load,
Index.locate and Index.extract. A layer's self time is its span minus the
time its child spans cover; what is left in a root span is the index's own
self time. Spans are kept in memory per timed section, folded into totals
once the section's scale is known, and written out when the run ends.

The untraced run installs no wrapper.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict

import workloads

# (root span, span name) -> per-layer metric stem; the root's own self time
# is listed under the root's name
BUILD = {
    "_suffixes.SuffixContext": "suffixes.suffix_context_s",
    "lz77.parse": "lz77.parse_s",
    "lz77.cap_phrases": "lz77.cap_s",
    "fingerprints.verify_pow2_collision_free": "fingerprints.certify_s",
    "fingerprints.PrefixFpTable": "fingerprints.prefix_table_s",
    "grammar.build_slp": "grammar.build_s",
    "trie.build": "trie.build_s",
    "trie.build_from_sorted": "trie.build_s",
    "trie.finalize": "trie.build_s",
    "prefix_search.build": "prefix_search.build_s",
    "range_report.Grid": "range_report.build_s",
    "index.build": "index.build_self_s",
}
LOAD = {
    "trie.build_from_sorted": "trie.finalize_load_s",
    "trie.finalize": "trie.finalize_load_s",
    "grammar.BlockTable.extract": "grammar.extract_load_s",
    "range_report.Grid": "range_report.build_load_s",
    "index.load": "index.load_self_s",
}
QUERY = {
    "trie.CompactTrie.locus_by_walk": "trie.locus_walk_s",
    "range_report.Grid.query.source": "range_report.source_query_s",
    "range_report.Grid.query.border": "range_report.border_query_s",
    "prefix_search.weak_search": "prefix_search.weak_search_s",
    "grammar.BlockTable.substring_fp": "grammar.substring_fp_s",
    "grammar.BlockTable.extract": "grammar.extract_s",
    "fingerprints.PrefixFpTable": "fingerprints.pattern_table_s",
    "index.locate": "index.locate_self_s",
    "index.extract": "index.extract_self_s",
}
STEMS = {"index.build": BUILD, "index.load": LOAD, "index.locate": QUERY, "index.extract": QUERY}


def pow2_windows(n: int) -> int:
    """Windows the power-of-two certification reads on a text of length n."""
    total, length = 0, 1
    while length <= n:
        total += n - length + 1
        length <<= 1
    return total


class Tracer:
    def __init__(self):
        self._spans: list[list] = []  # [name, start_ns, end_ns, parent, root, label]
        self._stack: list[int] = []
        self._pending: dict[str, int] = defaultdict(int)
        self._dumped: list[str] = []
        self._next_id = 0
        self.source_grids: set[int] = set()  # id() of grids that hold phrase sources
        self.self_s: dict[tuple, float] = defaultdict(float)  # (root, label, name) -> s
        self.calls: dict[tuple, int] = defaultdict(int)
        self.counts: dict[tuple, int] = defaultdict(int)  # (root, label, counter) -> total
        self.unmapped_s = 0.0

    # -- recording -------------------------------------------------------

    def _open(self, name: str, label: str = "") -> int:
        i = len(self._spans)
        if self._stack:
            top = self._spans[self._stack[-1]]
            parent, root, label = self._stack[-1], top[4], top[5]
        else:
            parent, root = -1, name
        self._spans.append([name, time.process_time_ns(), 0, parent, root, label])
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self._stack.pop()
        self._spans[i][2] = time.process_time_ns()

    def root(self, name: str, label: str, fn, *args):
        i = self._open(name, label)
        try:
            return fn(*args)
        finally:
            self._close(i)

    def count(self, counter: str, value: int = 1) -> None:
        self._pending[counter] += value

    def begin(self) -> None:
        """Start a timing attempt: drop what an earlier attempt left."""
        del self._spans[:]
        self._pending.clear()

    def collect(self, label: str, scale: float) -> float:
        """Fold the finished attempt into the totals at the given scale;
        returns the rescaled duration of its root spans."""
        spans = self._spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        roots_s = 0.0
        base = self._next_id
        for i, (name, start, end, parent, root, lab) in enumerate(spans):
            self_s = (end - start - child_ns[i]) * scale / 1e9
            if parent < 0:
                roots_s += (end - start) * scale / 1e9
            key = (root, lab, name)
            if name in STEMS.get(root, {}):
                self.self_s[key] += self_s
            else:
                self.unmapped_s += self_s
            self.calls[key] += 1
            self._dumped.append(
                f"{base + i}\t{base + parent if parent >= 0 else -1}\t{name}\t{lab}\t{start}\t{end}\n"
            )
        root = spans[0][4] if spans else ""
        for counter, value in self._pending.items():
            self.counts[(root, label, counter)] += value
        self._next_id += len(spans)
        self.begin()
        return roots_s

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tlabel\tstart_ns\tend_ns\n")
            fh.writelines(self._dumped)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return wrapper

    def install(self, lzindex) -> None:
        """Wrap the lzindex layers in place (for the rest of the process)."""
        index, lz77, fp = lzindex.index, lzindex.lz77, lzindex.fingerprints
        trie, grammar, ps, rr = lzindex.trie, lzindex.grammar, lzindex.prefix_search, lzindex.range_report
        suffix_context = self._spanned("_suffixes.SuffixContext", index.SuffixContext)
        index.SuffixContext = lz77.SuffixContext = suffix_context
        lz77.parse = self._spanned("lz77.parse", lz77.parse)
        lz77.cap_phrases = self._spanned("lz77.cap_phrases", lz77.cap_phrases)

        verify = self._spanned("fingerprints.verify_pow2_collision_free", fp.verify_pow2_collision_free)

        def verify_counted(fn, s):
            ok = verify(fn, s)
            if ok:
                self.count("fingerprints.certify_windows", pow2_windows(len(s)))
            return ok

        fp.verify_pow2_collision_free = verify_counted
        select = fp.select_function

        def select_counted(*args, **kwargs):
            self.count("fingerprints.fn_attempts")
            return select(*args, **kwargs)

        fp.select_function = select_counted
        fp.PrefixFpTable = self._spanned("fingerprints.PrefixFpTable", fp.PrefixFpTable)
        index.build_slp = self._spanned("grammar.build_slp", index.build_slp)
        trie.build = self._spanned("trie.build", trie.build)
        trie.build_from_sorted = self._spanned("trie.build_from_sorted", trie.build_from_sorted)
        trie.finalize = self._spanned("trie.finalize", trie.finalize)
        ps.build = self._spanned("prefix_search.build", ps.build)
        ps.weak_search = self._spanned("prefix_search.weak_search", ps.weak_search)
        index.Grid = self._spanned("range_report.Grid", index.Grid)

        grid_query = rr.Grid.query

        def query(grid, *args):
            role = "source" if id(grid) in self.source_grids else "border"
            i = self._open("range_report.Grid.query." + role)
            try:
                out = grid_query(grid, *args)
            finally:
                self._close(i)
            if role == "border":
                self.count("range_report.border_points", len(out))
            return out

        rr.Grid.query = query
        bt = grammar.BlockTable
        bt.extract = self._spanned("grammar.BlockTable.extract", bt.extract)
        bt.substring_fp = self._spanned("grammar.BlockTable.substring_fp", bt.substring_fp)
        trie.CompactTrie.locus_by_walk = self._spanned(
            "trie.CompactTrie.locus_by_walk", trie.CompactTrie.locus_by_walk
        )


# -- per-layer metrics -------------------------------------------------------------

# per query class, each reported as the mean per query: layer self times
# and the calls of one span name
QUERY_TIMES = ["trie.locus_walk_s", "range_report.source_query_s", "prefix_search.weak_search_s",
               "grammar.substring_fp_s", "grammar.extract_s", "range_report.border_query_s",
               "index.locate_self_s", "fingerprints.pattern_table_s"]
QUERY_CALLS = {"range_report.source_queries": "range_report.Grid.query.source",
               "prefix_search.weak_searches": "prefix_search.weak_search",
               "grammar.substring_fp_calls": "grammar.BlockTable.substring_fp"}
# counters read off the program, reported only where it still has them
PROGRAM_COUNTERS = ["index.primary_occ", "index.secondary_occ", "prefix_search.h_lookups",
                    "prefix_search.g_lookups", "grammar.node_visits"]
BUILD_TIMES = sorted(set(STEMS["index.build"].values()))
LOAD_TIMES = sorted(set(STEMS["index.load"].values()))


def layer_metrics(tracer: Tracer, structure: dict) -> dict:
    """Per-layer metrics of a traced pass: times and counts as the mean per
    build, per load and per query of each class; `structure` holds the
    sizes read off the index."""
    roots = defaultdict(int)  # (root, label) -> calls
    times = defaultdict(float)
    for (root, label, name), s in tracer.self_s.items():
        times[(root, label, STEMS[root][name])] += s
    for (root, label, name), c in tracer.calls.items():
        if name == root:
            roots[(root, label)] += c

    def mean_time(root, label, stem):
        return times[(root, label, stem)] / max(roots[(root, label)], 1)

    def mean_calls(root, label, name):
        return tracer.calls[(root, label, name)] / max(roots[(root, label)], 1)

    def mean_count(root, label, counter):
        return tracer.counts[(root, label, counter)] / max(roots[(root, label)], 1)

    m = {}
    build = ("index.build", "")
    for stem in BUILD_TIMES:
        m[stem] = mean_time(*build, stem)
    m["suffixes.suffix_context_calls"] = mean_calls(*build, "_suffixes.SuffixContext")
    m["lz77.parse_calls"] = mean_calls(*build, "lz77.parse")
    m["fingerprints.certify_windows"] = mean_count(*build, "fingerprints.certify_windows")
    m["fingerprints.fn_attempts"] = mean_count(*build, "fingerprints.fn_attempts")
    m.update(structure)
    for stem in LOAD_TIMES:
        m[stem] = mean_time("index.load", "", stem)
    m["grammar.extract_calls_load"] = mean_calls("index.load", "", "grammar.BlockTable.extract")
    counters_present = {c for (_, _, c) in tracer.counts}
    for cls in workloads.LOCATE_CLASSES:
        key = ("index.locate", cls)
        for stem in QUERY_TIMES:
            m[f"{stem}.{cls}"] = mean_time(*key, stem)
        for metric, name in QUERY_CALLS.items():
            m[f"{metric}.{cls}"] = mean_calls(*key, name)
        m[f"range_report.border_points.{cls}"] = mean_count(*key, "range_report.border_points")
        for counter in PROGRAM_COUNTERS:
            if counter in counters_present:
                m[f"{counter}.{cls}"] = mean_count(*key, counter)
        if "index.identified" in counters_present:
            identified = tracer.counts[(*key, "index.identified")]
            primary = tracer.counts[(*key, "index.primary_occ")]
            # no candidate identified means none was wasted
            m[f"index.candidate_yield.{cls}"] = primary / identified if identified else 1.0
    for cls in workloads.EXTRACT_CLASSES:
        key = ("index.extract", cls)
        m[f"grammar.extract_s.{cls}"] = mean_time(*key, "grammar.extract_s")
        m[f"index.extract_self_s.{cls}"] = mean_time(*key, "index.extract_self_s")
        if (*key, "grammar.node_visits") in tracer.counts:
            chars = tracer.counts[(*key, "chars")]
            m[f"grammar.node_visits_per_char.{cls}"] = tracer.counts[(*key, "grammar.node_visits")] / chars
    return m
