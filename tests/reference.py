"""Reference implementations the tests compare the library against.

A fingerprint as a (value, length) pair, evaluated symbol by symbol and
composed by phi(yz) = phi(y) + r^|y| phi(z): the definition that
fingerprints.PrefixFpTable and fingerprints.PatternFps must agree with. A
prefix search structure over materialized strings, for testing
prefix_search without a text. And the order of a set of suffixes read off
the suffix array's ranks, which _suffixes.sort_suffixes must agree with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lzindex import fingerprints as fp
from lzindex import prefix_search as ps
from lzindex import trie
from lzindex._suffixes import SuffixContext
from lzindex._text import to_symbols


@dataclass(frozen=True)
class Fingerprint:
    value: int
    length: int
    fn: fp.FpFunction = field(repr=False, compare=False)

    @property
    def r_pow(self) -> int:
        return pow(self.fn.r, self.length, fp.P)


def fingerprint(fn: fp.FpFunction, s) -> Fingerprint:
    symbols = to_symbols(s).tolist()
    value = 0
    rp = 1
    for c in symbols:
        value = (value + c * rp) % fp.P
        rp = rp * fn.r % fp.P
    return Fingerprint(value, len(symbols), fn)


def compose(fy: Fingerprint, fz: Fingerprint) -> Fingerprint:
    """Fingerprint of the concatenation yz."""
    return Fingerprint((fy.value + fy.r_pow * fz.value) % fp.P, fy.length + fz.length, fy.fn)


def build_from_strings(strings, x: int, fn: fp.FpFunction):
    """The certified search structure over materialized strings: the
    compact trie, one prefix table over the distinct strings joined end to
    end, and prefix_search.build over them. Returns
    (structure, distinct_strings)."""
    t, distinct = trie.build(strings)
    joined: list[int] = []
    offsets = []
    for s in distinct:
        offsets.append(len(joined))
        joined += s
    table = fp.PrefixFpTable(fn, joined)
    starts = np.array(offsets, dtype=np.int64)
    sample = np.array(t.sample, dtype=np.int64)

    def prefix_values(vertices, lengths):
        return table.values(starts[sample[vertices]], lengths)

    return ps.build(t, x, prefix_values), distinct


def suffix_rank_order(text, starts) -> list[int]:
    """The order of the suffixes of text at the distinct 0-based starts, an
    index into starts per rank, by their suffix array ranks; a start of
    len(text), the empty suffix, ranks first. The index built its suffix
    trie's string order this way before it sorted the suffixes itself."""
    rank = np.append(SuffixContext(to_symbols(text)).rank, -1)
    return np.argsort(rank[np.asarray(starts, dtype=np.int64)], kind="stable").tolist()
