"""Seeded texts, query sets and the benchmark's own reference answers.

Every text, pattern and range comes from the workload seed and the text
alone. Lengths and counts are fixed per workload, never read from a built
index, so a change of the index's defaults (tau, block length) leaves the
queries unchanged. The texts model the Pizza&Chili repetitive collection
(mutated copies of a base sequence) plus an incompressible control; nothing
is downloaded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ALPHABET = b"ACGT"
LOCATE_CLASSES = ("short", "long", "near_miss")
EXTRACT_CLASSES = ("extract_long", "extract_short")


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload."""

    kind: str  # "repetitive" or "random"
    n: int
    base_len: int  # repetitive only: length of the copied base
    mutation_rate: float  # repetitive only: mutations per base position and copy
    short_m: int
    short_count: int
    long_m: int
    long_count: int  # present long patterns, also the near-miss count
    extract_long_len: int
    extract_long_count: int
    extract_short_len: int
    extract_short_count: int


WORKLOADS = {
    # below 2^16 characters, so Index.build runs the certification pass
    "repetitive": Spec("repetitive", 50_000, 2_000, 0.0015,
                       short_m=4, short_count=200, long_m=40, long_count=200,
                       extract_long_len=2_000, extract_long_count=300,
                       extract_short_len=8, extract_short_count=20_000),
    # the same generator above 2^16: certification is skipped and the
    # parses and suffix-array passes dominate the build
    "repetitive-large": Spec("repetitive", 300_000, 2_000, 0.0015,
                             short_m=4, short_count=30, long_m=40, long_count=200,
                             extract_long_len=2_000, extract_long_count=300,
                             extract_short_len=8, extract_short_count=20_000),
    # incompressible control: primary search does the locate work
    "random": Spec("random", 10_000, 0, 0.0,
                   short_m=3, short_count=150, long_m=16, long_count=400,
                   extract_long_len=1_000, extract_long_count=300,
                   extract_short_len=8, extract_short_count=20_000),
}


# kinds of successive mutations: 60% substitutions, 20% insertions, 20%
# deletions, in a fixed cycle so that every seed gets the same mix
KINDS = "SSISD"


def _mutated(base: bytes, rng: random.Random, count: int, first: int) -> bytes:
    """A copy of base with `count` mutations at distinct random positions:
    substitutions by another symbol, insertions of 1-3 symbols, deletions
    of 1-3 symbols; the k-th mutation has kind KINDS[first + k]."""
    out = bytearray()
    done = 0  # base[:done] is settled
    for k, pos in enumerate(sorted(rng.sample(range(len(base)), count))):
        if pos < done:  # swallowed by the deletion before
            continue
        out += base[done:pos]
        kind = KINDS[(first + k) % len(KINDS)]
        if kind == "S":
            out.append(rng.choice([c for c in ALPHABET if c != base[pos]]))
            done = pos + 1
        elif kind == "I":
            out.extend(rng.choice(ALPHABET) for _ in range(rng.randint(1, 3)))
            done = pos
        else:
            done = pos + rng.randint(1, 3)
    out += base[done:]
    return bytes(out)


def make_text(spec: Spec, seed: int) -> bytes:
    rng = random.Random(f"text/{spec.kind}/{spec.n}/{seed}")
    if spec.kind == "random":
        return bytes(rng.choice(ALPHABET) for _ in range(spec.n))
    base = bytes(rng.choice(ALPHABET) for _ in range(spec.base_len))
    per_copy = round(spec.mutation_rate * spec.base_len)
    out = bytearray(base)
    copies = 0
    while len(out) < spec.n:
        out += _mutated(base, rng, per_copy, copies * per_copy)
        copies += 1
    return bytes(out[: spec.n])


def scan(text: bytes, pattern: bytes) -> list[int]:
    """All 1-based starts of pattern in text, by repeated bytes.find."""
    out = []
    i = text.find(pattern)
    while i >= 0:
        out.append(i + 1)
        i = text.find(pattern, i + 1)
    return out


@dataclass(frozen=True)
class Queries:
    short: list[bytes]
    long: list[bytes]
    near_miss: list[bytes]
    extract_long: list[tuple[int, int]]  # 1-based inclusive ranges
    extract_short: list[tuple[int, int]]


def _substrings(text: bytes, rng: random.Random, m: int, count: int) -> list[bytes]:
    out = []
    for _ in range(count):
        i = rng.randrange(len(text) - m + 1)
        out.append(text[i : i + m])
    return out


def _near_misses(text: bytes, rng: random.Random, m: int, count: int) -> list[bytes]:
    """Present substrings with one symbol replaced, kept only when the scan
    confirms they are absent from the text."""
    out = []
    while len(out) < count:
        i = rng.randrange(len(text) - m + 1)
        p = bytearray(text[i : i + m])
        q = rng.randrange(m)
        p[q] = rng.choice([c for c in ALPHABET if c != p[q]])
        if text.find(bytes(p)) < 0:
            out.append(bytes(p))
    return out


def _ranges(n: int, rng: random.Random, length: int, count: int) -> list[tuple[int, int]]:
    out = []
    for _ in range(count):
        i = rng.randrange(1, n - length + 2)
        out.append((i, i + length - 1))
    return out


def make_queries(spec: Spec, text: bytes, seed: int) -> Queries:
    rng = random.Random(f"queries/{spec.kind}/{spec.n}/{seed}")
    n = len(text)
    return Queries(
        short=_substrings(text, rng, spec.short_m, spec.short_count),
        long=_substrings(text, rng, spec.long_m, spec.long_count),
        near_miss=_near_misses(text, rng, spec.long_m, spec.long_count),
        extract_long=_ranges(n, rng, spec.extract_long_len, spec.extract_long_count),
        extract_short=_ranges(n, rng, spec.extract_short_len, spec.extract_short_count),
    )


def decode_parse(phrases) -> bytes:
    """The text an LZ77 parse stands for, by copying left to right."""
    out = bytearray()
    for ph in phrases:
        src = ph.start - 1
        if ph.len and src + ph.len <= len(out):
            out += out[src : src + ph.len]
        else:  # empty or self-overlapping source
            for k in range(ph.len):
                out.append(out[src + k])
        out.append(ph.border)
    return bytes(out)


def parse_error(idx, text: bytes) -> str | None:
    """Why the index's stored capped parse is wrong, or None if it decodes
    to the text with no phrase longer than the block length."""
    phrases = idx.capped.phrases
    longest = max(ph.len + 1 for ph in phrases)
    if longest > idx.block_len:
        return f"phrase of {longest} > block_len {idx.block_len}"
    if decode_parse(phrases) != text:
        return "capped parse does not decode to the text"
    return None
