"""Shared helpers for the test suite."""

import random

from lzindex import range_report


def random_text(rng: random.Random, sigma: int, n: int) -> bytes:
    return bytes(rng.randint(1, sigma) for _ in range(n))


def mutated_copies(rng: random.Random, base_len: int, n: int, substitutions: int,
                   sigma: int = 4) -> bytes:
    """Copies of one random base over {1..sigma}, each with a few
    substitutions."""
    base = bytes(rng.randint(1, sigma) for _ in range(base_len))
    out = bytearray()
    while len(out) < n:
        copy = bytearray(base)
        for _ in range(substitutions):
            copy[rng.randrange(base_len)] = rng.randint(1, sigma)
        out += copy
    return bytes(out[:n])


def descending_prefix_text(rng: random.Random, distinct: int = 1000) -> list[int]:
    """`distinct` distinct symbols above 4 in descending order, then a body
    over {1..4} around a copy of a piece of them. Every suffix that starts
    earlier in the prefix is larger, so at each prefix position no smaller
    suffix start lies below its rank."""
    prefix = list(range(distinct + 4, 4, -1))
    body = [rng.randint(1, 4) for _ in range(distinct // 2)]
    piece = prefix[distinct // 4 : distinct // 4 + distinct // 10]
    return prefix + body + piece + body[::-1]


def planted_pattern(rng: random.Random, text: bytes, lo: int, hi: int) -> bytes:
    """A substring of `text` with length drawn from [lo, hi]."""
    n = len(text)
    m = rng.randint(lo, min(hi, n))
    start = rng.randint(0, n - m)
    return text[start : start + m]


def absent_pattern(rng: random.Random, text: bytes, sigma: int, m: int) -> bytes:
    """A length-m pattern over [1, sigma] that does not occur in `text`."""
    for _ in range(1000):
        pat = bytes(rng.randint(1, sigma) for _ in range(m))
        if pat not in text:
            return pat
    raise RuntimeError("could not find an absent pattern")


def levels_by_route(monkeypatch) -> dict[str, list[int]]:
    """The occurrence counts of the copy-queue levels that expand runs from
    now on, by route: "wide" for the numpy pass, "narrow" for the Python
    loop."""
    routes = {"wide": [], "narrow": []}
    cls = range_report.SourceIndex
    for route, name in (("wide", "_wide_level"), ("narrow", "_level")):
        def spy(self, level, *args, run=getattr(cls, name), seen=routes[route]):
            seen.append(len(level))
            return run(self, level, *args)

        monkeypatch.setattr(cls, name, spy)
    return routes
