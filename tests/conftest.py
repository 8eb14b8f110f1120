"""Shared helpers for the test suite."""

import random


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
