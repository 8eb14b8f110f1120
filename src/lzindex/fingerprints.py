"""Karp-Rabin fingerprints: phi(S) = sum S[i] * r^(i-1) mod p.

Fingerprints of concatenated strings compose in O(1), so a prefix table over
a string answers any substring fingerprint in constant time. The module also
houses the build-time collision checks the index relies on: the dictionaries
keyed by fingerprint values are only sound once the chosen (p, r) has been
certified collision-free for the relevant prefix sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ._text import to_symbols

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass
class FpFunction:
    """The function parameters plus cached powers of r."""

    p: int
    r: int
    _pows: dict[int, int] = field(default_factory=dict, repr=False, compare=False)
    _inv_pows: dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    def r_pow(self, length: int) -> int:
        v = self._pows.get(length)
        if v is None:
            v = pow(self.r, length, self.p)
            self._pows[length] = v
        return v

    def r_inv_pow(self, length: int) -> int:
        v = self._inv_pows.get(length)
        if v is None:
            v = pow(self.r, (self.p - 2) * length, self.p) if length else 1
            self._inv_pows[length] = v
        return v


@dataclass(frozen=True)
class Fingerprint:
    value: int
    length: int
    fn: FpFunction = field(repr=False, compare=False)

    @property
    def r_pow(self) -> int:
        return self.fn.r_pow(self.length)

    @property
    def r_inv_pow(self) -> int:
        return self.fn.r_inv_pow(self.length)


def select_function(n: int, rng_seed: int = 0) -> FpFunction:
    """Pick a prime p in [max(n^5, 2^61 - 1), 2x) and a uniform r in Z_p."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lo = max(n**5, (1 << 61) - 1)
    rng = random.Random(rng_seed)
    while True:
        cand = rng.randrange(lo, 2 * lo) | 1
        if _is_prime(cand):
            p = cand
            break
    r = rng.randrange(1, p)
    return FpFunction(p, r)


def fingerprint(fn: FpFunction, s) -> Fingerprint:
    arr = to_symbols(s)
    value = 0
    rp = 1
    p, r = fn.p, fn.r
    for c in arr.tolist():
        value = (value + c * rp) % p
        rp = rp * r % p
    return Fingerprint(value, len(arr), fn)


def empty_fp(fn: FpFunction) -> Fingerprint:
    return Fingerprint(0, 0, fn)


def compose(fy: Fingerprint, fz: Fingerprint) -> Fingerprint:
    """Fingerprint of the concatenation yz."""
    fn = fy.fn
    value = (fy.value + fy.r_pow * fz.value) % fn.p
    return Fingerprint(value, fy.length + fz.length, fn)


def split_suffix(fx: Fingerprint, fy: Fingerprint) -> Fingerprint:
    """Given x = yz, recover phi(z) from phi(x) and phi(y)."""
    if fy.length > fx.length:
        raise ValueError("prefix longer than string")
    fn = fx.fn
    value = (fx.value - fy.value) * fy.r_inv_pow % fn.p
    return Fingerprint(value, fx.length - fy.length, fn)


class PrefixFpTable:
    """Prefix fingerprints of a string; substring fingerprints in O(1).

    The table holds its own inverse powers of r, one per position, so they
    live only as long as the table does.
    """

    def __init__(self, fn: FpFunction, s):
        arr = to_symbols(s)
        p, r = fn.p, fn.r
        vals = [0] * (len(arr) + 1)
        inv_pows = [1] * (len(arr) + 1)
        r_inv = pow(r, -1, p)
        value = 0
        rp = 1
        for i, c in enumerate(arr.tolist()):
            value = (value + c * rp) % p
            rp = rp * r % p
            vals[i + 1] = value
            inv_pows[i + 1] = inv_pows[i] * r_inv % p
        self.fn = fn
        self.length = len(arr)
        self._vals = vals
        self._inv_pows = inv_pows

    def prefix_fp(self, j: int) -> Fingerprint:
        return Fingerprint(self._vals[j], j, self.fn)

    def substring_fp(self, i: int, j: int) -> Fingerprint:
        """phi(s[i, j]), 1-based inclusive; i = j + 1 gives the empty string."""
        return Fingerprint(self.substring_value(i, j), j - i + 1, self.fn)

    def substring_value(self, i: int, j: int) -> int:
        """The raw value of phi(s[i, j]); cheaper than substring_fp."""
        if i < 1 or j > self.length or i > j + 1:
            raise ValueError("substring out of range")
        return (self._vals[j] - self._vals[i - 1]) * self._inv_pows[i - 1] % self.fn.p


def prefix_table(fn: FpFunction, s) -> PrefixFpTable:
    return PrefixFpTable(fn, s)


def verify_collision_free(fn: FpFunction, strings, lengths) -> bool:
    """True iff no two distinct prefixes with a length in `lengths` share a
    fingerprint value. Equal strings are not collisions."""
    seen: dict[int, bytes | tuple] = {}
    wanted = sorted(set(lengths))
    for s in strings:
        arr = to_symbols(s)
        table = PrefixFpTable(fn, arr)
        raw = bytes(arr.astype("uint8")) if len(arr) and arr.max() <= 255 else tuple(arr.tolist())
        for l in wanted:
            if l > len(arr):
                break
            v = table.prefix_fp(l).value
            prefix = raw[:l]
            other = seen.get(v)
            if other is None:
                seen[v] = prefix
            elif other != prefix:
                return False
    return True


def verify_pow2_collision_free(fn: FpFunction, s) -> bool:
    """True iff equal fingerprints of power-of-two length substrings of `s`
    always mean equal substrings."""
    arr = to_symbols(s)
    n = len(arr)
    if n == 0:
        return True
    table = PrefixFpTable(fn, arr)
    raw = bytes(arr.astype("uint8")) if arr.max() <= 255 else tuple(arr.tolist())
    length = 1
    while length <= n:
        seen: dict[int, int] = {}
        for i in range(1, n - length + 2):
            v = table.substring_fp(i, i + length - 1).value
            j = seen.get(v)
            if j is None:
                seen[v] = i
            elif raw[j - 1 : j - 1 + length] != raw[i - 1 : i - 1 + length]:
                return False
        length <<= 1
    return True
