"""Karp-Rabin fingerprints: phi(S) = sum S[i] * r^(i-1) mod p.

Fingerprints of concatenated strings compose in O(1), so a prefix table over
a string answers any substring fingerprint in constant time. The module also
houses the build-time collision checks the index relies on: the dictionaries
keyed by fingerprint values are only sound once the chosen (p, r) has been
certified collision-free for the relevant prefix sets.

The index certifies the text and its reversal with
verify_pow2_collision_free at n <= 2^16, and the dictionaries' keys with
verify_collision_free at n <= 2^12; at greater n it relies on p >= n^5
alone. The text check names windows level by level, as Karp, Miller and
Rosenberg (STOC 1972) do: per window and power-of-two length it takes one
multiply-add mod p and one set insert, plus one pair insert until the
windows of a length are all distinct, and it compares no substrings.
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

    def r_pow(self, length: int) -> int:
        v = self._pows.get(length)
        if v is None:
            v = pow(self.r, length, self.p)
            self._pows[length] = v
        return v


@dataclass(frozen=True)
class Fingerprint:
    value: int
    length: int
    fn: FpFunction = field(repr=False, compare=False)

    @property
    def r_pow(self) -> int:
        return self.fn.r_pow(self.length)


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


class PatternFps:
    """The fingerprints of every substring of a pattern and of its reversal,
    from one pass over the pattern with no modular inverse.

    S[i] = phi(s[i, m]) and Q[j] = phi(reversal of s[1, j]), so that
    phi(s[i, j]) = S[i] - r^(j-i+1) S[j+1] and
    phi(reversal of s[i, j]) = Q[j] - r^(j-i+1) Q[i-1], the powers kept in a
    list of the table's own. Ranges are 1-based inclusive and not checked.
    """

    __slots__ = ("p", "_s", "_q", "_pw")

    def __init__(self, fn: FpFunction, s: tuple):
        p, r = fn.p, fn.r
        m = len(s)
        S = [0] * (m + 2)
        Q = [0] * (m + 1)
        pw = [1] * (m + 1)
        for t in range(1, m + 1):
            S[m + 1 - t] = (s[m - t] + r * S[m + 2 - t]) % p
            Q[t] = (s[t - 1] + r * Q[t - 1]) % p
            pw[t] = pw[t - 1] * r % p
        self.p = p
        self._s, self._q, self._pw = S, Q, pw

    def value(self, i: int, j: int) -> int:
        """The raw value of phi(s[i, j]); i = j + 1 gives the empty string."""
        return (self._s[i] - self._pw[j - i + 1] * self._s[j + 1]) % self.p

    def reversed_value(self, i: int, j: int) -> int:
        """The raw value of phi(reversal of s[i, j])."""
        return (self._q[j] - self._pw[j - i + 1] * self._q[i - 1]) % self.p


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
    always mean equal substrings.

    Level by level, after Karp, Miller and Rosenberg: once the length-L
    window values are injective on strings, a length-2L window is named
    exactly by the pair of its halves' values, so the number of distinct
    pairs is the number of distinct length-2L substrings, and the level is
    injective iff its values are as many. No substring is ever compared.
    """
    text = to_symbols(s).tolist()
    p = fn.p
    cur = [c % p for c in text]  # symbols may be >= p
    names = len(set(cur))
    if names != len(set(text)):
        return False
    # once every window of a length is distinct, so is every longer one
    all_distinct = names == len(cur)
    length = 1
    while 2 * length <= len(text):
        rl = pow(fn.r, length, p)
        right = cur[length:]
        nxt = [(a + rl * b) % p for a, b in zip(cur, right)]
        names = len(nxt) if all_distinct else len(set(zip(cur, right)))
        if len(set(nxt)) != names:
            return False
        all_distinct = names == len(nxt)
        cur = nxt
        length <<= 1
    return True
