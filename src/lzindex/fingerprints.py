"""Karp-Rabin fingerprints: phi(S) = sum S[i] * r^(i-1) mod p.

p is fixed at the Mersenne prime 2^61 - 1 and only the base r is drawn, so
every value fits in 8 bytes. Two strings of length L that differ mod p
share a fingerprint for at most L - 1 of the p - 1 bases.

The index uses fingerprints for one thing: the keys of the dictionaries
behind weak prefix search. PrefixFpTable gives the values of many
substrings of the text at once, for the build and the load, and PatternFps
those of a pattern's substrings, for a query. The build does its bulk
fingerprint work on uint64 numpy arrays: a product splits both factors into
31-bit limbs, and 2^61 = 1 mod p reduces it by shifts and adds.
prefix_search.build proves that no two vertices a lookup can hit share a
key. That check makes weak prefix search exact for a query that prefixes
an indexed string, and the index rejects every other candidate by reading
the text, so queries leave nothing to chance (index.py states the
argument).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ._suffixes import lcp_array
from ._text import to_symbols

P = (1 << 61) - 1
_P = np.uint64(P)
_LOW31 = np.uint64((1 << 31) - 1)
_LOW30 = np.uint64((1 << 30) - 1)
# PrefixFpTable makes its arrays this many positions at a time, so the
# temporaries of a product stay this long whatever the string's length
_CHUNK = 1 << 16


@dataclass(frozen=True)
class FpFunction:
    """The base r; p is the fixed prime P."""

    r: int


def select_function(rng_seed: int = 0) -> FpFunction:
    """A uniform r in [1, p), drawn from the seed."""
    return FpFunction(random.Random(rng_seed).randrange(1, P))


# -- arithmetic mod p on uint64 arrays --------------------------------------


def _residues(s) -> np.ndarray:
    """The symbols of s mod p, as uint64."""
    return (to_symbols(s) % P).astype(np.uint64)


def _reduce(x):
    """x mod p for any uint64 x: fold the bits above 2^61 onto the low ones."""
    x = (x & _P) + (x >> np.uint64(61))
    return x - _P * (x >= _P)


def _mulmod(a, b):
    """a * b mod p for uint64 values below p. With a = a1 2^31 + a0 and
    b = b1 2^31 + b0, every limb product fits in 64 bits, and 2^62 = 2 and
    2^61 = 1 mod p place the high parts."""
    a1, a0 = a >> np.uint64(31), a & _LOW31
    b1, b0 = b >> np.uint64(31), b & _LOW31
    mid = a1 * b0 + a0 * b1  # < 2^62
    return _reduce((a1 * b1 << np.uint64(1)) + (mid >> np.uint64(30))
                   + ((mid & _LOW30) << np.uint64(31)) + a0 * b0)


def _powers(base: int, count: int) -> np.ndarray:
    """base^0, ..., base^(count - 1) mod p: the run made so far doubles,
    and once it is _CHUNK long, each next _CHUNK powers are the last
    _CHUNK times base^_CHUNK."""
    out = np.ones(count, dtype=np.uint64)
    done = 1
    while done < count:
        run = min(done, _CHUNK)
        k = min(run, count - done)
        out[done : done + k] = _mulmod(out[done - run : done - run + k],
                                       np.uint64(pow(base, run, P)))
        done += k
    return out


def _prefix_sums(terms: np.ndarray) -> np.ndarray:
    """[0, t0, t0 + t1, ...] mod p for uint64 terms below p. The running sums
    of the terms' 31-bit low and 30-bit high limbs fit in 64 bits for fewer
    than 2^33 terms, and the high sum is then shifted into place mod p."""
    out = np.zeros(len(terms) + 1, dtype=np.uint64)
    low = _reduce(np.cumsum(terms & _LOW31, dtype=np.uint64))
    high = _reduce(np.cumsum(terms >> np.uint64(31), dtype=np.uint64))
    # high * 2^31 = (high >> 30) 2^61 + (high mod 2^30) 2^31
    out[1:] = _reduce((high >> np.uint64(30)) + ((high & _LOW30) << np.uint64(31)) + low)
    return out


def _distinct(values: np.ndarray) -> bool:
    values = np.sort(values)
    return not np.any(values[1:] == values[:-1])


class PrefixFpTable:
    """Prefix sums of a string weighted by r^k and by r^-k, giving the
    fingerprints of many of its substrings, and of their reversals, at once.

    phi(s[i : e]) = r^-i (F[e] - F[i]) with F[k] = sum of s[j] r^j over j < k,
    and phi of its reversal = r^(e-1) (R[e] - R[i]) with the weights r^-j in
    R. Starts are 0-based; starts and lengths are numpy int arrays or ints.
    The four arrays are made _CHUNK positions at a time, so the build holds
    them and temporaries of O(_CHUNK), not of O(n).
    """

    def __init__(self, fn: FpFunction, s):
        s = to_symbols(s)
        self.length = n = len(s)
        self.pw = _powers(fn.r, n + 1)
        self._ipw = _powers(pow(fn.r, -1, P), n + 1)
        self._fwd = np.zeros(n + 1, dtype=np.uint64)
        self._rev = np.zeros(n + 1, dtype=np.uint64)
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            sym = _residues(s[lo:hi])
            for sums, weights in ((self._fwd, self.pw), (self._rev, self._ipw)):
                # each chunk's sums start from the total before it
                part = _prefix_sums(_mulmod(sym, weights[lo:hi]))
                sums[lo + 1 : hi + 1] = _reduce(part[1:] + sums[lo])

    def _span(self, starts, lengths):
        starts, lengths = np.asarray(starts), np.asarray(lengths)
        ends = starts + lengths
        if ends.size and (starts.min() < 0 or lengths.min() < 0 or ends.max() > self.length):
            raise ValueError("substring out of range")
        return starts, ends

    def values(self, starts, lengths):
        """phi(s[i : i + l]) per start i and length l."""
        starts, ends = self._span(starts, lengths)
        return _mulmod(_reduce(self._fwd[ends] + (_P - self._fwd[starts])), self._ipw[starts])

    def reversed_values(self, starts, lengths):
        """phi of the reversal of s[i : i + l] per start i and length l."""
        starts, ends = self._span(starts, lengths)
        # an empty substring reads pw[-1], times a difference of 0
        return _mulmod(_reduce(self._rev[ends] + (_P - self._rev[starts])), self.pw[ends - 1])


class PatternFps:
    """The fingerprints of every substring of a pattern and of its reversal,
    from one pass over the pattern with no modular inverse.

    S[i] = phi(s[i, m]) and Q[j] = phi(reversal of s[1, j]), so that
    phi(s[i, j]) = S[i] - r^(j-i+1) S[j+1] and
    phi(reversal of s[i, j]) = Q[j] - r^(j-i+1) Q[i-1], the powers kept in a
    list of the table's own. Ranges are 1-based inclusive and not checked.
    """

    __slots__ = ("_s", "_q", "_pw")

    def __init__(self, fn: FpFunction, s: tuple):
        r = fn.r
        m = len(s)
        S = [0] * (m + 2)
        Q = [0] * (m + 1)
        pw = [1] * (m + 1)
        for t in range(1, m + 1):
            S[m + 1 - t] = (s[m - t] + r * S[m + 2 - t]) % P
            Q[t] = (s[t - 1] + r * Q[t - 1]) % P
            pw[t] = pw[t - 1] * r % P
        self._s, self._q, self._pw = S, Q, pw

    def value(self, i: int, j: int) -> int:
        """The raw value of phi(s[i, j]); i = j + 1 gives the empty string."""
        return (self._s[i] - self._pw[j - i + 1] * self._s[j + 1]) % P

    def reversed_value(self, i: int, j: int) -> int:
        """The raw value of phi(reversal of s[i, j])."""
        return (self._q[j] - self._pw[j - i + 1] * self._q[i - 1]) % P


# kept because bench/tracing.py wraps it by name (ROADMAP item 1)
def verify_pow2_collision_free(fn: FpFunction, ctx) -> bool:
    """True iff equal fingerprints of power-of-two length substrings of the
    text always mean equal substrings, in the text and in its reversal.

    ctx is the text's SuffixContext, whose LCP array this makes (Kasai,
    a Python loop over n). For a length L, the suffix array rows
    whose suffix is at least L long and whose lcp with the row before is
    less than L hold one start of each distinct length-L substring, so the
    level passes when the windows at those starts have distinct values; the
    reversals of those windows are the distinct windows of the reversed
    text. A window of length 2L joins two of length L, phi(ab) = phi(a) +
    r^L phi(b) and phi(rev(ab)) = phi(rev b) + r^L phi(rev a), so a level
    costs one pass of products and two sorts, and no substring is compared.
    """
    n = len(ctx)
    fwd = rev = _residues(ctx.text)  # symbols may be >= p
    suffix_len = n - ctx.sa
    lcp = lcp_array(ctx.text, ctx.sa, ctx.rank)
    length = 1
    while True:
        starts = ctx.sa[(suffix_len >= length) & (lcp < length)]
        if not (_distinct(fwd[starts]) and _distinct(rev[starts])):
            return False
        if 2 * length > n:
            return True
        # windows at i and i + L make the window of length 2L at i
        rl = np.uint64(pow(fn.r, length, P))
        fwd = _reduce(fwd[:-length] + _mulmod(fwd[length:], rl))
        rev = _reduce(rev[length:] + _mulmod(rev[:-length], rl))
        length <<= 1
