import random
from itertools import product

import numpy as np
import pytest

from lzindex import fingerprints as fp
from lzindex import prefix_search as ps
from lzindex._suffixes import SuffixContext
from lzindex._text import to_symbols

from conftest import random_text
from reference import build_from_strings, compose, fingerprint

P = (1 << 61) - 1
# small illustrative base used by the hand-computed examples
TOY = 10
AB = (1, 2)
ABC = (1, 2, 3)


def small_order_bases(orders) -> list[int]:
    """A base of each multiplicative order k mod p, from the primitive root
    37: order 1 is r = 1, under which every permutation of a string
    collides, and order 2 is r = p - 1."""
    assert all(pow(37, (P - 1) // q, P) != 1 for q in (2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321))
    return [pow(37, (P - 1) // k, P) for k in orders]


def context(s) -> SuffixContext:
    return SuffixContext(to_symbols(s))


class TestFingerprint:
    def test_ab(self):
        assert fingerprint(TOY, AB).value == 21  # 1 + 2*10 mod 101

    def test_abc(self):
        assert fingerprint(TOY, ABC).value == 321  # 1 + 2*10 + 3*100

    def test_empty(self):
        f = fingerprint(TOY, ())
        assert f.value == 0 and f.length == 0


class TestSelectFunction:
    def test_magnitude_and_primality(self):
        r = fp.select_function(10)
        assert fp.P == P
        # Lucas-Lehmer: 2^61 - 1 is prime iff s_59 = 0 mod it
        s = 4
        for _ in range(61 - 2):
            s = (s * s - 2) % P
        assert s == 0
        assert 1 <= r < P

    def test_deterministic(self):
        a = fp.select_function(rng_seed=42)
        b = fp.select_function(rng_seed=42)
        assert a == b

    def test_seeds_differ(self):
        rs = {fp.select_function(rng_seed=s) for s in range(100)}
        assert len(rs) > 95


class TestComposeSplit:
    def test_compose_example(self):
        fab = fingerprint(TOY, AB)
        fc = fingerprint(TOY, (3,))
        assert compose(fab, fc).value == 321

    def test_compose_identities(self):
        f = fingerprint(TOY, ABC)
        e = fingerprint(TOY, ())
        assert compose(e, f) == f
        assert compose(f, e) == f

    def test_compose_random_splits(self):
        # every split x = yz composes back to phi(x), and phi(y) carries r^|y|
        rng = random.Random(25)
        for r in (TOY, fp.select_function(4)):
            for _ in range(30):
                x = random_text(rng, 26, rng.randint(0, 60))
                fx = fingerprint(r, x)
                for k in range(len(x) + 1):
                    fy, fz = fingerprint(r, x[:k]), fingerprint(r, x[k:])
                    assert fy.r_pow == pow(r, k, P)
                    assert compose(fy, fz) == fx

    def test_associativity(self):
        rng = random.Random(21)
        r = fp.select_function(3)
        for _ in range(50):
            x, y, z = (random_text(rng, 26, rng.randint(0, 40)) for _ in range(3))
            fx, fy, fz = (fingerprint(r, s) for s in (x, y, z))
            left = compose(compose(fx, fy), fz)
            right = compose(fx, compose(fy, fz))
            assert left == right == fingerprint(r, x + y + z)


class TestPrefixTable:
    def test_substring_example(self):
        table = fp.PrefixFpTable(TOY, ABC)
        assert table.values(1, 2) == 32  # 2 + 3*10
        assert table.reversed_values(1, 2) == 23  # 3 + 2*10

    def test_empty_substring(self):
        table = fp.PrefixFpTable(TOY, ABC)
        for start in range(4):
            assert table.values(start, 0) == table.reversed_values(start, 0) == 0

    def test_whole_string(self):
        table = fp.PrefixFpTable(TOY, ABC)
        assert table.values(0, 3) == fingerprint(TOY, ABC).value
        assert table.reversed_values(0, 3) == fingerprint(TOY, ABC[::-1]).value

    def test_out_of_range(self):
        table = fp.PrefixFpTable(TOY, ABC)
        for start, length in ((-1, 3), (0, 4), (2, -1), ([0, -1], [1, 1]), ([0, 1], [3, 3])):
            with pytest.raises(ValueError):
                table.values(start, length)
            with pytest.raises(ValueError):
                table.reversed_values(start, length)

    def test_matches_direct_evaluation(self):
        # against the loop of fp.fingerprint, also under the bases of order
        # 1 and 2 and with symbols equal mod p
        rng = random.Random(22)
        for r in (fp.select_function(1), *small_order_bases((1, 2))):
            for sigma in (26, 1 << 62):
                s = [rng.randint(1, sigma) for _ in range(256)]
                table = fp.PrefixFpTable(r, s)
                starts = [rng.randint(0, len(s)) for _ in range(200)]
                lengths = [rng.randint(0, len(s) - i) for i in starts]
                forward = table.values(np.array(starts), np.array(lengths)).tolist()
                backward = table.reversed_values(np.array(starts), np.array(lengths)).tolist()
                for k, (i, l) in enumerate(zip(starts, lengths)):
                    piece = s[i : i + l]
                    assert forward[k] == table.values(i, l) == fingerprint(r, piece).value
                    assert backward[k] == fingerprint(r, piece[::-1]).value

    def test_limb_arithmetic_at_the_edges(self):
        # products and sums of values next to 0 and p - 1, the cases where
        # a limb or a fold carries
        rng = random.Random(28)
        edge = [0, 1, 2, (1 << 31) - 1, 1 << 31, (1 << 60) + 1, P - 2, P - 1]
        a = edge * len(edge) + [rng.randrange(P) for _ in range(1000)]
        b = [y for y in edge for _ in edge] + [rng.randrange(P) for _ in range(1000)]
        got = fp._mulmod(np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64))
        assert got.tolist() == [x * y % P for x, y in zip(a, b)]
        terms = np.array([P - 1] * 5000 + a, dtype=np.uint64)
        sums = [0]
        for t in terms.tolist():
            sums.append((sums[-1] + t) % P)
        assert fp._prefix_sums(terms).tolist() == sums
        for base in (1, P - 1, 3):
            assert fp._powers(base, 1500).tolist() == [pow(base, k, P) for k in range(1500)]


class TestPatternFps:
    def test_every_range_matches_fingerprint(self):
        # symbols up to 2^62 exceed p = 2^61 - 1, and some are equal mod p
        rng = random.Random(27)
        p = (1 << 61) - 1
        r = rng.randrange(2, p)
        for sigma in (2, 4, 1 << 62):
            for m in range(1, 61):
                pool = [rng.randint(1, sigma) for _ in range(4)]
                if sigma > p:
                    pool += [c - p if c > p else c + p for c in pool]
                s = tuple(rng.choice(pool) for _ in range(m))
                table = fp.PatternFps(r, s)
                for i in range(1, m + 2):
                    for j in range(i - 1, m + 1):
                        piece = s[i - 1 : j]
                        assert table.value(i, j) == fingerprint(r, piece).value
                        assert table.reversed_value(i, j) == fingerprint(r, piece[::-1]).value

    def test_leaves_the_power_cache_alone(self):
        # the table makes its own powers of r; the function is the plain int
        # r, which can keep none
        r = fp.select_function(0)
        table = fp.PatternFps(r, (1, 2, 3) * 20)
        assert table.value(5, 40) == fingerprint(r, ((1, 2, 3) * 20)[4:40]).value
        assert type(r) is int and r == fp.select_function(0)


class TestVerification:
    """The dictionaries' check, which the build runs (prefix_search.build),
    and the power-of-two check of a text, which the tests use to show that
    a base collides on it."""

    def test_distinct_single_chars(self):
        r = fp.select_function(0)
        build_from_strings([(1,), (2,), (3,)], r)

    def test_equal_strings_not_collisions(self):
        # even under r = 1, a string does not collide with itself
        build_from_strings([(1, 2), (1, 2)], 1)

    def test_tiny_modulus_collides(self):
        # under r = p - 1, some two strings of length 2 collide
        r = small_order_bases([2])[0]
        pairs = list(product(range(1, 10), repeat=2))
        colliding = next(
            [s, t]
            for s in pairs
            for t in pairs
            if s != t and fingerprint(r, s).value == fingerprint(r, t).value
        )
        with pytest.raises(ps.FingerprintCollision):
            build_from_strings(colliding, r)

    def test_pow2_small_string(self):
        r = fp.select_function(0)
        assert fp.verify_pow2_collision_free(r, context((1, 2)))

    def test_pow2_constant_string(self):
        # one window per length, so even r = 1 passes
        assert fp.verify_pow2_collision_free(1, context((1,) * 64))

    def test_pow2_tiny_modulus_fails(self):
        rng = random.Random(23)
        # under r = 1 any two windows that permute each other collide
        s = tuple(rng.randint(1, 50) for _ in range(200))
        assert not fp.verify_pow2_collision_free(1, context(s))

    def test_large_modulus_collision_free(self):
        rng = random.Random(24)
        r = fp.select_function(5)
        text = random_text(rng, 4, 4096)
        assert fp.verify_pow2_collision_free(r, context(text))
        build_from_strings([text[i : i + 200] for i in range(0, 4096, 7)], r)


def pow2_collision_free_by_strings(p: int, r: int, text: list[int]) -> bool:
    """The definition, for the text and for its reversal: for each
    power-of-two L, map every window's value to the window and look for a
    value shared by two different windows."""
    return one_way_collision_free(p, r, text) and one_way_collision_free(p, r, text[::-1])


def one_way_collision_free(p: int, r: int, text: list[int]) -> bool:
    n = len(text)
    # pre[i] = sum of text[k] * r^k over k < i; window [i, i + L) has the
    # value (pre[i + L] - pre[i]) / r^i
    pre = [0]
    rp = 1
    for c in text:
        pre.append((pre[-1] + c * rp) % p)
        rp = rp * r % p
    r_inv = pow(r, -1, p)
    length = 1
    while length <= n:
        windows: dict[int, tuple] = {}
        inv = 1
        for i in range(n - length + 1):
            value = (pre[i + length] - pre[i]) * inv % p
            window = tuple(text[i : i + length])
            if windows.setdefault(value, window) != window:
                return False
            inv = inv * r_inv % p
        length <<= 1
    return True


class TestPow2Equivalence:
    SIGMAS = (2, 4, 26, 300, 1 << 62)
    # r = 1, r = p - 1 and bases of orders 3 to 10, under which many texts
    # collide, and uniform bases, under which they do not. Under r = 2 the
    # windows (1, 3) and (3, 2) collide but their reversals do not, and
    # under r = 1/2 the other way round
    BASES = small_order_bases((1, 2, 3, 5, 6, 7, 9, 10)) + [2, (P + 1) // 2]

    @staticmethod
    def text(rng: random.Random, sigma: int) -> list[int]:
        n = rng.randint(1, 200)
        pool = [rng.randint(1, sigma) for _ in range(rng.randint(1, 8))]
        if sigma > P and rng.random() < 0.5:
            # two symbols that differ by a multiple of p: equal mod p
            c = rng.choice(pool)
            pool.append(c - P if c > P else c + P)
        if rng.random() < 0.5:
            base = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
            return (base * n)[:n]  # periodic
        return [rng.randint(1, sigma) if rng.random() < 0.3 else rng.choice(pool)
                for _ in range(n)]

    def test_matches_the_definition(self):
        rng = random.Random(26)
        outcomes = {True: 0, False: 0}
        for _ in range(2_000):
            r = rng.choice(self.BASES) if rng.random() < 0.8 else rng.randrange(1, P)
            text = self.text(rng, rng.choice(self.SIGMAS))
            want = pow2_collision_free_by_strings(P, r, text)
            assert fp.verify_pow2_collision_free(r, context(text)) == want, (r, text)
            outcomes[want] += 1
        assert min(outcomes.values()) >= 800, outcomes

    def test_symbols_equal_mod_p(self):
        # a text of two symbols equal mod p collides at length 1 only
        text = [5, 5 + P] * 8
        assert not pow2_collision_free_by_strings(P, 3, text)
        assert not fp.verify_pow2_collision_free(3, context(text))


class TestChunkedPrefixTable:
    """PrefixFpTable makes its arrays fp._CHUNK positions at a time; the
    arrays must be those of one pass over the whole string."""

    @staticmethod
    def direct(r, s):
        """pw, ipw, F and R of PrefixFpTable by a loop over s."""
        inv = pow(r, -1, P)
        pw, ipw, fwd, rev = [1], [1], [0], [0]
        for c in s:
            fwd.append((fwd[-1] + c % P * pw[-1]) % P)
            rev.append((rev[-1] + c % P * ipw[-1]) % P)
            pw.append(pw[-1] * r % P)
            ipw.append(ipw[-1] * inv % P)
        return pw, ipw, fwd, rev

    @pytest.mark.parametrize("chunk", [1, 2, 4, 7, 1 << 16])
    def test_arrays_equal_one_pass(self, monkeypatch, chunk):
        monkeypatch.setattr(fp, "_CHUNK", chunk)
        rng = random.Random(23)
        r = fp.select_function(5)
        # lengths on both sides of one, two and three chunks
        lengths = sorted({0, 1, 2, 3} | {k * c + d for k in (1, 2, 3) for c in (chunk, 4)
                                         for d in (-1, 0, 1) if k * c + d >= 0 and k * c + d < 200})
        for n in lengths:
            for sigma in (4, 1 << 62):
                s = [rng.randint(1, sigma) for _ in range(n)]
                table = fp.PrefixFpTable(r, s)
                pw, ipw, fwd, rev = self.direct(r, s)
                assert table.pw.tolist() == pw
                assert table._ipw.tolist() == ipw
                assert table._fwd.tolist() == fwd
                assert table._rev.tolist() == rev

    def test_straddles_the_default_chunk(self):
        # the real chunk, at lengths that end just before, at and after it
        rng = random.Random(24)
        r = fp.select_function(6)
        for n in (fp._CHUNK - 1, fp._CHUNK, fp._CHUNK + 1, 2 * fp._CHUNK + 3):
            s = [rng.randint(1, 1 << 40) for _ in range(n)]
            table = fp.PrefixFpTable(r, s)
            pw, ipw, fwd, rev = self.direct(r, s)
            assert table.pw.tolist() == pw
            assert table._ipw.tolist() == ipw
            assert table._fwd.tolist() == fwd
            assert table._rev.tolist() == rev
