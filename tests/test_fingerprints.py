import random
from itertools import product

import pytest

from lzindex import fingerprints as fp

from conftest import random_text

# small illustrative function used by the hand-computed examples
TOY = fp.FpFunction(101, 10)
AB = (1, 2)
ABC = (1, 2, 3)


class TestFingerprint:
    def test_ab(self):
        assert fp.fingerprint(TOY, AB).value == 21  # 1 + 2*10 mod 101

    def test_abc(self):
        assert fp.fingerprint(TOY, ABC).value == 18  # 1 + 20 + 300 mod 101

    def test_empty(self):
        f = fp.fingerprint(TOY, ())
        assert f.value == 0 and f.length == 0


class TestSelectFunction:
    def test_magnitude_and_primality(self):
        fn = fp.select_function(10)
        lo = max(10**5, (1 << 61) - 1)
        assert lo <= fn.p < 2 * lo
        assert fp._is_prime(fn.p)
        assert 1 <= fn.r < fn.p

    def test_deterministic(self):
        a = fp.select_function(100, rng_seed=42)
        b = fp.select_function(100, rng_seed=42)
        assert (a.p, a.r) == (b.p, b.r)

    def test_seeds_differ(self):
        rs = {fp.select_function(100, rng_seed=s).r for s in range(100)}
        assert len(rs) > 95


class TestComposeSplit:
    def test_compose_example(self):
        fab = fp.fingerprint(TOY, AB)
        fc = fp.fingerprint(TOY, (3,))
        assert fp.compose(fab, fc).value == 18

    def test_compose_identities(self):
        f = fp.fingerprint(TOY, ABC)
        e = fp.empty_fp(TOY)
        assert fp.compose(e, f) == f
        assert fp.compose(f, e) == f

    def test_compose_random_splits(self):
        # every split x = yz composes back to phi(x), and phi(y) carries r^|y|
        rng = random.Random(25)
        for fn in (TOY, fp.select_function(1000, 4)):
            for _ in range(30):
                x = random_text(rng, 26, rng.randint(0, 60))
                fx = fp.fingerprint(fn, x)
                for k in range(len(x) + 1):
                    fy, fz = fp.fingerprint(fn, x[:k]), fp.fingerprint(fn, x[k:])
                    assert fy.r_pow == pow(fn.r, k, fn.p)
                    assert fp.compose(fy, fz) == fx

    def test_associativity(self):
        rng = random.Random(21)
        fn = fp.select_function(1000, 3)
        for _ in range(50):
            x, y, z = (random_text(rng, 26, rng.randint(0, 40)) for _ in range(3))
            fx, fy, fz = (fp.fingerprint(fn, s) for s in (x, y, z))
            left = fp.compose(fp.compose(fx, fy), fz)
            right = fp.compose(fx, fp.compose(fy, fz))
            assert left == right == fp.fingerprint(fn, x + y + z)


class TestPrefixTable:
    def test_substring_example(self):
        table = fp.prefix_table(TOY, ABC)
        assert table.substring_fp(2, 3).value == 32  # 2 + 3*10 mod 101

    def test_empty_substring(self):
        table = fp.prefix_table(TOY, ABC)
        assert table.substring_fp(2, 1) == fp.empty_fp(TOY)

    def test_whole_string(self):
        table = fp.prefix_table(TOY, ABC)
        assert table.substring_fp(1, 3) == fp.fingerprint(TOY, ABC)

    def test_out_of_range(self):
        table = fp.prefix_table(TOY, ABC)
        for i, j in ((0, 2), (1, 4), (3, 1)):
            with pytest.raises(ValueError):
                table.substring_fp(i, j)

    def test_matches_direct_evaluation(self):
        rng = random.Random(22)
        fn = fp.select_function(256, 1)
        for _ in range(8):
            s = random_text(rng, 26, 256)
            table = fp.prefix_table(fn, s)
            for _ in range(400):
                i = rng.randint(1, len(s))
                j = rng.randint(i - 1, len(s))
                assert table.substring_fp(i, j) == fp.fingerprint(fn, s[i - 1 : j])


class TestPatternFps:
    def test_every_range_matches_fingerprint(self):
        # symbols up to 2^62 exceed p = 2^61 - 1, and some are equal mod p
        rng = random.Random(27)
        p = (1 << 61) - 1
        fn = fp.FpFunction(p, rng.randrange(2, p))
        for sigma in (2, 4, 1 << 62):
            for m in range(1, 61):
                pool = [rng.randint(1, sigma) for _ in range(4)]
                if sigma > p:
                    pool += [c - p if c > p else c + p for c in pool]
                s = tuple(rng.choice(pool) for _ in range(m))
                table = fp.PatternFps(fn, s)
                for i in range(1, m + 2):
                    for j in range(i - 1, m + 1):
                        piece = s[i - 1 : j]
                        assert table.value(i, j) == fp.fingerprint(fn, piece).value
                        assert table.reversed_value(i, j) == fp.fingerprint(fn, piece[::-1]).value

    def test_leaves_the_power_cache_alone(self):
        fn = fp.select_function(100, 0)
        table = fp.PatternFps(fn, (1, 2, 3) * 20)
        assert table.value(5, 40) == fp.fingerprint(fn, ((1, 2, 3) * 20)[4:40]).value
        assert fn._pows == {}


class TestVerification:
    def test_distinct_single_chars(self):
        fn = fp.select_function(10, 0)
        assert fp.verify_collision_free(fn, [(1,), (2,), (3,)], {1})

    def test_equal_strings_not_collisions(self):
        fn = fp.select_function(10, 0)
        assert fp.verify_collision_free(fn, [(1, 2), (1, 2)], {1, 2})

    def test_tiny_modulus_collides(self):
        tiny = fp.FpFunction(7, 3)
        pairs = list(product(range(1, 10), repeat=2))
        colliding = next(
            [s, t]
            for s in pairs
            for t in pairs
            if s != t and fp.fingerprint(tiny, s).value == fp.fingerprint(tiny, t).value
        )
        assert not fp.verify_collision_free(tiny, colliding, {2})

    def test_pow2_small_string(self):
        fn = fp.select_function(10, 0)
        assert fp.verify_pow2_collision_free(fn, (1, 2))

    def test_pow2_constant_string(self):
        assert fp.verify_pow2_collision_free(fp.FpFunction(7, 3), (1,) * 64)

    def test_pow2_tiny_modulus_fails(self):
        tiny = fp.FpFunction(7, 3)
        rng = random.Random(23)
        # some random string over a large alphabet must collide mod 7
        s = tuple(rng.randint(1, 50) for _ in range(200))
        assert not fp.verify_pow2_collision_free(tiny, s)

    def test_large_modulus_collision_free(self):
        rng = random.Random(24)
        fn = fp.select_function(4096, 5)
        text = random_text(rng, 4, 4096)
        assert fp.verify_pow2_collision_free(fn, text)
        assert fp.verify_collision_free(fn, [text], set(range(1, 200)))


def pow2_collision_free_by_strings(p: int, r: int, text: list[int]) -> bool:
    """The definition: for each power-of-two L, map every window's value to
    the window and look for a value shared by two different windows."""
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

    @staticmethod
    def primes(rng: random.Random) -> list[int]:
        """Primes from 7 up to 2^61 - 1, a few at each magnitude."""
        out = [7, 11, 13, 101, 257, 65_537, (1 << 31) - 1, (1 << 61) - 1]
        for bits in (5, 8, 12, 16, 24, 32, 48, 60):
            while True:
                c = rng.randrange(1 << (bits - 1), 1 << bits) | 1
                if c >= 7 and fp._is_prime(c):
                    out.append(c)
                    break
        return out

    @staticmethod
    def text(rng: random.Random, sigma: int, p: int) -> list[int]:
        n = rng.randint(1, 200)
        pool = [rng.randint(1, sigma) for _ in range(rng.randint(1, 8))]
        if sigma > p and rng.random() < 0.5:
            # two symbols that differ by a multiple of p: equal mod p
            c = rng.choice(pool)
            pool.append(c - p if c > p else c + p)
        if rng.random() < 0.5:
            base = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
            return (base * n)[:n]  # periodic
        return [rng.randint(1, sigma) if rng.random() < 0.3 else rng.choice(pool)
                for _ in range(n)]

    def test_matches_the_definition(self):
        rng = random.Random(26)
        primes = self.primes(rng)
        outcomes = {True: 0, False: 0}
        for _ in range(2_000):
            p = rng.choice(primes)
            r = rng.randrange(1, p)
            text = self.text(rng, rng.choice(self.SIGMAS), p)
            want = pow2_collision_free_by_strings(p, r, text)
            assert fp.verify_pow2_collision_free(fp.FpFunction(p, r), text) == want, (p, r, text)
            outcomes[want] += 1
        assert min(outcomes.values()) >= 200, outcomes

    def test_symbols_equal_mod_p(self):
        # a text of two symbols equal mod p collides at length 1 only
        p = (1 << 61) - 1
        text = [5, 5 + p] * 8
        assert not pow2_collision_free_by_strings(p, 3, text)
        assert not fp.verify_pow2_collision_free(fp.FpFunction(p, 3), text)
