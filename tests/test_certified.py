"""Oracle checks on certified builds, over a binary and an integer
alphabet.

Every build certifies that neither dictionary has a fingerprint collision,
and nothing else: a base that collides on the text itself is kept when the
dictionaries pass. These tests check locate against a naive scan and
extract against slicing, on the built index and on the index loaded from
its file, which recomputes the dictionary values without certifying them
again, and on a build that keeps a base under which two windows of the
text share a fingerprint.
"""

import random
from collections import Counter

import pytest

from lzindex import Index, fingerprints as fp, prefix_search
from lzindex._suffixes import SuffixContext
from lzindex._text import to_symbols

from reference import naive_locate, two_fattest


def mutated_copies(rng: random.Random, sigma: int, base_len: int, n: int, substitutions: int) -> list[int]:
    """Copies of one random base over [1, sigma], each with a few substitutions."""
    base = [rng.randint(1, sigma) for _ in range(base_len)]
    out: list[int] = []
    while len(out) < n:
        copy = list(base)
        for _ in range(substitutions):
            copy[rng.randrange(base_len)] = rng.randint(1, sigma)
        out += copy
    return out[:n]


# (sigma, n, kind): texts long enough to be repetitive, and short random
# ones, where the dictionaries are certified too
CASES = [(2, 30_000, "repetitive"), (2, 3_000, "random"),
         (1_000, 30_000, "repetitive"), (1_000, 3_000, "random")]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"sigma{c[0]}-{c[2]}-{c[1]}")
def case(request):
    sigma, n, kind = request.param
    rng = random.Random(sigma * n)
    if kind == "repetitive":
        text = mutated_copies(rng, sigma, 1_000, n, 4)
    else:
        text = [rng.randint(1, sigma) for _ in range(n)]
    idx = Index.build(text)
    return rng, text, idx, patterns(rng, sigma, text, idx)


def planted(rng: random.Random, text: list[int], m: int) -> list[int]:
    start = rng.randrange(len(text) - m + 1)
    return text[start : start + m]


def patterns(rng: random.Random, sigma: int, text: list[int], idx: Index) -> list[list[int]]:
    """Planted patterns, near misses and absent ones at lengths around tau
    and the block length."""
    tau, b = idx.tau, idx.block_len
    occurring = set(text)
    out = []
    for m in sorted({1, tau, tau + 1, 3 * b}):
        out += [planted(rng, text, m) for _ in range(5)]
        # a near miss: a planted pattern with one symbol changed
        near = planted(rng, text, m)
        k = rng.randrange(m)
        near[k] = near[k] % sigma + 1
        out.append(near)
        # an absent pattern, where the text leaves room for one
        for _ in range(100):
            absent = [rng.randint(1, sigma) for _ in range(m)]
            if not naive_locate(text, absent):
                out.append(absent)
                break
    # a symbol of the alphabet the text does not hold
    out += [[c] for c in range(1, sigma + 1) if c not in occurring][:3]
    return out


def test_build_is_certified(case):
    _, text, idx, _ = case
    assert idx.n == len(text)
    # no two vertices share a dictionary key: G has one per vertex, at the
    # 2-fattest length of its skip interval, and H is an empty stand-in
    for ps in (idx.ps_d, idx.ps_dp):
        t = ps.trie
        assert sorted(ps.G.values()) == list(range(1, t.num_vertices))
        assert [k >> 61 for k in ps.G] == [
            two_fattest(t.strlen[t.parent[v]], t.strlen[v]) for v in ps.G.values()]
        assert ps.H == {} and ps.h_lookups == 0


def test_locate_matches_naive_scan(case):
    _, text, idx, pats = case
    for pattern in pats:
        assert idx.locate(pattern) == naive_locate(text, pattern)


def test_load_round_trip(case):
    _, text, idx, pats = case
    blob = idx.to_bytes()
    loaded = Index.from_bytes(blob)
    assert loaded.to_bytes() == blob
    for a, b in ((loaded.ps_d, idx.ps_d), (loaded.ps_dp, idx.ps_dp)):
        assert list(a.G.items()) == list(b.G.items())
    for pattern in pats:
        assert loaded.locate(pattern) == naive_locate(text, pattern)
    assert loaded.extract(1, loaded.n) == text


def test_weak_search_finds_the_walked_locus(case):
    # on the index's own tries, at every multiple of tau and at m: wherever
    # a side prefixes an indexed string, which the symbol-by-symbol walk
    # tells, weak search returns the vertex the walk reaches
    _, text, idx, pats = case
    walked = 0
    for pattern in pats:
        m = len(pattern)
        tab = fp.PatternFps(idx.r, tuple(pattern))
        for k in sorted({*range(idx.tau, m + 1, idx.tau), m}):
            sides = (
                (idx.ps_d, pattern[:k][::-1], lambda e, q: text[e - q],
                 lambda b, k=k: tab.reversed_value(k + 1 - b, k)),
                (idx.ps_dp, pattern[k:], lambda s, q: text[s + q - 2],
                 lambda b, k=k: tab.value(k + 1, k + b)),
            )
            for ps, side, access, side_fp in sides:
                v = ps.trie.locus_by_walk(side, access)
                if v is not None:
                    def prefix_fp(b, side=side, side_fp=side_fp):
                        assert 1 <= b <= len(side)
                        return side_fp(b)

                    res = prefix_search.weak_search(ps, len(side), prefix_fp,
                                                    lambda q, side=side: side[q - 1])
                    assert res is not None and res[0] == v
                    walked += 1
    assert walked


def test_extract_matches_slicing(case):
    rng, text, idx, _ = case
    n, b = idx.n, idx.block_len
    assert idx.extract(1, n) == text
    for _ in range(100):
        border = b * rng.randint(1, (n - 1) // b)
        i = max(1, border - rng.randint(0, b))
        j = min(n, border + 1 + rng.randint(0, 3 * b))
        assert idx.extract(i, j) == text[i - 1 : j]


def colliding_bases(text: list[int]):
    """(r, ab, cd) per pair of distinct windows ab and cd of the text with
    a != c and b != d, where r = (c - a) / (b - d) mod p gives phi(ab) =
    a + r b = c + r d = phi(cd). The rarest windows come first: a window
    that occurs once sits at a substitution, next to a phrase border rather
    than at the start of a string the dictionaries key, so they seldom meet
    the collision."""
    count = Counter(zip(text, text[1:]))
    windows = sorted(count, key=count.__getitem__)
    for i, (a, b) in enumerate(windows):
        for c, d in windows[i + 1 :]:
            if a != c and b != d:
                yield (c - a) * pow(b - d, -1, fp.P) % fp.P, (a, b), (c, d)


def test_keeps_a_base_that_collides_on_the_text(monkeypatch):
    # a repetitive text over 30 symbols below 10^12: a ratio of two of
    # their differences makes only the one pair of windows collide, which
    # the dictionaries' check often does not meet
    rng = random.Random(1)
    alphabet = [rng.randrange(1, 10**12) for _ in range(30)]
    text = [alphabet[c - 1] for c in mutated_copies(rng, 30, 100, 3_000, 2)]
    select = fp.select_function
    for tries, (r, ab, cd) in enumerate(colliding_bases(text)):
        assert tries < 100, "no colliding base was kept"
        # attempt 0 draws r
        monkeypatch.setattr(fp, "select_function",
                            lambda rng_seed=0, r=r: r if rng_seed == 0 else select(rng_seed))
        idx = Index.build(text)
        if idx.r == r:
            break
    assert idx.r == r
    assert not fp.verify_pow2_collision_free(r, SuffixContext(to_symbols(text)))

    lengths = sorted({1, 2, idx.tau, idx.tau + 1, 3 * idx.block_len})
    pats = []
    for m in lengths:
        for _ in range(5):
            pats.append(planted(rng, text, m))
            # one symbol changed to another of the alphabet
            mutated = planted(rng, text, m)
            k = rng.randrange(m)
            mutated[k] = rng.choice([c for c in alphabet if c != mutated[k]])
            pats.append(mutated)
    # patterns that hold a colliding window, and each with that window
    # swapped for the other one, which has the same fingerprint
    starts = [i for i in range(len(text) - 1) if tuple(text[i : i + 2]) in (ab, cd)]
    for m in lengths[1:]:
        for i in starts[:5]:
            lo = max(0, min(i - rng.randrange(m - 1), len(text) - m))
            holding = text[lo : lo + m]
            swapped = list(holding)
            swapped[i - lo : i - lo + 2] = cd if tuple(holding[i - lo : i - lo + 2]) == ab else ab
            pats += [holding, swapped]
    assert any(not naive_locate(text, p) for p in pats)
    loaded = Index.from_bytes(idx.to_bytes())
    for index in (idx, loaded):
        for pattern in pats:
            assert index.locate(pattern) == naive_locate(text, pattern)
        assert index.extract(1, len(text)) == text
