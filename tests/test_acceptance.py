"""End-to-end acceptance suite.

Covers oracle equivalence of locate over a randomized corpus, parser
cross-checks, structural bounds on the grammar, the weak prefix search
contract with operation-count limits, the interval-midpoint property of the
two-fattest helper, primary/secondary accounting, the verification filter,
extraction, texts with long runs of one symbol, and a measured space
report.
"""

import math
import random

import pytest

from lzindex import Index, IndexConfig, cli, lz77
from lzindex import fingerprints as fp
from lzindex import prefix_search as ps
from lzindex.grammar import build_slp

from conftest import absent_pattern, mutated_copies, planted_pattern, random_text
from reference import build_from_strings, classify, naive_locate, naive_lz77, two_fattest

SIGMAS = (2, 4, 26)
# 50 texts per alphabet size, spread over the three text lengths so the
# whole equivalence sweep stays within its runtime budget
TEXT_COUNTS = ((100, 25), (1000, 18), (10_000, 7))

# constants fixed once for the structural bounds (criteria below assert
# against these, never against wall-clock time)
C_NODES = 8      # grammar size: nodes <= C_NODES * (z * lg(n/z) + z)
C_HEIGHT = 3     # per-block height <= C_HEIGHT * lg(n/z) + 10
C_VISITS = 8     # extraction: node visits <= C_VISITS * (lg(n/z) + length)


def absent_length(sigma: int, n: int) -> int:
    """A pattern length at which random patterns are almost surely absent."""
    return max(4, math.ceil(math.log(n, sigma)) + 3)


@pytest.fixture(scope="session")
def corpus_results():
    """Run locate against the naive oracle over the full random corpus once;
    the equivalence and accounting criteria both read these counters."""
    rng = random.Random(0xC0FFEE)
    res = {
        "locate_mismatches": 0,
        "partition_violations": 0,
        "classification_violations": 0,
        "identification_violations": 0,
        "leaf_symbol_violations": 0,
        "queries": 0,
        "texts": 0,
    }
    for sigma in SIGMAS:
        for n, count in TEXT_COUNTS:
            for _ in range(count):
                text = random_text(rng, sigma, n)
                idx = Index.build(text)
                if not 0 < idx.stats()["leaf_symbols"] <= n:
                    res["leaf_symbol_violations"] += 1
                patterns = set()
                # (a) every substring of length <= 2 * tau
                for length in range(1, 2 * idx.tau + 1):
                    for s in range(len(text) - length + 1):
                        patterns.add(text[s : s + length])
                patterns = sorted(patterns)
                # (b) 200 planted patterns of length tau .. n/2
                patterns += [
                    planted_pattern(rng, text, idx.tau, max(idx.tau, n // 2))
                    for _ in range(200)
                ]
                # (c) 200 random non-occurring patterns
                m_abs = absent_length(sigma, n)
                patterns += [
                    absent_pattern(rng, text, sigma, m_abs + rng.randint(0, 8))
                    for _ in range(200)
                ]
                for pattern in patterns:
                    expected = naive_locate(text, pattern)
                    got = idx.locate(pattern)
                    res["queries"] += 1
                    if got != expected:
                        res["locate_mismatches"] += 1
                        continue
                    prim = idx.last_stats["primary"]
                    sec = idx.last_stats["secondary"]
                    if sorted([*prim, *sec]) != expected or set(prim) & set(sec):
                        res["partition_violations"] += 1
                    flags = classify(text, idx.capped, expected, len(pattern))
                    if prim != [o for o, f in zip(expected, flags) if f]:
                        res["classification_violations"] += 1
                    counts = idx.last_stats["identified"]
                    if counts and (max(counts.values()) > 2
                                   or set(counts) != set(prim)):
                        res["identification_violations"] += 1
                res["texts"] += 1
    return res


class TestOracleEquivalence:
    def test_locate_matches_naive_scan(self, corpus_results):
        assert corpus_results["texts"] == 150
        assert corpus_results["locate_mismatches"] == 0


class TestParser:
    def test_matches_naive_parser(self):
        rng = random.Random(2)
        for _ in range(200):
            sigma = rng.choice(SIGMAS)
            text = random_text(rng, sigma, rng.randint(1, 512))
            assert lz77.parse(text).phrases == naive_lz77(text).phrases

    def test_parse_round_trips(self):
        rng = random.Random(3)
        texts = [random_text(rng, sigma, 10_000) for sigma in SIGMAS]
        texts += [b"\x01\x02\x03" * 1000, b"\x01" * 5000]
        for text in texts:
            assert lz77.decompress(lz77.parse(text)) == text

    def test_repeated_block_parses_to_four_phrases(self):
        for k in (3, 10, 1000):
            parsed = lz77.parse(b"\x01\x02\x03" * k)
            n = 3 * k
            assert [(p.start, p.len, p.border) for p in parsed.phrases] == [
                (0, 0, 1), (0, 0, 2), (0, 0, 3), (1, n - 4, 3),
            ]


class TestGrammarBounds:
    def corpus(self):
        rng = random.Random(4)
        texts = [random_text(rng, sigma, n) for sigma in SIGMAS for n in (512, 4096)]
        texts += [
            b"\x01\x02\x03" * 1000,
            b"\x01" * 5000,
            random_text(rng, 2, 3000) * 3,
        ]
        return texts

    def test_node_count_and_height(self):
        for text in self.corpus():
            parsed = lz77.parse(text)
            n = parsed.n
            block_len = -(-n // parsed.z)
            capped = lz77.cap_phrases(parsed, block_len, text)
            bt = build_slp(capped, block_len, text)
            lg = max(1.0, math.log2(n / parsed.z))
            # z of the parse the grammar is built from (the capped parse)
            z = capped.z
            assert bt.node_count <= C_NODES * (z * lg + z)
            assert bt.height <= C_HEIGHT * lg + 10
            assert 0 < bt.leaf_symbols <= n

    def test_leaf_symbols_within_n(self, corpus_results):
        # the frontier tuples partition each block
        assert corpus_results["texts"] == 150
        assert corpus_results["leaf_symbol_violations"] == 0

    def test_extraction_visit_budget(self):
        rng = random.Random(5)
        for text in self.corpus():
            parsed = lz77.parse(text)
            block_len = -(-parsed.n // parsed.z)
            bt = build_slp(lz77.cap_phrases(parsed, block_len, text), block_len, text)
            lg = max(1.0, math.log2(parsed.n / parsed.z))
            for _ in range(300):
                i = rng.randint(1, parsed.n)
                j = min(parsed.n, i + rng.randint(0, 400))
                before = bt.node_visits
                assert bytes(bt.extract(i, j)) == text[i - 1 : j]
                visits = bt.node_visits - before
                assert visits <= C_VISITS * (lg + j - i + 1)


class TestPrefixSearchContract:
    CONFIGS = ((50, 2), (200, 3), (500, 2), (500, 3), (300, 4))

    def test_all_prefixes_match_sort_oracle(self):
        rng = random.Random(6)
        r = fp.select_function(0)
        mismatches = 0
        for count, sigma in self.CONFIGS:
            strings = [tuple(random_text(rng, sigma, rng.randint(1, 40)))
                       for _ in range(count)]
            structure, distinct = build_from_strings(strings, r)
            prefixes = sorted({s[:k] for s in distinct for k in range(1, len(s) + 1)})
            for pattern in prefixes:
                structure.g_lookups = 0
                res = ps.weak_search(
                    structure, len(pattern),
                    lambda b, value=fp.PatternFps(r, pattern).value: value(1, b),
                    lambda i, pattern=pattern: pattern[i - 1],
                )
                ranks = [k + 1 for k, s in enumerate(distinct)
                         if s[: len(pattern)] == pattern]
                if res is None or res[1:] != (ranks[0], ranks[-1]):
                    mismatches += 1
                assert structure.g_lookups <= len(pattern).bit_length()
        assert mismatches == 0


class TestTwoFattestMidpoint:
    def test_exhaustive_reduced_scale(self):
        # the 2-fattest number of the open interval (a, a + 2^i) is the
        # midpoint a + 2^(i-1) for every a that is a multiple of 2^(i-1);
        # when a is additionally not a multiple of 2^i the closed interval
        # (a, a + 2^i] has the same answer
        for i in range(1, 13):
            half = 1 << (i - 1)
            full = 1 << i
            for a in range(0, (1 << 20) + 1, half):
                assert two_fattest(a, a + full - 1) == a + half
                if a % full:
                    assert two_fattest(a, a + full) == a + half


class TestAccounting:
    def test_partition_and_classification(self, corpus_results):
        assert corpus_results["partition_violations"] == 0
        assert corpus_results["classification_violations"] == 0

    def test_each_primary_identified_at_most_twice(self, corpus_results):
        assert corpus_results["identification_violations"] == 0


class TestVerificationFilter:
    def test_adversarial_near_misses_return_nothing(self):
        rng = random.Random(7)
        checked = 0
        false_positives = 0
        while checked < 500:
            sigma = rng.choice(SIGMAS)
            text = random_text(rng, sigma, 2000)
            idx = Index.build(text)
            for _ in range(80):
                m = rng.randint(max(idx.tau + 1, 10), 60)
                s = rng.randint(0, len(text) - m)
                pat = bytearray(text[s : s + m])
                mode = rng.randrange(3)
                if mode == 0:  # shares a long suffix
                    pat[0] = (pat[0] + rng.randint(1, sigma - 1) - 1) % sigma + 1
                elif mode == 1:  # shares a long prefix
                    pat[-1] = (pat[-1] + rng.randint(1, sigma - 1) - 1) % sigma + 1
                else:  # shares both sides around a corrupted middle
                    mid = m // 2
                    pat[mid] = (pat[mid] + rng.randint(1, sigma - 1) - 1) % sigma + 1
                pattern = bytes(pat)
                if pattern in text:
                    continue
                checked += 1
                if idx.locate(pattern):
                    false_positives += 1
                if checked == 500:
                    break
        assert false_positives == 0


class TestExtraction:
    def representative_texts(self):
        rng = random.Random(8)
        texts = [random_text(rng, sigma, 1000) for sigma in SIGMAS]
        texts.append(random_text(rng, 4, 10_000))
        texts.append(b"\x01\x02\x03" * 1000)
        texts.append(b"\x01" * 3000)
        return texts

    def test_random_ranges(self):
        rng = random.Random(9)
        for text in self.representative_texts():
            idx = Index.build(text)
            n = len(text)
            for _ in range(10_000):
                # lengths capped so the sweep stays linear overall; block
                # boundaries are still crossed constantly
                i = rng.randint(1, n)
                j = min(n, i + rng.randint(0, 512) - 1)
                if j < i:
                    assert idx.extract(i, i - 1) == []
                else:
                    assert bytes(idx.extract(i, j)) == text[i - 1 : j]
            assert bytes(idx.extract(1, n)) == text

    def test_cli_full_text_round_trip(self, tmp_path, capsysbinary):
        data = bytes(random.Random(10).randrange(256) for _ in range(4096))
        src = tmp_path / "input.bin"
        src.write_bytes(data)
        idx_path = tmp_path / "input.idx"
        assert cli.main(["build", "-i", str(src), "-o", str(idx_path)]) == 0
        rc = cli.main(["extract", "-x", str(idx_path), "-i", "1", "-j", str(len(data))])
        assert rc == 0
        assert capsysbinary.readouterr().out == data


def two_runs_text():
    """Mutated copies to 20,000 symbols with two runs of 8,000 of one
    symbol inserted, and the runs' 0-based [start, end) spans."""
    rng = random.Random(16)
    copies = mutated_copies(rng, 2_000, 20_000, 3)
    text = copies[:7_000] + b"\x01" * 8_000 + copies[7_000:14_000] + b"\x04" * 8_000 + copies[14_000:]
    return text, [(7_000, 15_000), (22_000, 30_000)]


def crowded_run_text():
    """A crowded run at small scale: X, 300 random symbols; 1,000 pieces of
    8 symbols of X, each followed by 4; then 3, a run of 20,000 1s and 2.
    Many short phrases copy from X, and one long one covers the run."""
    rng = random.Random(7)
    x = bytes(rng.randint(1, 4) for _ in range(300))
    pieces = b"".join(x[s : s + 8] + b"\x04" for s in (rng.randrange(len(x) - 8)
                                                       for _ in range(1_000)))
    start = len(x) + len(pieces) + 1
    return x + pieces + b"\x03" + b"\x01" * 20_000 + b"\x02", [(start, start + 20_000)]


@pytest.fixture(scope="module", params=["two runs", "crowded run"])
def run_text(request):
    """A text with long runs of one symbol, its runs, its index and the
    index loaded back from its bytes."""
    text, runs = {"two runs": two_runs_text, "crowded run": crowded_run_text}[request.param]()
    idx = Index.build(text)
    return text, runs, idx, Index.from_bytes(idx.to_bytes())


class TestRunTexts:
    """Texts with runs of one symbol thousands long (ROADMAP item 15's
    corpus): locate against a naive scan with patterns inside, across and
    outside the runs and absent ones, extract against slicing, and a load
    that gives back the built index."""

    LENGTHS = (3, 5, 12, 40, 200)

    @staticmethod
    def patterns(rng, text, runs, m):
        n = len(text)
        out = set()
        for lo, hi in runs:
            out.add(text[lo : lo + m])
            # across each end of the run, holding at least one symbol
            # on each side
            for edge in (lo, hi):
                for _ in range(2):
                    s = rng.randint(edge - m + 1, edge - 1)
                    out.add(text[s : s + m])
        outside = 0
        while outside < 8:
            s = rng.randint(0, n - m)
            if all(s + m <= lo or hi <= s for lo, hi in runs):
                out.add(text[s : s + m])
                outside += 1
        # one symbol of a present pattern replaced, kept where absent
        for _ in range(40):
            s = rng.randint(0, n - m)
            k = rng.randrange(m)
            p = text[s : s + k] + bytes([text[s + k] % 4 + 1]) + text[s + k + 1 : s + m]
            if p not in text:
                out.add(p)
        return sorted(out)

    def test_locate_matches_naive_scan(self, run_text):
        text, runs, _, loaded = run_text
        rng = random.Random(len(text))
        checked = absent = 0
        for m in self.LENGTHS:
            for p in self.patterns(rng, text, runs, m):
                expected = naive_locate(text, p)
                assert loaded.locate(p) == expected, (m, p[:20])
                checked += 1
                absent += not expected
        assert checked >= 100 and absent >= 20

    def test_extract_matches_slicing(self, run_text):
        text, runs, idx, loaded = run_text
        rng = random.Random(len(text) + 1)
        n = len(text)
        ranges = [(1, n)]
        for lo, hi in runs:
            ranges += [(lo - 50, lo + 50), (hi - 50, hi + 50), (lo + 1, hi), (lo - 2_000, hi + 2_000)]
        ranges += [sorted(rng.randint(1, n) for _ in range(2)) for _ in range(50)]
        for i, j in ranges:
            i, j = max(i, 1), min(j, n)
            assert bytes(idx.extract(i, j)) == bytes(loaded.extract(i, j)) == text[i - 1 : j]

    def test_load_gives_back_the_build(self, run_text):
        _, _, idx, loaded = run_text
        assert loaded.to_bytes() == idx.to_bytes()
        for attr in ("t_d", "t_dp"):
            built, back = getattr(idx, attr), getattr(loaded, attr)
            assert {**vars(back), "children": list(back.children.items())} == {
                **vars(built), "children": list(built.children.items())}
        assert vars(loaded.grid_r) == vars(idx.grid_r)


class TestSpaceReport:
    def test_measured_space_per_component(self, capsys):
        """The query/space trade-off claims behind this design depend on
        constant factors and growth rates that cannot be observed at this
        scale, so they are not asserted here. In their place the suite
        asserts the operation-count budgets above and reports the measured
        size of every serialized component; nothing in this file measures
        wall-clock time."""
        text = random_text(random.Random(11), 4, 10_000)
        idx = Index.build(text)
        sizes = idx.component_sizes()
        stats = idx.stats()
        with capsys.disabled():
            print("\nmeasured space per component (bytes):")
            for name, size in sizes.items():
                print(f"  {name:>16}: {size}")
            print(f"  {'total':>16}: {sum(sizes.values())} (n = {stats['n']})")
        assert sum(sizes.values()) == len(idx.to_bytes())
        for key in ("grammar_nodes", "grid_points", "trie_d_vertices"):
            assert stats[key] > 0
