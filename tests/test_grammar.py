import random

import pytest

from lzindex import fingerprints as fp
from lzindex import grammar, lz77

from conftest import random_text

FN = fp.select_function(0)


def build_for(text: bytes) -> grammar.BlockTable:
    parsed = lz77.parse(text)
    block_len = -(-parsed.n // parsed.z)
    return grammar.build_slp(lz77.cap_phrases(parsed, block_len, text), block_len)


def repetitive_text(rng: random.Random, n: int) -> bytes:
    """Copies of a random 300-symbol base over [1, 4], two substitutions a
    copy: its blocks are longer than SHORT."""
    base = random_text(rng, 4, 300)
    out = bytearray()
    while len(out) < n:
        copy = bytearray(base)
        for pos in rng.sample(range(len(copy)), 2):
            copy[pos] = copy[pos] % 4 + 1
        out += copy
    return bytes(out[:n])


def corpus() -> list[bytes]:
    rng = random.Random(39)
    return [random_text(rng, 2, 1500), random_text(rng, 26, 1500), repetitive_text(rng, 6000)]


def walk(arena, v: int) -> tuple:
    """expansion(v), read off the terminals by a plain walk."""
    out = []
    stack = [v]
    while stack:
        u = stack.pop()
        if arena.left[u] < 0:
            out.append(arena.exp[u][0])
        else:
            stack += (arena.right[u], arena.left[u])
    return tuple(out)


class TestBuild:
    def test_round_trip_example(self):
        text = b"\x01\x02\x03" * 3
        bt = build_for(text)
        assert bytes(bt.extract(1, 9)) == text

    def test_single_symbol(self):
        bt = build_for(b"\x01")
        assert bt.extract(1, 1) == [1]
        assert bt.node_count == 1

    def test_uncapped_parse_rejected(self):
        parsed = lz77.parse(b"\x01" * 32)  # one long copy phrase
        with pytest.raises(ValueError, match="phrase exceeds block length"):
            grammar.build_slp(parsed, 2)

    def test_blocks_concatenate_to_text(self):
        rng = random.Random(31)
        for sigma in (2, 26):
            text = random_text(rng, sigma, 1500)
            bt = build_for(text)
            out = []
            for root in bt.roots:
                piece: list[int] = []
                bt.arena.expand(root, piece)
                out.extend(piece)
            assert bytes(out) == text


class TestCompact:
    def test_every_node_reachable(self):
        for text in corpus():
            bt = build_for(text)
            arena = bt.arena
            seen = set()
            stack = list(bt.roots)
            while stack:
                v = stack.pop()
                if v not in seen:
                    seen.add(v)
                    if arena.left[v] >= 0:
                        stack += (arena.left[v], arena.right[v])
            assert seen == set(range(bt.node_count))

    def test_pairs_distinct_and_children_first(self):
        for text in corpus():
            arena = build_for(text).arena
            pairs = [(arena.left[v], arena.right[v]) for v in range(len(arena.left))
                     if arena.left[v] >= 0]
            assert len(set(pairs)) == len(pairs)
            for v, (a, b) in enumerate(zip(arena.left, arena.right)):
                assert (a < 0) == (b < 0)
                assert max(a, b) < v
            terminals = [arena.exp[v] for v in range(len(arena.left)) if arena.left[v] < 0]
            assert len(set(terminals)) == len(terminals)

    def test_tuples_equal_walks(self):
        long_nodes = 0
        for text in corpus():
            arena = build_for(text).arena
            for v, e in enumerate(arena.exp):
                if arena.length[v] <= grammar.SHORT:
                    assert e == walk(arena, v)
                else:
                    assert e is None
                    long_nodes += 1
                if arena.left[v] < 0:
                    assert len(e) == 1 and arena.length[v] == 1
        assert long_nodes


class TestExtract:
    def test_full_and_empty(self):
        text = random_text(random.Random(32), 4, 777)
        bt = build_for(text)
        assert bytes(bt.extract(1, len(text))) == text
        assert bt.extract(5, 4) == []

    def test_mid_slice_example(self):
        bt = build_for(b"\x01\x02\x03" * 3)
        assert bt.extract(4, 6) == [1, 2, 3]

    def test_random_slices(self):
        rng = random.Random(33)
        for sigma in (2, 4, 26):
            text = random_text(rng, sigma, 2048)
            bt = build_for(text)
            for _ in range(800):
                i = rng.randint(1, len(text))
                j = rng.randint(i, len(text))
                assert bytes(bt.extract(i, j)) == text[i - 1 : j]

    def test_repetitive_slices(self):
        # blocks longer than SHORT: ranges inside a held node below a long
        # one, ranges that split long nodes, and ranges across blocks
        rng = random.Random(40)
        text = repetitive_text(rng, 6000)
        bt = build_for(text)
        arena, b, n = bt.arena, bt.block_len, len(text)
        assert b > grammar.SHORT and arena.exp[bt.roots[0]] is None
        ranges = [(1, n)]
        for k, root in enumerate(bt.roots):
            stack = [(root, k * b + 1)]
            while stack:
                v, start = stack.pop()
                if arena.exp[v] is None:
                    stack += ((arena.left[v], start),
                              (arena.right[v], start + arena.length[arena.left[v]]))
                elif arena.length[v] > 1:
                    end = start + arena.length[v] - 1
                    cut = rng.randint(start, end - 1)
                    ranges += [(start, end), (start + 1, end), (start, end - 1),
                               (cut, cut + 1), (start, cut), (cut + 1, end)]
        for _ in range(800):
            i = rng.randint(1, n)
            ranges.append((i, min(n, i + rng.randint(0, 3 * b))))
        for i, j in ranges:
            assert bytes(bt.extract(i, j)) == text[i - 1 : j], (i, j)

    def test_long_extract_visits_fewer_nodes_than_chars(self):
        text = repetitive_text(random.Random(41), 6000)
        bt = build_for(text)
        before = bt.node_visits
        assert bytes(bt.extract(1, len(text))) == text
        assert bt.node_visits - before <= len(text) // 4

    def test_out_of_range(self):
        bt = build_for(b"\x01\x02\x03")
        for i, j in ((0, 2), (1, 4), (4, 2)):
            with pytest.raises(ValueError):
                bt.extract(i, j)


class TestSubstringFp:
    """The residue the benchmark's tracer wraps: PrefixFpTable over the
    extracted slice, on each test's ranges."""

    @staticmethod
    def assert_residue(bt, text, ranges):
        table = fp.PrefixFpTable(FN, text)
        for i, j in ranges:
            assert bt.substring_fp(i, j, FN) == table.values(i - 1, j - i + 1), (i, j)

    def test_matches_prefix_table(self):
        text = random_text(random.Random(34), 4, 1024)
        self.assert_residue(build_for(text), text, [(1, j) for j in range(1, len(text) + 1)])

    def test_empty(self):
        bt = build_for(b"\x01\x02\x03")
        assert bt.substring_fp(2, 1, FN) == 0

    def test_random_ranges(self):
        rng = random.Random(36)
        text = random_text(rng, 26, 2000)
        bt = build_for(text)
        b = bt.block_len
        assert len(bt.roots) > 3
        ranges = []
        for _ in range(500):
            i = rng.randint(1, len(text))
            ranges.append((i, rng.randint(i - 1, len(text))))
        for _ in range(300):  # ranges inside one block
            i = rng.randint(1, len(text))
            ranges.append((i, min(len(text), i + rng.randint(0, b - 1 - (i - 1) % b))))
        self.assert_residue(bt, text, ranges)

    def test_block_borders(self):
        rng = random.Random(38)
        text = random_text(rng, 4, 2000)
        bt = build_for(text)
        n, b, blocks = len(text), bt.block_len, len(bt.roots)
        assert blocks > 4 and n % b  # the last block is short
        ranges = [(1, n), (1, 0), (n + 1, n)]
        for k in range(blocks):
            s, e = k * b + 1, min(n, (k + 1) * b)  # exactly block k
            cut = rng.randint(1, e - s)
            ranges += [(s, e), (s, s), (e, e), (s + 1, e), (s, e - 1),
                       (s + cut, e), (s, s + cut - 1), (s, s - 1), (e + 1, e)]
            for k2 in range(k + 1, min(blocks, k + 4)):
                # runs of whole blocks, with whole or partial ends
                e2 = min(n, (k2 + 1) * b)
                ranges += [(s, e2), (s + cut, e2), (s, e2 - cut), (s + cut, e2 - 1),
                           (e, e2), (e, e + 1), (e, k2 * b + 1)]
        for _ in range(100):
            i = rng.randint(1, n)
            ranges.append((i, i))
        self.assert_residue(bt, text, ranges)
        for i, j in ranges:
            assert bt.matches(i, list(text[i - 1 : j])), (i, j)


class TestMatches:
    @staticmethod
    def pieces(bt, i, j):
        """The block-bounded pieces of text[i, j], as (start, end)."""
        b = bt.block_len
        out = []
        while i <= j:
            e = min(j, (i - 1) // b * b + b)
            out.append((i, e))
            i = e + 1
        return out

    def ranges(self, rng, bt, n):
        """(1, n), and ranges inside one block, across two and across three."""
        b = bt.block_len
        blocks = len(bt.roots)
        assert blocks > 3 and b > 2
        out = [(1, n)]
        for _ in range(30):
            k = rng.randrange(blocks - 3)
            i = k * b + rng.randint(1, b)
            for span in range(3):  # j in block k + span
                out.append((i, rng.randint(max(i, (k + span) * b + 1), (k + span + 1) * b)))
        return out

    def test_ranges_and_mismatches(self):
        rng = random.Random(42)
        for text in (random_text(rng, 4, 2000), repetitive_text(rng, 6000)):
            bt = build_for(text)
            n = len(text)
            spans = set()
            for i, j in self.ranges(rng, bt, n):
                piece = list(text[i - 1 : j])
                assert bt.matches(i, piece), (i, j)
                pieces = self.pieces(bt, i, j)
                spans.add(len(pieces))
                # a mismatch at the first and at the last symbol of each piece
                for a, e in pieces:
                    for pos in {a, e}:
                        wrong = piece.copy()
                        wrong[pos - i] = wrong[pos - i] % 4 + 1
                        assert not bt.matches(i, wrong), (i, j, pos)
            assert {1, 2, 3} <= spans and max(spans) == len(bt.roots)

    def test_window_of_a_longer_list(self):
        rng = random.Random(43)
        text = repetitive_text(rng, 3000)
        bt = build_for(text)
        b = bt.block_len
        for _ in range(50):
            i = rng.randint(1, len(text) - 2 * b)
            m = rng.randint(1, 2 * b)
            lo = rng.randint(0, 5)
            symbols = [9] * lo + list(text[i - 1 : i - 1 + m]) + [9] * 3
            assert bt.matches(i, symbols, lo, lo + m)
            assert not bt.matches(i, symbols, lo, lo + m + 1)  # takes in a 9
            for pos in (lo, lo + m - 1):
                wrong = symbols.copy()
                wrong[pos] = wrong[pos] % 4 + 1
                assert not bt.matches(i, wrong, lo, lo + m)

    def test_empty_and_out_of_range(self):
        bt = build_for(b"\x01\x02\x03" * 4)
        assert bt.matches(5, [])
        assert bt.matches(13, [])
        for i, symbols in ((0, [1]), (12, [3, 1]), (14, [])):
            with pytest.raises(ValueError):
                bt.matches(i, symbols)

    def test_stops_at_the_first_piece_that_differs(self):
        text = repetitive_text(random.Random(44), 6000)
        bt = build_for(text)
        b, n = bt.block_len, len(text)
        wrong = list(text)
        wrong[b - 1] = wrong[b - 1] % 4 + 1  # the last symbol of block 0
        before = bt.node_visits
        bt.extract(1, b)
        one_piece = bt.node_visits - before
        before = bt.node_visits
        assert not bt.matches(1, wrong)
        assert bt.node_visits - before == one_piece
        # a mismatch in the last block reads every block
        wrong = list(text)
        wrong[-1] = wrong[-1] % 4 + 1
        before = bt.node_visits
        assert not bt.matches(1, wrong)
        assert bt.node_visits - before > one_piece * (n // b) // 2
