import dataclasses
import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest

from lzindex import fingerprints as fp
from lzindex import grammar, lz77

from conftest import random_text

R = fp.select_function(0)
ROOT = Path(__file__).resolve().parent.parent


def build_for(text: bytes, block_len: int | None = None) -> grammar.BlockTable:
    """The grammar of text's capped parse, with blocks of block_len (default
    n / z rounded up)."""
    parsed = lz77.parse(text)
    if block_len is None:
        block_len = -(-parsed.n // parsed.z)
    return grammar.build_slp(lz77.cap_phrases(parsed, block_len, text), block_len, text)


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


def grammars() -> list[tuple[bytes, grammar.BlockTable]]:
    """Each corpus text with its grammar at its own block length and at
    301, past SHORT, so that some nodes are longer than SHORT."""
    return [(text, build_for(text, b)) for text in corpus() for b in (None, 301)]


def spellings(bt, text: bytes) -> dict[int, set[bytes]]:
    """The text at every occurrence of every node, by a walk of each
    block's whole tree."""
    arena, b = bt.arena, bt.block_len
    out: dict[int, set[bytes]] = {}
    for k, root in enumerate(bt.roots):
        stack = [(root, k * b)]
        while stack:
            v, start = stack.pop()
            out.setdefault(v, set()).add(text[start : start + arena.length[v]])
            l = arena.left[v]
            if l >= 0:
                stack += ((l, start), (arena.right[v], start + arena.length[l]))
    return out


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
        text = b"\x01" * 32
        parsed = lz77.parse(text)  # one long copy phrase
        with pytest.raises(ValueError, match="phrase exceeds block length"):
            grammar.build_slp(parsed, 2, text)

    def test_blocks_concatenate_to_text(self):
        rng = random.Random(31)
        for sigma in (2, 26):
            text = random_text(rng, sigma, 1500)
            bt = build_for(text)
            out = []
            for root in bt.roots:
                piece: list[int] = []
                bt.arena.expand([root], piece)
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
        for text, bt in grammars():
            arena = bt.arena
            pairs = [(arena.left[v], arena.right[v]) for v in range(len(arena.left))
                     if arena.left[v] >= 0]
            assert len(set(pairs)) == len(pairs)
            for v, (a, b) in enumerate(zip(arena.left, arena.right)):
                assert (a < 0) == (b < 0)
                assert max(a, b) < v
            # terminals are distinct: each spells one symbol, none shared
            spelt = spellings(bt, text)
            terminals = [spelt[v] for v in range(bt.node_count) if arena.left[v] < 0]
            assert all(len(s) == 1 and len(next(iter(s))) == 1 for s in terminals)
            assert len({s.pop() for s in terminals}) == len(terminals)

    def test_tuples_exactly_on_the_frontier(self):
        """A node holds a tuple iff it has at most SHORT symbols and is a
        block root or a child of a longer node."""
        long_nodes = inner_short = 0
        for _, bt in grammars():
            arena, short = bt.arena, grammar.SHORT
            frontier = {r for r in bt.roots if arena.length[r] <= short}
            for v in range(bt.node_count):
                if arena.length[v] > short:
                    long_nodes += 1
                    frontier.update(c for c in (arena.left[v], arena.right[v])
                                    if arena.length[c] <= short)
            held = {v for v, t in enumerate(arena.exp) if t is not None}
            assert held == frontier
            inner_short += sum(arena.length[v] <= short for v in range(bt.node_count)) - len(held)
        assert long_nodes and inner_short

    def test_tuples_equal_the_text(self):
        """Every occurrence of a node spells the same text, and its tuple
        is that text; the tuples hold at most n symbols."""
        for text, bt in grammars():
            arena = bt.arena
            spelt = spellings(bt, text)
            assert set(spelt) == set(range(bt.node_count))
            for v, t in enumerate(arena.exp):
                assert len(spelt[v]) == 1, v
                if t is not None:
                    assert t == tuple(next(iter(spelt[v]))), v
            assert 0 < bt.leaf_symbols <= len(text)


def bench_texts() -> list[bytes]:
    """The benchmark's three generators (bench/workloads.py) at small n."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    workloads = sys.modules[name].WORKLOADS
    return [sys.modules[name].make_text(dataclasses.replace(workloads[w], n=n), 1)
            for w, n in (("repetitive", 20_000), ("repetitive-large", 60_000),
                         ("random", 10_000))]


def left_fold(arena, nodes: list[int]) -> int:
    """concat as one left-to-right fold: the reference that the stack pass
    is measured against."""
    root = nodes[0]
    for v in nodes[1:]:
        root = arena.join(root, v)
    return root


class TestConcatOrder:
    """Block pieces joined by the stack pass, against one left-to-right
    fold."""

    @staticmethod
    def build(monkeypatch, text, concat=None) -> tuple[grammar.BlockTable, int]:
        """The grammar and the number of nodes made before compact."""
        made = []
        compact = grammar._Arena.compact

        def counting(arena, roots):
            made.append(len(arena.left))
            return compact(arena, roots)

        with monkeypatch.context() as m:
            m.setattr(grammar._Arena, "compact", counting)
            if concat is not None:
                m.setattr(grammar._Arena, "concat", concat)
            bt = build_for(text)
        return bt, made[0]

    def test_pairs_balanced(self):
        for text in bench_texts():
            bt = build_for(text)
            a = bt.arena
            for v, (l, r) in enumerate(zip(a.left, a.right)):
                if l >= 0:
                    assert abs(a.height[l] - a.height[r]) <= 1, v
                    assert a.height[v] == max(a.height[l], a.height[r]) + 1
                    assert a.length[v] == a.length[l] + a.length[r]

    def test_three_symbols_have_one_shape(self):
        """Three terminals in a row, a terminal then a pair and a pair then
        a terminal all make ((x y) z), one node for the three."""
        arena = grammar._Arena()
        x, y, z = (arena.terminal(s) for s in (1, 2, 3))
        roots = {arena.concat([x, y, z]), arena.concat([x, arena.pair(y, z)]),
                 arena.concat([arena.pair(x, y), z])}
        assert roots == {arena.pair(arena.pair(x, y), z)}

    def test_no_taller_and_fewer_nodes(self, monkeypatch):
        for text, repetitive in zip(bench_texts(), (True, True, False)):
            bt, made = self.build(monkeypatch, text)
            old, old_made = self.build(monkeypatch, text, left_fold)
            assert bytes(bt.extract(1, len(text))) == text
            assert len(bt.roots) == len(old.roots)
            assert made <= old_made and bt.node_count <= old.node_count
            if repetitive:
                assert made < 0.85 * old_made
            assert max(bt.block_heights()) <= max(old.block_heights())
            # Knuth's AVL bound: a tree of N pairs is under
            # 1.4405 lg(N + 2) - 0.3277 levels of pairs; a root of len
            # symbols has len - 1 pairs and height - 1 levels of them
            arena = bt.arena
            for r in bt.roots:
                assert arena.height[r] - 1 < 1.4405 * math.log2(arena.length[r] + 1) - 0.3277


class TestCover:
    @staticmethod
    def spell(arena, v) -> list[int]:
        symbol = {u: s for s, u in arena._terminals.items()}
        if arena.left[v] < 0:
            return [symbol[v]]
        return TestCover.spell(arena, arena.left[v]) + TestCover.spell(arena, arena.right[v])

    def test_pieces_spell_every_range(self):
        arena = grammar._Arena()
        text = [1, 2, 3, 1, 2, 2, 3, 1, 1, 3, 2]
        v = arena.concat([arena.terminal(c) for c in text])
        for lo in range(1, len(text) + 1):
            for hi in range(lo, len(text) + 1):
                pieces: list[int] = []
                arena.cover(v, lo, hi, pieces)
                assert sum((self.spell(arena, u) for u in pieces), []) == text[lo - 1 : hi]

    def test_range_checked(self):
        # a range past the node would step from a terminal to left[-1]
        arena = grammar._Arena()
        x = arena.terminal(1)
        v = arena.concat([x, arena.terminal(2), arena.terminal(3)])
        for node, lo, hi in ((x, 2, 2), (x, 0, 1), (v, 0, 1), (v, 1, arena.length[v] + 1),
                             (v, 3, 2), (v, 4, 4)):
            with pytest.raises(ValueError, match="range out of bounds"):
                arena.cover(node, lo, hi, [])


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
        bt = build_for(text, 301)
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

    @pytest.mark.parametrize("built, queried", [(32, 128), (128, 32)])
    def test_short_read_only_at_build(self, monkeypatch, built, queried):
        # block_len 64 lies between the two values: whether the roots hold
        # their blocks is what the build made, whatever SHORT reads later
        text = repetitive_text(random.Random(46), 3000)
        monkeypatch.setattr(grammar, "SHORT", built)
        bt = build_for(text, 64)
        monkeypatch.setattr(grammar, "SHORT", queried)
        n = len(text)
        for i, j in ((1, n), (60, 300), (2, n - 1)):
            assert bytes(bt.extract(i, j)) == text[i - 1 : j], (i, j)
            assert bt.matches(i, list(text[i - 1 : j])), (i, j)

    def test_out_of_range(self):
        bt = build_for(b"\x01\x02\x03")
        for i, j in ((0, 2), (1, 4), (4, 2)):
            with pytest.raises(ValueError):
                bt.extract(i, j)


def visits_oracle(bt, i: int, j: int) -> int:
    """The nodes a read of text[i, j] passes: every node whose span meets
    [i, j] and has no node above it, in its block's tree, that holds its
    expansion; found by a walk of each block's tree."""
    arena, b = bt.arena, bt.block_len
    count = 0
    for k in range((i - 1) // b, (j - 1) // b + 1):
        stack = [(bt.roots[k], k * b + 1)]
        while stack:
            v, start = stack.pop()
            if start > j or start + arena.length[v] - 1 < i:
                continue
            count += 1
            if arena.exp[v] is None:
                l = arena.left[v]
                stack += ((l, start), (arena.right[v], start + arena.length[l]))
    return count


class TestBlockLengths:
    """Extraction at block lengths around SHORT: up to SHORT every block
    root holds its expansion, past it only a short last block's root does."""

    N = 2940  # n % b <= SHORT for every b below, so the last root is held
    LENGTHS = (1, 2, 7, 31, 32, 33, 64, 127, 128, 129, 256)

    @pytest.fixture(scope="class")
    def text(self):
        return repetitive_text(random.Random(45), self.N)

    @staticmethod
    def check_ranges(text, b):
        """Extract equals slicing and counts the oracle's visits, and
        matches holds, on ranges at every scale; every pair is balanced."""
        bt = build_for(text, b)
        a = bt.arena
        for l, r, h, length in zip(a.left, a.right, a.height, a.length):
            if l >= 0:
                assert abs(a.height[l] - a.height[r]) <= 1
                assert h == max(a.height[l], a.height[r]) + 1
                assert length == a.length[l] + a.length[r]
        exp, n, blocks = a.exp, len(text), len(bt.roots)
        held = [exp[r] is not None for r in bt.roots]
        assert all(held) == (b <= grammar.SHORT) and held[-1]
        rng = random.Random(b)
        ranges = [(1, n), (n, n), (1, 0), (n + 1, n)]
        ranges += [(i, i) for i in range(1, n + 1)]
        for k in range(0, blocks, max(1, blocks // 40)):
            s = k * b + 1
            i = min(n, s + rng.randrange(b))
            ranges += [(s, min(n, s + b - 1)), (s, min(n, s + 5 * b - 1)),
                       (i, min(n, i + rng.randrange(30 * b)))]
        for _ in range(60):  # runs that end inside the held last block
            i = rng.randint(1, n)
            ranges.append((i, rng.randint(max(i, (blocks - 1) * b + 1), n)))
        for _ in range(300):
            i = rng.randint(1, n)
            ranges.append((i, min(n, i + rng.randint(0, 3 * b))))
        for i, j in ranges:
            before = bt.node_visits
            assert bytes(bt.extract(i, j)) == text[i - 1 : j], (i, j)
            assert bt.node_visits - before == visits_oracle(bt, i, j), (i, j)
            assert bt.matches(i, list(text[i - 1 : j])), (i, j)

    @pytest.mark.parametrize("b", LENGTHS)
    def test_ranges_and_visits(self, text, b):
        self.check_ranges(text, b)

    @staticmethod
    def periodic_texts() -> dict[str, bytes]:
        """N symbols each of a^(N-1)b, a period-7 text, the Fibonacci word
        and the Thue-Morse word."""
        n = TestBlockLengths.N
        fib = [b"\x01", b"\x01\x02"]
        while len(fib[-1]) < n:
            fib.append(fib[-1] + fib[-2])
        return {
            "a^(n-1)b": b"\x01" * (n - 1) + b"\x02",
            "period 7": (b"\x01\x02\x03\x01\x02\x04\x02" * n)[:n],
            "fibonacci": fib[-1][:n],
            "thue-morse": bytes(1 + bin(i).count("1") % 2 for i in range(n)),
        }

    @pytest.mark.parametrize("b", LENGTHS)
    @pytest.mark.parametrize("name", ["a^(n-1)b", "period 7", "fibonacci", "thue-morse"])
    def test_sources_in_the_unfinished_block(self, name, b):
        """Texts whose phrases copy from the block still being built, and
        whose self-overlapping copies cross block edges: the build reads
        such sources from the block's pieces."""
        text = self.periodic_texts()[name]
        parsed = lz77.parse(text)
        pos, inside, overlapping = 1, 0, 0
        for ph in lz77.cap_phrases(parsed, b, text).phrases:
            if ph.len:
                block_start = (pos - 1) // b * b + 1
                inside += ph.start + ph.len - 1 >= block_start
                overlapping += (ph.start + ph.len - 1 >= pos
                                and (pos - 1) // b != (pos + ph.len - 1) // b)
            pos += ph.span()
        if b > 2:
            assert inside
        # the Fibonacci and Thue-Morse parses copy without self-overlap
        if b - 1 > {"a^(n-1)b": 1, "period 7": 7}.get(name, b):
            assert overlapping
        self.check_ranges(text, b)

    @pytest.mark.parametrize("b", [b for b in LENGTHS if b <= grammar.SHORT])
    def test_held_root_run_counts_one_visit_a_block(self, text, b):
        bt = build_for(text, b)
        n = len(text)
        for i, j in ((1, n), (2, n - 1), (b + 1, min(n, 40 * b)), (b, b + 1), (5, 5), (n, n)):
            before = bt.node_visits
            assert bytes(bt.extract(i, j)) == text[i - 1 : j]
            assert bt.node_visits - before == (j - 1) // b - (i - 1) // b + 1, (i, j)


class TestSubstringFp:
    """The residue the benchmark's tracer wraps: PrefixFpTable over the
    extracted slice, on each test's ranges."""

    @staticmethod
    def assert_residue(bt, text, ranges):
        table = fp.PrefixFpTable(R, text)
        for i, j in ranges:
            assert bt.substring_fp(i, j, R) == table.values(i - 1, j - i + 1), (i, j)

    def test_matches_prefix_table(self):
        text = random_text(random.Random(34), 4, 1024)
        self.assert_residue(build_for(text), text, [(1, j) for j in range(1, len(text) + 1)])

    def test_empty(self):
        bt = build_for(b"\x01\x02\x03")
        assert bt.substring_fp(2, 1, R) == 0

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
