import dataclasses
import importlib.util
import math
import random
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from lzindex import fingerprints as fp
from lzindex import grammar, lz77
from lzindex._text import to_symbols

from conftest import random_text
from reference import expand, frontier

R = fp.select_function(0)
ROOT = Path(__file__).resolve().parent.parent


def build_for(text: bytes, block_len: int | None = None) -> grammar.BlockTable:
    """The grammar of text's capped parse, with blocks of block_len (default
    n / z rounded up)."""
    parsed = lz77.parse(text)
    if block_len is None:
        block_len = -(-parsed.n // parsed.z)
    return grammar.build_slp(lz77.cap_phrases(parsed, block_len, text), block_len, text)


class Grammar(NamedTuple):
    """A grammar as _grammar leaves it, with the table build_slp cuts from
    it."""
    arena: grammar._Arena
    roots: list[int]
    bt: grammar.BlockTable


def grammar_for(text: bytes, block_len: int | None = None) -> Grammar:
    """The grammar of text's capped parse, as build_for makes it, with its
    arena and block roots kept."""
    parsed = lz77.parse(text)
    if block_len is None:
        block_len = -(-parsed.n // parsed.z)
    arena, roots = grammar._grammar(lz77.cap_phrases(parsed, block_len, text), block_len)
    return Grammar(arena, roots, grammar.BlockTable(arena, block_len, roots, to_symbols(text)))


def blocks(bt) -> int:
    return len(bt.first) - 1


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


def grammars() -> list[tuple[bytes, Grammar]]:
    """Each corpus text with its grammar at its own block length and at
    301, past SHORT, so that some nodes are longer than SHORT."""
    return [(text, grammar_for(text, b)) for text in corpus() for b in (None, 301)]


def spellings(g: Grammar, text: bytes) -> dict[int, set[bytes]]:
    """The text at every occurrence of every node the block roots reach,
    by a walk of each block's whole tree."""
    arena, b = g.arena, g.bt.block_len
    out: dict[int, set[bytes]] = {}
    for k, root in enumerate(g.roots):
        stack = [(root, k * b)]
        while stack:
            v, start = stack.pop()
            out.setdefault(v, set()).add(text[start : start + arena.length[v]])
            l = arena.left[v]
            if l >= 0:
                stack += ((l, start), (arena.right[v], start + arena.length[l]))
    return out


def terminal_symbols(g: Grammar, text: bytes) -> dict[int, int]:
    """Each terminal's symbol, read off the text at its occurrences, which
    all spell the same one."""
    out = {}
    for v, spelt in spellings(g, text).items():
        if g.arena.left[v] < 0:
            assert len(spelt) == 1, v
            out[v] = next(iter(spelt))[0]
    return out


def block_pieces(bt, k: int) -> list[tuple]:
    """Block k's frontier tuples, off the table."""
    return bt.pieces[bt.first[k] : bt.first[k + 1]]


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
        """The pieces join to the text, and each root, expanded down to its
        terminals, to its block; the block's pieces are its frontier nodes'
        expansions."""
        rng = random.Random(31)
        texts = [(random_text(rng, sigma, 1500), None) for sigma in (2, 26)]
        texts += [(text, 301) for text in corpus()]
        for text, block_len in texts:
            g = grammar_for(text, block_len)
            bt = g.bt
            assert b"".join(map(bytes, bt.pieces)) == text
            symbols = terminal_symbols(g, text)
            b = bt.block_len
            for k, root in enumerate(g.roots):
                assert bytes(expand(g.arena, root, symbols)) == text[k * b : (k + 1) * b]
                assert block_pieces(bt, k) == [
                    tuple(expand(g.arena, v, symbols))
                    for v in frontier(g.arena, root, grammar.SHORT)]

    def test_table_partitions_the_text(self):
        """starts runs from 1 up to n + 1 by each piece's length, each piece
        is the text it starts, and first[k] is the piece that starts block
        k, at k * b + 1."""
        for text, (_, roots, bt) in grammars():
            starts, pieces, first = bt.starts, bt.pieces, bt.first
            n, b = len(text), bt.block_len
            assert len(starts) == len(pieces) + 1 and starts[0] == 1 and starts[-1] == n + 1
            for p, t in enumerate(pieces):
                assert 0 < len(t) <= grammar.SHORT
                assert starts[p + 1] == starts[p] + len(t)
                assert t == tuple(text[starts[p] - 1 : starts[p] - 1 + len(t)]), p
            assert len(first) == len(roots) + 1 == -(-n // b) + 1 and first[-1] == len(pieces)
            for k in range(len(roots)):
                assert first[k] < first[k + 1] and starts[first[k]] == k * b + 1


class TestCompact:
    """The grammar the build makes and drops: hash-consed, children before
    parents, and the nodes its block roots reach counted."""

    def test_node_count_is_the_reached_nodes(self):
        discarded = 0
        for text in corpus():
            g = grammar_for(text)
            arena = g.arena
            seen = set()
            stack = list(g.roots)
            while stack:
                v = stack.pop()
                if v not in seen:
                    seen.add(v)
                    if arena.left[v] >= 0:
                        stack += (arena.left[v], arena.right[v])
            assert g.bt.node_count == len(seen) == arena.reached(g.roots)
            assert g.bt.height == max(arena.height[r] for r in g.roots)
            discarded += len(arena.left) - len(seen)
        # the arena holds nodes no root reaches, which the count leaves out
        assert discarded

    def test_pairs_distinct_and_children_first(self):
        for text, g in grammars():
            arena = g.arena
            pairs = [(arena.left[v], arena.right[v]) for v in range(len(arena.left))
                     if arena.left[v] >= 0]
            assert len(set(pairs)) == len(pairs)
            for v, (a, b) in enumerate(zip(arena.left, arena.right)):
                assert (a < 0) == (b < 0)
                assert max(a, b) < v
            # terminals are distinct: each spells one symbol, none shared
            spelt = spellings(g, text)
            terminals = [s for v, s in spelt.items() if arena.left[v] < 0]
            assert all(len(s) == 1 and len(next(iter(s))) == 1 for s in terminals)
            assert len({s.pop() for s in terminals}) == len(terminals)

    def test_tuples_exactly_on_the_frontier(self):
        """The table holds one tuple per frontier node (at most SHORT
        symbols, and a block root or a child of a longer node), shared by
        all its occurrences, in the order the blocks' trees put them."""
        long_nodes = inner_short = 0
        for text, g in grammars():
            (arena, roots, bt), short = g, grammar.SHORT
            reached = spellings(g, text)
            frontier_nodes = {r for r in roots if arena.length[r] <= short}
            for v in reached:
                if arena.length[v] > short:
                    long_nodes += 1
                    frontier_nodes.update(c for c in (arena.left[v], arena.right[v])
                                          if arena.length[c] <= short)
            walked = [v for root in roots for v in frontier(arena, root, short)]
            assert set(walked) == frontier_nodes
            assert [len(t) for t in bt.pieces] == [arena.length[v] for v in walked]
            tuple_of = {}
            for v, t in zip(walked, bt.pieces):
                assert tuple_of.setdefault(v, t) is t, v
            assert len({id(t) for t in bt.pieces}) == len(frontier_nodes)
            inner_short += sum(arena.length[v] <= short for v in reached) - len(frontier_nodes)
        assert long_nodes and inner_short

    def test_tuples_equal_the_text(self):
        """Every occurrence of a node spells the same text, and its piece
        is that text; the distinct tuples hold at most n symbols."""
        for text, g in grammars():
            (arena, roots, bt) = g
            spelt = spellings(g, text)
            assert len(spelt) == bt.node_count
            assert all(len(s) == 1 for s in spelt.values())
            walked = [v for root in roots for v in frontier(arena, root, grammar.SHORT)]
            for v, t in zip(walked, bt.pieces, strict=True):
                assert t == tuple(next(iter(spelt[v]))), v
            assert 0 < bt.leaf_symbols <= len(text)
            assert bt.leaf_symbols == sum(arena.length[v] for v in set(walked))


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
    def build(monkeypatch, text, concat=None) -> tuple[Grammar, int]:
        """The grammar and the number of nodes made."""
        with monkeypatch.context() as m:
            if concat is not None:
                m.setattr(grammar._Arena, "concat", concat)
            g = grammar_for(text)
        return g, len(g.arena.left)

    def test_pairs_balanced(self):
        for text in bench_texts():
            a = grammar_for(text).arena
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
            g, made = self.build(monkeypatch, text)
            old, old_made = self.build(monkeypatch, text, left_fold)
            bt = g.bt
            assert bytes(bt.extract(1, len(text))) == text
            assert len(g.roots) == len(old.roots)
            assert made <= old_made and bt.node_count <= old.bt.node_count
            if repetitive:
                assert made < 0.85 * old_made
            assert bt.height <= old.bt.height
            # Knuth's AVL bound: a tree of N pairs is under
            # 1.4405 lg(N + 2) - 0.3277 levels of pairs; a root of len
            # symbols has len - 1 pairs and height - 1 levels of them
            arena = g.arena
            for r in g.roots:
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
        # blocks longer than SHORT: ranges inside a piece, ranges that
        # cross pieces inside one block, and ranges across blocks
        rng = random.Random(40)
        text = repetitive_text(rng, 6000)
        bt = build_for(text, 301)
        b, n = bt.block_len, len(text)
        assert b > grammar.SHORT and bt.first[1] > 1
        ranges = [(1, n)]
        for p, t in enumerate(bt.pieces):
            if len(t) > 1:
                start = bt.starts[p]
                end = start + len(t) - 1
                cut = rng.randint(start, end - 1)
                ranges += [(start, end), (start + 1, end), (start, end - 1),
                           (cut, cut + 1), (start, cut), (cut + 1, end)]
        for _ in range(800):
            i = rng.randint(1, n)
            ranges.append((i, min(n, i + rng.randint(0, 3 * b))))
        for i, j in ranges:
            assert bytes(bt.extract(i, j)) == text[i - 1 : j], (i, j)

    def test_ranges_at_piece_edges(self):
        """Ranges that start at every piece edge, one before it or one after
        it, and end at each of the next three edges the same way, or at n,
        on corpus texts whose blocks are longer than SHORT; each reads the
        pieces it meets."""
        for text, g in grammars():
            bt = g.bt
            b, n, starts = bt.block_len, len(text), bt.starts
            if b <= grammar.SHORT:
                continue
            assert len(bt.pieces) > blocks(bt)
            for p in range(len(bt.pieces)):
                for i in range(starts[p] - 1, starts[p] + 2):
                    if not 1 <= i <= n:
                        continue
                    ends = {n} | {e + d for e in starts[p + 1 : p + 4] for d in (-2, -1, 0)}
                    for j in ends:
                        if i - 1 <= j <= n:
                            before = bt.node_visits
                            assert bytes(bt.extract(i, j)) == text[i - 1 : j], (i, j)
                            assert bt.node_visits - before == pieces_oracle(g, i, j), (i, j)

    def test_long_extract_visits_fewer_nodes_than_chars(self):
        text = repetitive_text(random.Random(41), 6000)
        bt = build_for(text)
        before = bt.node_visits
        assert bytes(bt.extract(1, len(text))) == text
        assert bt.node_visits - before <= len(text) // 4

    @pytest.mark.parametrize("built, queried", [(32, 128), (128, 32)])
    def test_short_read_only_at_build(self, monkeypatch, built, queried):
        # block_len 64 lies between the two values: whether a block is one
        # piece is what the build made, whatever SHORT reads later
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


def pieces_oracle(g: Grammar, i: int, j: int) -> int:
    """The pieces a read of text[i, j] must take: the frontier nodes of
    the blocks it meets whose spans meet [i, j], found by walking each of
    those blocks' trees (reference.frontier), not by the table."""
    arena, b = g.arena, g.bt.block_len
    count = 0
    for k in range((i - 1) // b, (j - 1) // b + 1):
        start = k * b + 1
        for v in frontier(arena, g.roots[k], grammar.SHORT):
            end = start + arena.length[v] - 1
            count += start <= j and end >= i
            start = end + 1
    return count


class TestBlockLengths:
    """Extraction at block lengths around SHORT: up to SHORT every block
    is one piece, past it only a short last block is."""

    N = 2940  # n % b <= SHORT for every b below, so the last block is one piece
    LENGTHS = (1, 2, 7, 31, 32, 33, 64, 127, 128, 129, 256)

    @pytest.fixture(scope="class")
    def text(self):
        return repetitive_text(random.Random(45), self.N)

    @staticmethod
    def check_ranges(text, b):
        """Extract equals slicing and reads the oracle's pieces, and
        matches holds, on ranges at every scale; every pair is balanced."""
        g = grammar_for(text, b)
        a, bt = g.arena, g.bt
        for l, r, h, length in zip(a.left, a.right, a.height, a.length):
            if l >= 0:
                assert abs(a.height[l] - a.height[r]) <= 1
                assert h == max(a.height[l], a.height[r]) + 1
                assert length == a.length[l] + a.length[r]
        n, count = len(text), blocks(bt)
        one_piece = [len(block_pieces(bt, k)) == 1 for k in range(count)]
        assert all(one_piece) == (b <= grammar.SHORT) and one_piece[-1]
        rng = random.Random(b)
        ranges = [(1, n), (n, n), (1, 0), (n + 1, n)]
        ranges += [(i, i) for i in range(1, n + 1)]
        for k in range(0, count, max(1, count // 40)):
            s = k * b + 1
            i = min(n, s + rng.randrange(b))
            ranges += [(s, min(n, s + b - 1)), (s, min(n, s + 5 * b - 1)),
                       (i, min(n, i + rng.randrange(30 * b)))]
        for _ in range(60):  # runs that end inside the one-piece last block
            i = rng.randint(1, n)
            ranges.append((i, rng.randint(max(i, (count - 1) * b + 1), n)))
        for _ in range(300):
            i = rng.randint(1, n)
            ranges.append((i, min(n, i + rng.randint(0, 3 * b))))
        for i, j in ranges:
            before = bt.node_visits
            assert bytes(bt.extract(i, j)) == text[i - 1 : j], (i, j)
            assert bt.node_visits - before == pieces_oracle(g, i, j), (i, j)
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
        assert blocks(bt) > 3
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
        n, b, count = len(text), bt.block_len, blocks(bt)
        assert count > 4 and n % b  # the last block is short
        ranges = [(1, n), (1, 0), (n + 1, n)]
        for k in range(count):
            s, e = k * b + 1, min(n, (k + 1) * b)  # exactly block k
            cut = rng.randint(1, e - s)
            ranges += [(s, e), (s, s), (e, e), (s + 1, e), (s, e - 1),
                       (s + cut, e), (s, s + cut - 1), (s, s - 1), (e + 1, e)]
            for k2 in range(k + 1, min(count, k + 4)):
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
        b, count = bt.block_len, blocks(bt)
        assert count > 3 and b > 2
        out = [(1, n)]
        for _ in range(30):
            k = rng.randrange(count - 3)
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
            assert {1, 2, 3} <= spans and max(spans) == blocks(bt)

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
