"""The grammar's extraction bounds as exact counts.

Every piece of the extraction table but the text's last holds at least
min(block_len, 21) symbols when SHORT = 128, as the grammar module
docstring derives from the AVL balance: a node longer than SHORT has
height at least SHORT.bit_length() + 1, so each of its children has
height at least SHORT.bit_length() - 1 and at least the Fibonacci number
F(SHORT.bit_length()) symbols. So an extract of l symbols reads at most
2 + (l - 2) // min(block_len, 21) pieces, and a block of L > SHORT symbols
has from ceil(L / SHORT) to L // 21 pieces. The counts are checked on
adversarial texts at block lengths below and above SHORT.
"""

import random

import pytest

from lzindex import grammar, lz77

N = 2000
BLOCK_LENGTHS = (7, 64, 128, 129, 300, 1000)


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def shortest_piece(short: int) -> int:
    """The fewest symbols a child of a node longer than short can hold."""
    return fibonacci(short.bit_length())


def texts() -> dict[str, list[int]]:
    rng = random.Random(61)
    fib = [[1], [1, 2]]
    while len(fib[-1]) < N:
        fib.append(fib[-1] + fib[-2])
    period = ([1, 2, 3, 1, 2, 4, 2] * N)[:N]
    for pos in rng.sample(range(N), 12):
        period[pos] = period[pos] % 4 + 1
    base = [rng.randint(1, 1 << 40) for _ in range(150)]
    wide: list[int] = []
    while len(wide) < N:
        copy = list(base)
        copy[rng.randrange(len(copy))] = rng.randint(1, 1 << 40)
        wide += copy
    # a random text with runs of 300 and 400 copies of one symbol, and
    # short random pieces followed by one run of the rest
    runs = [rng.randint(1, 4) for _ in range(N)]
    runs[400:700] = [1] * 300
    runs[1200:1600] = [3] * 400
    crowded: list[int] = []
    while len(crowded) < 600:
        crowded += [rng.randint(1, 26) for _ in range(rng.randint(1, 6))]
    crowded += [1] * (N - len(crowded))
    return {
        "fibonacci": fib[-1][:N],
        "thue-morse": [1 + bin(i).count("1") % 2 for i in range(N)],
        "period 7 with substitutions": period,
        "a^(n-1)b": [1] * (N - 1) + [2],
        "sigma 2^40": wide[:N],
        "two runs": runs,
        "crowded run": crowded,
    }


TEXTS = texts()


def test_shortest_piece_is_the_docstrings():
    assert grammar.SHORT == 128 and shortest_piece(grammar.SHORT) == 21


@pytest.mark.parametrize("b", BLOCK_LENGTHS)
@pytest.mark.parametrize("name", list(TEXTS))
def test_pieces_per_block_and_per_extract(name, b):
    text = TEXTS[name]
    bt = grammar.build_slp(lz77.cap_phrases(lz77.parse(text), b, text), b, text)
    short, n = grammar.SHORT, len(text)
    s = min(b, shortest_piece(short))
    for k in range(len(bt.first) - 1):
        size = min(b, n - k * b)
        count = bt.first[k + 1] - bt.first[k]
        if size <= short:
            assert count == 1, k
        else:
            assert -(-size // short) <= count <= size // s, (k, count)
    assert all(len(t) >= s for t in bt.pieces[:-1])
    rng = random.Random(b)
    ranges = [(1, n), (2, n - 1), (n, n)]
    for i in range(1, n + 1, 7):
        for length in (1, 2, 3, s - 1, s, s + 1, b, b + 2, 3 * b, rng.randint(1, n)):
            ranges.append((i, min(n, i + length - 1)))
    worst = 0
    for i, j in ranges:
        before = bt.node_visits
        assert bt.extract(i, j) == text[i - 1 : j], (i, j)
        read, bound = bt.node_visits - before, 2 + (j - i - 1) // s
        assert read <= bound, (i, j, read, bound)
        worst = max(worst, read / bound)
    # the bound is met, not just respected from afar
    assert worst > 0.5
