"""Golden index files: a fixed text and seed build the same bytes.

Each case pins the full md5 of `Index.to_bytes()`. A change that only
reorganises the build or the queries must leave every pin as it is. A
deliberate change of the file format, or of what a build stores for a given
text and seed, updates the pins in the same change and says so in
CHANGES.md.
"""

import hashlib
import random

import pytest

from conftest import mutated_copies, random_text
from lzindex import Index, IndexConfig


def _integer_text() -> list[int]:
    """1,000 distinct symbols below 2^40, then 3,000 drawn from them."""
    rng = random.Random(3)
    symbols = rng.sample(range(1, 1 << 40), 1000)
    return symbols + [rng.choice(symbols) for _ in range(3000)]


CASES = {
    "mutated_copies": (lambda: mutated_copies(random.Random(1), 300, 6000, 3), None,
                       "bfb984958cca8dc629d7dc6c7bec2dc0"),
    "random_sigma4": (lambda: random_text(random.Random(2), 4, 3000), None,
                      "2857313748bbd465b1f5d25c64b135b1"),
    "integers": (_integer_text, None, "509cede2898a2dbfd3985a04204ff986"),
    "self_overlapping_run": (lambda: b"ab" * 700 + b"c" + b"ab" * 300,
                             IndexConfig(tau=2, seed=3), "1f2edacdfbe280a25843a7fd0cd7a48c"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_index_file_is_pinned(name):
    make, config, pin = CASES[name]
    data = Index.build(make(), config).to_bytes()
    assert hashlib.md5(data).hexdigest() == pin
    assert Index.from_bytes(data).to_bytes() == data
