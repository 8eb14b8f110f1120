"""Compressed self-index over LZ77-parsed text.

Build an Index from a text, then locate patterns and extract substrings
without ever storing the text itself uncompressed.
"""

from . import fingerprints, grammar, lz77, prefix_search, range_report, trie
from .index import Index, IndexConfig, default_tau

__all__ = [
    "Index",
    "IndexConfig",
    "default_tau",
    "fingerprints",
    "grammar",
    "lz77",
    "prefix_search",
    "range_report",
    "trie",
]

__version__ = "0.1.0"
