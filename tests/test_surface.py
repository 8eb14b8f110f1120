"""The public surface: what an index operation runs, so that no entry point
serves the tests alone."""

import lzindex
from lzindex import Index


def test_package_exports():
    assert sorted(lzindex.__all__) == [
        "Index", "IndexConfig", "default_tau", "fingerprints", "grammar", "lz77",
        "prefix_search", "range_report", "trie",
    ]


def test_index_public_names():
    # build, load and their file format, the two queries and the reports
    public = {name for name in dir(Index) if not name.startswith("_")}
    assert public == {
        "build", "load", "from_bytes", "to_bytes", "save", "locate", "extract", "stats",
        "component_sizes",
    }
