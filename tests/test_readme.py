"""README's description of the index file against the code."""

import random
import re
from pathlib import Path

from lzindex import Index, index as ix

from conftest import random_text

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_names_magic_and_sections():
    text = README.read_text(encoding="utf-8")
    assert "`" + ix.MAGIC.decode("ascii").replace("\n", "\\n") + "`" in text
    # the section table under "Index file": one row per section, in file order
    part = text[text.index("## Index file") :]
    part = part[: part.index("\n## ")]
    listed = re.findall(r"^\| `(\w+)` \|", part, flags=re.MULTILINE)
    idx = Index.build(random_text(random.Random(43), 4, 200))
    assert listed == list(idx.component_sizes())


def test_readme_lists_the_stats_keys():
    # the keys under "Library usage", in the order stats() returns them
    text = README.read_text(encoding="utf-8")
    part = text[text.index("## Library usage") :]
    part = part[: part.index("\n## ")]
    part = part[part.index("`stats()` returns") :].split("\n\n")[0]
    listed = re.findall(r"`(\w+)`", part)
    idx = Index.build(random_text(random.Random(44), 4, 200))
    assert listed == list(idx.stats())
