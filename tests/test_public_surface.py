"""The exported names against the README's "Public surface" table."""

import re
from pathlib import Path

import unchained
from unchained import spectrum, symmetry

README = Path(__file__).resolve().parents[1] / "README.md"


def surface_names():
    # every backticked name between "## Public surface" and the next
    # second-level heading
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public surface\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([^`]+)`", section))


def test_readme_table_lists_exactly_the_exported_names():
    names = surface_names()
    exported = set(unchained.__all__)
    assert names == exported, (sorted(names - exported),
                               sorted(exported - names))
    assert len(unchained.__all__) == len(exported)


def test_module_exports_are_exported_by_the_package():
    exported = set(unchained.__all__)
    for module in (spectrum, symmetry):
        assert set(module.__all__) <= exported, module.__name__
