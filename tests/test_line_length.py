# Line length of the package source: every line of src/unchained fits in
# 79 columns (PEP 8), docstrings and comments included, so a rewrap that
# a long line would need is done when the line is written.
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "unchained"
MAX_COLUMNS = 79


def _long_lines(sources):
    # "module:line (columns)" for every line of sources, a {name: text}
    # dict, longer than MAX_COLUMNS
    return [f"{name}:{number} ({len(line)})"
            for name, text in sources.items()
            for number, line in enumerate(text.splitlines(), 1)
            if len(line) > MAX_COLUMNS]


def test_package_source_was_found():
    assert {"continuation.py", "ngon.py", "__init__.py"} \
        <= {path.name for path in SRC.glob("*.py")}


def test_every_line_fits_in_79_columns():
    long = _long_lines({path.name: path.read_text()
                        for path in sorted(SRC.glob("*.py"))})
    assert not long, f"lines over {MAX_COLUMNS} columns: {long}"


def test_check_finds_a_planted_long_line():
    planted = {"m.py": "x = 1\n" + "y = " + "1" * 75 + "\n" + "z" * 80}
    assert _long_lines(planted) == ["m.py:3 (80)"]
