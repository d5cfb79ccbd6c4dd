"""README's API section lists exactly the names ``lowdin`` exports."""

import re
from pathlib import Path

import lowdin as lo

README = Path(__file__).resolve().parent.parent / "README.md"


def api_names():
    section = README.read_text(encoding="utf-8").split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)` — ", section, flags=re.MULTILINE)


def test_api_section_lists_exactly_the_exports():
    names = api_names()
    assert len(names) == len(set(names))
    assert set(names) == set(lo.__all__)
