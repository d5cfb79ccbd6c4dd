"""README's API section lists exactly the names ``lowdin`` exports, and its quickstart runs."""

import re
from pathlib import Path

import lowdin as lo

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title):
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def api_names():
    return re.findall(r"^- `(\w+)` — ", section("API"), flags=re.MULTILINE)


def test_api_section_lists_exactly_the_exports():
    names = api_names()
    assert len(names) == len(set(names))
    assert set(names) == set(lo.__all__)


def test_library_quickstart_runs():
    code = re.search(r"```python\n(.*?)```", section("Library quickstart"), flags=re.DOTALL)[1]
    exec(compile(code, "README.md", "exec"), {})
