"""README's API list and CLI synopsis match the package, and its quickstart runs."""

import re
from pathlib import Path

import lowdin as lo
from lowdin.cli import _build_parser

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


def test_cli_synopsis_lists_exactly_the_parser_options():
    synopsis = re.search(r"```\n(lowdin COMMAND .*?)```", section("CLI"), flags=re.DOTALL)[1]
    listed = re.findall(r"--[a-z-]+", synopsis)
    defined = {option for action in _build_parser()._actions for option in action.option_strings}
    assert len(listed) == len(set(listed))
    assert set(listed) == defined - {"-h", "--help"}
