"""README's API list and CLI synopsis match the package, and its quickstart runs."""

import re
from pathlib import Path

import numpy as np

import lowdin as lo
from lowdin.cli import COMMANDS, _build_parser

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


def reported_residuals(command):
    """The ``residuals`` keys a command's report holds."""
    names = command.residuals or lo.factorize(np.eye(2)).bounds()
    return {"orthonormality" if n.endswith("_orthonormality") else n for n in names}


def test_cli_table_matches_the_command_table():
    rows = re.findall(r"^\| `(\w+)` \| (.*) \| (.*) \|$", section("CLI"), flags=re.MULTILINE)
    table = {name: (files, residuals) for name, files, residuals in rows}
    assert len(table) == len(rows)
    assert set(table) == set(COMMANDS)
    for name, (files, residuals) in table.items():
        command = COMMANDS[name]
        assert re.findall(r"`(\w+)`", files) == [f"{name}_{view}" for view in command.views], name
        if residuals == "all of the above":
            listed = set().union(*(table[other][1].split(", ") for other in table if other != name))
        else:
            listed = set(residuals.split(", "))
        assert listed == reported_residuals(command), name


def test_report_lists_exactly_the_reported_residual_keys():
    stable = re.search(r"`residuals` keys are stable: (.*?)\.\n", section("CLI"), flags=re.DOTALL)[1]
    keys = re.findall(r"`(\w+)`", stable)
    assert len(keys) == len(set(keys))
    assert set(keys) == set().union(*(reported_residuals(c) for c in COMMANDS.values()))
