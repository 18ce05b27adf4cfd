"""The public surface: every exported name resolves, a star import works,
the README's library example runs as written, its scenario table lists
the flags each scenario takes, and its config table lists each subcommand's
keys and defaults."""

import pathlib
import re

import lyapcert
from lyapcert import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert [name for name in lyapcert.__all__ if not hasattr(lyapcert, name)] == []
    assert len(set(lyapcert.__all__)) == len(lyapcert.__all__)


def test_star_import():
    namespace = {}
    exec("from lyapcert import *", namespace)
    assert set(lyapcert.__all__) <= set(namespace)


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("True ")
    assert lines[1].startswith("monotone decrease: yes")


def test_readme_scenario_flags_match_the_table():
    section = README.read_text(encoding="utf-8").split("\n## Scenarios\n", 1)[1]
    rows = re.findall(r"^\| `([\w-]+)` +\| ([^|]*)\|", section, re.M)
    listed = {name: set(re.findall(r"--([\w-]+)", flags)) for name, flags in rows}
    assert listed == {name: {key.replace("_", "-") for key in row}
                      for name, (_, row) in lyapcert.SCENARIOS.items()}


def test_readme_config_table_matches_the_commands():
    section = README.read_text(encoding="utf-8").split("\n### Config files\n", 1)[1]
    section = section.split("\n## Scenarios\n", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` \| (.*?) \| (.*?) \|$", section, re.M)
    listed = {name: (re.findall(r"`([\w-]+)`", positional), cells.split())
              for name, positional, cells in rows}
    assert listed == {
        name: ([positional] if positional else [],
               [f"`{key}`" if default is None else f"`{key}={default}`"
                for key, default in row.items()])
        for name, (_, positional, row) in cli.COMMANDS.items()}
