"""The README's CLI walkthrough runs as written, and its prose names real options.

Every ``jlkit`` line of the ``## CLI walkthrough`` block, continuations
joined, goes through ``cli.main`` in a fresh directory and must exit 0.
Every backticked ``--option`` outside the code blocks is an option of
some ``jlkit`` subcommand.  Every function the claim map names is
exported by its module.
"""

import argparse
import importlib
import inspect
import re
import shlex
from pathlib import Path

from jlkit.cli import _build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def walkthrough_commands():
    section = README.read_text().split("## CLI walkthrough", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("jlkit ")]


def claim_map_functions():
    """(module, function) for each backticked ``module.function`` in the claim map's functions column."""
    section = README.read_text().split("### Claim map", 1)[1].split("\n#", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| ") and "`" in line]
    return [tuple(name.split(".")) for row in rows for name in re.findall(r"`(\w+\.\w+)`", row[1])]


def test_claim_map_names_exported_functions():
    named = claim_map_functions()
    assert len(named) >= 6
    modules = {mod: importlib.import_module(f"jlkit.{mod}") for mod, _ in named}
    not_exported = [f"{mod}.{fn}" for mod, fn in named
                    if fn not in modules[mod].__all__ or not inspect.isfunction(getattr(modules[mod], fn))]
    assert not_exported == []


def test_walkthrough_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = walkthrough_commands()
    assert len(commands) >= 10
    for argv in commands:
        if argv[:2] == ["reproduce", "fig-distortion"]:
            continue  # the slow test_distortion_figure_dataset covers it
        assert main(argv) == 0, f"jlkit {' '.join(argv)}: {capsys.readouterr().err}"


def test_prose_options_exist():
    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for p in subparsers.choices.values() for a in p._actions for opt in a.option_strings}
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    named = set(re.findall(r"`(--[a-z][a-z-]*)`", prose))
    assert named and not named - options, f"README names missing options: {sorted(named - options)}"
