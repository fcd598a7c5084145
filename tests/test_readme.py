"""The README's CLI walkthrough runs as written, and its prose names real options.

Every ``jlkit`` line of the ``## CLI walkthrough`` block, continuations
joined, goes through ``cli.main`` in a fresh directory and must exit 0.
Every backticked ``--option`` outside the code blocks is an option of
some ``jlkit`` subcommand.
"""

import argparse
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
