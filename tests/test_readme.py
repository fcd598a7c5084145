"""The README's CLI walkthrough runs as written, and its prose names real options.

Every ``jlkit`` line of the ``## CLI walkthrough`` block, continuations
joined, goes through ``cli.main`` in a fresh directory and must exit 0.
Every backticked ``--option`` outside the code blocks is an option of
some ``jlkit`` subcommand.  Every function the claim map names is
exported by its module.
"""

import importlib
import inspect
import re
import shlex

import pytest

from jlkit.cli import main
from tests.reference import README, claim_map_functions


def walkthrough_commands():
    section = README.read_text().split("## CLI walkthrough", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("jlkit ")]


def help_text(capsys, *argv):
    with pytest.raises(SystemExit):
        main([*argv, "--help"])
    return capsys.readouterr().out


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


def test_prose_options_exist(capsys):
    # Each subcommand's options, as its --help lists them.
    commands = re.search(r"\{([a-z,-]+)\}", help_text(capsys)).group(1).split(",")
    options = {opt for command in commands
               for opt in re.findall(r"^ +(?:-\w, )?(--[a-z][a-z-]*)", help_text(capsys, command), re.M)}
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    named = set(re.findall(r"`(--[a-z][a-z-]*)`", prose))
    assert named and not named - options, f"README names missing options: {sorted(named - options)}"
