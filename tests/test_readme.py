"""The README's CLI walkthrough runs as written.

Every ``jlkit`` line of the ``## CLI walkthrough`` block, continuations
joined, goes through ``cli.main`` in a fresh directory and must exit 0.
"""

import re
import shlex
from pathlib import Path

from jlkit.cli import main

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
