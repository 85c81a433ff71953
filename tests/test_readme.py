"""The README's library example runs as written, and its CLI section names every option."""

import argparse
import re
from pathlib import Path

from alphaindex import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_command_line_section_names_every_option():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Command line\n(.*?)^## ", text, re.M | re.S).group(1)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        option
        for command in sub.choices.values()
        for action in command._actions
        for option in action.option_strings
    } - {"-h", "--help"}
    assert named == options
