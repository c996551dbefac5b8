"""The README's command lines name the parser's subcommands.

Every ``sofic …`` invocation in the README's shell blocks must name a
subcommand of ``build_parser()``, every subcommand must appear, and
``[--exact]`` must be shown exactly on the subcommands that take it.
"""

import re
from pathlib import Path

from sofic.cli import build_parser

from .test_golden import run_cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Each ``sofic`` invocation of the README's shell blocks, as its words after ``sofic``."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    commands = []
    for line in "".join(blocks).splitlines():
        for part in line.split("#")[0].split("|"):
            words = part.split()
            if words and words[0] == "sofic":
                commands.append(words[1:])
    return commands


def takes_exact():
    """Each subcommand of the parser, mapped to whether its ``--help`` lists ``--exact``."""
    usage = build_parser().format_usage().split()
    names = next(word for word in usage if word.startswith("{")).strip("{}").split(",")
    return {name: "--exact" in run_cli([name, "--help"])["stdout"] for name in names}


def test_readme_commands_match_the_parser():
    exact = takes_exact()
    commands = readme_commands()
    assert {words[0] for words in commands} == set(exact)
    for words in commands:
        if "--exact" in words or "[--exact]" in words:
            assert exact[words[0]], words
    shown = {words[0] for words in commands if "[--exact]" in words}
    assert shown == {name for name, flag in exact.items() if flag}
