"""One process can run many commands through ``cli.main``.

The argument parser is built once per process and reused, so a run of
several commands, some of which fail to parse or fail to decide, must
give each command the stdout, stderr and exit code that a fresh
interpreter gives it.  The order in which the parser lists its
subcommands is pinned too.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sofic import cli

ROOT = Path(__file__).resolve().parent.parent
GM = (ROOT / "tests" / "fixtures" / "gm.sg").read_text(encoding="utf-8")

# (argv, stdin)
COMMANDS = [
    (["check", "tests/fixtures/gm.sg"], ""),
    (["is-sft", "tests/fixtures/ev.sg", "--json"], ""),
    (["nope"], ""),
    (["equal", "tests/fixtures/fig1.sg", "tests/fixtures/hfig1.sg"], ""),
    (["minimal", "tests/fixtures/gm.sg"], ""),
    (["sync-to", "tests/fixtures/gm.sg", "--vertex", "Z"], ""),
    (["check", "tests/fixtures/gm.sg", "--bogus"], ""),
    (["syncword", "-", "--exact"], GM),
    (["oracle", "lang", "-", "--max-len", "2", "--json"], GM),
    (["gen", "padded", "--n", "12"], ""),
    (["check", "tests/fixtures/missing.sg"], ""),
    (["is-sft", "--help"], ""),
    ([], ""),
]


def in_process(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return out.getvalue(), err.getvalue(), code


def fresh(argv, stdin):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-m", "sofic", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        check=False,
    )
    return done.stdout, done.stderr, done.returncode


@pytest.fixture(scope="module")
def expected():
    return [fresh(argv, stdin) for argv, stdin in COMMANDS]


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_commands_in_one_process_match_fresh_interpreters(expected, order, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    indices = list(range(len(COMMANDS)))
    if order == "reversed":
        indices.reverse()
    for i in indices:
        argv, stdin = COMMANDS[i]
        assert in_process(argv, stdin) == expected[i], argv
    # every exit code of the table occurs
    assert {code for _, _, code in expected} == {0, 1, 2}


def test_parser_lists_its_subcommands_in_order():
    # the usage line and --help list them in this order
    usage = cli.build_parser().format_usage().split()
    assert next(word for word in usage if word.startswith("{")) == (
        "{check,essential,components,syncword,separate,subshift,equal,is-sft,"
        "is-irreducible,has-sdp,universal,minimal,sync-to,follower-sep,iso,gen,oracle}"
    )
