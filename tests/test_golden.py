"""Golden transcript of the command line and the demos.

Every subcommand that reads presentations is run on the fixtures in
``tests/fixtures`` (single-graph commands on each fixture, two-graph
commands on every ordered pair), with and without ``--json``; the stdout,
stderr and exit code of each run, and the stdout of every demo, must
match the transcript in ``tests/golden`` byte for byte.

To record the transcript again (only when an output change is intended)::

    PYTHONPATH=src python -m tests.test_golden
"""

import contextlib
import io
import json
import os
import runpy
import sys
from pathlib import Path

import pytest

from sofic import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted(p.name for p in (ROOT / "tests" / "fixtures").glob("*.sg"))
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"

ONE_GRAPH = [
    ["check"],
    ["essential"],
    ["components"],
    ["syncword"],
    ["syncword", "--exact"],
    ["is-sft"],
    ["is-irreducible"],
    ["has-sdp"],
    ["universal"],
    ["follower-sep"],
]
TWO_GRAPHS = [
    ["equal"],
    ["separate"],
    ["subshift"],
    ["subshift", "--exact"],
    ["iso"],
]


def cli_cases():
    cases = []
    for command in ONE_GRAPH:
        for name in FIXTURES:
            cases.append(command + [f"tests/fixtures/{name}"])
    for command in TWO_GRAPHS:
        for first in FIXTURES:
            for second in FIXTURES:
                cases.append(command + [f"tests/fixtures/{first}", f"tests/fixtures/{second}"])
    return [case + flag for case in cases for flag in ([], ["--json"])]


def run_cli(argv, stdin=""):
    """Runs ``cli.main`` from the repository root with `stdin` as its input."""
    out, err = io.StringIO(), io.StringIO()
    saved, cwd = sys.stdin, os.getcwd()
    sys.stdin = io.StringIO(stdin)
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                # argparse exits on an argument error or --help
                code = exc.code
    finally:
        sys.stdin = saved
        os.chdir(cwd)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def run_demo(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")
    return out.getvalue()


def _load_cli():
    with open(GOLDEN / "cli.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_cli_transcript():
    expected = _load_cli()
    assert [record["argv"] for record in expected] == cli_cases()
    for record in expected:
        assert run_cli(record["argv"]) == record


@pytest.mark.parametrize("name", DEMOS)
def test_demo_transcript(name):
    expected = (GOLDEN / "demos" / (name[:-3] + ".txt")).read_text(encoding="utf-8")
    assert run_demo(name) == expected


def record():
    (GOLDEN / "demos").mkdir(parents=True, exist_ok=True)
    with open(GOLDEN / "cli.json", "w", encoding="utf-8") as handle:
        json.dump([run_cli(argv) for argv in cli_cases()], handle, indent=1, ensure_ascii=False)
        handle.write("\n")
    for name in DEMOS:
        (GOLDEN / "demos" / (name[:-3] + ".txt")).write_text(run_demo(name), encoding="utf-8")


if __name__ == "__main__":
    record()
