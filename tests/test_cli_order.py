"""Every command accepts its files before, between or after the options."""

import io
import sys
from pathlib import Path

import pytest

from sofic.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name):
    return str(FIXTURES / name)


def run(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ALLACC = (FIXTURES / "allacc.sg").read_text(encoding="utf-8")
GM = (FIXTURES / "gm.sg").read_text(encoding="utf-8")

# (files-first argv, options-first argv, stdin)
SAME = [
    (["oracle", "lang", "-", "--max-len", "3"], ["oracle", "lang", "--max-len", "3", "-"], ALLACC),
    (["oracle", "lang", "-", "--max-len", "3"], ["oracle", "lang", "--max-len", "3", "-"], GM),
    (
        ["oracle", "lang", "-", "--json", "--max-len", "2"],
        ["oracle", "lang", "--json", "--max-len", "2", "-"],
        GM,
    ),
    (["gen", "padded", "-", "--n", "12"], ["gen", "padded", "--n", "12", "-"], ""),
    (["gen", "red-sync", "-", "--json"], ["gen", "red-sync", "--json", "-"], ALLACC),
    (
        ["oracle", "dfa-union", fixture("allacc.sg"), fixture("allacc.sg"), "--json"],
        ["oracle", "dfa-union", fixture("allacc.sg"), "--json", fixture("allacc.sg")],
        "",
    ),
    (
        ["equal", fixture("gm.sg"), fixture("hfig1.sg"), "--json"],
        ["equal", fixture("gm.sg"), "--json", fixture("hfig1.sg")],
        "",
    ),
    (
        ["subshift", fixture("hfig1.sg"), fixture("fig1.sg"), "--exact", "--json"],
        ["subshift", "--exact", fixture("hfig1.sg"), "--json", fixture("fig1.sg")],
        "",
    ),
    (
        ["separate", fixture("full1.sg"), fixture("gm.sg"), "--json"],
        ["separate", fixture("full1.sg"), "--json", fixture("gm.sg")],
        "",
    ),
    (
        ["iso", "-", fixture("ev.sg"), "--json"],
        ["iso", "--json", "-", fixture("ev.sg")],
        (FIXTURES / "ev.sg").read_text(encoding="utf-8"),
    ),
]


@pytest.mark.parametrize(
    "files_first,options_first,stdin",
    SAME,
    ids=[
        "lang-dfa", "lang-gm", "lang-json", "padded", "red-sync", "dfa-union",
        "equal", "subshift", "separate", "iso",
    ],
)
def test_files_after_options(capsys, monkeypatch, files_first, options_first, stdin):
    expected = run(capsys, monkeypatch, files_first, stdin)
    assert run(capsys, monkeypatch, options_first, stdin) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "lang", "--max-len", "3", "-", "--bogus"],
        ["oracle", "lang", "-", "--bogus", "--max-len", "3"],
        ["gen", "padded", "--n", "12", "--bogus"],
        ["check", fixture("gm.sg"), "--bogus"],
    ],
)
def test_unknown_arguments_still_rejected(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(GM))
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
