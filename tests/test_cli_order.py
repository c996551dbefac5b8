"""Every command accepts its files before, between or after the options."""

import io
import sys

import pytest

from sofic.cli import main

from .conftest import FIXTURES, fixture_path


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
        ["oracle", "dfa-union", fixture_path("allacc.sg"), fixture_path("allacc.sg"), "--json"],
        ["oracle", "dfa-union", fixture_path("allacc.sg"), "--json", fixture_path("allacc.sg")],
        "",
    ),
    (
        ["equal", fixture_path("gm.sg"), fixture_path("hfig1.sg"), "--json"],
        ["equal", fixture_path("gm.sg"), "--json", fixture_path("hfig1.sg")],
        "",
    ),
    (
        ["subshift", fixture_path("hfig1.sg"), fixture_path("fig1.sg"), "--exact", "--json"],
        ["subshift", "--exact", fixture_path("hfig1.sg"), "--json", fixture_path("fig1.sg")],
        "",
    ),
    (
        ["separate", fixture_path("full1.sg"), fixture_path("gm.sg"), "--json"],
        ["separate", fixture_path("full1.sg"), "--json", fixture_path("gm.sg")],
        "",
    ),
    (
        ["iso", "-", fixture_path("ev.sg"), "--json"],
        ["iso", "--json", "-", fixture_path("ev.sg")],
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
        ["check", fixture_path("gm.sg"), "--bogus"],
    ],
)
def test_unknown_arguments_still_rejected(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(GM))
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
