"""Arbitrary input text yields a result or a SoficError, never a traceback.

Inputs are either free text or documents assembled from the format's
directives over a small pool of awkward names, with stray lines mixed
in, so that most of them parse and reach the deciders.  Examples are
derandomized so the suite runs the same inputs every time.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sofic import cli, fileformat
from sofic.errors import SoficError

NAMES = ["a", "b", "c", "0", "00", "a|b", "(a", "v~2", "é", "x#"]
LABELS = ["0", "1", "x"]
COMMANDS = [
    ["check"],
    ["essential"],
    ["components"],
    ["syncword"],
    ["syncword", "--exact"],
    ["separate"],
    ["subshift"],
    ["subshift", "--exact"],
    ["equal"],
    ["is-sft"],
    ["is-irreducible"],
    ["has-sdp"],
    ["universal"],
    ["minimal", "-", "--k", "2"],
    ["sync-to", "-", "--vertex", "a"],
    ["follower-sep"],
    ["iso"],
    ["gen", "red-irred"],
    ["gen", "red-sft"],
    ["gen", "red-sync"],
    ["gen", "sdp-blowup"],
    ["oracle", "lang", "-", "--max-len", "3"],
    ["oracle", "dfa-int"],
    ["oracle", "dfa-union"],
]
FUZZ = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def documents(draw):
    """Text of one or two documents, mostly well formed."""
    name = st.sampled_from(NAMES)
    lines = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["graph", "graph", "dfa", "medfa"]))
        vertices = draw(st.lists(name, min_size=1, max_size=5, unique=True))
        declared = st.sampled_from(vertices)
        lines.append(f"{kind} {draw(name)}")
        lines += [f"vertex {v}" for v in vertices]
        for _ in range(draw(st.integers(0, 8))):
            label = draw(st.sampled_from(LABELS))
            lines.append(f"edge {draw(declared)} {label} {draw(declared)}")
        if kind != "graph":
            lines += [f"start {v}" for v in draw(st.lists(declared, min_size=1, max_size=2))]
            lines.append("accept " + " ".join(draw(st.lists(declared, max_size=3))))
    for _ in range(draw(st.integers(0, 2))):
        stray = draw(st.text(max_size=16) | st.sampled_from(["", "# note", "vertex"]))
        lines.insert(draw(st.integers(0, len(lines))), stray)
    return "\n".join(lines)


TEXTS = st.one_of(st.text(max_size=200), documents())


@contextlib.contextmanager
def stdin_from(text):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


def run_cli(argv, text):
    err = io.StringIO()
    with stdin_from(text), contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, err.getvalue()


@FUZZ
@given(TEXTS)
def test_parse_raises_only_sofic_errors_and_round_trips(text):
    try:
        docs = fileformat.parse(text)
    except SoficError:
        return
    graphs = tuple(doc for doc in docs if doc.kind == "graph")
    if graphs:
        assert fileformat.parse(fileformat.render(graphs)) == graphs


@FUZZ
@given(TEXTS, st.sampled_from(COMMANDS), st.booleans())
def test_cli_exits_cleanly(text, command, as_json):
    argv = command + ([] if "-" in command else ["-"]) + (["--json"] if as_json else [])
    code, stderr = run_cli(argv, text)
    assert code in (0, 1, 2)
    if code == 2:
        assert stderr.startswith("error: ")
        # the error behind exit code 2 is one of the package's own
        args = cli.build_parser().parse_args(argv)
        with stdin_from(text), contextlib.redirect_stdout(io.StringIO()):
            with pytest.raises(SoficError):
                args.handler(args)
