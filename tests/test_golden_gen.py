"""Golden transcript of ``gen`` and ``oracle``, and of error exits.

``gen.json`` holds, for every generator and every oracle, one run with
and one without ``--json``, and the error exits of argument and document
checks (a generator without its size, a two-graph command given one
document, an oracle or generator given the wrong kind of document).
Each record keeps the argv, the text fed to stdin, and the stdout,
stderr and exit code, which must match byte for byte.  (The ``python -m
sofic`` entry point is run in fresh interpreters by
``tests/test_cli_parser.py``.)

To record the transcript again (only when an output change is intended)::

    PYTHONPATH=src python -m tests.test_golden_gen
"""

import io
import json
import sys

from .test_golden import GOLDEN, run_cli

GEN = GOLDEN / "gen.json"
ALLACC = "tests/fixtures/allacc.sg"
GM = "tests/fixtures/gm.sg"

# a multiple-entry automaton with two entry states, one accepting
MEDFA = (
    "medfa N\nvertex e\nvertex o\nstart e\nstart o\naccept e\n"
    "edge e a o\nedge o a e\nedge e b e\nedge o b o\n"
)
# words with an even number of a's, and words ending in b
DFAS = (
    "dfa EVEN\nvertex e\nvertex o\nstart e\naccept e\n"
    "edge e a o\nedge o a e\nedge e b e\nedge o b o\n\n"
    "dfa ENDB\nvertex x\nvertex y\nstart x\naccept y\n"
    "edge x a x\nedge y a x\nedge x b y\nedge y b y\n"
)

RUNS = [
    (["gen", "mik", "--k", "2"], ""),
    (["gen", "padded", "--n", "16"], ""),
    (["gen", "red-irred", ALLACC], ""),
    (["gen", "red-sft", ALLACC], ""),
    (["gen", "red-sync", ALLACC], ""),
    (["gen", "sdp-blowup", "-"], MEDFA),
    (["oracle", "lang", GM, "--max-len", "3"], ""),
    (["oracle", "dfa-int", "-"], DFAS),
    (["oracle", "dfa-union", "-"], DFAS),
]
ERRORS = [
    (["gen", "mik"], ""),
    (["gen", "padded"], ""),
    (["gen", "red-sync", GM], ""),
    (["gen", "sdp-blowup", ALLACC], ""),
    (["equal", GM], ""),
    (["iso", "-"], MEDFA),
    (["oracle", "dfa-int", GM], ""),
    (["oracle", "dfa-union", "-"], MEDFA),
]


def gen_cases():
    return [
        (argv + flag, stdin) for argv, stdin in RUNS for flag in ([], ["--json"])
    ] + ERRORS


def run_main(argv, stdin):
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        record = run_cli(argv)
    finally:
        sys.stdin = saved
    return {"argv": argv, "stdin": stdin, **{k: v for k, v in record.items() if k != "argv"}}


def test_gen_and_oracle_transcript():
    with open(GEN, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert [(r["argv"], r["stdin"]) for r in expected] == gen_cases()
    for record in expected:
        assert run_main(record["argv"], record["stdin"]) == record


def record():
    with open(GEN, "w", encoding="utf-8") as handle:
        json.dump(
            [run_main(argv, stdin) for argv, stdin in gen_cases()],
            handle, indent=1, ensure_ascii=False,
        )
        handle.write("\n")


if __name__ == "__main__":
    record()
