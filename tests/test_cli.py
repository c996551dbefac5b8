import json
import random
import time

import pytest

from sofic import classify, exact, fileformat
from sofic.cli import main
from sofic.errors import NotSynchronizingError
from sofic.fileformat import parse
from sofic.graphs import LabeledGraph, essentialize
from sofic.syncwords import is_synchronizing

from .conftest import FIXTURES, fixture_path
from .oracles import disjoint_union, random_deterministic_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_check(capsys):
    code, out, _ = run(capsys, "check", fixture_path("fig1.sg"))
    assert code == 0
    assert "deterministic: True" in out
    assert "synchronizing: False" in out


def test_equal_exact(capsys):
    code, payload = run_json(capsys, "equal", fixture_path("fig1.sg"), fixture_path("hfig1.sg"))
    assert code == 0 and payload["result"] is True
    code, payload = run_json(capsys, "equal", fixture_path("gm.sg"), fixture_path("ev.sg"))
    assert code == 1 and payload["result"] is False


def test_equal_answers_non_synchronizing(capsys):
    # fig1 is not synchronizing: the exact decider answers
    code, _, err = run(capsys, "equal", fixture_path("fig1.sg"), fixture_path("hfig1.sg"))
    assert code == 0
    assert err == ""


def test_iso(capsys):
    code, _, _ = run(capsys, "iso", fixture_path("fig1.sg"), fixture_path("hfig1.sg"))
    assert code == 1
    code, payload = run_json(capsys, "iso", fixture_path("gm.sg"), fixture_path("gm.sg"))
    assert code == 0 and payload["details"] == {"map A": "A", "map B": "B"}


def test_is_irreducible_answers_non_synchronizing(capsys):
    # fig1 is not synchronizing: the exact decider answers
    code, _, err = run(capsys, "is-irreducible", fixture_path("fig1.sg"))
    assert code == 0 and err == ""
    code, _, _ = run(capsys, "is-irreducible", fixture_path("hfig1.sg"))
    assert code == 0


def test_syncword(capsys):
    code, payload = run_json(capsys, "syncword", fixture_path("gm.sg"))
    assert code == 0 and payload["witness"] == ["0"]
    # fig1 is reducible: the polynomial algorithm refuses it
    code, _, err = run(capsys, "syncword", fixture_path("fig1.sg"))
    assert code == 2 and "strongly connected" in err
    code, payload = run_json(capsys, "syncword", fixture_path("fig1.sg"), "--exact")
    assert code == 0 and payload["witness"] == ["1"]


def test_subshift_non_exact_requires_irreducible_first(capsys):
    code, _, err = run(capsys, "subshift", fixture_path("fig1.sg"), fixture_path("gm.sg"))
    assert code == 2 and "strongly connected" in err
    code, _, _ = run(capsys, "subshift", fixture_path("fig1.sg"), fixture_path("gm.sg"), "--exact")
    assert code == 1  # fig1's language has 11, gm's does not


def test_subshift_and_separate(capsys):
    code, payload = run_json(capsys, "subshift", fixture_path("gm.sg"), fixture_path("full1.sg"))
    assert code == 0 and payload["result"] is True
    code, payload = run_json(capsys, "subshift", fixture_path("full1.sg"), fixture_path("gm.sg"), "--exact")
    assert code == 1 and payload["witness"] == ["1", "1"]
    code, payload = run_json(capsys, "separate", fixture_path("full1.sg"), fixture_path("gm.sg"))
    assert code == 0 and payload["witness"] == ["1", "1"]


def test_empty_graph_gets_an_answer(tmp_path, capsys):
    # the empty presentation counts as irreducible: the polynomial
    # searches answer it as the exact ones do
    empty = tmp_path / "empty.sg"
    empty.write_text("graph E\n")
    e = str(empty)
    for argv, expected in [
        (["syncword", e], 1),
        (["syncword", e, "--exact"], 1),
        (["separate", e, e], 1),
        (["subshift", e, e], 0),
        (["subshift", e, e, "--exact"], 0),
    ]:
        code, payload = run_json(capsys, *argv)
        assert code == expected and payload == {"result": code == 0, "schema": "1"}


def test_two_documents_one_file(tmp_path, capsys):
    combined = tmp_path / "both.sg"
    combined.write_text(
        (FIXTURES / "fig1.sg").read_text() + "\n" + (FIXTURES / "hfig1.sg").read_text()
    )
    code, _, _ = run(capsys, "equal", str(combined))
    assert code == 0


def test_is_sft(capsys):
    assert run(capsys, "is-sft", fixture_path("gm.sg"))[0] == 0
    assert run(capsys, "is-sft", fixture_path("ev.sg"))[0] == 1


# the two-vertex full shift: irreducible, and no word synchronizes it
FULL2 = LabeledGraph(edges=[("p", "a", "q"), ("q", "a", "p"), ("p", "b", "p"), ("q", "b", "q")])


def universal_reference(g):
    """Whether g presents the full shift over its labels, by exact containment."""
    full = LabeledGraph(edges=[("v", a, "v") for a in {a for _, a, _ in g.edges}])
    return exact.subshift_witness(full, g)[0]


# each command's deciders in the order the CLI tries them, as (module, name):
# a polynomial one, which refuses input that is not synchronizing, then an
# exact one
DECIDERS = {
    "is-sft": [(classify, "is_sft_sync"), (exact, "decide_sft")],
    "is-irreducible": [
        (classify, "is_irreducible_shift_sync"),
        (exact, "decide_irreducibility"),
    ],
    "equal": [(classify, "equal_sync"), (exact, "decide_equality")],
    "has-sdp": [(exact, "decide_sdp_exists")],
    "universal": [(classify, "is_universal")],
}
# each command's answer, computed without the CLI
REFERENCE = {
    "is-sft": exact.decide_sft,
    "is-irreducible": exact.decide_irreducibility,
    "equal": exact.decide_equality,
    "has-sdp": exact.decide_sdp_exists,
    "universal": universal_reference,
}


def engine_cases():
    """(command, graphs) pairs on FULL2 and seeded essential deterministic graphs.

    Each graph g also meets the next one, and the disjoint union of g
    with itself, which presents g's shift and is never synchronizing.
    """
    rng = random.Random(19)
    graphs = [FULL2]
    while len(graphs) < 30:
        g = essentialize(random_deterministic_graph(rng, 4, ["0", "1"]))
        if g.vertices:
            graphs.append(g)
    graphs += [disjoint_union(g, g) for g in graphs[1:11]]
    cases = []
    for g, h in zip(graphs, graphs[1:] + graphs[:1]):
        cases += [
            ("is-sft", (g,)),
            ("is-irreducible", (g,)),
            ("equal", (g, h)),
            ("equal", (g, disjoint_union(g, g))),
            ("has-sdp", (g,)),
            ("universal", (g,)),
        ]
    return cases


def test_engine_choice_gives_the_exact_answers(tmp_path, capsys, monkeypatch):
    # each call of a decider, as (name, whether it answered), in the order made
    calls = []

    def recorded(name, decide):
        def wrapper(*graphs):
            try:
                value = decide(*graphs)
            except NotSynchronizingError:
                calls.append((name, False))
                raise
            calls.append((name, True))
            return value

        return wrapper

    for route in DECIDERS.values():
        for module, name in route:
            monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
    path = tmp_path / "input.sg"
    answered = set()
    # whether each case of the two-decider commands is synchronizing
    synchronizing = []
    for command, graphs in engine_cases():
        docs = [fileformat.graph_document(f"G{i}", g) for i, g in enumerate(graphs)]
        path.write_text(fileformat.render(docs))
        calls.clear()
        code, payload = run_json(capsys, command, str(path))
        expected = REFERENCE[command](*graphs)
        assert payload["result"] is expected and code == (0 if expected else 1)
        names = [name for _, name in DECIDERS[command]]
        if len(names) == 2:
            synchronizing.append(all(is_synchronizing(g) for g in graphs))
        if len(names) == 2 and not synchronizing[-1]:
            assert calls == [(names[0], False), (names[1], True)], command
            answered.add((command, names[1]))
        else:
            assert calls == [(names[0], True)], command
            answered.add((command, names[0]))
    # most of those cases are not synchronizing, so the exact decider answers them
    assert 0 < sum(synchronizing) < len(synchronizing) / 2
    # every decider of every command answered some input
    assert answered == {(c, name) for c, route in DECIDERS.items() for _, name in route}


def test_sync_commands_reject_nonessential(tmp_path, capsys):
    # synchronizing, with a stranded vertex b
    path = tmp_path / "stranded.sg"
    path.write_text("graph G\nvertex a\nvertex b\nedge a x a\nedge a y b\n")
    for command in ("is-sft", "is-irreducible"):
        code, _, err = run(capsys, command, str(path))
        assert code == 2 and "stranded" in err


def test_has_sdp_universal_minimal(tmp_path, capsys):
    assert run(capsys, "has-sdp", fixture_path("fig1.sg"))[0] == 0
    assert run(capsys, "universal", fixture_path("full1.sg"))[0] == 0
    assert run(capsys, "universal", fixture_path("gm.sg"))[0] == 1
    empty = tmp_path / "empty.sg"
    empty.write_text("graph E\n")
    assert run(capsys, "universal", str(empty))[0] == 0
    assert run(capsys, "minimal", fixture_path("gm.sg"), "--k", "1")[0] == 1
    assert run(capsys, "minimal", fixture_path("gm.sg"), "--k", "2")[0] == 0


def test_sync_to(capsys):
    code, payload = run_json(capsys, "sync-to", fixture_path("gm.sg"), "--vertex", "B")
    assert code == 0
    word = payload["witness"]
    assert word and word[-1] == "1"
    code, _, err = run(capsys, "sync-to", fixture_path("gm.sg"), "--vertex", "zz")
    assert code == 2 and "zz" in err


def test_follower_sep_and_essential(capsys):
    code, out, _ = run(capsys, "follower-sep", fixture_path("gm.sg"))
    assert code == 0
    docs = parse(out)
    assert len(docs[0].value.vertices) == 2
    code, out, _ = run(capsys, "essential", fixture_path("gm.sg"))
    assert code == 0
    assert parse(out)[0].value == parse((FIXTURES / "gm.sg").read_text())[0].value


def test_components(capsys):
    code, out, _ = run(capsys, "components", fixture_path("fig1.sg"))
    assert code == 0
    assert "q1" in out and "initial" in out and "terminal" in out


def test_gen_mik_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "mik", "--k", "2")
    assert code == 0
    docs = parse(out)
    assert len(docs) == 3 and all(d.kind == "dfa" for d in docs)
    generated = tmp_path / "mik2.sg"
    generated.write_text(out)
    code, payload = run_json(capsys, "oracle", "dfa-int", str(generated))
    assert code == 0
    assert payload["details"]["length"] == 4
    assert len(payload["witness"]) == 4


def test_gen_reductions(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "red-irred", fixture_path("allacc.sg"))
    assert code == 0
    docs = parse(out)
    assert [d.name for d in docs] == ["G", "H"]
    pair = tmp_path / "pair.sg"
    pair.write_text(out)
    assert run(capsys, "equal", str(pair))[0] == 0

    code, out, _ = run(capsys, "gen", "red-sync", fixture_path("allacc.sg"))
    assert code == 0
    g = tmp_path / "sync.sg"
    g.write_text(out)
    code, payload = run_json(capsys, "syncword", str(g), "--exact")
    assert code == 0 and payload["witness"] == ["lm", "rm"]

    code, out, _ = run(capsys, "gen", "padded", "--n", "11")
    assert code == 0
    assert len(parse(out)[0].value.vertices) == 11


def test_gen_sdp_blowup(tmp_path, capsys):
    medfa = tmp_path / "n.sg"
    medfa.write_text(
        "medfa N\nvertex e\nvertex o\nstart e\nstart o\naccept e\n"
        "edge e a o\nedge o a e\n"
    )
    code, out, _ = run(capsys, "gen", "sdp-blowup", str(medfa))
    assert code == 0
    g = parse(out)[0].value
    assert len(g.vertices) == 5  # 2 machine + 2 pre-initial + success


def test_oracle_lang(capsys):
    code, payload = run_json(capsys, "oracle", "lang", fixture_path("gm.sg"), "--max-len", "2")
    assert code == 0
    words = {tuple(w) for w in payload["details"]["words"]}
    assert words == {(), ("0",), ("1",), ("0", "0"), ("0", "1"), ("1", "0")}


def test_oracle_dfa_union(capsys):
    code, payload = run_json(capsys, "oracle", "dfa-union", fixture_path("allacc.sg"))
    assert code == 0 and payload["result"] is True


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.sg"
    bad.write_text("graph G\nedge a x b\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/nope.sg")
    assert code == 2


def test_bad_k_exit_code(capsys):
    code, _, err = run(capsys, "minimal", fixture_path("gm.sg"), "--k", "0")
    assert code == 2 and "positive" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oracle", "lang", "FULL4", "--max-len", "14"], "language word count"),
        (["gen", "mik", "--k", "1000000"], "at most 64"),
        (["gen", "mik", "--k", "65"], "at most 64"),
        (["gen", "padded", "--n", "10000000"], "at most 330"),
        (["gen", "padded", "--n", "331"], "at most 330"),
    ],
    ids=["lang-full4", "mik-huge", "mik-65", "padded-huge", "padded-331"],
)
def test_oversized_requests_exit_2_quickly(tmp_path, capsys, argv, message):
    full4 = tmp_path / "full4.sg"
    full4.write_text("graph FULL4\nvertex v\n" + "".join(f"edge v {a} v\n" for a in "abcd"))
    start = time.perf_counter()
    code, out, err = run(capsys, *[str(full4) if a == "FULL4" else a for a in argv])
    assert time.perf_counter() - start < 5
    assert code == 2 and out == "" and message in err


def test_gen_largest_padded_member(capsys):
    code, out, _ = run(capsys, "gen", "padded", "--n", "330")
    assert code == 0
    assert len(parse(out)[0].value.vertices) == 330


def counters(tmp_path, cycles, complemented=False):
    """A file of one-counter DFAs: `a` advances a cycle of each length, `b`
    loops, and the last residue accepts (or, complemented, every other).

    Among words in `a` alone, all accept a^k exactly when k + 1 is a
    multiple of every cycle length, so the shortest common word is a^(L-1)
    for L the product of the (coprime) lengths, and the product search
    reaches all its L states before it.
    """
    docs = []
    for m in cycles:
        accept = [f"r{i}" for i in range(m - 1)] if complemented else [f"r{m - 1}"]
        lines = [f"dfa C{m}", *(f"vertex r{i}" for i in range(m)), "start r0"]
        lines.append("accept " + " ".join(accept))
        for i in range(m):
            lines += [f"edge r{i} a r{(i + 1) % m}", f"edge r{i} b r{i}"]
        docs.append("\n".join(lines))
    path = tmp_path / "counters.sg"
    path.write_text("\n\n".join(docs) + "\n")
    return str(path)


def test_oracle_product_search_returns_long_witness(tmp_path, capsys):
    path = counters(tmp_path, (2, 3, 5, 7, 11, 13))
    code, payload = run_json(capsys, "oracle", "dfa-int", path)
    assert code == 0
    assert payload["details"]["length"] == 30029
    assert payload["witness"] == ["a"] * 30029
    complemented = counters(tmp_path, (2, 3, 5, 7, 11, 13), complemented=True)
    code, payload = run_json(capsys, "oracle", "dfa-union", complemented)
    assert code == 1 and payload["witness"] == ["a"] * 30029


@pytest.mark.parametrize(
    "oracle, complemented", [("dfa-int", False), ("dfa-union", True)]
)
def test_oracle_product_search_stops_at_its_bound(tmp_path, capsys, oracle, complemented):
    path = counters(tmp_path, (2, 3, 5, 7, 11, 13, 17), complemented)
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", oracle, path)
    assert time.perf_counter() - start < 10
    assert code == 2 and out == ""
    assert "product state count 262145 exceeds" in err
