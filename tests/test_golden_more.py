"""More golden records: the per-vertex CLI commands and the synchronization test.

``cli_more.json`` is a second CLI transcript, kept apart from
``cli.json`` so that one stays as recorded.  It holds ``sync-to --vertex
V`` for every vertex of each fixture (and one vertex no fixture has) and
``minimal --k K`` for K = 1..|V|, each with and without ``--json``.

``sync.json`` holds, for seeded reducible deterministic graphs with at
least two initial components that edges leave, ``is_synchronizing``
and ``sync_word_to_vertex`` for every vertex (the word, or the error's
class and message).

Both were recorded from the synchronization test that searched induced
subgraphs of each initial component.  To record them again (only when a
change of these answers is intended)::

    PYTHONPATH=src python -m tests.test_golden_more
"""

import json
import random

import pytest

from sofic.errors import SoficError
from sofic.fileformat import parse
from sofic.graphs import LabeledGraph, irreducible_components
from sofic.syncwords import is_synchronizing, sync_word_to_vertex

from .oracles import image
from .test_golden import FIXTURES, GOLDEN, ROOT, run_cli

CLI_MORE = GOLDEN / "cli_more.json"
SYNC = GOLDEN / "sync.json"
UNKNOWN_VERTEX = "zz"
GRAPH_COUNT = 60
NAMES = ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l")


def fixture_vertices(name):
    doc = parse((ROOT / "tests" / "fixtures" / name).read_text(encoding="utf-8"))[0]
    value = doc.value
    return list(value.vertices) if doc.kind == "graph" else sorted(value.states)


def cli_more_cases():
    cases = []
    for name in FIXTURES:
        path = f"tests/fixtures/{name}"
        vertices = fixture_vertices(name)
        for v in vertices + [UNKNOWN_VERTEX]:
            cases.append(["sync-to", path, "--vertex", v])
        for k in range(1, len(vertices) + 1):
            cases.append(["minimal", path, "--k", str(k)])
    return [case + flag for case in cases for flag in ([], ["--json"])]


def reducible_graph(rng):
    """A deterministic graph with 2-3 strongly connected initial blocks.

    Every edge from a block stays in it or leaves for the rest of the
    graph, and nothing enters a block, so each block is an initial
    component.  Some blocks get a label of their own, which makes them
    easy to separate from the rest.  Names are shuffled so that blocks
    interleave in sorted order.
    """
    n = rng.randint(6, 9)
    labels = ("x", "y", "z")[: rng.randint(2, 3)]
    names = rng.sample(NAMES, n)
    sizes = [rng.randint(1, 2) for _ in range(rng.randint(2, 3))]
    blocks, start = [], 0
    for size in sizes:
        blocks.append(names[start : start + size])
        start += size
    rest = names[start:]
    edges = []
    for block in blocks:
        for i, v in enumerate(block):
            # a cycle through the block keeps it strongly connected
            cycle = rng.choice(labels)
            edges.append((v, cycle, block[(i + 1) % len(block)]))
            for a in labels:
                if a != cycle and rng.random() < 0.8:
                    edges.append((v, a, rng.choice(block + rest)))
        edges.append((rng.choice(block), "out", rng.choice(rest)))
        if rng.random() < 0.6:
            # a label of the block's own reads in it alone
            edges.append((rng.choice(block), "own" + block[0], rng.choice(block)))
    for v in rest:
        for a in labels:
            if rng.random() < 0.75:
                edges.append((v, a, rng.choice(rest)))
    return LabeledGraph(vertices=names, edges=edges)


def sync_graphs():
    rng = random.Random(9)
    out = []
    while len(out) < GRAPH_COUNT:
        g = reducible_graph(rng)
        if sum(c.initial and not c.terminal for c in irreducible_components(g)) >= 2:
            out.append(g)
    return out


def outcome(call):
    try:
        return list(call())
    except SoficError as exc:
        return [type(exc).__name__, str(exc)]


def observe(g):
    return {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges],
        "synchronizing": is_synchronizing(g),
        "words": {r: outcome(lambda r=r: sync_word_to_vertex(g, r)) for r in g},
    }


GRAPHS = sync_graphs()


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_cli_more_transcript():
    expected = _load(CLI_MORE)
    assert [record["argv"] for record in expected] == cli_more_cases()
    for record in expected:
        assert run_cli(record["argv"]) == record


def test_sync_inputs_have_the_shapes_they_stand_for():
    answers = [is_synchronizing(g) for g in GRAPHS]
    assert 10 <= sum(answers) <= GRAPH_COUNT - 10
    for g in GRAPHS:
        assert 6 <= len(g.vertices) <= 9
        comps = irreducible_components(g)
        assert sum(c.initial and not c.terminal for c in comps) >= 2


@pytest.mark.parametrize("index", range(GRAPH_COUNT))
def test_sync_matches_record(index):
    assert observe(GRAPHS[index]) == _load(SYNC)[index]


@pytest.mark.parametrize("index", range(GRAPH_COUNT))
def test_sync_words_synchronize(index):
    g = GRAPHS[index]
    if is_synchronizing(g):
        for r in g:
            assert image(g, g.vertices, sync_word_to_vertex(g, r)) == {r}


def record():
    with open(CLI_MORE, "w", encoding="utf-8") as handle:
        json.dump([run_cli(argv) for argv in cli_more_cases()], handle, indent=1, ensure_ascii=False)
        handle.write("\n")
    rows = [json.dumps(observe(g), ensure_ascii=False) for g in GRAPHS]
    with open(SYNC, "w", encoding="utf-8") as handle:
        handle.write("[\n" + ",\n".join(rows) + "\n]\n")


if __name__ == "__main__":
    record()
