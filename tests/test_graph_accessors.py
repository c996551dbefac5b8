"""The name-level reads of a ``LabeledGraph``, pinned to recorded values.

The inputs are seeded random multigraphs, most of them nondeterministic:
same-label edges from one vertex to several targets, duplicated edges,
isolated vertices, labels that some vertices lack, and names with ``|``,
``(`` and non-ASCII characters.  For each graph the record holds its
sorted vertices and edges; membership of every vertex and of a few
non-members; the ``UnknownVertexError`` that ``find_word_to`` raises
for an unknown source; ``is_deterministic``; and ``find_word_to`` from
every vertex to every vertex.

The values were recorded from the graph that kept a second, name-keyed
adjacency next to its edge tuple.  To record them again (only when a
change of these answers is intended)::

    PYTHONPATH=src python -m tests.test_graph_accessors
"""

import json
import random
from pathlib import Path

import pytest

from sofic.errors import UnknownVertexError
from sofic.graphs import LabeledGraph, is_deterministic
from sofic.products import find_word_to

RECORD = Path(__file__).resolve().parent / "golden" / "accessors.json"
NAMES = ("a", "a|b", "(a", "b)", "é", "ü|(", "v~2", "0", "ẞ(|")
LABELS = ("0", "1", "x|", "ö")
NON_MEMBERS = ("zz", "a|", "(", "A", "é|")
GRAPH_COUNT = 16


def random_multigraph(rng):
    names = rng.sample(NAMES, rng.randint(1, 7))
    labels = LABELS[: rng.randint(1, len(LABELS))]
    edges = []
    for v in names:
        for a in labels:
            # 0, 1 or 2 targets, sometimes the same edge twice
            for _ in range(rng.choice((0, 1, 1, 2))):
                edges.append((v, a, rng.choice(names)))
            if edges and rng.random() < 0.1:
                edges.append(edges[-1])
    isolated = [f"iso{k}" for k in range(rng.randint(0, 2))]
    return LabeledGraph(vertices=names + isolated, edges=edges)


def graphs():
    rng = random.Random(5)
    return [random_multigraph(rng) for _ in range(GRAPH_COUNT)]


def error(call):
    try:
        call()
    except UnknownVertexError as exc:
        return [type(exc).__name__, str(exc)]
    return None


def observe(g):
    unknown = NON_MEMBERS[0]
    return {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges],
        "members": [q in g for q in g.vertices + NON_MEMBERS],
        "errors": [
            error(lambda: find_word_to(g, {unknown}, bool)),
        ],
        "deterministic": is_deterministic(g),
        "find_word_to": {
            p: {
                q: find_word_to(g, {p}, lambda v, q=q: v == q)
                for q in g
            }
            for p in g
        },
    }


def _load():
    with open(RECORD, encoding="utf-8") as handle:
        return json.load(handle)


GRAPHS = graphs()


def test_record_covers_the_inputs():
    assert len(_load()) == len(GRAPHS)


def test_inputs_have_the_shapes_they_stand_for():
    assert sum(not is_deterministic(g) for g in GRAPHS) >= GRAPH_COUNT // 2
    assert any(set(g.vertices) - {src for src, _, _ in g.edges} for g in GRAPHS)
    assert any(
        len(pairs) > len(set(pairs))
        for pairs in ([(src, a) for src, a, _ in g.edges] for g in GRAPHS)
    )


@pytest.mark.parametrize("index", range(GRAPH_COUNT))
def test_accessors_match_record(index):
    observed = json.loads(json.dumps(observe(GRAPHS[index])))
    assert observed == _load()[index]


@pytest.mark.parametrize("index", range(GRAPH_COUNT))
def test_accessor_return_types(index):
    assert 3 not in GRAPHS[index]


def record():
    rows = [json.dumps(observe(g), ensure_ascii=False) for g in GRAPHS]
    with open(RECORD, "w", encoding="utf-8") as handle:
        handle.write("[\n" + ",\n".join(rows) + "\n]\n")


if __name__ == "__main__":
    record()
