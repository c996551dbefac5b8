"""Equality and isomorphism against independent answers, and what the deciders build.

``equal_sync`` must agree with the exact engine's ``decide_equality`` on
seeded synchronizing pairs, equal pairs included: renamed copies and
copies with one vertex split into two follower-equivalent vertices.
``are_isomorphic`` must agree, map included, with a search over every
vertex bijection.  The synchronization test, ``sync_word_to_vertex`` and
``equal_sync`` search the compiled view of their inputs and build no
graph, and on strongly connected input the polynomial tests build no
successor lists.
"""

import itertools
import random

import pytest

from sofic import graphs
from sofic.classify import are_isomorphic, equal_sync, is_follower_separated
from sofic.exact import decide_equality
from sofic.graphs import LabeledGraph, essentialize, is_irreducible
from sofic.syncwords import (
    is_synchronizing,
    separating_word,
    sync_word_to_vertex,
    synchronizing_word_irreducible,
)

from .oracles import random_deterministic_graph
from .test_golden_more import GRAPHS as REDUCIBLE


def synchronizing_graph(rng, max_vertices=5, labels="01"):
    while True:
        g = essentialize(random_deterministic_graph(rng, max_vertices, labels))
        if g.vertices and is_synchronizing(g):
            return g


def renamed(rng, g):
    names = rng.sample([f"n{i}" for i in range(20)], len(g.vertices))
    rename = dict(zip(g.vertices, names))
    return LabeledGraph(
        vertices=names, edges=[(rename[s], a, rename[d]) for s, a, d in g.edges]
    )


def split(rng, g):
    """`g` with a vertex v copied to v', edges into v shared out between the two.

    v' gets v's outgoing edges, so the two are follower-equivalent, and
    the map v' -> v sends paths to paths and lifts them back: the shift
    is unchanged.  None when no vertex has two incoming edges.
    """
    incoming = {}
    for e in g.edges:
        incoming.setdefault(e[2], []).append(e)
    choices = [v for v, es in incoming.items() if len(es) >= 2]
    if not choices:
        return None
    v = rng.choice(sorted(choices))
    copy = v + "_"
    es = incoming[v]
    moved = set(rng.sample(es, rng.randint(1, len(es) - 1)))
    edges = []
    for e in g.edges:
        s, a, d = e
        d = copy if e in moved else d
        edges.append((s, a, d))
        if s == v:
            edges.append((copy, a, d))
    return LabeledGraph(edges=edges)


def equal_pairs(rng, count):
    pairs = []
    while len(pairs) < count:
        g = synchronizing_graph(rng)
        h = renamed(rng, g) if rng.random() < 0.4 else split(rng, g)
        if h is not None and is_synchronizing(h):
            pairs.append((g, h))
    return pairs


def test_equal_sync_agrees_with_the_exact_engine():
    rng = random.Random(31)
    pairs = equal_pairs(rng, 30)
    pairs += [(synchronizing_graph(rng), synchronizing_graph(rng)) for _ in range(150)]
    # larger graphs over three labels, split copies of those included
    pairs += [
        (g, h)
        for g in (synchronizing_graph(rng, 7, "abc") for _ in range(40))
        for h in [split(rng, g)]
        if h is not None and is_synchronizing(h)
    ]
    answers = []
    for g, h in pairs:
        answer = equal_sync(g, h)
        assert answer == decide_equality(g, h), (g, h)
        assert answer == equal_sync(h, g)
        answers.append(answer)
    assert sum(answers) >= 20
    assert len(answers) - sum(answers) >= 50
    # split copies have more vertices than the graph they came from
    assert any(
        answer and len(g.vertices) != len(h.vertices)
        for answer, (g, h) in zip(answers, pairs)
    )


def brute_isomorphisms(g, h):
    """Every vertex bijection from `g` to `h` that maps edges onto edges."""
    if len(g.vertices) != len(h.vertices):
        return []
    edges = set(h.edges)
    found = []
    for image in itertools.permutations(h.vertices):
        m = dict(zip(g.vertices, image))
        if {(m[s], a, m[d]) for s, a, d in g.edges} == edges:
            found.append(m)
    return found


def separated_graph(rng, max_vertices):
    while True:
        g = random_deterministic_graph(rng, max_vertices, "01")
        if is_follower_separated(g):
            return g


def test_are_isomorphic_agrees_with_a_bijection_search():
    rng = random.Random(32)
    isomorphic = 0
    for _ in range(200):
        g = separated_graph(rng, 6)
        h = renamed(rng, g) if rng.random() < 0.5 else separated_graph(rng, 6)
        found = brute_isomorphisms(g, h)
        # a follower-separated graph has at most one isomorphism onto another
        assert len(found) <= 1
        assert are_isomorphic(g, h) == (found[0] if found else None)
        isomorphic += bool(found)
    assert isomorphic >= 50


@pytest.fixture
def constructions(monkeypatch):
    built = []
    init = LabeledGraph.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LabeledGraph, "__init__", counted)
    return built


@pytest.fixture
def sccs(monkeypatch):
    """The successor lists of every call to ``graphs.strong_components``."""
    calls = []
    components = graphs.strong_components

    def counted(succ):
        calls.append(succ)
        return components(succ)

    monkeypatch.setattr(graphs, "strong_components", counted)
    return calls


def test_synchronization_builds_no_graph(constructions, sccs):
    synchronizing = [g for g in REDUCIBLE if is_synchronizing(g)]
    assert synchronizing and len(synchronizing) < len(REDUCIBLE)
    for g in REDUCIBLE:
        sccs.clear()
        is_synchronizing(g)
        assert len(sccs) == 1
    for g in synchronizing:
        for r in g:
            sync_word_to_vertex(g, r)
    assert constructions == []


def test_strongly_connected_input_gets_no_successor_lists(sccs):
    rng = random.Random(34)
    strong = [g for g in (synchronizing_graph(rng, 7, "ab") for _ in range(60)) if is_irreducible(g)]
    # strongly connected and not synchronizing: a two-cycle over one label
    strong.append(LabeledGraph(edges=[("A", "a", "B"), ("B", "a", "A")]))
    assert len(strong) >= 20
    sccs.clear()
    calls = (
        is_irreducible,
        is_synchronizing,
        synchronizing_word_irreducible,
        lambda g: separating_word(g, g),
        lambda g: separating_word(g, strong[0]),
    )
    for g in strong:
        for call in calls:
            fresh = LabeledGraph(vertices=g.vertices, edges=g.edges)
            call(fresh)
            assert fresh._compiled()._succ is None
    assert strong[0]._compiled()._succ is None
    assert sccs == []


def test_equal_sync_builds_no_graph(constructions):
    rng = random.Random(33)
    pairs = equal_pairs(rng, 10)
    pairs += [(synchronizing_graph(rng), synchronizing_graph(rng)) for _ in range(10)]
    constructions.clear()
    answers = [equal_sync(g, h) for g, h in pairs]
    assert any(answers) and not all(answers)
    assert constructions == []
