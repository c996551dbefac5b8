"""What a graph's compiled view keeps, and that keeping it changes no answer.

The view stores the vertex count, the labels, the label actions and
essentiality, and derives the rest on first read: the name index, the
successor lists, the strong-connectivity flag and the follower-set graph.
The kept follower-set graph must equal a fresh build, and every answer,
cap count and message must be what a fresh graph gives.  The exact
deciders read neither names nor successor lists, and the strong
connectivity of a graph is swept once however many tests ask.
"""

import random

import pytest

from sofic import exact, graphs
from sofic.classify import is_irreducible_shift_sync
from sofic.cli import main
from sofic.errors import CapExceededError, UnknownVertexError
from sofic.exact import (
    Caps,
    _follower_sets,
    decide_minimality,
    decide_sdp_exists,
    decide_sft,
)
from sofic.graphs import LabeledGraph, essentialize, is_irreducible, subset_step
from sofic.syncwords import is_synchronizing, sync_word_to_vertex

from .conftest import fixture_graph, fixture_path
from .oracles import random_deterministic_graph, reachable_subsets


def fresh(g):
    """A copy of `g` whose view has not been compiled."""
    return LabeledGraph(vertices=g.vertices, edges=g.edges)


def presentations(seed, count, max_vertices=6, labels="ab"):
    """Seeded random essential deterministic graphs, none empty."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        g = essentialize(random_deterministic_graph(rng, max_vertices, labels))
        if g.vertices:
            found.append(g)
    return found


GRAPHS = presentations(36, 40)


def outcome(call):
    """What `call()` returns, or the count and message of the cap it overran."""
    try:
        return call()
    except CapExceededError as exc:
        return exc.count, str(exc)


def test_kept_follower_set_graph_matches_a_fresh_build():
    for g in GRAPHS:
        decide_sft(g)
        kept = g._compiled()._fsg
        assert kept is not None
        assert kept[0] == len(reachable_subsets(g))
        # the graph's own call returns what it kept
        assert _follower_sets(g._compiled(), 2**18) == kept[1:]
        # a fresh view builds the same classes and targets
        assert _follower_sets(fresh(g)._compiled(), 2**18) == kept[1:]


def test_kept_follower_set_graph_answers_every_cap_as_a_fresh_one():
    for g in map(fresh, GRAPHS):
        size = len(reachable_subsets(g))
        decide_sft(g)
        for cap in range(size + 1):
            caps = Caps(subsets=cap)
            assert outcome(lambda: decide_sft(g, caps)) == outcome(
                lambda: decide_sft(fresh(g), caps)
            )
            if len(g.vertices) > 2:
                assert outcome(lambda: decide_minimality(g, 2, caps)) == outcome(
                    lambda: decide_minimality(fresh(g), 2, caps)
                )


def test_sft_below_the_kept_closure_raises_the_closures_count():
    g = fixture_graph("fig1")
    size = len(reachable_subsets(g))
    assert size > 2
    decide_sft(g)
    for cap in (1, size - 1):
        with pytest.raises(CapExceededError) as info:
            decide_sft(g, Caps(subsets=cap))
        assert info.value.count == cap + 1
        assert str(info.value) == f"subset count {cap + 1} exceeds the configured cap"


def test_a_closure_over_the_cap_keeps_nothing():
    closed = 0
    for g in map(fresh, GRAPHS):
        if len(reachable_subsets(g)) > 1:
            with pytest.raises(CapExceededError):
                decide_sft(g, Caps(subsets=1))
            assert g._compiled()._fsg is None
            decide_sft(g)
            assert g._compiled()._fsg is not None
            closed += 1
    assert closed >= 20


def test_minimality_and_sft_build_one_follower_set_graph(monkeypatch):
    closures = []
    range_closure = exact._range_closure

    def counted(gens, n, cap):
        closures.append(n)
        return range_closure(gens, n, cap)

    monkeypatch.setattr(exact, "_range_closure", counted)
    for g in map(fresh, GRAPHS):
        if len(g.vertices) > 2:
            closures.clear()
            decide_sft(g)
            decide_minimality(g, 2)
            assert closures == [len(g.vertices)]


def test_exact_deciders_read_no_names_and_no_successor_lists():
    for g in map(fresh, GRAPHS):
        decide_sft(g)
        decide_minimality(g, 2)
        decide_sdp_exists(g)
        view = g._compiled()
        assert view._index is None and view._succ is None
        assert view.n == len(g.vertices)


def test_name_lookups_keep_their_answers_and_errors():
    g = fixture_graph("fig1")
    decide_sft(g)
    assert g._compiled()._index is None
    for i, v in enumerate(g.vertices):
        assert g._require_vertex(v) == i
        assert v in g
    for name in ("nowhere", "", 3, None, ("a",)):
        with pytest.raises(UnknownVertexError):
            g._require_vertex(name)
        assert name not in g
    for name in ([], {}, {"a"}):
        with pytest.raises(TypeError):
            g._require_vertex(name)
        with pytest.raises(TypeError):
            name in g  # noqa: B015
    assert g._compiled()._succ is None


@pytest.fixture
def sweeps(monkeypatch):
    """The views passed to ``graphs._strongly_connected``."""
    calls = []
    strongly_connected = graphs._strongly_connected

    def counted(view):
        calls.append(view)
        return strongly_connected(view)

    monkeypatch.setattr(graphs, "_strongly_connected", counted)
    return calls


@pytest.mark.parametrize("name", ["fig1", "gm", "ev", "full1"])
def test_check_sweeps_each_graph_once(name, sweeps, capsys):
    assert main(["check", fixture_path(f"{name}.sg")]) == 0
    capsys.readouterr()
    assert len(sweeps) == 1


def test_irreducibility_of_the_shift_sweeps_once(sweeps):
    reducible = [g for g in GRAPHS if not is_irreducible(fresh(g)) and is_synchronizing(g)]
    assert reducible
    for g in map(fresh, reducible):
        sweeps.clear()
        assert is_irreducible_shift_sync(g) is False
        assert len(sweeps) == 1


def test_sync_word_to_vertex_reads_no_successor_lists_on_strongly_connected_input():
    strong = [
        g for g in presentations(37, 200, 7)
        if is_irreducible(g) and is_synchronizing(g)
    ]
    assert len(strong) >= 10
    for g in strong:
        for r in g.vertices:
            h = fresh(g)
            w = sync_word_to_vertex(h, r)
            assert subset_step(h, h.vertices, w) == {r}
            assert h._compiled()._succ is None
