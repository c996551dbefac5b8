import random

import pytest

from sofic.errors import NotIrreducibleError, NotSynchronizingError, SameVertexError
from sofic.graphs import (
    LabeledGraph,
    essentialize,
    is_irreducible,
    subset_step,
)
from sofic.syncwords import (
    is_synchronizing,
    pair_synchronizing_word,
    separating_word,
    sync_word_to_vertex,
    synchronizing_word_irreducible,
)

from .oracles import (
    random_deterministic_graph,
    reachable_subsets,
    singleton_reachable,
    walk,
    words_upto,
)


def pair_sync_case(g, p, q, w):
    """Which of the three pair-synchronization cases the word w realizes."""
    end_p, end_q = walk(g, p, w), walk(g, q, w)
    if end_p is not None and end_q is None:
        return "i"
    if end_p is None and end_q is not None:
        return "ii"
    if end_p is not None and end_p == end_q:
        return "iii"
    return None


def test_pair_synchronizing_word_examples(gm, fig1, p2):
    assert pair_synchronizing_word(gm, "A", "B") == ("0",)
    assert pair_synchronizing_word(p2, "A", "B") is None
    assert pair_synchronizing_word(fig1, "q1", "q3") == ("1",)
    assert subset_step(fig1, {"q1", "q3"}, ("1",)) == {"q2"}


def test_pair_synchronizing_word_rejects_same_vertex(gm):
    with pytest.raises(SameVertexError):
        pair_synchronizing_word(gm, "A", "A")


def test_pair_synchronizing_case_split(fig1, gm):
    assert pair_sync_case(fig1, "q1", "q3", ("1",)) == "i"
    assert pair_sync_case(fig1, "q3", "q1", ("1",)) == "ii"
    assert pair_sync_case(gm, "A", "B", ("0",)) == "iii"


def test_pair_sync_words_satisfy_exactly_one_case():
    rng = random.Random(21)
    for _ in range(120):
        g = random_deterministic_graph(rng, 5, ["0", "1"])
        vertices = list(g.vertices)
        if len(vertices) < 2:
            continue
        p, q = rng.sample(vertices, 2)
        w = pair_synchronizing_word(g, p, q)
        if w is None:
            # exhaustively confirm there is none up to a reasonable length
            assert all(
                pair_sync_case(g, p, q, u) is None for u in words_upto(("0", "1"), 6)
            )
        else:
            assert len(subset_step(g, {p, q}, w)) == 1
            assert pair_sync_case(g, p, q, w) is not None


def test_pair_sync_word_is_shortest():
    rng = random.Random(22)
    for _ in range(80):
        g = random_deterministic_graph(rng, 4, ["0", "1"])
        vertices = list(g.vertices)
        if len(vertices) < 2:
            continue
        p, q = rng.sample(vertices, 2)
        got = pair_synchronizing_word(g, p, q)
        lengths = [
            len(u)
            for u in words_upto(("0", "1"), 5)
            if pair_sync_case(g, p, q, u) is not None
        ]
        if lengths:
            assert got is not None and len(got) == min(lengths)


def test_synchronizing_word_irreducible_examples(full1, gm, p2):
    assert synchronizing_word_irreducible(full1) == ()
    w = synchronizing_word_irreducible(gm)
    assert w is not None and len(subset_step(gm, gm.vertices, w)) == 1
    assert synchronizing_word_irreducible(p2) is None


def test_synchronizing_word_irreducible_preconditions(fig1):
    with pytest.raises(NotIrreducibleError):
        synchronizing_word_irreducible(fig1)
    assert synchronizing_word_irreducible(LabeledGraph()) is None


def test_algorithm1_agrees_with_subset_oracle():
    rng = random.Random(23)
    checked = 0
    while checked < 200:
        g = random_deterministic_graph(rng, 6, ["0", "1", "2"][: rng.randint(1, 3)])
        if not g.vertices or not is_irreducible(g):
            continue
        checked += 1
        w = synchronizing_word_irreducible(g)
        assert (w is not None) == singleton_reachable(g)
        if w is not None:
            assert len(subset_step(g, g.vertices, w)) == 1


def test_follower_separated_irreducible_always_synchronizes():
    # distinct follower sets give every pair a one-sided witness, so the
    # search cannot fail and the result stays within a cubic length
    from sofic.classify import is_follower_separated

    rng = random.Random(28)
    checked = 0
    while checked < 100:
        labels = ["0", "1", "2"][: rng.randint(1, 3)]
        g = random_deterministic_graph(rng, 6, labels)
        if not g.edges or not is_irreducible(g) or not is_follower_separated(g):
            continue
        checked += 1
        w = synchronizing_word_irreducible(g)
        assert w is not None
        assert len(subset_step(g, g.vertices, w)) == 1
        assert len(w) <= max(1, len(g.vertices)) ** 3


def test_all_pairs_synchronizable_when_syncable():
    # in an irreducible graph with a synchronizing word, every distinct
    # pair admits a pair-synchronizing word
    rng = random.Random(24)
    checked = 0
    while checked < 60:
        g = random_deterministic_graph(rng, 5, ["0", "1"])
        if len(g.vertices) < 2 or not is_irreducible(g):
            continue
        if not singleton_reachable(g):
            continue
        checked += 1
        for i, p in enumerate(g.vertices):
            for q in g.vertices[i + 1 :]:
                assert pair_synchronizing_word(g, p, q) is not None


def test_separating_word_examples(gm, full1, fig1, hfig1):
    assert separating_word(gm, full1) is None
    w = separating_word(full1, gm)
    assert w == ("1", "1")
    assert subset_step(gm, gm.vertices, w) == frozenset()
    assert separating_word(hfig1, fig1) is None


def test_separating_word_accepts_empty_and_nonessential_second(gm):
    # empty second argument: every word separates, the empty one first
    assert separating_word(gm, LabeledGraph()) == ()
    nonessential = LabeledGraph(edges=[("a", "0", "b")])
    w = separating_word(gm, nonessential)
    assert w is not None
    assert subset_step(nonessential, nonessential.vertices, w) == frozenset()
    assert subset_step(gm, {"A"}, w)


def test_separating_word_requires_irreducible_first(fig1, gm):
    with pytest.raises(NotIrreducibleError):
        separating_word(fig1, gm)
    assert separating_word(LabeledGraph(), gm) is None


def test_separating_word_absence_is_bounded_containment():
    # no separating word <=> bounded-language containment holds AND the
    # exact decider confirms full containment
    from sofic.exact import decide_subshift
    from sofic.oracle import language_upto

    rng = random.Random(27)
    checked = 0
    while checked < 40:
        g = random_deterministic_graph(rng, 4, ["0", "1"])
        h = essentialize(random_deterministic_graph(rng, 4, ["0", "1"]))
        if not g.edges or not is_irreducible(g) or not h.vertices:
            continue
        checked += 1
        absent = separating_word(g, h) is None
        assert absent == (
            language_upto(g, 12) <= language_upto(h, 12) and decide_subshift(g, h)
        )


def test_is_synchronizing_examples(fig1, hfig1, gm):
    assert is_synchronizing(hfig1)
    assert not is_synchronizing(fig1)
    assert is_synchronizing(gm)
    assert is_synchronizing(LabeledGraph())


def test_algorithm3_matches_subset_definition():
    rng = random.Random(25)
    for _ in range(150):
        g = random_deterministic_graph(rng, 5, ["0", "1"])
        expected = all(
            frozenset([v]) in reachable_subsets(g) for v in g.vertices
        )
        assert is_synchronizing(g) == expected


def test_sync_word_to_vertex_examples(full1, gm, hfig1):
    assert sync_word_to_vertex(full1, "v") == ()
    w = sync_word_to_vertex(gm, "B")
    assert subset_step(gm, gm.vertices, w) == {"B"}
    w = sync_word_to_vertex(hfig1, "q3")
    assert subset_step(hfig1, hfig1.vertices, w) == {"q3"}


def test_sync_word_to_vertex_rejects_nonsynchronizing(fig1):
    with pytest.raises(NotSynchronizingError):
        sync_word_to_vertex(fig1, "q2")


def test_sync_word_to_vertex_on_random_synchronizing_graphs():
    rng = random.Random(26)
    checked = 0
    while checked < 60:
        g = essentialize(random_deterministic_graph(rng, 5, ["0", "1"]))
        if not g.vertices or not is_synchronizing(g):
            continue
        checked += 1
        n = len(g.vertices)
        for r in g.vertices:
            w = sync_word_to_vertex(g, r)
            assert subset_step(g, g.vertices, w) == {r}
            assert len(w) <= 4 * n**3


def test_sync_word_to_vertex_reducible_synchronizing():
    g = LabeledGraph(edges=[("a", "x", "a"), ("a", "y", "b"), ("b", "y", "b")])
    assert is_synchronizing(g)
    assert subset_step(g, g.vertices, sync_word_to_vertex(g, "a")) == {"a"}
    assert subset_step(g, g.vertices, sync_word_to_vertex(g, "b")) == {"b"}


def test_fail_state_pair_has_no_pair_sync_word():
    # the fail states of the sync-word reduction share a follower set but
    # no word merges them, even though the whole graph has a sync word
    from sofic.constructions import Dfa, reduction_sync

    all_accepting = Dfa(["s"], ["a"], {("s", "a"): "s"}, "s", ["s"])
    g = reduction_sync([all_accepting, all_accepting])
    assert pair_synchronizing_word(g, "r1", "r2") is None
    assert subset_step(g, g.vertices, ("lm", "rm")) == {"t"}
    assert not is_synchronizing(g)
