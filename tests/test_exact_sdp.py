"""The pruned search of ``decide_sdp_exists`` against a naive scan.

``decide_sdp_exists`` enumerates only part of the action monoid: it
never expands an element whose range lies inside the vertices reachable
from the ranges of the intrinsically synchronizing elements found so
far, starting from the singleton ranges of the range closure, and
enumerates nothing when those cover every domain.  That rests on one
lemma, tested here on its own: a nonempty extension of an
intrinsically synchronizing element is intrinsically synchronizing
too.  The answers are compared with
``tests.oracles.naive_sdp_exists``, which scans the whole brute-force
monoid, and the caps are checked to bound the part enumerated, not the
whole monoid.
"""

import random

import pytest

from sofic.constructions import padded_family_gn, reduction_irred
from sofic.errors import AllLanguagesEmptyError, CapExceededError
from sofic.exact import (
    ActionMonoid,
    Caps,
    action_monoid,
    action_of_word,
    compose,
    decide_sdp_exists,
    decide_sft,
    is_intrinsically_sync_relation,
)
from sofic.graphs import LabeledGraph, alphabet

from .conftest import fixture_graph
from .oracles import naive_intrinsic, naive_sdp_exists
from .test_exact_index import random_dfas, random_graphs, small_monoid


def irred_graphs(seed, count):
    """`count` ``reduction_irred`` G1 graphs of 1-2 DFAs with small monoids."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        try:
            g, _ = reduction_irred(random_dfas(rng, 2))
        except AllLanguagesEmptyError:
            continue
        if small_monoid(g):
            graphs.append(g)
    return graphs


@pytest.mark.parametrize(
    "graphs",
    [random_graphs(71, 300, max_vertices=4), irred_graphs(72, 12)],
    ids=["random", "reduction_irred"],
)
def test_matches_naive_scan_of_whole_monoid(graphs):
    answers = [decide_sdp_exists(g) for g in graphs]
    assert answers == [naive_sdp_exists(g) for g in graphs]
    assert True in answers and False in answers


def judged(monkeypatch):
    """The elements judged for intrinsic synchronization from now on."""
    elements = []
    is_intrinsic = ActionMonoid._is_intrinsic

    def counted(self, k):
        elements.append(k)
        return is_intrinsic(self, k)

    monkeypatch.setattr(ActionMonoid, "_is_intrinsic", counted)
    return elements


# (graph, answer, whether the singleton ranges answer alone)
SEEDED = [
    # synchronizing: its one-vertex ranges reach every vertex
    (fixture_graph("ev"), True, True),
    # a swaps two vertices: no range is a singleton, yet the identity
    # is intrinsically synchronizing
    (LabeledGraph(edges=[("p", "a", "q"), ("q", "a", "p")]), True, False),
    (random_graphs(71, 9, max_vertices=4)[8], False, False),
]


@pytest.mark.parametrize("g,answer,alone", SEEDED, ids=["ev", "swap", "random"])
def test_singleton_ranges_seed_the_search(g, answer, alone, monkeypatch):
    assert naive_sdp_exists(g) is answer
    elements = judged(monkeypatch)
    assert decide_sdp_exists(g) is answer
    assert (elements == []) is alone


def test_nonempty_extensions_of_intrinsic_elements_are_intrinsic():
    checked = 0
    for g in random_graphs(73, 40, max_vertices=4) + irred_graphs(74, 3):
        m = action_monoid(g)
        elements = m.elements
        pair_sets = [e.pairs for e in elements]
        for e, pairs in zip(elements, pair_sets):
            if not naive_intrinsic(pair_sets, pairs):
                continue
            for a in alphabet(g):
                nxt = compose(e, action_of_word(g, (a,)))
                if not nxt.is_empty:
                    assert naive_intrinsic(pair_sets, nxt.pairs)
                    assert is_intrinsically_sync_relation(m, nxt)
                    checked += 1
    assert checked > 100


def test_relations_cap_bounds_the_elements_enumerated():
    g = padded_family_gn(41)
    caps = Caps(relations=1000)
    # the whole monoid is larger, but neither search enumerates all of it
    with pytest.raises(CapExceededError):
        action_monoid(g, Caps(relations=1000))
    assert decide_sft(g, caps) is False
    assert decide_sdp_exists(g, caps) is True


def test_relations_cap_still_raises_when_more_elements_are_needed():
    g = padded_family_gn(21)
    with pytest.raises(CapExceededError) as info:
        decide_sdp_exists(g, Caps(relations=1))
    assert str(info.value) == "monoid element count 2 exceeds the configured cap"


@pytest.mark.parametrize("k", [1, 2, 3, 50])
def test_subsets_cap_bounds_the_two_closures(k):
    # padded n=21 has 3 nonzero domains and more than 50 nonzero ranges,
    # so k = 1, 2 stop the domain closure and k = 3, 50 the range closure
    with pytest.raises(CapExceededError) as info:
        decide_sdp_exists(padded_family_gn(21), Caps(subsets=k))
    assert str(info.value) == f"subset count {k + 1} exceeds the configured cap"
