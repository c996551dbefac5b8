import random

import pytest

from sofic.errors import CapExceededError, HostMismatchError, NotAnElementError
from sofic.exact import (
    ActionRelation,
    Caps,
    action_monoid,
    action_of_word,
    compose,
    decide_equality,
    decide_irreducibility,
    decide_minimality,
    decide_sdp_exists,
    decide_sft,
    decide_subshift,
    is_intrinsically_sync_relation,
    preceded_by_intrinsic_sync,
    shortest_sync_word,
    subshift_witness,
    synchronizing_vertices,
)
from sofic.classify import is_sft_sync
from sofic.graphs import LabeledGraph, essentialize, subset_step
from sofic.oracle import language_upto
from sofic.syncwords import is_synchronizing

from .oracles import (
    brute_actions,
    brute_language,
    brute_shortest_sync_length,
    compose_pairs,
    disjoint_union,
    naive_intrinsic,
    random_deterministic_graph,
    singleton_reachable,
    words_upto,
)


def test_action_of_word_examples(gm):
    assert action_of_word(gm, ()).pairs == {("A", "A"), ("B", "B")}
    assert action_of_word(gm, ("0",)).pairs == {("A", "A"), ("B", "A")}
    assert action_of_word(gm, ("1", "1")).pairs == frozenset()


def test_compose_examples(gm):
    identity = action_of_word(gm, ())
    r0 = action_of_word(gm, ("0",))
    r1 = action_of_word(gm, ("1",))
    assert compose(identity, r0) == r0
    assert compose(r0, identity) == r0
    assert compose(r0, r1) == action_of_word(gm, ("0", "1"))
    assert compose(r0, r1).pairs == {("A", "B"), ("B", "B")}
    empty = action_of_word(gm, ("1", "1"))
    assert compose(empty, r0).pairs == frozenset()


def test_compose_rejects_other_hosts(gm, ev):
    with pytest.raises(HostMismatchError):
        compose(action_of_word(gm, ()), action_of_word(ev, ()))


def test_morphism_law_exhaustive(gm, ev, fig1, p2):
    for g in (gm, ev, fig1, p2):
        actions = brute_actions(g, 8)
        for w, pairs in actions.items():
            assert action_of_word(g, w).pairs == pairs
        for u in list(actions)[:200]:
            for v in list(actions)[:50]:
                if len(u) + len(v) <= 8:
                    assert compose(
                        action_of_word(g, u), action_of_word(g, v)
                    ) == action_of_word(g, u + v)


def test_action_monoid_examples(gm, full1, p2):
    m = action_monoid(gm)
    assert m.size == 6
    brute = set(brute_actions(gm, 8).values())
    assert {e.pairs for e in m.elements} == brute

    m1 = action_monoid(full1)
    assert m1.size == 1
    assert m1.elements[0].pairs == {("v", "v")}

    m2 = action_monoid(p2)
    assert {e.pairs for e in m2.elements} == {
        frozenset({("A", "A"), ("B", "B")}),
        frozenset({("A", "B"), ("B", "A")}),
    }


def test_action_monoid_iterates_its_elements(gm):
    m = action_monoid(gm)
    assert tuple(m) == m.elements
    assert all(e in m for e in m)


def test_action_monoid_completeness_on_random_graphs():
    rng = random.Random(51)
    for _ in range(30):
        g = random_deterministic_graph(rng, 4, ["0", "1"])
        m = action_monoid(g)
        depth = min(m.size + 1, 8)
        brute = set(brute_actions(g, depth).values())
        assert {e.pairs for e in m.elements} == brute


def test_action_monoid_witnesses(gm):
    m = action_monoid(gm)
    for element in m.elements:
        witness = m.word_witness(element)
        assert action_of_word(gm, witness) == element
    # identity gets the empty witness
    assert m.word_witness(action_of_word(gm, ())) == ()


def test_action_monoid_cap(gm):
    with pytest.raises(CapExceededError):
        action_monoid(gm, Caps(relations=3))


def test_monoid_membership_errors(gm, ev):
    m = action_monoid(gm)
    with pytest.raises(NotAnElementError):
        is_intrinsically_sync_relation(m, action_of_word(ev, ()))
    with pytest.raises(NotAnElementError):
        m.word_witness(ActionRelation(gm, (1, 0)))


def test_intrinsic_sync_examples(gm, ev):
    m = action_monoid(gm)
    assert is_intrinsically_sync_relation(m, action_of_word(gm, ("1",)))
    m_ev = action_monoid(ev)
    assert not is_intrinsically_sync_relation(m_ev, action_of_word(ev, ("0",)))
    empty = action_of_word(gm, ("1", "1"))
    assert is_intrinsically_sync_relation(m, empty)


def test_intrinsic_sync_matches_naive_scan(gm, ev, fig1, p2):
    rng = random.Random(52)
    graphs = [gm, ev, fig1, p2] + [
        random_deterministic_graph(rng, 4, ["0", "1"]) for _ in range(20)
    ]
    for g in graphs:
        m = action_monoid(g)
        pair_sets = [e.pairs for e in m.elements]
        for element in m.elements:
            assert is_intrinsically_sync_relation(m, element) == naive_intrinsic(
                pair_sets, element.pairs
            )


def test_preceded_by_intrinsic_sync(gm):
    m = action_monoid(gm)
    assert preceded_by_intrinsic_sync(m, action_of_word(gm, ()))
    empty = action_of_word(gm, ("1", "1"))
    assert not preceded_by_intrinsic_sync(m, empty)


def test_preceded_matches_naive_scan():
    rng = random.Random(53)
    for _ in range(25):
        g = random_deterministic_graph(rng, 4, ["0", "1"])
        m = action_monoid(g)
        pair_sets = [e.pairs for e in m.elements]
        intrinsic = [r for r in pair_sets if naive_intrinsic(pair_sets, r)]
        for element in m.elements:
            expected = any(compose_pairs(s, element.pairs) for s in intrinsic)
            assert preceded_by_intrinsic_sync(m, element) == expected


def _small_monoid_graphs():
    """Seeded reduction graphs of 2-3 random DFAs and random graphs, small monoids only."""
    from sofic.constructions import Dfa, reduction_irred, reduction_sft
    from sofic.errors import AllLanguagesEmptyError

    rng = random.Random(56)
    graphs = [random_deterministic_graph(rng, 4, ["0", "1", "2"]) for _ in range(12)]
    tuples = 0
    while tuples < 6:
        dfas = []
        for _ in range(rng.randint(2, 3)):
            states = [f"s{i}" for i in range(rng.randint(1, 2))]
            delta = {(q, a): rng.choice(states) for q in states for a in ("a", "b")}
            accepting = [q for q in states if rng.random() < 0.5]
            dfas.append(Dfa(states, ("a", "b"), delta, states[0], accepting))
        try:
            candidates = [reduction_irred(dfas)[0], reduction_sft(dfas)[0]]
        except AllLanguagesEmptyError:
            continue
        for g in candidates:
            try:
                action_monoid(g, Caps(relations=60))
            except CapExceededError:
                continue
            graphs.append(g)
        tuples += 1
    return graphs


def test_analysis_does_not_depend_on_query_order():
    # the analysis memoizes along witness chains, so ask fresh monoids
    # for their elements last-first and in shuffled order
    rng = random.Random(57)
    graphs = _small_monoid_graphs()
    assert sum(action_monoid(g).size > 20 for g in graphs) >= 5
    for g in graphs:
        elements = action_monoid(g).elements
        pair_sets = [e.pairs for e in elements]
        intrinsic = [naive_intrinsic(pair_sets, r) for r in pair_sets]
        preceded = [
            any(compose_pairs(s, r) for s, ok in zip(pair_sets, intrinsic) if ok)
            for r in pair_sets
        ]
        shuffled = list(range(len(elements)))
        rng.shuffle(shuffled)
        for order in (list(reversed(range(len(elements)))), shuffled):
            m = action_monoid(g)
            for k in order:
                assert is_intrinsically_sync_relation(m, elements[k]) == intrinsic[k]
        m = action_monoid(g)
        for k in shuffled:
            assert preceded_by_intrinsic_sync(m, elements[k]) == preceded[k]


def test_decide_sdp_exists(gm, fig1):
    assert decide_sdp_exists(gm)
    assert decide_sdp_exists(fig1)
    from sofic.constructions import Dfa, reduction_irred

    eps_language = Dfa(
        ["s", "d"], ["a"], {("s", "a"): "d", ("d", "a"): "d"}, "s", ["s"]
    )
    g, _ = reduction_irred([eps_language])
    assert not decide_sdp_exists(g)
    # the witness: the marked-word action reaching past the bypass state
    # is not preceded by an intrinsically synchronizing element
    m = action_monoid(g)
    bad = action_of_word(g, ("lm", "a", "rm"))
    assert bad.pairs == {("pstar", "p1")}
    assert not preceded_by_intrinsic_sync(m, bad)


def test_decide_sdp_true_for_irreducible_samples():
    from sofic.graphs import is_irreducible

    rng = random.Random(54)
    checked = 0
    while checked < 40:
        g = random_deterministic_graph(rng, 5, ["0", "1"])
        if not g.vertices or not g.edges or not is_irreducible(g):
            continue
        checked += 1
        assert decide_sdp_exists(g)


def test_decide_sft(gm, ev, full1):
    assert decide_sft(gm)
    assert not decide_sft(ev)
    assert decide_sft(full1)
    from sofic.constructions import Dfa, reduction_sft

    all_accepting = Dfa(["s"], ["a"], {("s", "a"): "s"}, "s", ["s"])
    g, _ = reduction_sft([all_accepting])
    assert decide_sft(g)


def test_decide_sft_agrees_with_hat_test():
    rng = random.Random(55)
    checked = 0
    while checked < 60:
        g = essentialize(random_deterministic_graph(rng, 5, ["0", "1"]))
        if not g.vertices or not is_synchronizing(g):
            continue
        checked += 1
        assert decide_sft(g) == is_sft_sync(g)


def test_synchronizing_vertices(fig1, gm, p2):
    assert synchronizing_vertices(fig1) == {"q2", "q3"}
    assert synchronizing_vertices(gm) == {"A", "B"}
    assert synchronizing_vertices(p2) == frozenset()


def test_empty_shift_is_irreducible():
    assert decide_irreducibility(LabeledGraph())


def test_decide_irreducibility(fig1, gm, p2):
    assert decide_irreducibility(fig1)
    assert decide_irreducibility(gm)
    assert decide_irreducibility(p2)
    from sofic.constructions import Dfa, reduction_irred

    eps_language = Dfa(
        ["s", "d"], ["a"], {("s", "a"): "d", ("d", "a"): "d"}, "s", ["s"]
    )
    g, _ = reduction_irred([eps_language])
    assert not decide_irreducibility(g)


def test_decide_subshift_examples(gm, full1, fig1, hfig1):
    assert decide_subshift(gm, full1)
    holds, witness = subshift_witness(full1, gm)
    assert not holds and witness == ("1", "1")
    assert decide_subshift(fig1, hfig1)
    assert decide_equality(fig1, hfig1)
    assert decide_equality(gm, gm)
    assert not decide_equality(gm, LabeledGraph(edges=[("A", "1", "A"), ("A", "0", "B"), ("B", "0", "A")]))


def test_subshift_matches_bounded_language():
    # containment can only be refuted by the bounded check, never
    # affirmed, so: exact true -> bounded true, exact false -> the
    # witness verifies directly
    rng = random.Random(56)
    rounds = [(60, 2, 12), (140, 3, 8), (320, 2, 6)]
    for count, n_labels, depth in rounds:
        labels = ["0", "1", "2"][:n_labels]
        checked = 0
        while checked < count:
            g = essentialize(random_deterministic_graph(rng, 5, labels))
            h = essentialize(random_deterministic_graph(rng, 5, labels))
            if not g.vertices or not h.vertices:
                continue
            checked += 1
            holds, witness = subshift_witness(g, h)
            equal = decide_equality(g, h)
            if holds:
                assert language_upto(g, depth) <= language_upto(h, depth)
            else:
                assert subset_step(g, g.vertices, witness)
                assert not subset_step(h, h.vertices, witness)
            if equal:
                assert language_upto(g, depth) == language_upto(h, depth)


def test_shortest_sync_word(gm, p2):
    assert shortest_sync_word(gm) == ("0",)
    assert shortest_sync_word(p2) is None


def test_shortest_sync_word_minimal_length():
    rng = random.Random(57)
    for _ in range(60):
        g = essentialize(random_deterministic_graph(rng, 5, ["0", "1"]))
        if not g.vertices:
            continue
        w = shortest_sync_word(g)
        expected = brute_shortest_sync_length(g)
        if w is None:
            assert expected is None
        else:
            assert len(subset_step(g, g.vertices, w)) == 1
            assert len(w) == expected


def test_shortest_sync_word_agrees_with_reachability():
    rng = random.Random(58)
    for _ in range(60):
        g = essentialize(random_deterministic_graph(rng, 5, ["0", "1"]))
        if not g.vertices:
            continue
        assert (shortest_sync_word(g) is not None) == singleton_reachable(g)


def test_decide_minimality(full1, gm):
    assert decide_minimality(full1, 1)
    assert not decide_minimality(gm, 1)
    assert decide_minimality(gm, 2)
    assert decide_minimality(gm, 5)
    from sofic.constructions import Dfa, reduction_sft

    all_accepting = Dfa(["s"], ["a"], {("s", "a"): "s"}, "s", ["s"])
    g, _ = reduction_sft([all_accepting])
    assert len(g.vertices) == 3
    assert decide_minimality(g, 2)
    assert not decide_minimality(g, 1)


def test_decide_minimality_odd_even():
    # the shift of the 1-letter 2-cycle needs exactly 2 vertices
    p2 = LabeledGraph(edges=[("A", "a", "B"), ("B", "a", "A")])
    assert decide_minimality(p2, 1)  # single a-loop presents the same shift
    three = LabeledGraph(
        edges=[("A", "a", "B"), ("B", "a", "C"), ("C", "a", "A")]
    )
    assert decide_minimality(three, 1)
    assert decide_minimality(three, 2)


def test_decide_minimality_cap():
    g = LabeledGraph(
        edges=[("a", str(i), "b") for i in range(6)]
        + [("b", str(i), "a") for i in range(6)]
        + [("c", str(i), "a") for i in range(6)]
        + [("a", "z", "c"), ("b", "z", "c"), ("c", "z", "c")]
    )
    with pytest.raises(CapExceededError):
        decide_minimality(g, 2, Caps(enumeration=10))


def test_minimality_agrees_with_language_on_small_cases():
    rng = random.Random(59)
    checked = 0
    while checked < 25:
        g = essentialize(random_deterministic_graph(rng, 4, ["0", "1"]))
        if len(g.vertices) < 3:
            continue
        checked += 1
        if decide_minimality(g, 2):
            # some 2-vertex candidate presents the same bounded language
            found = False
            for h in _all_two_vertex_graphs(("0", "1")):
                if essentialize(h) == h and h.vertices and brute_language(
                    h, 6
                ) == brute_language(g, 6):
                    found = decide_equality(g, h)
                    if found:
                        break
            assert found


def _all_two_vertex_graphs(labels):
    from itertools import product

    names = ("u", "w")
    slots = [(v, a) for a in labels for v in names]
    for choice in product((None, "u", "w"), repeat=len(slots)):
        edges = [
            (v, a, t) for (v, a), t in zip(slots, choice) if t is not None
        ]
        if edges:
            yield LabeledGraph(vertices=names, edges=edges)


def test_language_linkage(gm, fig1):
    for g in (gm, fig1):
        lang = language_upto(g, 8)
        for w in words_upto(("0", "1"), 6):
            assert (not action_of_word(g, w).is_empty) == (w in lang)


def test_shift_level_deciders_are_presentation_invariant():
    # doubling a presentation (or follower-separating it) changes the
    # graph drastically but not the shift, so every shift-level verdict
    # must survive both transformations
    from sofic.classify import follower_separation

    rng = random.Random(60)
    checked = 0
    while checked < 20:
        g = essentialize(random_deterministic_graph(rng, 3, ["0", "1"]))
        if not g.vertices:
            continue
        checked += 1
        doubled = disjoint_union(g, g)
        separated = follower_separation(g)
        for h in (doubled, separated):
            assert decide_equality(g, h)
            assert decide_sft(g) == decide_sft(h)
            assert decide_sdp_exists(g) == decide_sdp_exists(h)
            assert decide_irreducibility(g) == decide_irreducibility(h)
        assert decide_minimality(doubled, len(g.vertices))
