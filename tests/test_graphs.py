import random
import sys
from collections import Counter, namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from sofic.errors import NotDeterministicError, UnknownVertexError
from sofic.graphs import (
    LabeledGraph,
    _check_token,
    alphabet,
    essentialize,
    induced_subgraph,
    irreducible_components,
    is_deterministic,
    is_essential,
    is_irreducible,
    strong_components,
    subset_step,
)

from .oracles import (
    brute_language,
    per_token_graph,
    random_deterministic_graph,
    successor_lists,
    unstranded,
    walk,
)
from .test_small_scope import presentations


def test_construction_collapses_duplicate_edges():
    g = LabeledGraph(edges=[("a", "x", "b"), ("a", "x", "b"), ("b", "x", "a")])
    assert g.edges == (("a", "x", "b"), ("b", "x", "a"))


def test_construction_shares_tuple_edges():
    g = LabeledGraph(edges=[("b", "x", "a"), ("a", "y", "b"), ("a", "x", "b")])
    h = LabeledGraph(vertices=g.vertices, edges=g.edges)
    assert h == g
    assert all(e is f for e, f in zip(h.edges, g.edges))


def test_construction_gives_plain_sorted_distinct_tuples():
    Edge = namedtuple("Edge", "src label dst")
    rng = random.Random(23)
    for _ in range(200):
        edges = [
            (rng.choice("pqr"), rng.choice("xy"), rng.choice("pqr"))
            for _ in range(rng.randint(0, 8))
        ]
        edges += rng.sample(edges, len(edges) // 2)  # duplicates
        rng.shuffle(edges)
        expected = per_token_graph(["s"], edges)
        for given in (
            [list(e) for e in edges],
            [Edge(*e) for e in edges],
            (iter(e) for e in edges),
            [iter(e) for e in edges],
        ):
            g = LabeledGraph(vertices=["s"], edges=given)
            assert (g.vertices, g.edges) == expected
            assert all(type(e) is tuple for e in g.edges)


def random_graphs(rng, count):
    """Seeded graphs on up to 5 vertices over two labels, with repeated
    (source, label) pairs and vertices without edges."""
    for _ in range(count):
        n = rng.randint(0, 5)
        names = [f"v{i}" for i in range(n)]
        edges = [
            (rng.choice(names), rng.choice("ab"), rng.choice(names))
            for _ in range(rng.randint(0, 3 * n))
        ] if n else []
        yield LabeledGraph(vertices=names, edges=edges)


def test_successors_and_essentiality_match_the_edge_list():
    graphs = list(random_graphs(random.Random(88), 600)) + presentations(3)
    kinds = Counter((is_deterministic(g), is_essential(g)) for g in graphs)
    assert all(kinds[d, e] > 50 for d in (True, False) for e in (True, False))
    for g in graphs:
        assert is_essential(g) == unstranded(g)
        assert g._compiled().succ == successor_lists(g)


def test_successor_lists_are_built_on_first_read(fig1):
    # a fresh graph, whose view no earlier search has read
    g = LabeledGraph(vertices=fig1.vertices, edges=fig1.edges)
    assert is_deterministic(g) and is_essential(g)
    assert g._compiled()._succ is None
    succ = g._compiled().succ
    assert g._compiled().succ is succ


def test_construction_rejects_bad_tokens():
    with pytest.raises(ValueError):
        LabeledGraph(vertices=["a b"])
    with pytest.raises(ValueError):
        LabeledGraph(edges=[("a", "", "b")])
    with pytest.raises(ValueError):
        LabeledGraph(vertices=[""])


def test_token_check_rejects_exactly_the_whitespace_characters():
    # every code point, alone and inside a token
    rejected = []
    for code in range(sys.maxunicode + 1):
        for token in (chr(code), f"a{chr(code)}b"):
            try:
                _check_token(token, "vertex")
            except ValueError as exc:
                assert str(exc) == f"vertex {token!r} contains whitespace"
                rejected.append(token)
    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    assert rejected == [t for c in spaces for t in (c, f"a{c}b")]
    with pytest.raises(ValueError) as info:
        LabeledGraph(edges=[("a", "x\u2003y", "b")])
    assert str(info.value) == "label 'x\\u2003y' contains whitespace"
    with pytest.raises(ValueError) as info:
        LabeledGraph(vertices=[""])
    assert str(info.value) == "vertex must be a nonempty string, got ''"


def test_is_deterministic(full1, fig1):
    assert is_deterministic(full1)
    assert is_deterministic(fig1)
    two_zero_loops_needs_multi = LabeledGraph(
        edges=[("v", "0", "v"), ("v", "0", "w"), ("w", "0", "v")]
    )
    assert not is_deterministic(two_zero_loops_needs_multi)


def test_is_deterministic_matches_source_label_pairs():
    rng = random.Random(57)
    for _ in range(200):
        n = rng.randint(1, 4)
        edges = [
            (f"v{rng.randrange(n)}", rng.choice("01"), f"v{rng.randrange(n)}")
            for _ in range(rng.randint(0, 6))
        ]
        g = LabeledGraph(vertices=[f"v{i}" for i in range(n)], edges=edges)
        assert is_deterministic(g) == (len({e[:2] for e in g.edges}) == len(g.edges))


def test_length_repr_and_equality_with_other_types():
    g = LabeledGraph(vertices=["c"], edges=[("a", "x", "b")])
    assert len(g) == 3
    assert repr(g) == (
        "LabeledGraph(vertices=('a', 'b', 'c'), edges=(('a', 'x', 'b'),))"
    )
    assert eval(repr(g)) == g
    assert g != g.edges
    assert g.__eq__(g.edges) is NotImplemented


def test_essentialize(full1, fig1):
    assert essentialize(full1) == full1
    assert essentialize(fig1) == fig1
    path = LabeledGraph(edges=[("a", "x", "b")])
    assert essentialize(path) == LabeledGraph()
    # every vertex of fig1 has an in- and an out-edge
    for v in fig1.vertices:
        assert any(src == v for src, _, _ in fig1.edges)
        assert any(dst == v for _, _, dst in fig1.edges)


def test_essentialize_matches_one_at_a_time_removal():
    rng = random.Random(2024)
    for _ in range(60):
        g = random_deterministic_graph(rng, 6, ["0", "1"])
        expected = essentialize(g)
        # remove stranded vertices one at a time in a random order
        current = g
        while True:
            stranded = [
                v
                for v in current.vertices
                if not any(src == v for src, _, _ in current.edges)
                or not any(dst == v for _, _, dst in current.edges)
            ]
            if not stranded:
                break
            victim = rng.choice(stranded)
            keep = set(current.vertices) - {victim}
            current = LabeledGraph(
                vertices=keep,
                edges=[e for e in current.edges if e[0] in keep and e[2] in keep],
            )
        assert current == expected
        assert brute_language(current, 5) == brute_language(expected, 5)
        assert essentialize(expected) == expected


def test_alphabet(full1, fig1):
    assert alphabet(full1) == ("0", "1")
    assert alphabet(LabeledGraph()) == ()
    assert alphabet(fig1) == ("0", "1")


def test_step(fig1):
    # the action of one vertex is the action on its singleton
    assert subset_step(fig1, {"q1"}, ("1",)) == {"q2"}
    assert subset_step(fig1, {"q3"}, ("1",)) == frozenset()
    for v in fig1.vertices:
        assert subset_step(fig1, {v}, ()) == {v}


def test_step_rejects_nondeterministic():
    g = LabeledGraph(edges=[("v", "0", "v"), ("v", "0", "w"), ("w", "0", "v")])
    with pytest.raises(NotDeterministicError):
        subset_step(g, g.vertices, ("0",))


def test_step_rejects_unknown_vertex(fig1):
    with pytest.raises(UnknownVertexError):
        subset_step(fig1, {"q1", "nope"}, ())


def test_subset_step(fig1):
    assert subset_step(fig1, fig1.vertices, ("1",)) == {"q2"}
    assert subset_step(fig1, fig1.vertices, ("0",)) == {"q1", "q2", "q3"}
    assert subset_step(fig1, (), ("0", "1")) == frozenset()


def test_subset_step_matches_per_vertex_walks(fig1, gm, ev):
    for g in (fig1, gm, ev):
        for w in [(), ("0",), ("1",), ("0", "1"), ("1", "1"), ("0", "0", "1")]:
            expected = {
                r for q in g.vertices for r in [walk(g, q, w)] if r is not None
            }
            assert subset_step(g, g.vertices, w) == expected


def test_irreducible_components(fig1, full1):
    comps = irreducible_components(fig1)
    assert [sorted(c.vertices) for c in comps] == [["q1"], ["q2", "q3"]]
    assert comps[0].initial and not comps[0].terminal
    assert comps[1].terminal and not comps[1].initial

    (comp,) = irreducible_components(full1)
    assert comp.initial and comp.terminal

    two_loops = LabeledGraph(edges=[("a", "x", "a"), ("b", "x", "b")])
    assert all(c.initial and c.terminal for c in irreducible_components(two_loops))


def test_component_flags_match_edge_scan():
    rng = random.Random(5)
    for _ in range(40):
        g = random_deterministic_graph(rng, 6, ["0", "1"])
        comps = irreducible_components(g)
        for comp in comps:
            incoming = any(
                src not in comp.vertices and dst in comp.vertices
                for src, _, dst in g.edges
            )
            outgoing = any(
                src in comp.vertices and dst not in comp.vertices
                for src, _, dst in g.edges
            )
            assert comp.initial == (not incoming)
            assert comp.terminal == (not outgoing)
        assert sorted(v for c in comps for v in c.vertices) == list(g.vertices)


def one_component(g):
    """Whether Tarjan finds at most one strong component in `g`."""
    return len(strong_components(successor_lists(g))) <= 1


def cycle(names, label="x"):
    return [(v, label, w) for v, w in zip(names, names[1:] + names[:1])]


STRONG_CONNECTIVITY_CASES = {
    "empty": (LabeledGraph(), True),
    "one vertex": (LabeledGraph(vertices=["v"]), True),
    "one loop": (LabeledGraph(edges=[("v", "x", "v")]), True),
    "isolated first": (LabeledGraph(vertices=["a"], edges=cycle(["b", "c"])), False),
    "isolated last": (LabeledGraph(vertices=["z"], edges=cycle(["b", "c"])), False),
    # the cycle through vertex 0 reaches the other, which never comes back
    "joined out of the first": (
        LabeledGraph(edges=cycle(["a", "b"]) + cycle(["c", "d"]) + [("b", "y", "c")]),
        False,
    ),
    "joined into the first": (
        LabeledGraph(edges=cycle(["a", "b"]) + cycle(["c", "d"]) + [("c", "y", "b")]),
        False,
    ),
    "nondeterministic cycle": (
        LabeledGraph(edges=cycle(["a", "b", "c"]) + [("a", "x", "c")]),
        True,
    ),
}


@pytest.mark.parametrize("case", STRONG_CONNECTIVITY_CASES)
def test_strong_connectivity_edge_cases(case):
    g, expected = STRONG_CONNECTIVITY_CASES[case]
    assert is_irreducible(g) is one_component(g) is expected


def test_strong_connectivity_matches_tarjan():
    rng = random.Random(61)
    graphs = list(random_graphs(rng, 400))
    for _ in range(800):
        labels = "abc"[: rng.randint(1, 3)]
        g = random_deterministic_graph(rng, rng.choice((4, 8, 12)), labels)
        if rng.random() < 0.3:
            # a second target for some (vertex, label) pairs
            extra = [(v, rng.choice(labels), rng.choice(g.vertices)) for v in g.vertices]
            g = LabeledGraph(vertices=g.vertices, edges=g.edges + tuple(extra[: rng.randint(1, 3)]))
        graphs.append(g)
    # graphs of at most one vertex are strongly connected without a sweep
    kinds = Counter((is_deterministic(g), one_component(g)) for g in graphs if len(g) > 1)
    assert all(kinds[d, c] > 40 for d in (True, False) for c in (True, False))
    assert [g for g in graphs if is_irreducible(g) != one_component(g)] == []


def test_induced_subgraph(fig1, hfig1):
    assert hfig1.edges == (("q2", "0", "q3"), ("q2", "1", "q2"), ("q3", "0", "q2"))
    assert induced_subgraph(fig1, fig1.vertices) == fig1
    assert induced_subgraph(fig1, ()) == LabeledGraph()
    with pytest.raises(UnknownVertexError):
        induced_subgraph(fig1, {"q1", "zz"})


graph_strategy = st.builds(
    random_deterministic_graph,
    st.randoms(use_true_random=False),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([["0"], ["0", "1"], ["0", "1", "2"]]),
)
word_strategy = st.lists(st.sampled_from(["0", "1", "2"]), max_size=6).map(tuple)


@settings(max_examples=200, deadline=None)
@given(g=graph_strategy, u=word_strategy, v=word_strategy)
def test_transition_action_composes(g, u, v):
    for q in g.vertices:
        assert subset_step(g, {q}, u + v) == subset_step(g, subset_step(g, {q}, u), v)
        assert len(subset_step(g, {q}, u + v)) <= 1


@settings(max_examples=200, deadline=None)
@given(g=graph_strategy, w=word_strategy, data=st.data())
def test_subset_action_union_and_monotone(g, w, data):
    vertices = list(g.vertices)
    s = frozenset(data.draw(st.sets(st.sampled_from(vertices))))
    t = frozenset(data.draw(st.sets(st.sampled_from(vertices))))
    assert subset_step(g, s | t, w) == subset_step(g, s, w) | subset_step(g, t, w)
    if s <= t:
        assert subset_step(g, s, w) <= subset_step(g, t, w)
    u = data.draw(word_strategy)
    assert subset_step(g, s, w + u) == subset_step(g, subset_step(g, s, w), u)


@settings(max_examples=150, deadline=None)
@given(g=graph_strategy)
def test_essentialize_idempotent_and_unstranded(g):
    e = essentialize(g)
    assert essentialize(e) == e
    assert is_essential(e)
