import random

import pytest

from sofic.classify import (
    _blocks,
    _quotient,
    are_isomorphic,
    equal_sync,
    follower_partition,
    follower_separation,
    is_follower_separated,
    is_irreducible_shift_sync,
    is_sft_sync,
    is_universal,
    m_step_bound,
)
from sofic.errors import (
    NotEssentialError,
    NotFollowerSeparatedError,
    NotSftError,
    NotSynchronizingError,
)
from sofic.exact import decide_equality, decide_irreducibility, decide_minimality, decide_sft
from sofic.graphs import EMPTY, LabeledGraph, essentialize, is_deterministic
from sofic.syncwords import is_synchronizing

from .oracles import (
    brute_language,
    disjoint_union,
    random_deterministic_graph,
    reference_blocks,
    reference_quotient,
    walk,
    words_upto,
)
from .test_small_scope import presentations


def test_follower_partition_examples(fig1, dup_gm, full1):
    assert follower_partition(fig1).classes == (
        frozenset({"q1"}),
        frozenset({"q2"}),
        frozenset({"q3"}),
    )
    assert follower_partition(dup_gm).classes == (
        frozenset({"A", "Ap"}),
        frozenset({"B"}),
    )
    assert follower_partition(full1).classes == (frozenset({"v"}),)



def test_follower_partition_matches_bounded_followers():
    rng = random.Random(41)
    for _ in range(60):
        g = random_deterministic_graph(rng, 5, ["0", "1"])
        block_of = {v: block for block in follower_partition(g).classes for v in block}
        followers = {
            q: frozenset(w for w in words_upto(("0", "1"), 6) if walk(g, q, w))
            for q in g.vertices
        }
        for p in g.vertices:
            for q in g.vertices:
                same_block = block_of[p] == block_of[q]
                assert same_block == (followers[p] == followers[q])


def poly_sized(rng, n):
    """A Hamiltonian 0-cycle plus random partial 1- and 2-maps on n
    vertices, the shape of the benchmark's random CLI inputs."""
    names = [f"q{i}" for i in range(n)]
    cycle = rng.sample(names, n)
    edges = [(cycle[i], "0", cycle[(i + 1) % n]) for i in range(n)]
    for label in ("1", "2"):
        edges += [(v, label, rng.choice(names)) for v in names if rng.random() < 0.5]
    return LabeledGraph(vertices=names, edges=edges)


def renamed_copy(rng, g):
    """An isomorphic copy of `g` whose sorted vertex order is shuffled."""
    fresh = [f"t{i}" for i in range(len(g.vertices))]
    names = dict(zip(g.vertices, rng.sample(fresh, len(fresh))))
    return LabeledGraph(
        vertices=names.values(), edges=[(names[s], a, names[d]) for s, a, d in g.edges]
    )


def test_blocks_match_the_per_vertex_refinement():
    rng = random.Random(53)
    # one graph may lack a label another has
    label_sets = (["0"], ["1"], ["0", "1"], ["1", "2"], ["0", "1", "2"])
    cases = [(EMPTY,), (EMPTY, EMPTY)]
    for _ in range(400):
        graphs = [
            random_deterministic_graph(rng, 8, rng.choice(label_sets))
            for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.2:
            graphs.insert(rng.randrange(len(graphs) + 1), EMPTY)
        if rng.random() < 0.3:
            graphs.append(renamed_copy(rng, graphs[0]))
        cases.append(tuple(graphs))
    for n in (24, 48, 72, 96):
        g = poly_sized(rng, n)
        twin = renamed_copy(rng, g)
        cases += [(g,), (g, twin), (twin, g), (g, poly_sized(rng, n)), (g, EMPTY, twin)]
    merged = 0
    for graphs in cases:
        block = _blocks(*graphs)
        assert block == reference_blocks(*graphs)
        assert _quotient(*graphs) == reference_quotient(*graphs)
        merged += block[-1] < len(block) - 1
    # the cases reach unions whose classes are not all singletons, and
    # unions where every vertex is alone
    assert 0 < merged < len(cases)

    small = presentations(2)
    for g in small:
        for h in small:
            assert _blocks(g, h) == reference_blocks(g, h)
            assert _quotient(g, h) == reference_quotient(g, h)


def test_follower_separation_examples(fig1, dup_gm, full1, gm):
    assert follower_separation(fig1) == fig1
    assert follower_separation(full1) == full1
    quotient = follower_separation(dup_gm)
    assert len(quotient.vertices) == 2
    assert are_isomorphic(quotient, gm) is not None


def quotient_graph(g):
    """The follower quotient of `g` built from :func:`reference_quotient`,
    each class named after its smallest member."""
    block, quotient = reference_quotient(g)
    names = {}
    for v, b in zip(g.vertices, block):
        names.setdefault(b, v)
    edges = [
        (names[b], a, names[c]) for a, t in quotient.items() for b, c in enumerate(t) if c >= 0
    ]
    return LabeledGraph(vertices=names.values(), edges=edges)


def test_follower_separation_returns_a_separated_input():
    rng = random.Random(43)
    graphs = [essentialize(random_deterministic_graph(rng, 6, "01")) for _ in range(300)]
    graphs += [EMPTY, *presentations(2)]
    separated = 0
    for g in graphs:
        q = follower_separation(g)
        if is_follower_separated(g):
            assert q is g
            separated += 1
        else:
            assert q is not g and len(q.vertices) < len(g.vertices)
        assert q == quotient_graph(g)
    assert 50 < separated < len(graphs) - 50


def test_follower_separation_requires_essential():
    with pytest.raises(NotEssentialError):
        follower_separation(LabeledGraph(edges=[("a", "x", "b")]))


def test_follower_separation_preserves_everything():
    rng = random.Random(42)
    for _ in range(60):
        g = essentialize(random_deterministic_graph(rng, 5, ["0", "1"]))
        if not g.vertices:
            continue
        q = follower_separation(g)
        assert is_deterministic(q)
        assert is_follower_separated(q)
        assert brute_language(g, 6) == brute_language(q, 6)
        if is_synchronizing(g):
            assert is_synchronizing(q)


def test_are_isomorphic_examples(gm, fig1, hfig1, ev):
    renamed = LabeledGraph(edges=[("X", "0", "X"), ("X", "1", "Y"), ("Y", "0", "X")])
    assert are_isomorphic(gm, renamed) == {"A": "X", "B": "Y"}
    assert are_isomorphic(fig1, hfig1) is None
    assert are_isomorphic(gm, ev) is None


def test_are_isomorphic_requires_separated(dup_gm, gm):
    with pytest.raises(NotFollowerSeparatedError):
        are_isomorphic(dup_gm, gm)


def test_isomorphism_is_language_preserving_bijection(gm):
    renamed = LabeledGraph(edges=[("X", "0", "X"), ("X", "1", "Y"), ("Y", "0", "X")])
    mapping = are_isomorphic(gm, renamed)
    for q in gm.vertices:
        for w in words_upto(("0", "1"), 5):
            assert (walk(gm, q, w) is None) == (walk(renamed, mapping[q], w) is None)


def test_equal_sync_examples(hfig1, gm, ev):
    renamed = LabeledGraph(
        edges=[("x2", "1", "x2"), ("x2", "0", "x3"), ("x3", "0", "x2")]
    )
    assert equal_sync(hfig1, renamed)
    assert not equal_sync(gm, ev)
    assert not equal_sync(hfig1, gm)
    assert ("1", "1") in brute_language(hfig1, 2)
    assert ("1", "1") not in brute_language(gm, 2)


def test_equal_sync_checks_preconditions(fig1, gm):
    with pytest.raises(NotSynchronizingError):
        equal_sync(fig1, gm)
    with pytest.raises(NotSynchronizingError):
        equal_sync(gm, fig1)


def test_is_sft_sync(gm, ev, full1):
    assert is_sft_sync(gm)
    assert not is_sft_sync(ev)
    assert is_sft_sync(full1)


def test_m_step_bound(gm, full1, ev):
    assert m_step_bound(gm) == 2
    assert m_step_bound(full1) == 0
    with pytest.raises(NotSftError):
        m_step_bound(ev)
    three_state_sft = LabeledGraph(
        edges=[("a", "x", "b"), ("b", "y", "c"), ("c", "z", "a")]
    )
    assert m_step_bound(three_state_sft) == 6


def test_is_irreducible_shift_sync(hfig1, gm):
    assert is_irreducible_shift_sync(hfig1)
    assert is_irreducible_shift_sync(gm)


def test_is_irreducible_shift_sync_rejects_nonsynchronizing(gm):
    two_copies = disjoint_union(gm, gm)
    with pytest.raises(NotSynchronizingError):
        is_irreducible_shift_sync(two_copies)


# synchronizing, but b has no outgoing edge; the shift is the full shift on x
STRANDED = LabeledGraph(edges=[("a", "x", "a"), ("a", "y", "b")])


@pytest.mark.parametrize("decider", [is_sft_sync, m_step_bound, is_irreducible_shift_sync])
def test_sync_deciders_require_essential(decider):
    assert is_synchronizing(STRANDED)
    with pytest.raises(NotEssentialError):
        decider(STRANDED)


@pytest.mark.parametrize(
    "decider", [is_sft_sync, m_step_bound, is_irreducible_shift_sync, equal_sync]
)
def test_sync_deciders_require_synchronizing(decider, fig1, gm):
    # each would answer False: fig1 is reducible, has a cycle in its hat
    # graph, and presents another shift than gm
    assert not is_synchronizing(fig1)
    graphs = (fig1, gm) if decider is equal_sync else (fig1,)
    with pytest.raises(NotSynchronizingError):
        decider(*graphs)


def test_sync_deciders_answer_true_without_synchronizing(fig1, gm):
    # a True answer needs no synchronizing input, and it is the exact one
    two_gm = disjoint_union(gm, gm)
    full2 = LabeledGraph(edges=[("p", "a", "q"), ("q", "a", "p"), ("p", "b", "p"), ("q", "b", "q")])
    assert not any(map(is_synchronizing, (fig1, two_gm, full2)))
    assert equal_sync(fig1, fig1) is decide_equality(fig1, fig1) is True
    assert equal_sync(gm, two_gm) is decide_equality(gm, two_gm) is True
    assert is_sft_sync(two_gm) is decide_sft(two_gm) is True
    assert m_step_bound(two_gm) == 12
    assert is_irreducible_shift_sync(full2) is decide_irreducibility(full2) is True


def test_sync_deciders_build_no_graph(monkeypatch):
    rng = random.Random(47)
    graphs = []
    while len(graphs) < 30:
        g = essentialize(random_deterministic_graph(rng, 6, ["0", "1"]))
        if g.vertices and is_synchronizing(g):
            graphs.append(g)
    built = []
    init = LabeledGraph.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LabeledGraph, "__init__", counted)
    sft = []
    for g, h in zip(graphs, graphs[1:] + graphs[:1]):
        sft.append(is_sft_sync(g))
        if sft[-1]:
            m_step_bound(g)
        equal_sync(g, h)
        equal_sync(g, g)
        is_irreducible_shift_sync(g)
        is_universal(g)
        decide_minimality(g, 1)
    assert built == []
    assert any(sft) and not all(sft)


def test_is_universal(full1, gm):
    assert is_universal(full1)
    assert not is_universal(gm)
    assert is_universal(EMPTY) is True
    from sofic.constructions import Dfa, reduction_sft

    all_accepting = Dfa(["s"], ["a"], {("s", "a"): "s"}, "s", ["s"])
    _, h2 = reduction_sft([all_accepting])
    assert not is_universal(h2)
    assert walk(h2, "q2", ("rm",)) is None


def test_m_step_words_are_intrinsically_synchronizing(gm, full1):
    # every language word of the bound's length is intrinsically
    # synchronizing, checked through the action machinery
    from sofic.exact import action_monoid, action_of_word, is_intrinsically_sync_relation

    three_state_sft = LabeledGraph(
        edges=[("a", "x", "b"), ("b", "y", "c"), ("c", "z", "a")]
    )
    for g in (gm, full1, three_state_sft):
        bound = m_step_bound(g)
        assert bound <= 6
        monoid = action_monoid(g)
        labels = sorted({a for _, a, _ in g.edges})
        for w in words_upto(labels, min(bound + 2, 8)):
            if len(w) < bound:
                continue
            relation = action_of_word(g, w)
            if relation.is_empty:
                continue
            assert is_intrinsically_sync_relation(monoid, relation)


def test_universal_via_two_vertex_full_presentation():
    # an in-split of the full 2-shift: universal on 2 vertices
    g = LabeledGraph(
        edges=[
            ("a", "0", "a"),
            ("a", "1", "b"),
            ("b", "0", "a"),
            ("b", "1", "b"),
        ]
    )
    assert is_universal(g)
