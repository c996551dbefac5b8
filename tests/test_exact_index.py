"""The SFT, irreducibility and minimality deciders against oracles.

``decide_sft`` searches pairs of classes of the follower-set graph, read
off one subset closure; it must agree with the cycle-reachability
criterion of ``tests.oracles.naive_sft`` on seeded ``reduction_sft`` and
``reduction_irred`` graphs, on random essential graphs (some with a
letter acting as a total permutation, which puts the identity among the
actions of nonempty words), on the empty graph and above 255 vertices,
its closure must store the subsets of ``tests.oracles.reachable_subsets``,
and it must build no action monoid.  ``decide_irreducibility`` and
``decide_minimality`` must agree with the routes that build a follower
quotient, an induced subgraph and named candidates, minimality on each
of its ways to answer.  None of the three deciders builds a graph.
"""

import random

import pytest

from sofic import exact
from sofic.constructions import padded_family_gn, reduction_irred, reduction_sft
from sofic.errors import AllLanguagesEmptyError, CapExceededError
from sofic.exact import (
    DEFAULT_CAPS,
    ActionMonoid,
    Caps,
    _presented_on,
    action_monoid,
    decide_equality,
    decide_irreducibility,
    decide_minimality,
    decide_sft,
)
from sofic.graphs import EMPTY, LabeledGraph, alphabet, essentialize

from .oracles import (
    named_minimality,
    naive_sft,
    quotient_irreducibility,
    random_deterministic_graph,
    random_dfa,
    reachable_subsets,
)
from .test_exact_monoid import big_graph

# inputs whose monoid exceeds this are skipped, since the naive SFT
# oracle is cubic in the monoid size
NAIVE_SIZE_LIMIT = 40

# a swaps the two vertices, b loops at p: ``b a^(2j+1) b`` is never a
# word, so the shift is not of finite type, yet every nonempty
# idempotent but the identity (``a a``) is intrinsically synchronizing
SWAP_AND_LOOP = LabeledGraph(edges=[("p", "a", "q"), ("q", "a", "p"), ("p", "b", "p")])


def small_monoid(g):
    try:
        action_monoid(g, Caps(relations=NAIVE_SIZE_LIMIT))
    except CapExceededError:
        return False
    return True


def random_dfas(rng, max_states):
    return [random_dfa(rng, max_states) for _ in range(rng.randint(1, 2))]


def reduction_graphs(seed, count, max_states=2, small=True):
    """`count` seeded ``reduction_sft`` and ``reduction_irred`` graphs, in turn."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        dfas = random_dfas(rng, max_states)
        try:
            g = reduction_irred(dfas)[0] if len(graphs) % 2 else reduction_sft(dfas)[0]
        except AllLanguagesEmptyError:
            continue
        if not small or small_monoid(g):
            graphs.append(g)
    return graphs


def permutation_graph(rng, n, labels):
    """A random graph whose first label acts as a total permutation."""
    names = [f"v{i}" for i in range(n)]
    order = rng.sample(names, n)
    edges = [(v, labels[0], t) for v, t in zip(names, order)]
    for a in labels[1:]:
        for v in names:
            t = rng.randrange(-1, n)
            if t >= 0:
                edges.append((v, a, names[t]))
    return LabeledGraph(vertices=names, edges=edges)


def random_graphs(seed, count, permutations=False, small=True, max_vertices=5):
    """`count` nonempty essential random graphs over two or three labels."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        labels = "012"[: rng.choice((2, 2, 3))]
        if permutations:
            # the permutation gives every vertex an edge in and out
            g = permutation_graph(rng, rng.randint(1, 4), labels)
        else:
            g = essentialize(random_deterministic_graph(rng, max_vertices, labels))
        if g.vertices and (not small or small_monoid(g)):
            graphs.append(g)
    return graphs


def copies(g, count):
    """The disjoint union of `count` renamed copies of `g`: the same shift."""
    return LabeledGraph(
        vertices=[f"c{j}_{v}" for j in range(count) for v in g.vertices],
        edges=[(f"c{j}_{s}", a, f"c{j}_{d}") for j in range(count) for s, a, d in g.edges],
    )


# ------------------------------------------------------------------- SFT


def test_identity_counts_when_a_letter_is_a_permutation():
    assert naive_sft(SWAP_AND_LOOP) is False
    assert decide_sft(SWAP_AND_LOOP) is False


@pytest.mark.parametrize(
    "graphs",
    [
        reduction_graphs(81, 40),
        random_graphs(82, 150),
        random_graphs(83, 150, permutations=True),
    ],
    ids=["reductions", "random", "permutation"],
)
def test_sft_matches_cycle_reachability(graphs):
    answers = [naive_sft(g) for g in graphs]
    assert [decide_sft(g) for g in graphs] == answers
    assert any(answers) and not all(answers)


def test_sft_above_255_vertices_matches_one_copy():
    graphs = [SWAP_AND_LOOP] + random_graphs(84, 6) + random_graphs(85, 6, permutations=True)
    answers = []
    for g in graphs:
        big = copies(g, 256 // len(g.vertices) + 1)
        assert len(big.vertices) > 255
        answers.append(naive_sft(g))
        assert decide_sft(big) == answers[-1]
    assert any(answers) and not all(answers)


def test_big_graph_matches_its_two_vertex_collapse():
    # every even vertex of big_graph reads 0 or 1 into an odd one, and
    # every odd one reads 0 into an even one
    collapse = LabeledGraph(edges=[("E", "0", "O"), ("E", "1", "O"), ("O", "0", "E")])
    big = big_graph()
    assert decide_equality(big, collapse)
    assert naive_sft(collapse) is False
    assert decide_sft(big) is False


def closures(monkeypatch):
    """The subset count of every range closure from now on, and the
    action monoids built: ``(counts, monoids)``."""
    counts, monoids = [], []
    closure, init = exact._range_closure, ActionMonoid.__init__

    def counted_closure(gens, n, cap):
        rows = closure(gens, n, cap)
        counts.append(len(rows))
        return rows

    def counted_init(self, *args):
        monoids.append(self)
        init(self, *args)

    monkeypatch.setattr(exact, "_range_closure", counted_closure)
    monkeypatch.setattr(ActionMonoid, "__init__", counted_init)
    return counts, monoids


@pytest.mark.parametrize(
    "graphs",
    [
        random_graphs(92, 200, max_vertices=8),
        random_graphs(93, 100, permutations=True),
    ],
    ids=["random", "permutation"],
)
def test_pruned_sft_matches_cycle_reachability(graphs, monkeypatch):
    counts, monoids = closures(monkeypatch)
    answers = [naive_sft(g) for g in graphs]
    assert [decide_sft(g) for g in graphs] == answers
    assert any(answers) and not all(answers)
    # one closure per graph, of the subsets V·w, and no monoid
    assert counts == [len(reachable_subsets(g)) for g in graphs]
    assert monoids == []


def test_pruned_sft_on_the_empty_graph_and_above_255_vertices(monkeypatch):
    assert naive_sft(EMPTY) is True
    assert decide_sft(EMPTY) is True
    graphs = random_graphs(94, 8) + random_graphs(95, 4, permutations=True)
    answers = [naive_sft(g) for g in graphs]
    bigs = [copies(g, 256 // len(g.vertices) + 1) for g in graphs]
    counts, monoids = closures(monkeypatch)
    for big, answer in zip(bigs, answers):
        assert len(big.vertices) > 255
        assert decide_sft(big) == answer
    assert any(answers) and not all(answers)
    assert counts == [len(reachable_subsets(big)) for big in bigs]
    assert monoids == []


def test_pruned_sft_builds_no_monoid(monkeypatch):
    g = padded_family_gn(36)
    counts, monoids = closures(monkeypatch)
    assert decide_sft(g) is False
    assert counts == [len(reachable_subsets(g))]
    assert monoids == []


# -------------------------------------------------------- irreducibility


@pytest.mark.parametrize(
    "graphs",
    [
        reduction_graphs(86, 60, max_states=3, small=False),
        random_graphs(87, 200, small=False, max_vertices=7),
    ],
    ids=["reductions", "random"],
)
def test_irreducibility_matches_the_quotient_route(graphs):
    answers = [quotient_irreducibility(g) for g in graphs]
    assert [decide_irreducibility(g) for g in graphs] == answers
    assert any(answers) and not all(answers)


# ------------------------------------------------------------ minimality


def minimality_ks(g):
    """The k in 2..3 below g's vertex count whose candidates fit the cap."""
    labels = len({a for _, a, _ in g.edges})
    return [k for k in (2, 3) if k < len(g.vertices) and (k + 1) ** (k * labels) <= 10**6]


# two disjoint ab-cycles: no essential 3-vertex graph presents their
# shift, but one of the 2-cycle and a vertex with no incoming edge
# reads its language from its full vertex set
TWO_CYCLES = LabeledGraph(
    edges=[("p", "a", "q"), ("q", "b", "p"), ("r", "a", "s"), ("s", "b", "r")]
)


def minimality_inputs():
    rng = random.Random(88)
    graphs = []
    while len(graphs) < 30:
        g = essentialize(random_deterministic_graph(rng, 5, "01"))
        if len(g.vertices) >= 3:
            graphs.append(g)
    reductions = [g for g in reduction_graphs(89, 10) if len(g.vertices) >= 3]
    return graphs + reductions + [TWO_CYCLES]


def test_minimality_matches_named_candidates():
    # decide_minimality asks for at most k vertices, the oracle for exactly k
    answers = []
    for g in minimality_inputs():
        named = False
        for k in minimality_ks(g):
            named = named or named_minimality(g, k)
            answers.append(named)
            assert decide_minimality(g, k) == named, (g, k)
    assert any(answers) and not all(answers)
    # no essential 3-vertex candidate presents TWO_CYCLES' shift
    assert not named_minimality(TWO_CYCLES, 3)
    assert not _presented_on(TWO_CYCLES, 3, DEFAULT_CAPS)
    assert decide_minimality(TWO_CYCLES, 3)


def searched(monkeypatch):
    """The sizes passed to ``_presented_on`` from now on, and the class
    counts of the follower-set closures, None for one that raised:
    ``(sizes, classes)``."""
    sizes, classes = [], []
    presented_on, follower_sets = exact._presented_on, exact._follower_sets

    def counted_search(g, k, caps):
        sizes.append(k)
        return presented_on(g, k, caps)

    def counted_classes(view, cap):
        classes.append(None)
        m, lists = follower_sets(view, cap)
        classes[-1] = m
        return m, lists

    monkeypatch.setattr(exact, "_presented_on", counted_search)
    monkeypatch.setattr(exact, "_follower_sets", counted_classes)
    return sizes, classes


def minimality_ways():
    """Per way to answer: graph, k, caps, class count (None when the
    closure overran the cap), the sizes of the candidate searches run,
    and the answer."""
    randoms, inputs = random_graphs(91, 10), minimality_inputs()
    return {
        # the essential part of its 3 classes is the 2-cycle
        "essential part fits": [(TWO_CYCLES, 2, DEFAULT_CAPS, 3, [], True),
                                (TWO_CYCLES, 3, DEFAULT_CAPS, 3, [], True)],
        # more than 2**k - 1 classes; at k = 3 the search took seconds
        "too many classes": [(randoms[6], 2, DEFAULT_CAPS, 7, [], False),
                             (randoms[7], 2, DEFAULT_CAPS, 9, [], False),
                             (randoms[7], 3, DEFAULT_CAPS, 9, [], False)],
        # 3 classes, all essential
        "search": [(inputs[8], 2, DEFAULT_CAPS, 3, [2], True),
                   (inputs[26], 2, DEFAULT_CAPS, 3, [2], False)],
        # the closure stores 4 subsets
        "closure over the cap": [(inputs[36], 2, Caps(subsets=1), None, [2], False)],
    }


MINIMALITY_WAYS = minimality_ways()


@pytest.mark.parametrize("way", MINIMALITY_WAYS)
def test_minimality_answers_each_way(way, monkeypatch):
    sizes, classes = searched(monkeypatch)
    for g, k, caps, count, runs, answer in MINIMALITY_WAYS[way]:
        # a fresh graph, whose view keeps no follower-set graph yet
        g = LabeledGraph(g.vertices, g.edges)
        del sizes[:], classes[:]
        assert decide_minimality(g, k, caps) is answer
        assert (classes, sizes) == ([count], runs)
        # named candidates on 3 vertices take seconds there
        if k == 2 or way != "too many classes":
            assert answer == any(named_minimality(g, j) for j in range(2, k + 1))


# the orbit of (ab)^inf on 4 vertices: essential presentations of it
# have an even number of vertices
AB_FOUR_CYCLE = LabeledGraph(
    edges=[("p", "a", "q"), ("q", "b", "r"), ("r", "a", "s"), ("s", "b", "p")]
)


def test_minimality_is_monotone_in_k():
    assert [decide_minimality(AB_FOUR_CYCLE, k) for k in range(1, 7)] == [
        False, True, True, True, True, True
    ]
    assert [_presented_on(AB_FOUR_CYCLE, k, DEFAULT_CAPS) for k in (2, 3)] == [True, False]
    for g in minimality_inputs():
        if len(g.vertices) <= 4 and len(alphabet(g)) <= 2:
            answers = [decide_minimality(g, k) for k in range(1, len(g.vertices) + 1)]
            assert answers == sorted(answers), g


# ----------------------------------------------------------- no graphs


def test_deciders_build_no_graph(monkeypatch):
    graphs = reduction_graphs(90, 10) + random_graphs(91, 10) + [SWAP_AND_LOOP]
    candidates = minimality_inputs()
    built = []
    init = LabeledGraph.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LabeledGraph, "__init__", counted)
    for g in graphs:
        decide_sft(g)
        decide_irreducibility(g)
    for g in candidates:
        for k in minimality_ks(g):
            decide_minimality(g, k)
    assert built == []
