"""Subset searches that cross from 4-bit to byte-wide image tables, and
subset-pair searches on follower classes.

A subset search images subsets 4 vertices at a time until it has stored
256 subsets, then builds byte-wide tables and images the rest of its
queue 8 vertices at a time (see ``sofic.exact``).  The subset-pair
searches of ``subshift_witness`` and ``decide_equality`` run on the
follower classes of the union of both graphs, on one quotient per call,
and switch the same way past 256 stored pairs.  Neither may change an
answer or a witness, so these tests run searches against references:

- subset-pair witnesses against ``two_mask_witness``, the search over
  vertices, and witnesses and cap counts against ``class_witness`` at
  caps from 1 to past 256;
- synchronizing words and cap counts against ``sync_word_search``;
- closure rows, in breadth-first order, against ``table_closure``.

The inputs are ``padded_family_gn(n)`` for n = 21..41 with reverse-renamed
copies, padded n = 51 and 61, where the searches over vertices outgrow
the default cap, seeded pairs whose search over vertices stores more
than 256 pairs, and seeded graphs whose closures or class-level searches
pass 256 subsets, under the default caps and under ``Caps(subsets=k)``.
"""

import random

import pytest

from sofic import exact
from sofic.classify import is_follower_separated
from sofic.constructions import padded_family_gn
from sofic.errors import CapExceededError
from sofic.exact import (
    DEFAULT_CAPS,
    ActionMonoid,
    Caps,
    _packed_tables,
    _subset_closure,
    decide_equality,
    shortest_sync_word,
    subshift_witness,
    synchronizing_vertices,
)
from sofic.graphs import LabeledGraph, essentialize

from .oracles import (
    class_equality,
    class_witness,
    sync_word_search,
    table_closure,
    two_mask_witness,
)
from .test_exact_packed import essential_graph
from .test_exact_setup import unpacked

CAPS = (255, 256, 257, 300)
PAIR_CAPS = (1, 2, 5, 255, 256, 257, 300)


def reverse_renamed(g):
    """The copy of `g` whose sorted vertex order is reversed."""
    names = [f"r{i:03d}" for i in range(len(g.vertices))][::-1]
    mapping = dict(zip(g.vertices, names))
    return LabeledGraph(
        vertices=names, edges=[(mapping[s], a, mapping[d]) for s, a, d in g.edges]
    )


def outcome(search, *args):
    """What a search returns, or the count and message of the cap it exceeds."""
    try:
        return search(*args)
    except CapExceededError as error:
        return error.count, str(error)


def exceeded(k):
    return k + 1, f"subset count {k + 1} exceeds the configured cap"


@pytest.fixture
def switched(monkeypatch):
    """The 4-bit tables of every search that switched to byte-wide ones."""
    built = []
    byte_tables = exact._byte_tables

    def counted(tables):
        built.append(tables)
        return byte_tables(tables)

    monkeypatch.setattr(exact, "_byte_tables", counted)
    return built


@pytest.fixture
def quotients(monkeypatch):
    """The graphs of every follower quotient the exact deciders build."""
    built = []
    quotient = exact._quotient

    def counted(*graphs):
        built.append(graphs)
        return quotient(*graphs)

    monkeypatch.setattr(exact, "_quotient", counted)
    return built


def once(quotients, search, *args):
    """The outcome of `search`, which must build exactly one quotient."""
    quotients.clear()
    got = outcome(search, *args)
    assert len(quotients) == 1
    return got


def check_pair(g, h, quotients):
    """Both pair deciders on `g` and `h` against the class-level reference,
    at the default caps and at every cap of ``PAIR_CAPS``, and at the
    default caps against the search over vertices."""
    holds = []
    for x, y in ((g, h), (h, g)):
        expected = two_mask_witness(x, y)
        assert once(quotients, subshift_witness, x, y) == expected == class_witness(x, y)
        holds.append(expected[0])
        for k in PAIR_CAPS:
            assert once(quotients, subshift_witness, x, y, Caps(subsets=k)) == outcome(
                class_witness, x, y, k
            )
            assert once(quotients, decide_equality, x, y, Caps(subsets=k)) == outcome(
                class_equality, x, y, k
            )
    # either graph first: the second containment runs from the high part
    assert decide_equality(g, h) is decide_equality(h, g) is all(holds)


def check_sync_word(g):
    assert shortest_sync_word(g) == sync_word_search(g)
    for k in CAPS:
        assert outcome(shortest_sync_word, g, Caps(subsets=k)) == outcome(
            sync_word_search, g, k
        )


def check_closures(g):
    """Both closures of `g`, on their own and as the monoid's set-up, at
    the default caps and around 256 subsets."""
    lists = g._compiled().targets.values()
    n, full = len(g.vertices), (1 << len(g.vertices)) - 1
    doms, ranges = table_closure(g, preimages=True), table_closure(g)
    for preimages, reference in ((True, doms), (False, ranges)):
        tables = _packed_tables(lists, n, preimages)
        rows = _subset_closure(tables, n, full, DEFAULT_CAPS.subsets)
        assert unpacked(rows, n, len(lists)) == list(reference.items())
        for k in CAPS:
            got = outcome(_subset_closure, tables, n, full, k)
            if len(reference) > k:
                assert got == exceeded(k)
            else:
                assert unpacked(got, n, len(lists)) == list(reference.items())
    doms_got, steps = ActionMonoid(g, DEFAULT_CAPS)._prepare()
    assert list(doms_got) == list(doms)
    assert steps.pop(0) == 0
    assert unpacked(steps, n, len(lists)) == list(ranges.items())
    for k in CAPS:
        got = outcome(synchronizing_vertices, g, Caps(subsets=k))
        assert got == (exceeded(k) if len(ranges) > k else synchronizing_vertices(g))
        # the domain closure runs, and raises, first
        got = outcome(ActionMonoid(g, Caps(subsets=k))._prepare)
        if max(len(doms), len(ranges)) > k:
            assert got == exceeded(k)


@pytest.mark.parametrize("n", range(21, 42))
def test_padded_family_against_a_reverse_renamed_copy(n, switched, quotients):
    g = padded_family_gn(n)
    h = reverse_renamed(g)
    for x, y in ((g, h), (h, g)):
        assert subshift_witness(x, y) == (True, None)
    # the copies hold the same follower classes, so neither pair search
    # stores a pair or builds byte-wide tables
    assert quotients == [(g, h), (h, g)]
    assert not switched
    check_pair(g, h, quotients)
    # the sync-word search and the range closure still switch from n = 26 on
    switched.clear()
    check_sync_word(g)
    assert bool(switched) == (n >= 26)
    switched.clear()
    check_closures(g)
    assert bool(switched) == (n >= 26)


@pytest.mark.parametrize("n", [51, 61])
def test_padded_family_past_the_vertex_level_cap(n, quotients):
    # the searches over vertices of n = 61 store more than 2**18 pairs
    g = padded_family_gn(n)
    h = reverse_renamed(g)
    for x, y in ((g, h), (h, g)):
        assert subshift_witness(x, y) == (True, None)
    assert decide_equality(g, h) is True
    # both directions of the equality run on one quotient
    assert quotients == [(g, h), (h, g), (g, h)]


def test_padded_family_against_a_copy_less_one_edge(quotients):
    # of the 305 edges of n = 41, only t's rm-loop changes the shift when
    # dropped; the witness is 130 letters long
    g = padded_family_gn(41)
    h = essentialize(LabeledGraph(edges=[e for e in g.edges if e != ("t", "rm", "t")]))
    holds, witness = once(quotients, subshift_witness, g, h)
    assert not holds and len(witness) == 130
    assert (holds, witness) == class_witness(g, h) == two_mask_witness(g, h)
    assert once(quotients, subshift_witness, h, g) == (True, None)


def crossing_graphs(seed, count):
    """`count` seeded essential graphs with a closure past 256 subsets."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        g = essential_graph(rng, 13, "012")
        if max(len(table_closure(g)), len(table_closure(g, preimages=True))) > 256:
            graphs.append(g)
    return graphs


@pytest.mark.parametrize("seed", range(2500, 2504))
def test_seeded_closures_past_256_subsets(seed, switched):
    for g in crossing_graphs(seed, 2):
        switched.clear()
        check_closures(g)
        assert switched
        check_sync_word(g)


def less_one_edge(rng, g):
    """`g` less one seeded edge, made essential."""
    drop = rng.choice(g.edges)
    return essentialize(LabeledGraph(edges=[e for e in g.edges if e != drop]))


def test_seeded_witnesses_found_after_the_switch(quotients):
    # g against itself less one edge: on some pairs the search over
    # vertices finds the witness only after storing 256 pairs, and the
    # class-level search must find the same one
    rng = random.Random(2600)
    late = 0
    for _ in range(16):
        g = essential_graph(rng, 12, "012")
        h = less_one_edge(rng, g)
        if not subshift_witness(g, h)[0]:
            late += outcome(two_mask_witness, g, h, 256)[0] == 257
        check_pair(g, h, quotients)
    assert late >= 3


@pytest.mark.parametrize("seed", [2503, 2504, 2505])
def test_class_level_searches_past_256_subsets(seed, switched, quotients):
    # follower-separated g against itself less one edge: on some pairs
    # the class-level search stores more than 256 pairs, and switches to
    # byte-wide tables
    rng = random.Random(seed)
    late = 0
    for g in crossing_graphs(seed, 2):
        assert is_follower_separated(g)
        for _ in range(4):
            h = less_one_edge(rng, g)
            switched.clear()
            subshift_witness(g, h)
            late += bool(switched)
            check_pair(g, h, quotients)
    assert late >= 1
