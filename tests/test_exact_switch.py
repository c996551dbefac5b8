"""Subset searches that cross from 4-bit to byte-wide image tables.

A subset search images subsets 4 vertices at a time until it has stored
256 subsets, then builds byte-wide tables and images the rest of its
queue 8 vertices at a time (see ``sofic.exact``).  Nothing a search
returns may depend on that, so these tests run searches on both sides of
the switch against references that image one way throughout:

- subset-pair witnesses and cap counts against ``two_mask_witness``;
- synchronizing words and cap counts against ``sync_word_search``;
- closure rows, in breadth-first order, against ``table_closure``.

The inputs are ``padded_family_gn(n)`` for n = 24..41 with reverse-renamed
copies (the pair searches cross from n = 26 on) and seeded graphs whose
closures pass 256 subsets, under the default caps and under
``Caps(subsets=k)`` for k on both sides of 256.
"""

import random

import pytest

from sofic import exact
from sofic.constructions import padded_family_gn
from sofic.errors import CapExceededError
from sofic.exact import (
    DEFAULT_CAPS,
    ActionMonoid,
    Caps,
    _packed_tables,
    _subset_closure,
    shortest_sync_word,
    subshift_witness,
    synchronizing_vertices,
)
from sofic.graphs import LabeledGraph, essentialize

from .oracles import sync_word_search, table_closure, two_mask_witness
from .test_exact_packed import essential_graph
from .test_exact_setup import unpacked

CAPS = (255, 256, 257, 300)


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


def check_pair(g, h):
    for x, y in ((g, h), (h, g)):
        assert subshift_witness(x, y) == two_mask_witness(x, y)
        for k in CAPS:
            assert outcome(subshift_witness, x, y, Caps(subsets=k)) == outcome(
                two_mask_witness, x, y, k
            )


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


@pytest.mark.parametrize("n", range(24, 42))
def test_padded_family_against_a_reverse_renamed_copy(n, switched):
    g = padded_family_gn(n)
    h = reverse_renamed(g)
    for x, y in ((g, h), (h, g)):
        assert subshift_witness(x, y) == (True, None)
    # both pair searches store more than 256 subsets from n = 26 on
    assert len(switched) == (2 if n >= 26 else 0)
    check_pair(g, h)
    check_sync_word(g)
    check_closures(g)


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


def test_seeded_witnesses_found_after_the_switch(switched):
    # g against itself less one edge: the search that fails finds its
    # witness after the switch on some pairs, before it on others
    rng = random.Random(2600)
    late = 0
    for _ in range(16):
        g = essential_graph(rng, 12, "012")
        drop = rng.choice(g.edges)
        h = essentialize(LabeledGraph(edges=[e for e in g.edges if e != drop]))
        switched.clear()
        holds = subshift_witness(g, h)[0]
        late += bool(switched) and not holds
        check_pair(g, h)
    assert late >= 3
