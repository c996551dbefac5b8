"""The packed subset-image table and the searches that read it.

The subset searches image a subset under every label at once: label c's
target t of a vertex sits at bit ``c*n + t`` of that vertex's mask, so
one table lookup per chunk yields all the label images side by side.
These tests pin the table, and the byte-wide tables that long searches
switch to, against the one-label tables, the searches on the empty and
one-vertex graphs (where every offset ``c*n`` is 0), containment between
graphs of unequal sizes and alphabets, and the tables a decision builds:
one for the follower classes of the union of the two graphs.
"""

import random

import pytest

from sofic import exact
from sofic.classify import _quotient
from sofic.constructions import padded_family_gn
from sofic.exact import (
    _byte_image,
    _byte_tables,
    _image,
    _packed_tables,
    decide_equality,
    decide_sdp_exists,
    decide_sft,
    shortest_sync_word,
    subshift_witness,
    synchronizing_vertices,
)
from sofic.graphs import EMPTY, LabeledGraph, essentialize

from .oracles import (
    image,
    image_tables as _image_tables,
    preimage_tables as _preimage_tables,
    random_deterministic_graph,
)
from .test_classify import renamed_copy
from .test_exact_images import brute_kill_length

ONE = LabeledGraph(vertices=["v"], edges=[("v", "a", "v")])
ONE_AB = LabeledGraph(edges=[("v", "a", "v"), ("v", "b", "v")])
TWO = LabeledGraph(edges=[("p", "a", "q"), ("q", "b", "p"), ("q", "a", "q")])
# 4 vertices, 3 follower sets of words, and no presentation on 2 vertices
FALLS_THROUGH = LabeledGraph(
    edges=[("v0", "0", "v2"), ("v0", "1", "v0"), ("v1", "0", "v2"),
           ("v2", "1", "v2"), ("v3", "0", "v1"), ("v3", "1", "v3")]
)


def test_empty_graph_answers():
    assert synchronizing_vertices(EMPTY) == frozenset()
    assert shortest_sync_word(EMPTY) is None
    assert decide_sdp_exists(EMPTY) is True
    assert decide_sft(EMPTY) is True
    assert decide_equality(EMPTY, EMPTY) is True
    for h in (ONE, TWO):
        assert subshift_witness(EMPTY, h) == (True, None)
        assert subshift_witness(h, EMPTY) == (False, ())
        assert decide_equality(EMPTY, h) is False
        assert decide_equality(h, EMPTY) is False


@pytest.mark.parametrize("g", [ONE, ONE_AB])
def test_one_vertex_graph_answers(g):
    assert synchronizing_vertices(g) == frozenset({"v"})
    assert shortest_sync_word(g) == ()
    assert decide_sdp_exists(g) is True
    assert decide_sft(g) is True
    assert decide_equality(g, g) is True


@pytest.mark.parametrize(
    "g,h,forward,backward",
    [
        (ONE, TWO, (True, None), (False, ("b",))),
        (ONE_AB, ONE, (False, ("b",)), (True, None)),
        (ONE_AB, TWO, (False, ("b", "b")), (True, None)),
    ],
)
def test_one_vertex_containment(g, h, forward, backward):
    assert subshift_witness(g, h) == forward
    assert subshift_witness(h, g) == backward
    assert decide_equality(g, h) is False
    assert decide_equality(h, g) is False


def split(packed, n, count):
    full = (1 << n) - 1
    return [packed >> c * n & full for c in range(count)]


def edge_image(mask, targets):
    return sum({1 << t for v, t in enumerate(targets) if t >= 0 and mask >> v & 1})


def edge_preimage(mask, targets):
    return sum(1 << v for v, t in enumerate(targets) if t >= 0 and mask >> t & 1)


@pytest.mark.parametrize("n", range(71))
def test_packed_tables_match_one_label_tables(n):
    rng = random.Random(7000 + n)
    full = (1 << n) - 1
    for count in range(1, 5):
        target_lists = [tuple(rng.randrange(-1, n) for _ in range(n)) for _ in range(count)]
        images = _packed_tables(target_lists, n)
        preimages = _packed_tables(target_lists, n, preimages=True)
        byte_images, byte_preimages = _byte_tables(images), _byte_tables(preimages)
        singles = [_image_tables(t) for t in target_lists]
        inverses = [_preimage_tables(t) for t in target_lists]
        masks = [0, full, full >> 1, full & ~1, 1 << max(n - 1, 0)]
        masks += [rng.getrandbits(n) if n else 0 for _ in range(4)]
        for mask in masks:
            mask &= full
            assert split(_image(mask, images), n, count) == [
                _image(mask, t) for t in singles
            ]
            assert split(_image(mask, preimages), n, count) == [
                _image(mask, t) for t in inverses
            ]
            assert _byte_image(mask, byte_images) == _image(mask, images)
            assert _byte_image(mask, byte_preimages) == _image(mask, preimages)
            assert [_image(mask, t) for t in singles] == [
                edge_image(mask, t) for t in target_lists
            ]
            assert [_image(mask, t) for t in inverses] == [
                edge_preimage(mask, t) for t in target_lists
            ]


def test_packed_tables_missing_label_is_a_zero_block():
    images = _packed_tables([(1, 0, -1), (), (2, 2, 2)], 3)
    assert split(_image(0b111, images), 3, 3) == [0b011, 0, 0b100]
    assert split(_byte_image(0b111, _byte_tables(images)), 3, 3) == [0b011, 0, 0b100]


def essential_graph(rng, n, labels):
    """A seeded essential random graph with exactly n vertices over `labels`."""
    while True:
        g = essentialize(random_deterministic_graph(rng, n, labels))
        if len(g.vertices) == n and {a for _, a, _ in g.edges} == set(labels):
            return g


def check_containment(g, h):
    for x, y in ((g, h), (h, g)):
        holds, witness = subshift_witness(x, y)
        kill = brute_kill_length(x, y)
        assert holds == (kill is None)
        if holds:
            assert witness is None
        else:
            assert len(witness) == kill
            assert image(x, x.vertices, witness) and not image(y, y.vertices, witness)
    assert decide_equality(g, h) == decide_equality(h, g)
    assert decide_equality(g, h) == (
        subshift_witness(g, h)[0] and subshift_witness(h, g)[0]
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_containment_across_a_chunk_boundary(n):
    # sizes n and n+3 always lie in different 4-vertex chunk counts or
    # at different offsets inside the last chunk
    rng = random.Random(7100 + n)
    for _ in range(4):
        check_containment(essential_graph(rng, n, "01"), essential_graph(rng, n + 3, "01"))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_containment_with_unequal_alphabets(n):
    rng = random.Random(7200 + n)
    for _ in range(4):
        g = essential_graph(rng, n, "012")
        # h lacks g's label "1", then h has the extra label "3"
        check_containment(g, essential_graph(rng, n + 1, "02"))
        check_containment(g, essential_graph(rng, n + 2, "0123"))


@pytest.mark.parametrize("n", [11, 12, 13])
def test_padded_family_against_a_larger_member(n):
    # members n and n+5 differ in size and in their base alphabet
    check_containment(padded_family_gn(n), padded_family_gn(n + 5))


def test_tables_are_built_once_per_graph_per_decision(monkeypatch):
    built = []  # every table built, and the vertex count of each bits layout
    laid = []
    searched = []  # the tables of each containment and each equality test
    compared = []
    quotients = []  # the graphs of each follower quotient built
    mask_tables, packed_bits = exact._mask_tables, exact._packed_bits
    containment, equal = exact._containment, exact._equal

    def counted_tables(bits):
        built.append(mask_tables(bits))
        return built[-1]

    def counted_bits(target_lists, n, width, at=0, preimages=False):
        laid.append(n)
        return packed_bits(target_lists, n, width, at, preimages)

    def counted_containment(tables, *args):
        searched.append(tables)
        return containment(tables, *args)

    def counted_equal(tables, *args):
        compared.append(tables)
        return equal(tables, *args)

    def counted_quotient(*graphs):
        quotients.append(graphs)
        return _quotient(*graphs)

    monkeypatch.setattr(exact, "_mask_tables", counted_tables)
    monkeypatch.setattr(exact, "_packed_bits", counted_bits)
    monkeypatch.setattr(exact, "_containment", counted_containment)
    monkeypatch.setattr(exact, "_equal", counted_equal)
    monkeypatch.setattr(exact, "_quotient", counted_quotient)
    rng = random.Random(0)
    g, h = essential_graph(rng, 4, "01"), essential_graph(rng, 5, "012")
    assert decide_equality(g, h) is False
    # one table of the union's follower classes, laid out twice side by side
    classes = _quotient(g, h)[0][-1]
    assert quotients == [(g, h)]
    assert len(built) == 1 and laid == [classes, classes]
    # a copy holds every class of the other graph, so neither direction
    # searches and no table is built
    built.clear()
    searched.clear()
    quotients.clear()
    assert decide_equality(g, LabeledGraph(edges=g.edges)) is True
    assert len(quotients) == 1 and built == [] and searched == []
    padded = padded_family_gn(61)
    assert decide_equality(padded, renamed_copy(rng, padded)) is True
    assert len(quotients) == 2 and built == [] and searched == []
    # an equal pair in which each graph has a class the other lacks runs
    # both containments, on the one table of the union
    one_a = LabeledGraph(edges=[("p", "b", "p"), ("q", "a", "p"), ("q", "b", "q")])
    odd_b = LabeledGraph(
        edges=[("x", "b", "x"), ("y", "b", "z"), ("z", "a", "x"), ("z", "b", "y")]
    )
    assert decide_equality(one_a, odd_b) is True
    assert len(built) == 1 and list(map(id, searched)) == [id(built[0])] * 2
    built.clear()
    laid.clear()
    compared.clear()
    quotients.clear()
    # FALLS_THROUGH has 3 follower classes, all essential, so neither
    # bound of the follower-set graph answers k = 2 and every surviving
    # candidate is compared.  Its closure lays the graph out once on its
    # own, in the first table; the search lays it out once more as its
    # part of the union, and each candidate gets one table of the union,
    # shared by both directions
    assert exact.decide_minimality(FALLS_THROUGH, 2) is False
    assert laid.count(4) == 2
    assert len(compared) > 1 and list(map(id, compared)) == list(map(id, built[1:]))
    assert laid.count(2) == len(compared)
    # minimality's candidate checks build no quotient
    assert quotients == []
