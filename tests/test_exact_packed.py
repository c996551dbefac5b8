"""The packed subset-image table and the searches that read it.

The subset searches image a subset under every label at once: label c's
target t of a vertex sits at bit ``c*n + t`` of that vertex's mask, so
one table lookup per chunk yields all the label images side by side.
These tests pin the table against the one-label tables, the searches on
the empty and one-vertex graphs (where every offset ``c*n`` is 0), and
containment between graphs of unequal sizes and alphabets.
"""

import random

import pytest

from sofic import exact
from sofic.constructions import padded_family_gn
from sofic.exact import (
    _image,
    _image_tables,
    _packed_tables,
    _preimage_tables,
    decide_equality,
    decide_sdp_exists,
    decide_sft,
    shortest_sync_word,
    subshift_witness,
    synchronizing_vertices,
)
from sofic.graphs import EMPTY, LabeledGraph, essentialize

from .oracles import image, random_deterministic_graph
from .test_exact_images import brute_kill_length

ONE = LabeledGraph(vertices=["v"], edges=[("v", "a", "v")])
ONE_AB = LabeledGraph(edges=[("v", "a", "v"), ("v", "b", "v")])
TWO = LabeledGraph(edges=[("p", "a", "q"), ("q", "b", "p"), ("q", "a", "q")])


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
            assert [_image(mask, t) for t in singles] == [
                edge_image(mask, t) for t in target_lists
            ]
            assert [_image(mask, t) for t in inverses] == [
                edge_preimage(mask, t) for t in target_lists
            ]


def test_packed_tables_missing_label_is_a_zero_block():
    images = _packed_tables([(1, 0, -1), (), (2, 2, 2)], 3)
    assert split(_image(0b111, images), 3, 3) == [0b011, 0, 0b100]


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
    built = []
    packed = []
    tables = exact._tables
    packed_tables = exact._packed_tables

    def counted(g, labels):
        built.append(g)
        return tables(g, labels)

    def counted_packed(target_lists, n, preimages=False):
        packed.append(n)
        return packed_tables(target_lists, n, preimages)

    monkeypatch.setattr(exact, "_tables", counted)
    monkeypatch.setattr(exact, "_packed_tables", counted_packed)
    rng = random.Random(0)
    g, h = essential_graph(rng, 4, "01"), essential_graph(rng, 5, "012")
    assert decide_equality(g, h) is False
    assert sorted(map(id, built)) == sorted([id(g), id(h)])
    assert packed == [4, 5]
    built.clear()
    packed.clear()
    # g has no 2-vertex presentation, so every surviving candidate is
    # tried; g's tables come through _tables, a candidate's straight from
    # its target lists
    assert exact.decide_minimality(g, 2) is False
    assert built == [g]
    assert len(packed) > 2
    assert packed.count(2) == len(packed) - 1
