import random

import pytest

from sofic.errors import AlphabetMismatchError, NotDeterministicError
from sofic.graphs import LabeledGraph, alphabet
from sofic.products import (
    find_word_to,
    hat_graph,
    product_vertex,
    sink_vertex_graph,
    sink_vertex_name,
)

from .oracles import random_deterministic_graph, walk, words_upto


@pytest.fixture
def gm_graph(gm):
    return gm


def test_sink_vertex_graph_full(full1):
    g0 = sink_vertex_graph(full1, {"0", "1"})
    sink = sink_vertex_name(full1)
    added = set(g0.edges) - set(full1.edges)
    assert added == {(sink, "0", sink), (sink, "1", sink)}


def test_sink_vertex_graph_missing_edges(gm, fig1):
    g0 = sink_vertex_graph(gm, {"0", "1"})
    sink = sink_vertex_name(gm)
    assert set(g0.edges) - set(gm.edges) == {
        ("B", "1", sink),
        (sink, "0", sink),
        (sink, "1", sink),
    }
    f0 = sink_vertex_graph(fig1, {"0", "1"})
    sink = sink_vertex_name(fig1)
    assert set(f0.edges) - set(fig1.edges) == {
        ("q3", "1", sink),
        (sink, "0", sink),
        (sink, "1", sink),
    }


def test_sink_vertex_graph_errors(gm):
    with pytest.raises(AlphabetMismatchError):
        sink_vertex_graph(gm, {"0"})
    nondet = LabeledGraph(edges=[("v", "0", "v"), ("v", "0", "w"), ("w", "0", "v")])
    with pytest.raises(NotDeterministicError):
        sink_vertex_graph(nondet, {"0"})


def test_sink_name_avoids_collisions():
    g = LabeledGraph(edges=[("0", "x", "0")])
    assert sink_vertex_name(g) == "00"


def test_sink_graph_tracks_undefined_steps():
    rng = random.Random(31)
    for _ in range(30):
        g = random_deterministic_graph(rng, 4, ["0", "1"])
        if not alphabet(g):
            continue
        sink = sink_vertex_name(g)
        # the second alphabet holds a label that g never uses
        for gamma in (alphabet(g), alphabet(g) + ("z",)):
            g0 = sink_vertex_graph(g, gamma)
            for q in g.vertices:
                for w in words_upto(gamma, 4):
                    there = walk(g0, q, w)
                    assert there is not None
                    assert (there == sink) == (walk(g, q, w) is None)


def kept_apart(g, p, q, w):
    """Whether every nonempty prefix of `w` leads p and q to two distinct vertices."""
    for i in range(1, len(w) + 1):
        ends = walk(g, p, w[:i]), walk(g, q, w[:i])
        if None in ends or ends[0] == ends[1]:
            return False
    return True


def test_hat_graph_path_correspondence():
    # a word labels a path from (p, q) exactly when it keeps p and q
    # distinct and alive at every step; the path ends at the pair reached
    rng = random.Random(8)
    for _ in range(15):
        g = random_deterministic_graph(rng, 4, ["0", "1"])
        hat = hat_graph(g)
        for w in words_upto(("0", "1"), 4):
            for p in g.vertices:
                for q in g.vertices:
                    if p == q:
                        continue
                    end = walk(hat, product_vertex(p, q), w)
                    if kept_apart(g, p, q, w):
                        assert end == product_vertex(walk(g, p, w), walk(g, q, w))
                    else:
                        assert end is None


def test_hat_graph(gm, ev, full1):
    h = hat_graph(gm)
    assert set(h.vertices) == {product_vertex("A", "B"), product_vertex("B", "A")}
    assert h.edges == ()

    h = hat_graph(ev)
    assert set(h.vertices) == {product_vertex("A", "B"), product_vertex("B", "A")}
    assert set(h.edges) == {
        (product_vertex("A", "B"), "0", product_vertex("B", "A")),
        (product_vertex("B", "A"), "0", product_vertex("A", "B")),
    }

    assert hat_graph(full1) == LabeledGraph()


def test_hat_graph_size():
    rng = random.Random(9)
    for _ in range(20):
        g = random_deterministic_graph(rng, 5, ["0", "1"])
        n = len(g.vertices)
        assert len(hat_graph(g).vertices) == n * n - n


def test_find_word_to(gm):
    assert find_word_to(gm, {"A"}, lambda v: v == "B") == ("1",)
    assert find_word_to(gm, {"A", "B"}, lambda v: v == "A") == ()
    loops = LabeledGraph(edges=[("a", "x", "a"), ("b", "x", "b")])
    assert find_word_to(loops, {"a"}, lambda v: v == "b") is None


def test_find_word_to_returns_shortest():
    rng = random.Random(10)
    for _ in range(30):
        g = random_deterministic_graph(rng, 5, ["0", "1"])
        if not g.vertices:
            continue
        source = g.vertices[0]
        target = g.vertices[-1]
        got = find_word_to(g, {source}, lambda v: v == target)
        lengths = [
            len(w)
            for w in words_upto(("0", "1"), 5)
            if walk(g, source, w) == target
        ]
        if got is None:
            assert not lengths
        else:
            assert walk(g, source, got) == target
            if lengths:
                assert len(got) == min(lengths)
