"""Which error ``LabeledGraph(vertices, edges)`` raises on bad input.

The constructor must report the first bad token in input order (the
vertices, then each edge's source, label and target) or the first
malformed edge, with the class and message of a per-token check, and
build the same graph on good input.  `tests.oracles.per_token_graph` is
that check.  The battery mixes good names with empty names, names
holding whitespace, non-string and unhashable tokens, edges of the wrong
length, list edges and generator arguments, several faults to a case.
"""

import random

import pytest

from sofic.graphs import LabeledGraph

from .oracles import per_token_graph

GOOD = ["a", "b", "c", "v0", "v1", "x", "y", "0", "é", "a-b", "(a|b)"]
BAD = ["", " ", "a b", "\u2003", "x\u2003y", "\x1c", "a\x1cb", "\t", 5, ["a"], None]
MALFORMED = [("a", "x"), ("a", "x", "b", "c"), (), 7, ["b", "y"]]


def outcome(build, vertices, edges):
    """`build`'s result, or the class and message of its ValueError or TypeError."""
    try:
        return build(vertices, edges)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def constructed(vertices, edges):
    g = LabeledGraph(vertices=vertices, edges=edges)
    return g.vertices, g.edges


def random_case(rng):
    """A vertex list, an edge list and each one's container kind, with 0 to 3 faults."""
    vertices = [rng.choice(GOOD) for _ in range(rng.randint(0, 4))]
    edges = [tuple(rng.choice(GOOD) for _ in range(3)) for _ in range(rng.randint(0, 6))]
    for _ in range(rng.randint(0, 3)):
        fault = rng.randrange(4)
        if fault == 0 and vertices:
            vertices[rng.randrange(len(vertices))] = rng.choice(BAD)
        elif fault == 1 and edges:
            i, j = rng.randrange(len(edges)), rng.randrange(3)
            if isinstance(edges[i], tuple) and len(edges[i]) == 3:
                edges[i] = edges[i][:j] + (rng.choice(BAD),) + edges[i][j + 1:]
        elif fault == 2 and edges:
            edges[rng.randrange(len(edges))] = rng.choice(MALFORMED)
        elif edges:
            i = rng.randrange(len(edges))
            if isinstance(edges[i], tuple):
                edges[i] = list(edges[i])
    return vertices, edges, rng.choice([tuple, list, iter]), rng.choice([tuple, list, iter])


def test_constructor_errors_match_the_per_token_check():
    rng = random.Random(2207)
    failures = 0
    for _ in range(3000):
        vertices, edges, vwrap, ewrap = random_case(rng)
        expected = outcome(per_token_graph, vwrap(vertices), ewrap(edges))
        assert outcome(constructed, vwrap(vertices), ewrap(edges)) == expected, (
            vertices,
            edges,
        )
        failures += isinstance(expected[0], type)
    # the battery exercises both outcomes
    assert 1000 < failures < 2500


@pytest.mark.parametrize(
    "vertices, edges, error, message",
    [
        ([""], (), ValueError, "vertex must be a nonempty string, got ''"),
        (["a", "b"], [("a", " ", "b")], ValueError, "label ' ' contains whitespace"),
        ((), [("a", "x", "\u2003")], ValueError, "vertex '\\u2003' contains whitespace"),
        ((), [("a\x1c", "x", "b")], ValueError, "vertex 'a\\x1c' contains whitespace"),
        ((), [("a", 5, "b")], ValueError, "label must be a nonempty string, got 5"),
        ((), [(["a"], "x", "b")], ValueError, "vertex must be a nonempty string, got ['a']"),
        ((), [("a", "x")], ValueError, "not enough values to unpack (expected 3, got 2)"),
        ((), [("a", "x", "b", "c")], ValueError, "too many values to unpack (expected 3)"),
        ((), [7], TypeError, "cannot unpack non-iterable int object"),
        # the first fault in input order wins, whatever the set order
        (["a", "b c"], [("", "x", "b")], ValueError, "vertex 'b c' contains whitespace"),
        ((), [("a", "x", "b"), ("a", "x"), ("", "x", "b")], ValueError,
         "not enough values to unpack (expected 3, got 2)"),
        ((), [("a", "x", "b"), ["b", "y", "a"], ("b", "y z", "a")], ValueError,
         "label 'y z' contains whitespace"),
        (iter(["a", "b"]), iter([("a", "x", "b"), ("b", "x", "")]), ValueError,
         "vertex must be a nonempty string, got ''"),
    ],
)
def test_first_bad_token_in_input_order(vertices, edges, error, message):
    with pytest.raises(error) as info:
        LabeledGraph(vertices=vertices, edges=edges)
    assert str(info.value) == message


def test_list_edges_and_generators_build_the_same_graph():
    edges = [("a", "x", "b"), ("b", "x", "a")]
    g = LabeledGraph(vertices=iter(["c"]), edges=(list(e) for e in edges))
    assert g == LabeledGraph(vertices=["c"], edges=edges)



def yield_then_raise(items):
    yield from items
    raise ValueError("iteration failed")


@pytest.mark.parametrize(
    "arguments, message",
    [
        (lambda: (yield_then_raise(["a"]), ()), "iteration failed"),
        (lambda: (["a"], yield_then_raise([("a", "x", "a")])), "iteration failed"),
        (lambda: (yield_then_raise(["a", ""]), ()), "vertex must be a nonempty string, got ''"),
        (lambda: (["a"], yield_then_raise([("a", "x", "b c")])), "vertex 'b c' contains whitespace"),
        (lambda: (["a b"], 5), "vertex 'a b' contains whitespace"),
    ],
    ids=["vertices-fail", "edges-fail", "bad-vertex-first", "bad-edge-first", "edges-not-iterable"],
)
def test_a_bad_token_before_a_failing_argument_wins(arguments, message):
    vertices, edges = arguments()
    with pytest.raises(ValueError) as info:
        LabeledGraph(vertices=vertices, edges=edges)
    assert str(info.value) == message
