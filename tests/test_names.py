"""Answers must not depend on vertex names.

The graph below is essential, synchronizing and presents a shift of
finite type.  Its names contain ``|``, the separator of product-vertex
names, so a naming scheme that is not injective merges vertices of its
hat graph.  The battery reruns the criterion-7 graphs with vertices
renamed from adversarial alphabets and compares every answer with the
plainly named graph.
"""

import contextlib
import io
import random
import sys

from sofic import classify, exact, fileformat, syncwords
from sofic.cli import main as cli_main
from sofic.graphs import LabeledGraph, essentialize
from sofic.products import hat_graph

from .oracles import random_deterministic_graph

PIPES = LabeledGraph(
    edges=[
        ("a|b", "y", "c|a"),
        ("b", "x", "b|c"),
        ("b|c", "x", "c|a"),
        ("c", "y", "a|b"),
        ("c|a", "x", "c"),
        ("c|a", "y", "b"),
    ]
)

ALPHABETS = {
    "pipes": ("a", "b", "a|b", "b|a", "a|b|a"),
    "nested_pipes": ("a", "a|a", "a|a|a", "a|a|a|a", "b"),
    "parens": ("(a", "b)", "(b", "c)", "(c|a)"),
    "suffixes": ("v", "v~2", "v~2~2", "w~2", "w"),
    "zeros": ("0", "00", "000", "0000", "00000"),
    "unicode": ("äb", "ß", "ßç", "ç", "çä"),
}


def renamed(g, names):
    """`g` with vertex v<i> renamed to names[i]."""
    new = {v: names[int(v[1:])] for v in g.vertices}
    return LabeledGraph(
        vertices=new.values(), edges=[(new[s], a, new[d]) for s, a, d in g.edges]
    )


def answers(g):
    """Every name-independent answer the deciders give on `g`."""
    separated = classify.follower_separation(g)
    word = exact.shortest_sync_word(separated)
    return (
        syncwords.is_synchronizing(g),
        sorted(len(block) for block in classify.follower_partition(g).classes),
        classify.is_sft_sync(separated),
        exact.decide_sft(separated),
        None if word is None else len(word),
    )


def test_hat_graph_keeps_every_pair():
    assert len(hat_graph(PIPES).vertices) == 5 * 4


def test_cli_is_sft_on_pipe_names():
    text = fileformat.render(fileformat.graph_document("G", PIPES))
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli_main(["is-sft", "-"])
    finally:
        sys.stdin = saved
    assert code == 0
    assert out.getvalue() == "result: true\n"


def test_answers_independent_of_names():
    rng = random.Random(1003)
    checked = 0
    while checked < 200:
        g = essentialize(random_deterministic_graph(rng, 5, ["0", "1"]))
        if not g.vertices or not syncwords.is_synchronizing(g):
            continue
        checked += 1
        plain = answers(g)
        for alphabet, names in ALPHABETS.items():
            assert answers(renamed(g, names)) == plain, (alphabet, g)
