import random

import pytest

from sofic.constructions import Dfa, family_mik
from sofic.errors import CapExceededError
from sofic.graphs import LabeledGraph, essentialize
from sofic.oracle import (
    MAX_LANGUAGE_WORDS,
    dfa_intersection_shortest,
    dfa_union_universal,
    is_word_synchronizing,
    language_upto,
)

from .oracles import brute_language, image, random_deterministic_graph, words_upto


def w(text):
    return tuple(text.split())


def test_language_upto_examples(gm, full1):
    assert language_upto(gm, 2) == {(), ("0",), ("1",), ("0", "0"), ("0", "1"), ("1", "0")}
    assert language_upto(full1, 1) == {(), ("0",), ("1",)}
    assert language_upto(LabeledGraph(), 3) == set()


def test_language_upto_depth_cap(gm):
    with pytest.raises(ValueError):
        language_upto(gm, 15)
    with pytest.raises(ValueError):
        language_upto(gm, -1)


def test_language_upto_word_cap():
    def full(labels):
        return LabeledGraph(edges=[("v", a, "v") for a in labels])

    # 9841 words, as many as any caller in this package stores
    assert len(language_upto(full("abc"), 8)) == 9841
    # 349525 words up to length 9
    with pytest.raises(CapExceededError) as info:
        language_upto(full("abcd"), 9)
    assert info.value.count == MAX_LANGUAGE_WORDS + 1


def test_language_upto_matches_naive_enumeration():
    rng = random.Random(71)
    for _ in range(40):
        g = random_deterministic_graph(rng, 5, ["0", "1"])
        assert language_upto(g, 6) == brute_language(g, 6)


def test_language_factorial_and_prolongable():
    rng = random.Random(72)
    for _ in range(40):
        g = essentialize(random_deterministic_graph(rng, 5, ["0", "1"]))
        if not g.vertices:
            continue
        lang = language_upto(g, 8)
        for word in lang:
            for i in range(len(word)):
                for j in range(i, len(word) + 1):
                    assert word[i:j] in lang
            if len(word) < 8:
                assert any(word + (a,) in lang for a in ("0", "1"))


def test_lang_subset_and_equal(gm, full1, fig1, hfig1):
    assert language_upto(gm, 12) <= language_upto(full1, 12)
    assert not language_upto(full1, 12) <= language_upto(gm, 12)
    assert language_upto(fig1, 12) == language_upto(hfig1, 12)
    assert language_upto(gm, 12) != language_upto(full1, 12)


def test_dfa_intersection_shortest():
    fam = family_mik(3)
    word = dfa_intersection_shortest(fam)
    assert len(word) == 8
    assert all(d.accepts(word) for d in fam)

    only_x = Dfa(
        ["0", "x", "d"],
        ["x", "y"],
        {
            ("0", "x"): "x", ("0", "y"): "d",
            ("x", "x"): "d", ("x", "y"): "d",
            ("d", "x"): "d", ("d", "y"): "d",
        },
        "0",
        ["x"],
    )
    only_y = Dfa(
        ["0", "y", "d"],
        ["x", "y"],
        {
            ("0", "x"): "d", ("0", "y"): "y",
            ("y", "x"): "d", ("y", "y"): "d",
            ("d", "x"): "d", ("d", "y"): "d",
        },
        "0",
        ["y"],
    )
    assert dfa_intersection_shortest([only_x, only_y]) is None

    all_accepting = Dfa(["s"], ["a"], {("s", "a"): "s"}, "s", ["s"])
    assert dfa_intersection_shortest([all_accepting]) == ()


def test_dfa_intersection_shortest_rejects_bad_input():
    with pytest.raises(ValueError, match="need at least one automaton"):
        dfa_intersection_shortest([])
    a_only = Dfa(["s"], ["a"], {("s", "a"): "s"}, "s", ["s"])
    ab = Dfa(["s"], ["a", "b"], {("s", "a"): "s", ("s", "b"): "s"}, "s", ["s"])
    with pytest.raises(ValueError, match="all automata must share one alphabet"):
        dfa_intersection_shortest([a_only, ab])


def test_dfa_union_universal():
    all_accepting = Dfa(["s"], ["a"], {("s", "a"): "s"}, "s", ["s"])
    assert dfa_union_universal([all_accepting]) == (True, None)

    eps_only = Dfa(["s", "d"], ["a"], {("s", "a"): "d", ("d", "a"): "d"}, "s", ["s"])
    assert dfa_union_universal([eps_only]) == (False, ("a",))

    even = Dfa(["e", "o"], ["a"], {("e", "a"): "o", ("o", "a"): "e"}, "e", ["e"])
    odd = Dfa(["e", "o"], ["a"], {("e", "a"): "o", ("o", "a"): "e"}, "e", ["o"])
    assert dfa_union_universal([even, odd]) == (True, None)


def test_dfa_union_universal_matches_word_scan():
    rng = random.Random(73)
    for _ in range(40):
        states = [f"s{i}" for i in range(rng.randint(1, 2))]
        sigma = ("x", "y")
        delta = {(q, a): rng.choice(states) for q in states for a in sigma}
        accepting = [q for q in states if rng.random() < 0.5]
        dfa = Dfa(states, sigma, delta, states[0], accepting)
        other = Dfa(
            states, sigma, delta, states[0],
            [q for q in states if rng.random() < 0.5],
        )
        universal, witness = dfa_union_universal([dfa, other])
        missed = [
            u
            for u in words_upto(sigma, 6)
            if not dfa.accepts(u) and not other.accepts(u)
        ]
        if universal:
            assert not missed
            assert witness is None
        elif missed and len(missed[0]) <= 6:
            shortest = min(missed, key=lambda u: (len(u), u))
            if len(witness) <= 6:
                assert len(witness) == len(shortest)
            assert not dfa.accepts(witness) and not other.accepts(witness)


def test_is_word_synchronizing(fig1, gm):
    assert is_word_synchronizing(fig1, ("1",)) == "q2"
    assert is_word_synchronizing(fig1, ("0",)) is None
    assert is_word_synchronizing(gm, ()) is None
    assert is_word_synchronizing(gm, ("0",)) == "A"


def test_is_word_synchronizing_matches_image():
    rng = random.Random(74)
    for _ in range(30):
        g = random_deterministic_graph(rng, 4, ["0", "1"])
        for word in words_upto(("0", "1"), 4):
            result = is_word_synchronizing(g, word)
            survivors = image(g, g.vertices, word)
            assert (result is not None) == (len(survivors) == 1)
            if result is not None:
                assert survivors == {result}
