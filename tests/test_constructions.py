import random

import pytest

from sofic.constructions import (
    Dfa,
    MultiEntryDfa,
    RESERVED_LABELS,
    family_mik,
    padded_family_gn,
    reduction_irred,
    reduction_sft,
    reduction_sync,
    sdp_blowup,
    word_wk,
)
from sofic.classify import is_follower_separated
from sofic.errors import (
    AlphabetClashError,
    AllLanguagesEmptyError,
    TooSmallError,
)
from sofic.exact import (
    decide_equality,
    decide_sdp_exists,
    shortest_sync_word,
)
from sofic.graphs import (
    essentialize,
    is_deterministic,
    is_irreducible,
    subset_step,
)
from sofic.oracle import dfa_intersection_shortest
from sofic.syncwords import is_synchronizing

from .oracles import random_dfa


def all_accepting():
    return Dfa(["s"], ["a"], {("s", "a"): "s"}, "s", ["s"])


def eps_language():
    return Dfa(["s", "d"], ["a"], {("s", "a"): "d", ("d", "a"): "d"}, "s", ["s"])


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa(["s"], ["a"], {}, "s", [])
    with pytest.raises(ValueError):
        Dfa(["s"], ["a"], {("s", "a"): "s"}, "x", [])
    with pytest.raises(ValueError):
        Dfa(["s"], ["a"], {("s", "a"): "s"}, "s", ["x"])


def test_reduction_irred_examples():
    g, h = reduction_irred([all_accepting()])
    assert g.vertices == ("m1_s", "p1", "pstar", "sstar")
    assert decide_equality(g, h)

    g, h = reduction_irred([eps_language()])
    assert not decide_equality(g, h)
    assert subset_step(h, h.vertices, ("rm",)) == {"p1"}
    assert subset_step(g, g.vertices, ("rm",)) == {"p1"}


def test_reduction_irred_guarantees():
    rng = random.Random(61)
    for _ in range(25):
        dfas = [random_dfa(rng) for _ in range(rng.randint(1, 2))]
        try:
            g, h = reduction_irred(dfas)
        except AllLanguagesEmptyError:
            continue
        assert is_deterministic(g)
        assert essentialize(g) == g
        assert essentialize(h) == h
        assert is_irreducible(h)
        assert is_synchronizing(h)


def test_reduction_irred_rejects_bad_inputs():
    with pytest.raises(AllLanguagesEmptyError):
        reduction_irred([Dfa(["s"], ["a"], {("s", "a"): "s"}, "s", [])])
    clash = Dfa(["s"], ["lm"], {("s", "lm"): "s"}, "s", ["s"])
    with pytest.raises(AlphabetClashError):
        reduction_irred([clash])
    with pytest.raises(ValueError):
        reduction_irred([])
    mismatched = [all_accepting(), Dfa(["s"], ["b"], {("s", "b"): "s"}, "s", ["s"])]
    with pytest.raises(ValueError):
        reduction_irred(mismatched)


def test_reduction_sft_examples():
    from sofic.exact import decide_minimality, decide_sft, decide_subshift
    from sofic.classify import is_sft_sync

    g, h2 = reduction_sft([all_accepting()])
    assert decide_equality(g, h2)
    assert decide_sft(g)

    g, h2 = reduction_sft([eps_language()])
    assert not decide_sft(g)
    assert not decide_minimality(g, 2)
    assert decide_subshift(g, h2)

    # the fixed two-vertex graph has uniquely labeled edges, hence an SFT
    labels = [a for _, a, _ in h2.edges]
    assert len(labels) == len(set(labels))
    assert is_sft_sync(h2)


def test_reduction_sft_shape():
    g, h2 = reduction_sft([all_accepting()])
    assert set(h2.vertices) == {"q1", "q2"}
    assert set(h2.edges) == {
        ("q1", "a", "q1"),
        ("q1", "ell", "q1"),
        ("q1", "lm", "q1"),
        ("q1", "rm", "q2"),
        ("q2", "ter", "q2"),
    }
    assert is_deterministic(g)
    assert essentialize(g) == g


def test_reduction_sync_examples():
    g = reduction_sync([all_accepting(), all_accepting()])
    assert shortest_sync_word(g) == ("lm", "rm")

    g = reduction_sync(family_mik(2))
    assert len(shortest_sync_word(g)) == 2**2 + 2

    disjoint = [
        Dfa(["e", "o"], ["a"], {("e", "a"): "o", ("o", "a"): "e"}, "e", ["e"]),
        Dfa(["e", "o"], ["a"], {("e", "a"): "o", ("o", "a"): "e"}, "e", ["o"]),
    ]
    assert dfa_intersection_shortest(disjoint) is None
    assert shortest_sync_word(reduction_sync(disjoint)) is None


def test_reduction_sync_word_characterization():
    rng = random.Random(62)
    for _ in range(20):
        dfas = [random_dfa(rng) for _ in range(rng.randint(1, 2))]
        g = reduction_sync(dfas)
        assert is_deterministic(g)
        assert essentialize(g) == g
        effective = dfas if len(dfas) > 1 else [dfas[0], dfas[0]]
        w = shortest_sync_word(g)
        common = dfa_intersection_shortest(dfas)
        assert (w is not None) == (common is not None)
        if w is None:
            continue
        # parse as v lm w' rm^j with j >= 1 and w' in every language
        assert "lm" in w
        split = w.index("lm")
        head, tail = w[:split], w[split + 1 :]
        assert "lm" not in tail
        body = tuple(a for a in tail if a != "rm")
        assert tail[len(body) :] == ("rm",) * (len(tail) - len(body))
        assert tail.count("rm") >= 1
        assert tail[-1] == "rm"
        assert all(a != "lm" for a in head)
        assert all(d.accepts(body) for d in dfas)
        # conversely, constructed words of that shape synchronize
        if common is not None:
            for prefix in ((), ("rm",)):
                u = prefix + ("lm",) + common + ("rm",)
                assert len(subset_step(g, g.vertices, u)) == 1


def test_family_mik_structure():
    fam = family_mik(3)
    assert len(fam) == 4
    m1 = fam[1]
    assert m1.step("q0", ("0",)) == "q1"
    assert m1.step("q1", ("1",)) == "q0"
    assert m1.step("q0", ("2",)) == "q0"
    assert m1.step("q1", ("3",)) == "q1"
    assert m1.step("q0", ("1",)) == "qstar"
    assert fam[0].accepting == {"q1"}
    assert all(d.accepting == {"q0"} for d in fam[1:])
    assert all(d.start == "q0" for d in fam)

    single = family_mik(0)
    assert len(single) == 1
    assert dfa_intersection_shortest(single) == ("0",)


def test_word_wk():
    assert word_wk(0) == ("0",)
    assert word_wk(1) == ("0", "1")
    assert word_wk(2) == ("0", "2", "1", "2")
    for k in range(5):
        w = word_wk(k)
        assert len(w) == 2**k
        assert all(d.accepts(w) for d in family_mik(k))


@pytest.mark.parametrize("build", [family_mik, word_wk])
def test_negative_k_is_rejected(build):
    with pytest.raises(ValueError, match="k must be nonnegative"):
        build(-1)


def test_family_mik_lower_bound():
    for k in range(5):
        assert len(dfa_intersection_shortest(family_mik(k))) == 2**k


def test_padded_family():
    for n in (11, 16):
        g = padded_family_gn(n)
        assert len(g.vertices) == n
        k = (n - 6) // 5
        assert len(shortest_sync_word(g)) == 2**k + 2
    g = padded_family_gn(13)
    assert len(g.vertices) == 13
    assert len(shortest_sync_word(g)) == 2**1 + 2
    assert essentialize(g) == g
    with pytest.raises(TooSmallError):
        padded_family_gn(5)
    with pytest.raises(TooSmallError):
        padded_family_gn(8)


def test_vertex_count_formula():
    for k in (1, 2, 3):
        assert len(reduction_sync(family_mik(k)).vertices) == 5 * k + 6


def test_sdp_blowup_examples():
    medfa = MultiEntryDfa(["s"], ["a"], {("s", "a"): "s"}, ["s"], ["s"])
    g = sdp_blowup(medfa)
    assert len(g.vertices) == 3
    assert decide_sdp_exists(g)
    assert is_deterministic(g)
    assert essentialize(g) == g


def test_sdp_blowup_minimal_sdp_is_follower_separated():
    # two entries whose languages differ: a* from one, (aa)* from the other
    medfa = MultiEntryDfa(
        ["e", "o"],
        ["a"],
        {("e", "a"): "o", ("o", "a"): "e"},
        ["e", "o"],
        ["e"],
    )
    g = sdp_blowup(medfa)
    assert not is_synchronizing(g)
    # determinize the union language by hand: subsets {e,o} -> {e,o}
    # (a fixed point), so the minimal DFA of L(N) is one all-accepting state
    minimal = Dfa(["u"], ["a"], {("u", "a"): "u"}, "u", ["u"])
    h = sdp_blowup(MultiEntryDfa(minimal.states, minimal.alphabet, minimal.delta, [minimal.start], minimal.accepting))
    assert is_synchronizing(h)
    assert is_follower_separated(h)
    assert decide_equality(g, h)


def test_sdp_blowup_vertex_blowup():
    # a 3-state 3-entry machine whose union language needs all seven
    # nonempty subsets: the minimal synchronizing presentation has more
    # vertices than the nonsynchronizing one
    from .oracles import minimal_dfa_of_union

    medfa = MultiEntryDfa(
        ["x", "y", "z"],
        ["a", "b", "c"],
        {
            ("x", "a"): "y", ("x", "b"): "y", ("x", "c"): "x",
            ("y", "a"): "y", ("y", "b"): "z", ("y", "c"): "x",
            ("z", "a"): "y", ("z", "b"): "x", ("z", "c"): "y",
        },
        ["x", "y", "z"],
        ["z"],
    )
    g = sdp_blowup(medfa)
    assert len(g.vertices) == 7
    minimal = minimal_dfa_of_union(medfa)
    assert len(minimal.states) == 7
    h = sdp_blowup(
        MultiEntryDfa(
            minimal.states, minimal.alphabet, minimal.delta,
            [minimal.start], minimal.accepting,
        )
    )
    assert len(h.vertices) == 9
    assert is_synchronizing(h)
    assert is_follower_separated(h)
    assert decide_equality(g, h)
    assert decide_sdp_exists(g)


def test_reserved_labels_are_stable():
    assert RESERVED_LABELS == ("lm", "rm", "st", "ter", "ell")


def test_multicharacter_label_tokens():
    # k = 10 brings the two-character token "10" into the alphabet;
    # words must stay token sequences, never strings of characters
    fam = family_mik(10)
    assert "10" in fam[0].alphabet
    w = word_wk(10)
    assert len(w) == 1024
    assert w[1] == "10"
    assert all(dfa.accepts(w) for dfa in fam)
