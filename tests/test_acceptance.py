"""Acceptance suite: one test per headline criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in the captured output), and asserts the stated tolerances exactly; the
randomized batteries are seeded, so runs are reproducible.
"""

import random
import time
from contextlib import contextmanager

from sofic import classify, exact, oracle, syncwords
from sofic.cli import main as cli_main
from sofic.constructions import (
    Dfa,
    family_mik,
    padded_family_gn,
    reduction_irred,
    reduction_sft,
    reduction_sync,
    word_wk,
)
from sofic.errors import AllLanguagesEmptyError
from sofic.graphs import essentialize, is_irreducible, subset_step

from .conftest import fixture_path
from .oracles import (
    brute_actions,
    image,
    random_deterministic_graph,
    random_dfa,
    reachable_subsets,
    singleton_reachable,
    words_upto,
)


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.1f}s"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.1f}s): {description}")


def test_criterion_1_figure_example(fig1, hfig1):
    with criterion(1, "figure pair: equality, non-isomorphism, irreducibility", 1.0):
        assert cli_main(["equal", fixture_path("fig1.sg"), fixture_path("hfig1.sg")]) == 0
        assert cli_main(["iso", fixture_path("fig1.sg"), fixture_path("hfig1.sg")]) == 1
        assert cli_main(["is-irreducible", fixture_path("fig1.sg")]) == 0
        assert syncwords.is_synchronizing(fig1) is False
        assert syncwords.is_synchronizing(hfig1) is True


def test_criterion_2_intersection_family_lengths():
    with criterion(2, "three-state family: shortest common word doubles", 10.0):
        for k, expected in enumerate([1, 2, 4, 8, 16]):
            family = family_mik(k)
            assert len(family) == k + 1
            shortest = oracle.dfa_intersection_shortest(family)
            assert len(shortest) == expected
            wk = word_wk(k)
            assert len(wk) == 2**k
            assert all(dfa.accepts(wk) for dfa in family)


def test_criterion_3_sync_word_lengths():
    with criterion(3, "sync-word reduction: shortest length 2**k + 2", 60.0):
        for k in range(4):
            g = reduction_sync(family_mik(k))
            word = exact.shortest_sync_word(g)
            assert len(word) == 2**k + 2
            assert len(subset_step(g, g.vertices, word)) == 1


def test_criterion_4_vertex_counts():
    with criterion(4, "family sizes: 5k+6 vertices, exact padding", 10.0):
        # k = 0 uses the mandatory two-machine duplication (11 vertices),
        # so the 5k+6 count applies from k = 1 up; see the notes ledger
        for k in (1, 2, 3):
            assert len(reduction_sync(family_mik(k)).vertices) == 5 * k + 6
        for n in (11, 16):
            g = padded_family_gn(n)
            assert len(g.vertices) == n
            expected = 2 ** ((n - 6) // 5) + 2
            assert len(exact.shortest_sync_word(g)) == expected


def test_criterion_5_reduction_battery():
    with criterion(5, "reduction batteries agree with DFA oracles (200 instances)", 600.0):
        rng = random.Random(1001)
        outcomes = {True: 0, False: 0}
        done = 0
        while done < 200:
            dfas = [random_dfa(rng) for _ in range(rng.randint(1, 2))]
            universal, _ = oracle.dfa_union_universal(dfas)
            try:
                g1, h1 = reduction_irred(dfas)
            except AllLanguagesEmptyError:
                continue
            done += 1
            outcomes[universal] += 1

            assert exact.decide_subshift(g1, h1) == universal
            assert exact.decide_equality(g1, h1) == universal
            assert exact.decide_irreducibility(g1) == universal
            assert exact.decide_sdp_exists(g1) == universal

            g2, h2 = reduction_sft(dfas)
            assert exact.decide_equality(g2, h2) == universal
            assert exact.decide_sft(g2) == universal
            assert exact.decide_minimality(g2, 2) == universal
            assert exact.decide_subshift(h2, g2) == universal
            assert exact.decide_subshift(g2, h2) is True

            g3 = reduction_sync(dfas)
            nonempty = oracle.dfa_intersection_shortest(dfas) is not None
            assert (exact.shortest_sync_word(g3) is not None) == nonempty
        assert outcomes[True] > 10 and outcomes[False] > 10, outcomes


def test_criterion_6_algorithm_cross_validation():
    with criterion(6, "polynomial algorithms match subset-search oracles", 300.0):
        rng = random.Random(1002)

        # Algorithm 1 on 500 random irreducible graphs
        checked = 0
        while checked < 500:
            labels = ["0", "1", "2"][: rng.randint(1, 3)]
            g = random_deterministic_graph(rng, 6, labels)
            if not g.edges or not is_irreducible(g):
                continue
            checked += 1
            word = syncwords.synchronizing_word_irreducible(g)
            assert (word is not None) == singleton_reachable(g)
            if word is not None:
                assert len(subset_step(g, g.vertices, word)) == 1

        # Algorithm 2 against the exact containment decider
        checked = 0
        while checked < 200:
            g = random_deterministic_graph(rng, 5, ["0", "1"])
            h = essentialize(random_deterministic_graph(rng, 5, ["0", "1"]))
            if not g.edges or not is_irreducible(g) or not h.vertices:
                continue
            checked += 1
            witness = syncwords.separating_word(g, h)
            assert (witness is None) == exact.decide_subshift(g, h)
            if witness is not None:
                assert subset_step(g, g.vertices, witness)
                assert not subset_step(h, h.vertices, witness)

        # Algorithm 3 against the per-vertex subset definition
        for _ in range(200):
            g = random_deterministic_graph(rng, 5, ["0", "1"])
            subsets = reachable_subsets(g)
            expected = all(frozenset([v]) in subsets for v in g.vertices)
            assert syncwords.is_synchronizing(g) == expected


def test_criterion_7_sft_tests(gm, ev, full1):
    with criterion(7, "SFT: hat-graph test, exact agreement, unique labels", 120.0):
        assert classify.is_sft_sync(gm) is True
        assert classify.is_sft_sync(ev) is False
        assert classify.is_sft_sync(full1) is True

        rng = random.Random(1003)
        checked = 0
        while checked < 200:
            g = essentialize(random_deterministic_graph(rng, 5, ["0", "1"]))
            if not g.vertices or not syncwords.is_synchronizing(g):
                continue
            g = classify.follower_separation(g)
            checked += 1
            assert exact.decide_sft(g) == classify.is_sft_sync(g)

        # uniquely labeled edges force an SFT: the fixed two-vertex graph
        all_accepting = Dfa(["s"], ["a"], {("s", "a"): "s"}, "s", ["s"])
        _, h2 = reduction_sft([all_accepting])
        labels = [a for _, a, _ in h2.edges]
        assert len(labels) == len(set(labels))
        assert classify.is_sft_sync(h2) is True
        assert exact.decide_sft(h2) is True


def test_criterion_8_action_engine(gm, ev, full1, p2, fig1, hfig1):
    with criterion(8, "action engine: morphism law, enumeration, correspondence", 300.0):
        for g in (gm, ev, fig1, p2):
            actions = brute_actions(g, 8)
            for w, pairs in actions.items():
                assert exact.action_of_word(g, w).pairs == pairs
            by_length = sorted(actions, key=len)
            for u in by_length:
                for v in by_length:
                    if len(u) + len(v) > 8:
                        break
                    left = exact.compose(
                        exact.action_of_word(g, u), exact.action_of_word(g, v)
                    )
                    assert left == exact.action_of_word(g, u + v)

            monoid = exact.action_monoid(g)
            depth = min(monoid.size + 1, 10)
            assert {e.pairs for e in monoid.elements} == set(
                brute_actions(g, depth).values()
            )

        # synchronizing <-> intrinsically synchronizing, on language words
        for g in (gm, ev, full1, hfig1):
            assert syncwords.is_synchronizing(g)
            assert classify.is_follower_separated(g)
            monoid = exact.action_monoid(g)
            labels = sorted({a for _, a, _ in g.edges})
            for w in words_upto(labels, 8):
                relation = exact.action_of_word(g, w)
                if relation.is_empty:
                    continue
                sync = len(image(g, g.vertices, w)) == 1
                assert sync == exact.is_intrinsically_sync_relation(monoid, relation)


def test_criterion_9_language_axioms(gm, ev, full1, p2, fig1, hfig1):
    with criterion(9, "language axioms and follower-separation preservation", 300.0):
        for g in (gm, ev, full1, p2, fig1, hfig1):
            lang = oracle.language_upto(g, 12)
            for word in lang:
                for i in range(len(word)):
                    assert word[: i + 1] in lang and word[i:] in lang
                if len(word) < 12:
                    assert any(
                        word + (a,) in lang for a in {x for _, x, _ in g.edges}
                    )

        rng = random.Random(1004)
        checked = 0
        while checked < 100:
            g = essentialize(random_deterministic_graph(rng, 5, ["0", "1"]))
            if not g.vertices:
                continue
            checked += 1
            separated = classify.follower_separation(g)
            assert oracle.language_upto(g, 12) == oracle.language_upto(separated, 12)
            assert exact.decide_equality(g, separated) is True
