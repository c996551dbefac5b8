"""Every small presentation over two labels, each engine against another.

The graphs are every deterministic graph over {a, b} on the vertices
v0..v(n-1), essentialized, with duplicates dropped.  No symmetry is
broken, so isomorphic copies are all checked.  Most bugs show on some
small input (the small-scope hypothesis), and at these sizes every
graph is cheap.

Each single graph with at most 3 vertices gets every check of
``SINGLE_CHECKS``; each ordered pair of the graphs with at most 2
vertices gets every check of ``PAIR_CHECKS``.  A check returns the
mismatches it found, so a failing test lists all of them.

The same checks run on larger n from the command line, the single-graph
checks on the graphs of at most ``--n`` vertices and, with ``--pairs``,
the pair checks on the graphs of at most ``--pairs`` vertices::

    PYTHONPATH=src python -m tests.test_small_scope --n 4
    PYTHONPATH=src python -m tests.test_small_scope --pairs 3

n = 4 gives 161,497 graphs, the empty one included, and took 86 s on a
shared 2-core VM.  On graphs with more than ``FULL_MINIMALITY`` vertices
minimality is checked only at k = 1 and k = |Q|, as its candidate
search grows fastest, and the exact SFT decider is checked against the
brute-force monoid only on graphs of at most ``BRUTE_SFT`` vertices.
``--pairs 3`` checks the 4,276,624 ordered pairs
of the 2068 graphs of n <= 3 and took 13 to 15 minutes on the same kind
of machine (``check_subshift_witness`` 304-344 s and ``check_equal_sync``
409-502 s of it), so it is left out of the test suite.
"""

import argparse
import sys
import time
from collections import Counter
from itertools import product

import pytest

from sofic.classify import equal_sync, is_irreducible_shift_sync, is_sft_sync
from sofic.errors import NotSynchronizingError
from sofic.exact import (
    decide_equality,
    decide_irreducibility,
    decide_minimality,
    decide_sdp_exists,
    decide_sft,
    shortest_sync_word,
    subshift_witness,
)
from sofic.graphs import LabeledGraph, essentialize, is_irreducible, strong_components
from sofic.oracle import language_upto
from sofic.syncwords import is_synchronizing, separating_word, synchronizing_word_irreducible

from .oracles import image, naive_sft, two_mask_witness

LABELS = ("a", "b")
FULL_MINIMALITY = 3
# naive_sft takes about 2 ms on a graph of at most 3 vertices and 0.2 s
# on one of 4, which would add hours to n = 4
BRUTE_SFT = 3
# the longest subshift witness among graphs on at most 2 vertices has 4 letters
DEPTH = 6


def presentations(n):
    """The essential parts of every deterministic graph over ``LABELS`` on
    v0..v(n-1), each once, in the order first found."""
    names = [f"v{i}" for i in range(n)]
    found = {}
    for targets in product(range(-1, n), repeat=len(LABELS) * n):
        edges = [
            (names[i // len(LABELS)], LABELS[i % len(LABELS)], names[t])
            for i, t in enumerate(targets)
            if t >= 0
        ]
        found.setdefault(essentialize(LabeledGraph(names, edges)), None)
    return list(found)


def show(g):
    return repr(g.edges) if g.edges else "the empty graph"


# ------------------------------------------------------------ single graphs


def check_strong_connectivity(g):
    """The two sweeps of ``is_irreducible`` against counting Tarjan's components."""
    fast = is_irreducible(g)
    if fast == (len(strong_components(g._compiled().succ)) <= 1):
        return []
    return [f"is_irreducible {fast} on {show(g)}"]


def check_sync_words(g):
    """On irreducible graphs the polynomial sync word exists exactly when
    the exact one does, is no shorter, and both synchronize."""
    if not is_irreducible(g):
        return []
    fast, exact = synchronizing_word_irreducible(g), shortest_sync_word(g)
    if (fast is None) != (exact is None):
        return [f"sync word {fast} against {exact} on {show(g)}"]
    if fast is None:
        return []
    bad = [w for w in (fast, exact) if len(image(g, g.vertices, w)) != 1]
    if len(fast) < len(exact):
        bad.append(f"{fast} shorter than the shortest {exact}")
    return [f"sync word {w} on {show(g)}" for w in bad]


def answer(decide, *graphs):
    """What `decide` answers, or None if it refuses the input as not synchronizing."""
    try:
        return decide(*graphs)
    except NotSynchronizingError:
        return None


def against_exact(fast, exact, *graphs):
    """A polynomial decider against the exact one: every answer it gives
    is the exact answer, and it refuses only input that is not
    synchronizing."""
    got = answer(fast, *graphs)
    if got is None:
        ok = not all(map(is_synchronizing, graphs))
    else:
        ok = got == exact(*graphs)
    if ok:
        return []
    return [f"{fast.__name__} {got} against {exact.__name__} on {', '.join(map(show, graphs))}"]


def check_sync_deciders(g):
    """The polynomial SFT and irreducibility deciders against the exact ones."""
    return against_exact(is_sft_sync, decide_sft, g) + against_exact(
        is_irreducible_shift_sync, decide_irreducibility, g
    )


def check_sft(g):
    """The exact SFT decider against the cycle-reachability criterion
    over the whole brute-force monoid, on at most ``BRUTE_SFT`` vertices."""
    if len(g.vertices) > BRUTE_SFT or decide_sft(g) == naive_sft(g):
        return []
    return [f"decide_sft {decide_sft(g)} on {show(g)}"]


def check_sdp_exists(g):
    """An irreducible or synchronizing graph presents a shift with a
    synchronizing deterministic presentation."""
    if (is_irreducible(g) or is_synchronizing(g)) and not decide_sdp_exists(g):
        return [f"decide_sdp_exists False on {show(g)}"]
    return []


def check_minimality(g):
    """``decide_minimality(g, k)`` is monotone in k and True at k = |Q|."""
    n = max(len(g.vertices), 1)
    ks = range(1, n + 1) if n <= FULL_MINIMALITY else (1, n)
    answers = [decide_minimality(g, k) for k in ks]
    if answers != sorted(answers) or not answers[-1]:
        return [f"decide_minimality at k = {list(ks)} reads {answers} on {show(g)}"]
    return []


SINGLE_CHECKS = (
    check_strong_connectivity,
    check_sync_words,
    check_sync_deciders,
    check_sft,
    check_sdp_exists,
    check_minimality,
)


# -------------------------------------------------------------------- pairs


def separates(w, g, h):
    """Whether `w` is in g's language and not in h's, by direct walks."""
    return bool(image(g, g.vertices, w)) and not image(h, h.vertices, w)


def check_subshift_witness(g, h, languages):
    """A witness is in g's language and not in h's; "contained" means
    every word of g's up to ``DEPTH`` is one of h's.  The answer and the
    witness, the first in shortlex order, are those of the breadth-first
    search over vertices."""
    holds, witness = subshift_witness(g, h)
    if (holds, witness) != two_mask_witness(g, h):
        ok = False
    elif holds:
        ok = witness is None and languages[g] <= languages[h]
    else:
        ok = separates(witness, g, h)
    return [] if ok else [f"subshift_witness {holds, witness} on {show(g)}, {show(h)}"]


def check_separating_word(g, h, languages):
    """With g irreducible, a separating word exists exactly when g's shift
    is not contained in h's, and it is in g's language but not h's."""
    if not is_irreducible(g):
        return []
    word = separating_word(g, h)
    if word is None:
        ok = languages[g] <= languages[h]
    else:
        ok = separates(word, g, h)
    return [] if ok else [f"separating_word {word} on {show(g)}, {show(h)}"]


def check_equal_sync(g, h, languages):
    """The polynomial equality decider against the exact one."""
    return against_exact(equal_sync, decide_equality, g, h)


PAIR_CHECKS = (check_subshift_witness, check_separating_word, check_equal_sync)


# -------------------------------------------------------------------- tests

@pytest.fixture(scope="module")
def graphs():
    return presentations(3)


@pytest.fixture(scope="module")
def pair_graphs():
    return presentations(2)


@pytest.fixture(scope="module")
def languages(pair_graphs):
    return {g: language_upto(g, DEPTH) for g in pair_graphs}


def test_counts(graphs, pair_graphs):
    assert len(graphs) == 2068
    assert Counter(len(g.vertices) for g in graphs) == {0: 1, 1: 9, 2: 138, 3: 1920}
    assert len(pair_graphs) == 53
    # how many inputs the guarded checks reach
    assert sum(map(is_irreducible, graphs)) == 913
    assert sum(1 for g in graphs if g.vertices and is_synchronizing(g)) == 1131
    assert sum(map(is_irreducible, pair_graphs)) == 32
    assert sum(map(is_synchronizing, pair_graphs)) == 33
    # the inputs that are not synchronizing and that a polynomial decider answers
    unsynchronized = [g for g in graphs if not is_synchronizing(g)]
    assert len(unsynchronized) == 936
    assert sum(answer(is_sft_sync, g) is not None for g in unsynchronized) == 396
    assert sum(answer(is_irreducible_shift_sync, g) is not None for g in unsynchronized) == 75
    pairs = [(g, h) for g in pair_graphs for h in pair_graphs]
    unsynchronized = [p for p in pairs if not all(map(is_synchronizing, p))]
    assert len(unsynchronized) == 1720
    assert sum(answer(equal_sync, g, h) is not None for g, h in unsynchronized) == 232


@pytest.mark.parametrize("check", SINGLE_CHECKS, ids=lambda c: c.__name__)
def test_single_graphs(check, graphs):
    assert [m for g in graphs for m in check(g)] == []


@pytest.mark.parametrize("check", PAIR_CHECKS, ids=lambda c: c.__name__)
def test_pairs(check, pair_graphs, languages):
    assert [m for g in pair_graphs for h in pair_graphs for m in check(g, h, languages)] == []


def run_checks(checks, cases):
    """Runs each check on every case ``cases()`` yields and prints its
    mismatches; returns how many there were."""
    failed = 0
    for check in checks:
        start = time.perf_counter()
        mismatches = [m for case in cases() for m in check(*case)]
        print(f"{check.__name__}: {len(mismatches)} mismatches in {time.perf_counter() - start:.1f} s")
        for m in mismatches[:10]:
            print("  " + m)
        failed += len(mismatches)
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run the small-scope checks on every graph up to n vertices.")
    parser.add_argument("--n", type=int, default=3, help="largest vertex count of the single-graph checks (default 3)")
    parser.add_argument("--pairs", type=int, help="largest vertex count of the pair checks (default: no pair checks)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    graphs = presentations(args.n)
    print(f"{len(graphs)} graphs in {time.perf_counter() - start:.1f} s")
    failed = run_checks(SINGLE_CHECKS, lambda: ((g,) for g in graphs))
    if args.pairs is not None:
        start = time.perf_counter()
        graphs = presentations(args.pairs)
        languages = {g: language_upto(g, DEPTH) for g in graphs}
        print(f"{len(graphs) ** 2} ordered pairs of {len(graphs)} graphs in {time.perf_counter() - start:.1f} s")
        failed += run_checks(PAIR_CHECKS, lambda: ((g, h, languages) for g in graphs for h in graphs))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
