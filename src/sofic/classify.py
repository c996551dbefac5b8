"""Follower-set classification and the deciders built on it.

Follower equivalence reduces to DFA state equivalence: complete the
graph with a sink, treat every non-sink state as accepting, and refine.
The refinement here is Moore-style iterated splitting, which is
polynomial and produces the same partition as the faster textbook
algorithms.  It runs on the integer views of one or more graphs at once,
or on automata given as target lists, such as the exact engine's subset
automaton.

On top of the partition sit the quotient construction (follower
separation), label-graph isomorphism for follower-separated inputs,
shift equality for synchronizing presentations (isomorphism of the
quotients), the hat-graph test for shifts of finite type, and the
universality and irreducibility shortcuts valid for synchronizing
presentations.  Equality, finite type and irreducibility prove the
answer True on every deterministic essential input; only False needs the
synchronizing hypothesis, so they test it only before answering False
and refuse input that fails it.  Isomorphism and equality refine the
disjoint union of their inputs once, building neither the union nor a
quotient; the finite-type test (and exact irreducibility) reads the
quotient as target lists over class ids, and universality separates the
target lists of the one-vertex full shift from the input's.  No decider
here builds a graph.
"""

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .errors import NotFollowerSeparatedError, NotSftError, NotSynchronizingError
from .graphs import (
    LabeledGraph,
    is_irreducible,
    strong_components,
    _require_deterministic,
    _require_presentation,
)
from .syncwords import is_synchronizing, _separating


@dataclass(frozen=True)
class FollowerPartition:
    """Partition of a graph's vertices into follower-equivalence classes."""

    classes: tuple


def _rounds(graphs):
    """Follower refinement of the disjoint union of deterministic `graphs`.

    Vertex i of a graph is index i plus the sizes of the graphs before
    it.  Returns the sorted labels and what :func:`_refine` returns for
    the graphs' target tuples, a label a graph lacks reading -1.
    """
    views = [g._compiled() for g in graphs]
    labels = sorted({a for view in views for a in view.labels})
    spans, n = [], 0
    for view in views:
        size = view.n
        # two extra -1s make every getter return a tuple; zip drops them
        getters = [itemgetter(*view.targets.get(a, (-1,) * size), -1, -1) for a in labels]
        spans.append((n, n + size, getters))
        n += size
    return (labels, *_refine(spans, n, len(labels)))


def _list_rounds(size, lists):
    """:func:`_refine` of one automaton on `size` states given as target
    lists, one per label, -1 for undefined."""
    return _refine([(0, size, [itemgetter(*t, -1, -1) for t in lists])], size, len(lists))


def _refine(spans, n, count):
    """Follower refinement of n states read through `count` labels.

    Each span ``(start, stop, getters)`` gives the states from start to
    stop, and per label an ``itemgetter`` of their targets, -1 for
    undefined, relative to start, with two more -1s; the sink is index
    n.  Refines {sink} / rest by successor signatures until the class
    count stops growing, so two indices share a class exactly when every
    word is readable from both or from neither.  Returns the class ids
    in first-member order, and the last round's distinct signatures in
    that order: a class's and its targets' ids, each the index of a
    first member.

    A round reads each span's targets through the ids from its first
    index on, whose last, the sink's, a target of -1 reads, and hashes
    each signature once, by ``dict.setdefault`` with its index as its
    id.  Against one shifted column per label and a loop over vertices
    and labels for the quotient, ``_quotient`` takes 1.36 against
    1.95 ms on the benchmark's 25 padded-family pairs and 7.2 against
    9.9 ms on its 56 CLI pairs, but 18 against 16 us on a pair of graphs
    of at most 3 vertices (shared 2-core VM, in-process, min of 41).
    Each entry builds its own getters: passing target lists from the
    graph entry too made ``_blocks`` and ``_quotient`` 2-5% slower on such
    pairs and on the DFA-battery pairs (in-process, min of 11).
    """
    sink = [(n,) * (count + 1)]  # alone from the start, so its id stays n
    block, classes = [0] * n + [n], 1 + (n > 0)
    while True:
        rows = []
        for start, stop, getters in spans:
            ids = block[start:]
            rows.append(zip(block[start:stop], *[get(ids) for get in getters]))
        seen = {}
        new = list(map(seen.setdefault, chain(*rows, sink), range(n + 1)))
        if len(seen) == classes:
            renumber = dict(zip(seen.values(), range(classes)))
            return list(map(renumber.__getitem__, block)), seen
        block, classes = new, len(seen)


def _blocks(*graphs):
    """The class ids of :func:`_rounds`; the sink's, the last, is the class count."""
    return _rounds(graphs)[1]


def _class_targets(block, signatures):
    """Per label, each class's target or -1, read off the class ids
    `block` and the signatures that :func:`_refine` returns."""
    ids = block[:-1] + [-1]  # a first member's index reads its id, the sink's -1
    _, *columns = zip(*signatures)
    return [list(map(ids.__getitem__, t[:-1])) for t in columns]


def _quotient(*graphs):
    """The follower quotient of the disjoint union of deterministic
    `graphs`: the class ids of :func:`_blocks` and, for each label in
    sorted order, each class's target or -1 (:func:`_class_targets`)."""
    labels, block, signatures = _rounds(graphs)
    return block, dict(zip(labels, _class_targets(block, signatures)))


def follower_partition(g):
    """Groups the vertices of `g` by equality of their follower sets.

    Parameters
    ----------
    g : deterministic LabeledGraph

    Raises
    ------
    NotDeterministicError
    """
    _require_deterministic(g)
    blocks = {}
    for name, b in zip(g.vertices, _blocks(g)):
        blocks.setdefault(b, set()).add(name)
    classes = sorted((frozenset(b) for b in blocks.values()), key=min)
    return FollowerPartition(tuple(classes))


def is_follower_separated(g):
    """Returns True iff distinct vertices of `g` have distinct follower sets."""
    _require_deterministic(g)
    return _blocks(g)[-1] == len(g.vertices)


def follower_separation(g):
    """The quotient of `g` by follower equivalence.

    Each class collapses to one vertex (named after its smallest member)
    with an ``a``-edge between classes exactly when some representative
    edge exists.  The result is deterministic, essential,
    follower-separated, and presents the same shift.  A `g` that is
    already follower-separated is its own quotient and is returned as is.

    Parameters
    ----------
    g : deterministic essential LabeledGraph

    Raises
    ------
    NotDeterministicError
    NotEssentialError
    """
    _require_presentation(g)
    block = _blocks(g)
    if block[-1] == len(g.vertices):
        return g
    # vertices come in sorted order, so a class's first is its smallest
    first = {}
    rep = {v: first.setdefault(b, v) for v, b in zip(g.vertices, block)}
    return LabeledGraph._from_checked(
        first.values(), [(rep[src], a, rep[dst]) for src, a, dst in g.edges]
    )


def are_isomorphic(g, h):
    """A label-graph isomorphism between `g` and `h`, or None.

    Both inputs must be follower-separated; then an isomorphism exists
    exactly when every follower class of the disjoint union meets both
    graphs, and the pairing by class is the map.

    Returns
    -------
    dict or None
        Vertex map from `g` to `h` when the graphs are isomorphic.

    Raises
    ------
    NotDeterministicError
    NotFollowerSeparatedError
    """
    for side in (g, h):
        if not is_follower_separated(side):
            raise NotFollowerSeparatedError(
                "isomorphism testing needs follower-separated inputs"
            )
    n = len(g.vertices)
    block = _blocks(g, h)
    partner = dict(zip(block[n:], h.vertices))
    if set(block[:n]) != set(partner):
        return None
    return {v: partner[b] for v, b in zip(g.vertices, block)}


def _sync_checked(answer, *graphs):
    """`answer`, unless it is False and some graph is not synchronizing.

    The deciders below prove True on every deterministic essential input
    and False only on synchronizing ones, so they refuse the rest.
    """
    if not answer and not all(map(is_synchronizing, graphs)):
        raise NotSynchronizingError("input is not a synchronizing presentation")
    return answer


def equal_sync(g, h):
    """Returns True iff `g` and `h` present the same shift.

    When every follower class of the disjoint union meets both graphs,
    the two follower quotients coincide, and each presents its graph's
    shift, so True holds on every input.  Otherwise the answer is False
    for synchronizing inputs, as their follower-separated presentations
    of one shift are unique up to isomorphism; any other input is
    refused.

    Parameters
    ----------
    g, h : deterministic, essential LabeledGraphs

    Raises
    ------
    NotDeterministicError
    NotEssentialError
    NotSynchronizingError
        When the quotients differ and an input is not synchronizing.
    """
    _require_presentation(g)
    _require_presentation(h)
    block, n = _blocks(g, h), len(g.vertices)
    return _sync_checked(set(block[:n]) == set(block[n:-1]), g, h)


def is_sft_sync(g):
    """Returns True iff the shift presented by `g` has finite type.

    Reads the follower quotient from :func:`_quotient` and tests its hat
    graph (pairs of distinct classes, stepped together by each label)
    for acyclicity.  If it is acyclic, every word no shorter than its
    vertex count leads the classes that read it to one class, so the
    shift has finite type on every input.  A cycle yields arbitrarily
    long nonsynchronizing words, which for synchronizing presentations
    are exactly the non-intrinsically-synchronizing ones; so the answer
    False needs `g` synchronizing, and any other `g` is refused.

    Raises
    ------
    NotDeterministicError
    NotEssentialError
    NotSynchronizingError
        When the hat graph has a cycle and `g` is not synchronizing.
    """
    _require_presentation(g)
    block, quotient = _quotient(g)
    n = block[-1]
    # hat-graph vertex (i, j), i != j, is index i * n + j
    succ = [[] for _ in range(n * n)]
    for t in quotient.values():
        defined = [(i, ti) for i, ti in enumerate(t) if ti >= 0]
        for i, ti in defined:
            for j, tj in defined:
                if i != j and ti != tj:
                    succ[i * n + j].append(ti * n + tj)
    acyclic = all(len(c) == 1 and c[0] not in succ[c[0]] for c in strong_components(succ))
    return _sync_checked(acyclic, g)


def m_step_bound(g):
    """A valid step bound for the finite-type shift presented by `g`.

    When the hat graph of the follower quotient of `g` is acyclic (see
    :func:`is_sft_sync`, which needs `g` synchronizing only to refuse),
    every language word of length at least ``|Q|**2 - |Q|`` is
    intrinsically synchronizing: the quotient has at most ``|Q|``
    classes, so its hat graph has at most that many vertices.

    Raises
    ------
    NotDeterministicError
    NotEssentialError
    NotSynchronizingError
    NotSftError
    """
    if not is_sft_sync(g):
        raise NotSftError("the presented shift is not of finite type")
    n = len(g.vertices)
    return n * n - n


def is_irreducible_shift_sync(g):
    """Returns True iff the shift presented by `g` is irreducible.

    A strongly connected essential graph presents an irreducible shift,
    so True holds on every input.  For synchronizing presentations the
    converse holds too, so the answer False needs `g` synchronizing, and
    any other `g` is refused.

    Raises
    ------
    NotDeterministicError
    NotEssentialError
    NotSynchronizingError
        When `g` is not strongly connected and not synchronizing.
    """
    _require_presentation(g)
    return _sync_checked(is_irreducible(g), g)


def is_universal(g):
    """Returns True iff `g` presents the full shift over its own alphabet.

    Searches for a word separating the one-vertex presentation of the
    full shift, which reads every label of `g` in place, from `g`; no
    separating word means every word is in the language of `g`.

    Parameters
    ----------
    g : deterministic essential LabeledGraph

    Raises
    ------
    NotDeterministicError
    NotEssentialError
    """
    targets = _require_presentation(g).targets
    if not g.vertices:
        return True
    tables = {a: ((0,), t) for a, t in targets.items()}
    return _separating(tables, 0, set(range(len(g.vertices)))) is None
