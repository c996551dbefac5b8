"""Follower-set classification and the deciders built on it.

Follower equivalence reduces to DFA state equivalence: complete the
graph with a sink, treat every non-sink state as accepting, and refine.
The refinement here is Moore-style iterated splitting, which is
polynomial and produces the same partition as the faster textbook
algorithms.  It runs on the integer views of one or more graphs at once.

On top of the partition sit the quotient construction (follower
separation), label-graph isomorphism for follower-separated inputs,
shift equality for synchronizing presentations (isomorphism of the
quotients), the hat-graph test for shifts of finite type, and the
universality and irreducibility shortcuts valid for synchronizing
presentations.  Isomorphism and equality refine the disjoint union of
their inputs once, building neither the union nor a quotient; the
finite-type test (and exact irreducibility) reads the quotient as target
lists over class ids, and universality separates the target lists of the
one-vertex full shift from the input's.  No decider here builds a graph.
"""

from dataclasses import dataclass

from .errors import NotFollowerSeparatedError, NotSftError, NotSynchronizingError
from .graphs import (
    LabeledGraph,
    is_irreducible,
    strong_components,
    _require_deterministic,
    _require_essential,
    _require_presentation,
)
from .syncwords import is_synchronizing, _separating


@dataclass(frozen=True)
class FollowerPartition:
    """Partition of a graph's vertices into follower-equivalence classes."""

    classes: tuple

    def block_of(self, v):
        for block in self.classes:
            if v in block:
                return block
        raise KeyError(v)


def _blocks(*graphs):
    """Follower-class ids of the disjoint union of deterministic `graphs`.

    Vertex i of a graph is index i plus the sizes of the graphs before
    it; the sink is the last index.  Refines {sink} / rest by successor
    signatures until stable, so two indices share an id exactly when
    every word is readable from both or from neither.  Ids come in
    first-member order, so the sink's, the last, is the class count.

    A round is whole-column passes: the signatures are one ``zip`` of the
    old ids with each label's column mapped through them, and
    ``dict.fromkeys`` numbers them in first-member order, so no Python
    code runs per vertex.  A Python loop over the vertices took about a
    third of a CLI ``equal`` verdict on 96-vertex pairs.  On a
    shared 2-core VM (min of 7) the passes are 1.65x faster over the
    benchmark's 56 seeded CLI graphs (8.0 to 4.9 ms) and about 10%
    faster on its 1000 small seed-1 DFA-battery graphs (29 to 26 ms).
    """
    views = [g._compiled() for g in graphs]
    n = sum(len(view.index) for view in views)
    # each column is one label's targets plus the sink's own (index n);
    # a target -1 reads the sink's block at block[-1]
    columns = []
    for a in dict.fromkeys(a for view in views for a in view.labels):
        column = ()
        for view in views:
            t = view.targets.get(a, (-1,) * len(view.index))
            shift = len(column)
            column += tuple([j + shift if j >= 0 else -1 for j in t]) if shift else t
        columns.append(column + (n,))
    block = [0] * n + [1]
    count = 2
    while True:
        signatures = list(zip(block, *[map(block.__getitem__, t) for t in columns]))
        ids = dict.fromkeys(signatures)
        if len(ids) == count:
            return block
        ids = dict(zip(ids, range(len(ids))))
        block, count = list(map(ids.__getitem__, signatures)), len(ids)


def _quotient(*graphs):
    """The follower quotient of the disjoint union of deterministic
    `graphs` as target lists over class ids.

    Returns the class ids of :func:`_blocks`, whose last entry is the
    class count, and a dict mapping each label of the graphs, in sorted
    order, to the target of each class or -1.
    """
    block = _blocks(*graphs)
    # each graph's target lists, with the ids of its vertices
    parts, shift = [], 0
    for g in graphs:
        view = g._compiled()
        parts.append((view.targets, block[shift:]))
        shift += len(view.index)
    quotient = {}
    for a in sorted({a for targets, _ in parts for a in targets}):
        moved = quotient[a] = [-1] * block[-1]
        for targets, ids in parts:
            for v, t in enumerate(targets.get(a, ())):
                if t >= 0:
                    moved[ids[v]] = ids[t]
    return block, quotient


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
    follower-separated, and presents the same shift.

    Parameters
    ----------
    g : deterministic essential LabeledGraph

    Raises
    ------
    NotDeterministicError
    NotEssentialError
    """
    _require_presentation(g)
    # vertices come in sorted order, so a class's first is its smallest
    first = {}
    rep = {v: first.setdefault(b, v) for v, b in zip(g.vertices, _blocks(g))}
    return LabeledGraph(
        vertices=first.values(),
        edges=[(rep[src], a, rep[dst]) for src, a, dst in g.edges],
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


def _require_sync(*graphs):
    """Raises unless every graph is synchronizing, then unless every one is essential."""
    for g in graphs:
        if not is_synchronizing(g):
            raise NotSynchronizingError("input is not a synchronizing presentation")
    for g in graphs:
        _require_essential(g)


def equal_sync(g, h):
    """Returns True iff two synchronizing presentations present the same shift.

    Follower-separated synchronizing presentations of one shift are
    unique up to isomorphism, so equality reduces to isomorphism of the
    two quotients: as follower sets survive the quotient, exactly when
    every follower class of the disjoint union meets both graphs.  The
    synchronizing hypothesis is verified, not trusted: without it the
    reduction to isomorphism is unsound.

    Parameters
    ----------
    g, h : deterministic, essential, synchronizing LabeledGraphs

    Raises
    ------
    NotDeterministicError
    NotSynchronizingError
    NotEssentialError
    """
    _require_sync(g, h)
    block, n = _blocks(g, h), len(g.vertices)
    return set(block[:n]) == set(block[n:-1])


def is_sft_sync(g):
    """Returns True iff the shift of the synchronizing presentation `g` has finite type.

    Reads the follower quotient from :func:`_quotient` and tests its hat
    graph (pairs of distinct classes, stepped together by each label)
    for acyclicity: a cycle yields arbitrarily long nonsynchronizing
    words, which for synchronizing presentations are exactly the
    non-intrinsically-synchronizing ones.

    Raises
    ------
    NotDeterministicError
    NotSynchronizingError
    NotEssentialError
    """
    _require_sync(g)
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
    return all(len(c) == 1 and c[0] not in succ[c[0]] for c in strong_components(succ))


def m_step_bound(g):
    """A valid step bound for the finite-type shift presented by `g`.

    For a follower-separated synchronizing presentation of an SFT, every
    language word of length at least ``|Q|**2 - |Q|`` is intrinsically
    synchronizing, since that is the vertex count of the (acyclic) hat
    graph.

    Raises
    ------
    NotDeterministicError
    NotSynchronizingError
    NotEssentialError
    NotSftError
    """
    if not is_sft_sync(g):
        raise NotSftError("the presented shift is not of finite type")
    n = len(g.vertices)
    return n * n - n


def is_irreducible_shift_sync(g):
    """Returns True iff the shift of the synchronizing presentation `g` is irreducible.

    For synchronizing presentations the shift is irreducible exactly
    when the graph is strongly connected.

    Raises
    ------
    NotDeterministicError
    NotSynchronizingError
    NotEssentialError
    """
    _require_sync(g)
    return is_irreducible(g)


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
