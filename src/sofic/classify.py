"""Follower-set classification and the deciders built on it.

Follower equivalence reduces to DFA state equivalence: complete the
graph with a sink, treat every non-sink state as accepting, and refine.
The refinement here is Moore-style iterated splitting, which is
polynomial and produces the same partition as the faster textbook
algorithms.

On top of the partition sit the quotient construction (follower
separation), label-graph isomorphism for follower-separated inputs,
shift equality for synchronizing presentations (isomorphism of the
quotients), the hat-graph test for shifts of finite type, and the
universality and irreducibility shortcuts valid for synchronizing
presentations.
"""

from dataclasses import dataclass

from .errors import (
    NotEssentialError,
    NotFollowerSeparatedError,
    NotSftError,
    NotSynchronizingError,
)
from .graphs import (
    LabeledGraph,
    alphabet,
    cycle_vertices,
    disjoint_union,
    irreducible_components,
    is_essential,
    _require_deterministic,
)
from .syncwords import is_synchronizing, separating_word


@dataclass(frozen=True)
class FollowerPartition:
    """Partition of a graph's vertices into follower-equivalence classes."""

    classes: tuple

    def block_of(self, v):
        for block in self.classes:
            if v in block:
                return block
        raise KeyError(v)

    @property
    def is_separated(self):
        return all(len(block) == 1 for block in self.classes)


def follower_partition(g):
    """Groups the vertices of `g` by equality of their follower sets.

    Completes `g` with a sink and refines the two-block partition
    {sink} / rest by successor signatures until stable; two vertices
    land in one block exactly when every word is readable from both or
    from neither.

    Parameters
    ----------
    g : deterministic LabeledGraph

    Raises
    ------
    NotDeterministicError
    """
    _require_deterministic(g)
    if not g.vertices:
        return FollowerPartition(())
    n = len(g.vertices)
    # each column is one label's targets plus the sink's own (index n);
    # a target -1 reads the sink's block at block[-1]
    columns = [t + (n,) for t in g._compiled().targets.values()]
    block = [0] * n + [1]
    count = 2
    while True:
        renumber = {}
        new = [
            renumber.setdefault(
                (block[v],) + tuple([block[t[v]] for t in columns]), len(renumber)
            )
            for v in range(n + 1)
        ]
        if len(renumber) == count:
            break
        block, count = new, len(renumber)
    blocks = {}
    for v, name in enumerate(g.vertices):
        blocks.setdefault(block[v], set()).add(name)
    classes = sorted((frozenset(b) for b in blocks.values()), key=min)
    return FollowerPartition(tuple(classes))


def is_follower_separated(g):
    """Returns True iff distinct vertices of `g` have distinct follower sets."""
    return follower_partition(g).is_separated


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
    _require_deterministic(g)
    if not is_essential(g):
        raise NotEssentialError("graph has stranded vertices")
    partition = follower_partition(g)
    rep = {}
    for block in partition.classes:
        name = min(block)
        for v in block:
            rep[v] = name
    return LabeledGraph(
        vertices=set(rep.values()),
        edges=[(rep[src], a, rep[dst]) for src, a, dst in g.edges],
    )


def are_isomorphic(g, h):
    """A label-graph isomorphism between `g` and `h`, or None.

    Both inputs must be follower-separated; then an isomorphism exists
    exactly when the follower classes of the disjoint union all pair one
    vertex of `g` with one of `h`, and the pairing itself is the map.

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
    if len(g.vertices) != len(h.vertices):
        return None
    union, provenance = disjoint_union(g, h)
    mapping = {}
    for block in follower_partition(union).classes:
        if len(block) != 2:
            return None
        (side_a, orig_a), (side_b, orig_b) = sorted(
            provenance[v] for v in block
        )
        if side_a == side_b:
            return None
        mapping[orig_a] = orig_b
    return mapping


def equal_sync(g, h):
    """Returns True iff two synchronizing presentations present the same shift.

    Follower-separated synchronizing presentations of one shift are
    unique up to isomorphism, so equality reduces to isomorphism of the
    two quotients.  The synchronizing hypothesis is verified, not
    trusted: without it the reduction to isomorphism is unsound.

    Parameters
    ----------
    g, h : deterministic, essential, synchronizing LabeledGraphs

    Raises
    ------
    NotSynchronizingError
    """
    for side in (g, h):
        if not is_synchronizing(side):
            raise NotSynchronizingError("input is not a synchronizing presentation")
    return are_isomorphic(follower_separation(g), follower_separation(h)) is not None


def is_sft_sync(g):
    """Returns True iff the shift of the synchronizing presentation `g` has finite type.

    Follower-separates `g` and tests the hat graph for acyclicity: a
    cycle yields arbitrarily long nonsynchronizing words, which for
    synchronizing presentations are exactly the non-intrinsically-
    synchronizing ones.

    Raises
    ------
    NotSynchronizingError
    """
    if not is_synchronizing(g):
        raise NotSynchronizingError("input is not a synchronizing presentation")
    gfs = follower_separation(g)
    n = len(gfs.vertices)
    # hat-graph vertex (i, j), i != j, is index i * n + j
    succ = [[] for _ in range(n * n)]
    for t in gfs._compiled().targets.values():
        defined = [(i, ti) for i, ti in enumerate(t) if ti >= 0]
        for i, ti in defined:
            for j, tj in defined:
                if i != j and ti != tj:
                    succ[i * n + j].append(ti * n + tj)
    return not cycle_vertices(succ)


def m_step_bound(g):
    """A valid step bound for the finite-type shift presented by `g`.

    For a follower-separated synchronizing presentation of an SFT, every
    language word of length at least ``|Q|**2 - |Q|`` is intrinsically
    synchronizing, since that is the vertex count of the (acyclic) hat
    graph.

    Raises
    ------
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
    NotSynchronizingError
    """
    if not is_synchronizing(g):
        raise NotSynchronizingError("input is not a synchronizing presentation")
    return len(irreducible_components(g)) <= 1


def is_universal(g):
    """Returns True iff `g` presents the full shift over its own alphabet.

    Builds the one-vertex presentation of the full shift and asks for a
    word separating it from `g`; no separating word means every word is
    in the language of `g`.

    Parameters
    ----------
    g : deterministic essential LabeledGraph

    Raises
    ------
    NotDeterministicError
    NotEssentialError
    """
    _require_deterministic(g)
    if not is_essential(g):
        raise NotEssentialError("graph has stranded vertices")
    if not g.vertices:
        return True
    full = LabeledGraph(edges=[("full", a, "full") for a in alphabet(g)])
    return separating_word(full, g) is None
