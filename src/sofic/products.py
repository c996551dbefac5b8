"""Auxiliary graph constructions behind the polynomial-time algorithms.

Two constructions appear again and again: the *sink vertex graph*,
which completes a graph so that leaving the language is visible as
reaching a sink, and the *hat graph*, which tracks two distinct vertices
of a graph reading the same word in lockstep, so that its labeled paths
are exactly the nonsynchronizing words.

Hat-graph vertices are named ``(left|right)``, with ``\\`` and ``|`` in
each coordinate escaped as ``\\\\`` and ``\\|``, so distinct pairs get
distinct names that stay legal tokens of the text format.  The deciders
search pairs of indices in the integer view of :mod:`sofic.graphs`
instead, with the sink as index n; these graphs are for display and tests.
"""

from .errors import AlphabetMismatchError
from .graphs import (
    LabeledGraph,
    alphabet,
    shortest_word,
    _require_deterministic,
)


def sink_vertex_name(g):
    """The name used for the sink vertex when completing `g`.

    ``0`` as in the usual rendering, with zeros appended until the name
    is fresh.  Deterministic, so independent constructions agree.
    """
    name = "0"
    while name in g:
        name += "0"
    return name


def sink_vertex_graph(g, gamma):
    """Completes `g` over the alphabet `gamma` with an absorbing sink.

    Adds a sink vertex and, for every vertex (the sink included) and
    every ``l`` in `gamma` with no outgoing ``l``-edge, an ``l``-edge to
    the sink.  The result is fully deterministic over `gamma`, and a word
    w lies outside the follower set of q exactly when the w-labeled path
    from q ends at the sink.

    Parameters
    ----------
    g : deterministic LabeledGraph
    gamma : iterable of labels, covering the alphabet of `g`

    Raises
    ------
    NotDeterministicError
    AlphabetMismatchError
        If some label of `g` is missing from `gamma`.
    """
    targets = _require_deterministic(g).targets
    gamma = tuple(sorted(set(gamma)))
    missing = set(alphabet(g)) - set(gamma)
    if missing:
        raise AlphabetMismatchError(
            f"graph labels {sorted(missing)} are missing from the completion alphabet"
        )
    sink = sink_vertex_name(g)
    edges = list(g.edges)
    for i, q in enumerate(g.vertices):
        edges.extend(
            (q, a, sink) for a in gamma if a not in targets or targets[a][i] < 0
        )
    edges.extend((sink, a, sink) for a in gamma)
    return LabeledGraph(vertices=list(g.vertices) + [sink], edges=edges)


def product_vertex(p, q):
    """The name of the product vertex for (p, q); distinct pairs get distinct names."""
    p, q = (v.replace("\\", "\\\\").replace("|", "\\|") for v in (p, q))
    return f"({p}|{q})"


def hat_graph(g):
    """The label product of `g` with itself, diagonal vertices removed.

    Vertices are the pairs of distinct vertices; there is an ``l``-edge
    from (p1, p2) to (q1, q2) exactly when both coordinates have one and
    q1 != q2.  Labeled paths of the result are exactly the words failing
    to synchronize two distinct vertices of `g`; for a follower-separated
    synchronizing presentation, acyclicity of this graph characterizes
    the finite-type property.

    Parameters
    ----------
    g : deterministic LabeledGraph
    """
    _require_deterministic(g)
    edges = [
        (product_vertex(p1, p2), a, product_vertex(q1, q2))
        for p1, a, q1 in g.edges
        for p2, b, q2 in g.edges
        if a == b and p1 != p2 and q1 != q2
    ]
    vertices = [product_vertex(p, q) for p in g.vertices for q in g.vertices if p != q]
    return LabeledGraph(vertices=vertices, edges=edges)


def find_word_to(g, sources, target_pred):
    """A shortest word labeling a path from `sources` to a target vertex.

    Breadth-first search expanding labels in sorted order, so among the
    shortest witnesses the lexicographically least is returned.  Returns
    None when no vertex satisfying `target_pred` is reachable; returns
    the empty word when a source already satisfies it.

    Parameters
    ----------
    g : LabeledGraph
    sources : iterable of vertices of `g`
    target_pred : callable taking a vertex name
    """
    starts = sorted(set(sources))
    for v in starts:
        g._require_vertex(v)
    # slot (a, k) is the k-th smallest a-successor, so that
    # nondeterministic graphs are searched edge by edge
    dsts = {}
    for src, a, dst in g.edges:
        dsts.setdefault((src, a), []).append(dst)
    slots = sorted({(a, k) for (_, a), ts in dsts.items() for k in range(len(ts))})

    def successors(v):
        found = ((dsts.get((v, a), ()), k) for a, k in slots)
        return [ts[k] if k < len(ts) else None for ts, k in found]

    word = shortest_word(starts, slots, successors, target_pred)
    return None if word is None else tuple(a for a, _ in word)
