"""Auxiliary graph constructions behind the polynomial-time algorithms.

Three constructions appear again and again: the *sink vertex graph*,
which completes a graph so that leaving the language is visible as
reaching a sink; the *label product*, which tracks two graphs reading the
same word in lockstep; and the *hat graph*, the label product of a graph
with itself minus the diagonal, whose labeled paths are exactly the
nonsynchronizing words.

Product vertices are named ``(left|right)``, with ``\\`` and ``|`` in
each coordinate escaped as ``\\\\`` and ``\\|``, so distinct pairs get
distinct names that stay legal tokens of the text format.  The deciders
search pairs of indices in the integer view of :mod:`sofic.graphs`
instead, with the sink as index n; these graphs are for display and tests.
"""

from collections import Counter

from .errors import AlphabetMismatchError
from .graphs import (
    LabeledGraph,
    alphabet,
    induced_subgraph,
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
    _require_deterministic(g)
    gamma = tuple(sorted(set(gamma)))
    missing = set(alphabet(g)) - set(gamma)
    if missing:
        raise AlphabetMismatchError(
            f"graph labels {sorted(missing)} are missing from the completion alphabet"
        )
    sink = sink_vertex_name(g)
    edges = list(g.edges)
    for q in g.vertices:
        present = set(g.out_labels(q))
        edges.extend((q, a, sink) for a in gamma if a not in present)
    edges.extend((sink, a, sink) for a in gamma)
    return LabeledGraph(vertices=list(g.vertices) + [sink], edges=edges)


def _escape(name):
    return name.replace("\\", "\\\\").replace("|", "\\|")


def product_vertex(p, q):
    """The name of the product vertex for (p, q); distinct pairs get distinct names."""
    return f"({_escape(p)}|{_escape(q)})"


def label_product(g, h):
    """The label product of `g` and `h`.

    Vertices are all pairs; there is an ``l``-edge from (p1, p2) to
    (q1, q2) exactly when both coordinates have one.  A word labels a
    path in the product iff it labels paths in both factors between the
    corresponding endpoints.
    """
    by_label_g = {}
    for src, a, dst in g.edges:
        by_label_g.setdefault(a, []).append((src, dst))
    edges = []
    for src2, a, dst2 in h.edges:
        for src1, dst1 in by_label_g.get(a, ()):
            edges.append((product_vertex(src1, src2), a, product_vertex(dst1, dst2)))
    vertices = [product_vertex(p, q) for p in g.vertices for q in h.vertices]
    return LabeledGraph(vertices=vertices, edges=edges)


def hat_graph(g):
    """The label product of `g` with itself, diagonal vertices removed.

    Labeled paths of the result are exactly the words failing to
    synchronize two distinct vertices of `g`; for a follower-separated
    synchronizing presentation, acyclicity of this graph characterizes
    the finite-type property.

    Parameters
    ----------
    g : deterministic LabeledGraph
    """
    _require_deterministic(g)
    product = label_product(g, g)
    diagonal = {product_vertex(v, v) for v in g.vertices}
    return induced_subgraph(product, set(product.vertices) - diagonal)


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
    counts = Counter((src, a) for src, a, _ in g.edges)
    slots = sorted({(a, k) for (_, a), c in counts.items() for k in range(c)})

    def successors(v):
        dsts = {a: g.successors(v, a) for a, _ in slots}
        return [dsts[a][k] if k < len(dsts[a]) else None for a, k in slots]

    word = shortest_word(starts, slots, successors, target_pred)
    return None if word is None else tuple(a for a, _ in word)
