"""Polynomial-time synchronizing-word machinery.

Three algorithms live here.  The first finds a synchronizing word in an
irreducible deterministic graph by repeatedly merging a pair of live
vertices with a pair-synchronizing word.  The second finds a word
separating one graph's language from another's, which decides subshift
containment when the first graph is irreducible.  The third combines the
two to recognize synchronizing presentations: every initial irreducible
component must synchronize internally and be separable from the rest of
the graph.  A constructive variant produces, for a synchronizing
presentation, a word synchronizing to any requested vertex.

All "choose any" points are resolved by the sorted order on vertex names
and labels, and all witness searches are breadth-first, so outputs are
shortest-per-stage and reproducible.
"""

from .errors import NotIrreducibleError, NotSynchronizingError, SameVertexError
from .graphs import (
    induced_subgraph,
    irreducible_components,
    paired_targets,
    reachable_from,
    shortest_word,
    step,
    subset_step,
    _require_deterministic,
)
from .products import find_word_to


def pair_synchronizing_word(g, p, q):
    """A shortest word w with ``|{p, q} . w| == 1``, or None.

    The search runs over pairs of vertex indices, -1 standing for the
    sink of the completed graph, stopping as soon as one coordinate dies
    (the word is in one follower set but not the other) or both
    coordinates meet off the sink (the word sends p and q to the same
    vertex).

    Parameters
    ----------
    g : deterministic LabeledGraph
    p, q : distinct vertices of `g`

    Raises
    ------
    NotDeterministicError
    SameVertexError
    """
    _require_deterministic(g)
    g._require_vertex(p)
    g._require_vertex(q)
    if p == q:
        raise SameVertexError(f"need two distinct vertices, got {p!r} twice")
    view = g._compiled()
    rows = view.targets.values()

    def successors(pair):
        p, q = pair
        return [(t[p], t[q]) if t[p] >= 0 or t[q] >= 0 else None for t in rows]

    def merged(pair):
        x, y = pair
        return x == y or x < 0 or y < 0

    return shortest_word(
        [(view.index[p], view.index[q])], view.labels, successors, merged
    )


def synchronizing_word_irreducible(g):
    """A synchronizing word for an irreducible deterministic graph, or None.

    Maintains a live set X with ``Q . u == X``, shrinking it with a
    pair-synchronizing word for the two smallest members each round; when
    no such word exists the graph has no synchronizing word at all.  At
    most ``|Q|`` rounds are needed.

    Raises
    ------
    NotDeterministicError
    NotIrreducibleError
        Also raised for the empty graph, which has no vertices to merge.
    """
    _require_deterministic(g)
    if not g.vertices:
        raise NotIrreducibleError("the empty graph has no synchronizing-word search")
    if len(irreducible_components(g)) != 1:
        raise NotIrreducibleError("graph is not strongly connected")
    live = frozenset(g.vertices)
    word = ()
    while len(live) >= 2:
        p, q = sorted(live)[:2]
        w = pair_synchronizing_word(g, p, q)
        if w is None:
            return None
        live = subset_step(g, live, w)
        word += w
    return word


def separating_word(g, h):
    """A word in the language of `g` but not of `h`, or None.

    Tracks one vertex p of `g` and the live set X of `h`, repeatedly
    finding a word readable from p in `g` but not from the smallest
    member of X in `h`; such a word exists exactly when some word kills
    all of `h` while staying readable in `g`.  For essential inputs,
    None means the shift of `g` is contained in the shift of `h`.

    The tracked vertex starts at the smallest vertex of `g`, and the
    returned word is readable in `g` from that vertex.

    Parameters
    ----------
    g : deterministic irreducible LabeledGraph, nonempty
    h : deterministic LabeledGraph; may be empty or nonessential

    Raises
    ------
    NotDeterministicError
    NotIrreducibleError
        For the first argument only.
    """
    _require_deterministic(g)
    _require_deterministic(h)
    if not g.vertices:
        raise NotIrreducibleError("the first argument must be nonempty")
    if len(irreducible_components(g)) != 1:
        raise NotIrreducibleError("the first argument must be strongly connected")
    tables = paired_targets(g, h)
    rows = tables.values()

    def successors(pair):
        p, q = pair
        return [(tg[p], th[q]) if tg[p] >= 0 else None for tg, th in rows]

    def killed(pair):
        return pair[1] < 0

    p = 0
    live = set(range(len(h.vertices)))
    word = ()
    while live:
        found = shortest_word([(p, min(live))], tuple(tables), successors, killed)
        if found is None:
            return None
        for a in found:
            tg, th = tables[a]
            p = tg[p]
            live = {th[q] for q in live if th[q] >= 0}
        word += found
    return word


def is_synchronizing(g):
    """Returns True iff every vertex of `g` has a word synchronizing to it.

    Checks, for each initial irreducible component, that the induced
    subgraph has a synchronizing word and that a word separates it from
    the subgraph induced by the remaining vertices.  The empty graph is
    vacuously synchronizing.

    Raises
    ------
    NotDeterministicError
    """
    _require_deterministic(g)
    all_vertices = set(g.vertices)
    for comp in irreducible_components(g):
        if not comp.initial:
            continue
        inside = induced_subgraph(g, comp.vertices)
        outside = induced_subgraph(g, all_vertices - comp.vertices)
        if synchronizing_word_irreducible(inside) is None:
            return False
        if separating_word(inside, outside) is None:
            return False
    return True


def sync_word_to_vertex(g, r):
    """A word sending every vertex of the synchronizing presentation `g` to `r`.

    Concatenates a synchronizing word for an initial component from which
    `r` is reachable, a connector to the separation start, the separating
    word (killing everything outside the component), and a path to `r`.

    Parameters
    ----------
    g : deterministic, essential, synchronizing LabeledGraph
    r : vertex of `g`

    Raises
    ------
    UnknownVertexError
    NotSynchronizingError
    """
    g._require_vertex(r)
    if not is_synchronizing(g):
        raise NotSynchronizingError("graph is not a synchronizing presentation")
    component = next(
        comp
        for comp in irreducible_components(g)
        if comp.initial and r in reachable_from(g, comp.vertices)
    )
    inside = induced_subgraph(g, component.vertices)
    outside = induced_subgraph(g, set(g.vertices) - component.vertices)
    sync = synchronizing_word_irreducible(inside)
    (focused,) = subset_step(inside, component.vertices, sync)
    separator = separating_word(inside, outside)
    sep_start = inside.vertices[0]
    connector = find_word_to(inside, {focused}, lambda v: v == sep_start)
    landing = step(inside, sep_start, separator)
    tail = find_word_to(g, {landing}, lambda v: v == r)
    return sync + connector + separator + tail
