"""Polynomial-time synchronizing-word machinery.

Three algorithms live here.  The first finds a synchronizing word in an
irreducible deterministic graph by repeatedly merging a pair of live
vertices with a pair-synchronizing word.  The second finds a word
separating one graph's language from another's, which decides subshift
containment when the first graph is irreducible.  The third combines the
two to recognize synchronizing presentations: every initial irreducible
component must synchronize internally and be separable from the rest of
the graph.  A constructive variant produces, for a synchronizing
presentation, a word synchronizing to any requested vertex.  Every
search, components included, runs on index sets of a compiled view from
input to answer, a component's through targets masked to it; names are
read only to find the arguments' indices.

All "choose any" points are resolved by the sorted order on vertex names
and labels, and all witness searches are breadth-first, so outputs are
shortest-per-stage and reproducible.
"""

from .errors import NotIrreducibleError, NotSynchronizingError, SameVertexError
from .graphs import (
    is_irreducible,
    reachable_indices,
    shortest_word,
    _components,
    _require_deterministic,
)


def _pair_word(targets, p, q):
    """:func:`pair_synchronizing_word` on indices; `targets` maps labels to targets."""
    rows = targets.values()

    def successors(pair):
        p, q = pair
        return [(t[p], t[q]) if t[p] >= 0 or t[q] >= 0 else None for t in rows]

    def merged(pair):
        return pair[0] == pair[1] or min(pair) < 0

    return shortest_word([(p, q)], tuple(targets), successors, merged)


def _sync_word(targets, live):
    """A word taking the index set `live` to one index, and that index; or None."""
    word = ()
    while len(live) >= 2:
        w = _pair_word(targets, *sorted(live)[:2])
        if w is None:
            return None
        for t in map(targets.get, w):
            live = {t[v] for v in live if t[v] >= 0}
        word += w
    # a pair word keeps one of its two indices, so only an empty `live` ends empty
    return (word, min(live)) if live else None


def _separating(tables, p, live):
    """:func:`separating_word` on indices: the word and p's image, or None."""
    rows = tables.values()

    def successors(pair):
        p, q = pair
        return [(tg[p], th[q]) if tg[p] >= 0 else None for tg, th in rows]

    def killed(pair):
        return pair[1] < 0

    word = ()
    while live:
        found = shortest_word([(p, min(live))], tuple(tables), successors, killed)
        if found is None:
            return None
        for tg, th in map(tables.get, found):
            p = tg[p]
            live = {th[q] for q in live if th[q] >= 0}
        word += found
    return word, p


def _path(targets, p, q):
    """A shortest word leading from index p to index q along `targets`."""
    rows = targets.values()

    def successors(v):
        return [t[v] if t[v] >= 0 else None for t in rows]

    return shortest_word([p], tuple(targets), successors, lambda v: v == q)


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
    targets = _require_deterministic(g).targets
    i, j = g._require_vertex(p), g._require_vertex(q)
    if p == q:
        raise SameVertexError(f"need two distinct vertices, got {p!r} twice")
    return _pair_word(targets, i, j)


def synchronizing_word_irreducible(g):
    """A synchronizing word for an irreducible deterministic graph, or None.

    Maintains a live set X with ``Q . u == X``, shrinking it with a
    pair-synchronizing word for the two smallest members each round; when
    no such word exists the graph has no synchronizing word at all.  At
    most ``|Q|`` rounds are needed.  The empty graph counts as
    irreducible; it has no vertex to synchronize to, so it gets None.

    Raises
    ------
    NotDeterministicError
    NotIrreducibleError
    """
    targets = _require_deterministic(g).targets
    if not is_irreducible(g):
        raise NotIrreducibleError("graph is not strongly connected")
    found = _sync_word(targets, set(range(len(g.vertices))))
    return None if found is None else found[0]


def separating_word(g, h):
    """A word in the language of `g` but not of `h`, or None.

    Tracks one vertex p of `g` and the live set X of `h`, repeatedly
    finding a word readable from p in `g` but not from the smallest
    member of X in `h`; such a word exists exactly when some word kills
    all of `h` while staying readable in `g`.  For essential inputs,
    None means the shift of `g` is contained in the shift of `h`.

    The tracked vertex starts at the smallest vertex of `g`, and the
    returned word is readable in `g` from that vertex.  An empty `g`
    counts as irreducible and gets None: the empty shift is contained in
    every shift.

    Parameters
    ----------
    g : deterministic irreducible LabeledGraph; may be empty
    h : deterministic LabeledGraph; may be empty or nonessential

    Raises
    ------
    NotDeterministicError
    NotIrreducibleError
        For the first argument only.
    """
    targets = _require_deterministic(g).targets
    h_targets = _require_deterministic(h).targets
    if not g.vertices:
        return None
    if not is_irreducible(g):
        raise NotIrreducibleError("the first argument must be strongly connected")
    # a label of h alone kills g at once, so g's labels are all the search needs
    none = (-1,) * len(h.vertices)
    tables = {a: (t, h_targets.get(a, none)) for a, t in targets.items()}
    found = _separating(tables, 0, set(range(len(h.vertices))))
    return None if found is None else found[0]


def _component_words(view):
    """Each initial component's index set, synchronizing word and
    separating word, each word with the index it ends on, in the compiled
    view of a deterministic graph; None when a component lacks either.
    Both searches read the targets masked to the component, which no edge
    enters; a component that is the whole graph reads them as they are.
    A strongly connected graph is its own one component, found without
    successor lists; the empty graph has none.
    """
    everything = set(range(view.n))
    if view.connected:
        components = [(everything, True, True)] if everything else []
    else:
        components = _components(view.succ)
    found = []
    for inside, initial, _ in components:
        if not initial:
            continue
        targets = view.targets if inside == everything else {
            a: tuple([j if j in inside else -1 for j in t])
            for a, t in view.targets.items()
        }
        sync = _sync_word(targets, inside)
        tables = {a: (targets[a], t) for a, t in view.targets.items()}
        separation = sync and _separating(tables, min(inside), everything - inside)
        if not separation:
            return None
        found.append((inside, sync, separation))
    return found


def is_synchronizing(g):
    """Returns True iff every vertex of `g` has a word synchronizing to it.

    Checks, for each initial irreducible component, that it has a
    synchronizing word and that a word readable in it kills the remaining
    vertices.  Both searches run on the component's index set.  The empty
    graph is vacuously synchronizing.

    Raises
    ------
    NotDeterministicError
    """
    return _component_words(_require_deterministic(g)) is not None


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
    NotDeterministicError
    NotSynchronizingError
    """
    r = g._require_vertex(r)
    view = _require_deterministic(g)
    found = _component_words(view)
    if found is None:
        raise NotSynchronizingError("graph is not a synchronizing presentation")
    if view.connected:  # its one component reaches r
        words = found[0]
    else:
        words = next(words for words in found if r in reachable_indices(view.succ, words[0]))
    inside, (sync, focused), (separator, landing) = words
    # a shortest path between two vertices of a component stays in it
    connector = _path(view.targets, focused, min(inside))
    return sync + connector + separator + _path(view.targets, landing, r)
