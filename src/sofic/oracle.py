"""Naive reference implementations used to cross-validate the algorithms.

Everything here recomputes from the raw edge list with straight-line
breadth-first or exhaustive search, sharing no traversal machinery with
the modules it checks; speed is explicitly not a goal.
"""

from .errors import CapExceededError

MAX_LANGUAGE_DEPTH = 14
MAX_LANGUAGE_WORDS = 2**17
MAX_PRODUCT_STATES = 2**18


def _edge_map(g):
    succ = {}
    for src, a, dst in g.edges:
        succ.setdefault((src, a), set()).add(dst)
    return succ


def language_upto(g, depth):
    """All words of length at most `depth` readable somewhere in `g`.

    A word is in the language when the whole-vertex-set image under it
    is nonempty.  Includes the empty word whenever the graph is
    nonempty.  `depth` is capped at 14, and the stored word set at
    ``MAX_LANGUAGE_WORDS`` words, past which CapExceededError is raised.

    Parameters
    ----------
    g : deterministic essential LabeledGraph
    depth : int

    Returns
    -------
    set of words
    """
    if not 0 <= depth <= MAX_LANGUAGE_DEPTH:
        raise ValueError(f"depth must be between 0 and {MAX_LANGUAGE_DEPTH}")
    succ = _edge_map(g)
    labels = sorted({a for _, a, _ in g.edges})
    words = set()
    start = frozenset(g.vertices)
    if not start:
        return words
    stack = [(start, ())]
    while stack:
        subset, word = stack.pop()
        words.add(word)
        if len(words) > MAX_LANGUAGE_WORDS:
            raise CapExceededError(len(words), "language word count")
        if len(word) == depth:
            continue
        for a in labels:
            image = set()
            for q in subset:
                image |= succ.get((q, a), set())
            if image:
                stack.append((frozenset(image), word + (a,)))
    return words


def dfa_intersection_shortest(dfas):
    """A shortest word accepted by every automaton, or None.

    Breadth-first search with parent pointers on the product state
    space, expanding labels in sorted order.  Storing more than
    ``MAX_PRODUCT_STATES`` product states raises CapExceededError.
    """
    if not dfas:
        raise ValueError("need at least one automaton")
    sigma = dfas[0].alphabet
    if any(d.alphabet != sigma for d in dfas):
        raise ValueError("all automata must share one alphabet")
    start = tuple(d.start for d in dfas)
    if all(q in d.accepting for q, d in zip(start, dfas)):
        return ()
    moves = [(a, [{q: d.delta[(q, a)] for q in d.states} for d in dfas]) for a in sigma]
    parent = {start: None}
    queue = [start]
    for state in queue:
        for a, move in moves:
            nxt = tuple(map(dict.__getitem__, move, state))
            if nxt in parent:
                continue
            if len(parent) >= MAX_PRODUCT_STATES:
                raise CapExceededError(len(parent) + 1, "product state count")
            parent[nxt] = (state, a)
            if all(q in d.accepting for q, d in zip(nxt, dfas)):
                word = []
                while parent[nxt] is not None:
                    nxt, a = parent[nxt]
                    word.append(a)
                return tuple(reversed(word))
            queue.append(nxt)
    return None


def dfa_union_universal(dfas):
    """Whether the union of the languages is everything, with a witness.

    A word misses the union exactly when every complemented automaton
    accepts it, so the witness is the shortest word in the intersection
    of the complements.

    Returns
    -------
    (bool, word or None)
        ``(True, None)`` when universal, else ``(False, w)`` with `w` a
        shortest word outside the union.
    """
    witness = dfa_intersection_shortest([d.complemented() for d in dfas])
    return witness is None, witness
