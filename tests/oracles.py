"""Deliberately naive reference computations for cross-validation.

Nothing here imports algorithm modules; everything recomputes from the
raw edge list so that agreement with the package is meaningful.
"""

import itertools
from collections import deque

from sofic.graphs import LabeledGraph


def walk(g, q, w):
    """Endpoint of the w-labeled path from q, by scanning the edge list."""
    for a in w:
        nxt = [dst for src, label, dst in g.edges if src == q and label == a]
        if not nxt:
            return None
        (q,) = nxt
    return q


def image(g, subset, w):
    return frozenset(
        r for q in subset for r in [walk(g, q, w)] if r is not None
    )


def words_upto(labels, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(sorted(labels), repeat=length)


def graph_labels(g):
    return sorted({a for _, a, _ in g.edges})


def brute_language(g, max_len):
    """Words readable somewhere in g, by trying every word."""
    if not g.vertices:
        return set()
    return {
        w for w in words_upto(graph_labels(g), max_len) if image(g, g.vertices, w)
    }


def reachable_subsets(g):
    """All nonempty subsets reachable from the full vertex set."""
    labels = graph_labels(g)
    start = frozenset(g.vertices)
    if not start:
        return set()
    seen = {start}
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        for a in labels:
            nxt = image(g, subset, (a,))
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def singleton_reachable(g):
    """Whether some word takes the full vertex set to a singleton."""
    return any(len(s) == 1 for s in reachable_subsets(g))


def brute_shortest_sync_length(g):
    """Minimum synchronizing-word length via the full subset lattice, or None.

    Multi-source reverse BFS from the singletons; only usable for small
    graphs (2**|Q| subsets).
    """
    vertices = list(g.vertices)
    if not vertices:
        return None
    labels = graph_labels(g)
    subsets = []
    for bits in range(1, 1 << len(vertices)):
        subsets.append(
            frozenset(v for i, v in enumerate(vertices) if bits >> i & 1)
        )
    preds = {s: [] for s in subsets}
    for s in subsets:
        for a in labels:
            t = image(g, s, (a,))
            if t:
                preds[t].append(s)
    dist = {}
    queue = deque()
    for s in subsets:
        if len(s) == 1:
            dist[s] = 0
            queue.append(s)
    while queue:
        t = queue.popleft()
        for s in preds[t]:
            if s not in dist:
                dist[s] = dist[t] + 1
                queue.append(s)
    return dist.get(frozenset(vertices))


def compose_pairs(r, s):
    return frozenset((p, t) for p, q in r for q2, t in s if q == q2)


def brute_actions(g, max_len):
    """Map from each word up to max_len to its action as a pair set."""
    actions = {}
    for w in words_upto(graph_labels(g), max_len):
        actions[w] = frozenset(
            (p, q) for p in g.vertices for q in [walk(g, p, w)] if q is not None
        )
    return actions


def naive_intrinsic(elements, r):
    """Triple-loop intrinsic-synchronization test over explicit pair sets."""
    for s in elements:
        sr = compose_pairs(s, r)
        if not sr:
            continue
        for t in elements:
            if compose_pairs(r, t) and not compose_pairs(sr, t):
                return False
    return True


def minimal_dfa_of_union(medfa):
    """The minimal DFA of a multiple-entry DFA's language.

    Subset construction from the entry set followed by Moore
    minimization, all over explicit frozensets.
    """
    from sofic.constructions import Dfa

    sigma = medfa.alphabet
    start = frozenset(medfa.starts)
    seen = {start}
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        for a in sigma:
            nxt = frozenset(medfa.delta[(q, a)] for q in subset)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    states = sorted(seen, key=sorted)
    block = {s: s & medfa.accepting != frozenset() for s in states}
    while True:
        signature = {
            s: (block[s],)
            + tuple(
                block[frozenset(medfa.delta[(q, a)] for q in s)] for a in sigma
            )
            for s in states
        }
        numbering = {}
        for s in states:
            numbering.setdefault(signature[s], len(numbering))
        refined = {s: numbering[signature[s]] for s in states}
        if len(numbering) == len(set(block.values())):
            break
        block = refined
    names = {s: f"b{int(block[s])}" for s in states}
    # rebuild on block representatives
    reps = {}
    for s in states:
        reps.setdefault(names[s], s)
    delta = {
        (name, a): names[frozenset(medfa.delta[(q, a)] for q in rep)]
        for name, rep in reps.items()
        for a in sigma
    }
    accepting = {name for name, rep in reps.items() if rep & medfa.accepting}
    return Dfa(reps.keys(), sigma, delta, names[start], accepting)


def random_deterministic_graph(rng, max_vertices, labels):
    """A random deterministic graph from per-label partial functions."""
    n = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for a in labels:
        for i in range(n):
            t = rng.randrange(-1, n)
            if t >= 0:
                edges.append((names[i], a, names[t]))
    return LabeledGraph(vertices=names, edges=edges)


def brute_monoid(g):
    """Every action of a word on g, as pair sets.

    Breadth-first over words in label order: each word's action is found
    by walking the edge list from every vertex, and a word is extended
    only when its action is new, so every action is reached.
    """
    labels = graph_labels(g)

    def action(w):
        return frozenset(
            (p, q) for p in g.vertices for q in [walk(g, p, w)] if q is not None
        )

    seen = {action(())}
    queue = deque([()])
    while queue:
        w = queue.popleft()
        for a in labels:
            r = action(w + (a,))
            if r not in seen:
                seen.add(r)
                queue.append(w + (a,))
    return seen


def naive_sdp_exists(g):
    """Whether every nonempty action of g is preceded by an intrinsically
    synchronizing one, scanning the whole brute-force monoid."""
    elements = list(brute_monoid(g))
    intrinsic = [s for s in elements if naive_intrinsic(elements, s)]
    return all(any(compose_pairs(s, r) for s in intrinsic) for r in elements if r)
