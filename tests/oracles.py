"""Deliberately naive reference computations for cross-validation.

Everything here recomputes from the raw edge list so that agreement with
the package is meaningful.  The exceptions are the last three
functions, which import the package inside their bodies: two keep the
routes of the exact deciders that build derived graphs (a follower
quotient, an induced subgraph, named candidates), and the last keeps the
two-mask subset-pair search that the one-mask search replaced.
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


def naive_sft(g):
    """Whether g presents a shift of finite type, by cycle reachability.

    The actions of arbitrarily long words are the elements of the Cayley
    graph of ``brute_monoid(g)`` reachable from a cycle; the shift is an
    SFT exactly when each nonempty one of them is intrinsically
    synchronizing (``naive_intrinsic``).
    """
    elements = list(brute_monoid(g))
    letters = [
        frozenset((p, q) for p, a, q in g.edges if a == b) for b in graph_labels(g)
    ]

    def after(sources):
        """The elements reached from `sources` by nonempty words."""
        seen = set()
        stack = list(sources)
        while stack:
            r = stack.pop()
            for letter in letters:
                s = compose_pairs(r, letter)
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return seen

    on_cycle = [r for r in elements if r in after([r])]
    return all(naive_intrinsic(elements, r) for r in after(on_cycle) if r)


def quotient_irreducibility(g):
    """Irreducibility of g's shift through derived graphs.

    Builds the follower quotient, asks whether its synchronizing
    vertices form a terminal irreducible component, and whether the
    subgraph they induce presents the quotient's whole shift.
    """
    from sofic.classify import follower_separation
    from sofic.exact import decide_subshift, synchronizing_vertices
    from sofic.graphs import induced_subgraph, irreducible_components

    gfs = follower_separation(g)
    if not gfs.vertices:
        return True
    sync = synchronizing_vertices(gfs)
    if not sync:
        return False
    if not any(
        c.terminal and c.vertices == sync for c in irreducible_components(gfs)
    ):
        return False
    return decide_subshift(gfs, induced_subgraph(gfs, sync))


def named_minimality(g, k):
    """Whether some essential deterministic graph on k named vertices
    presents g's shift, over g's labels with each one used.

    Candidates are picked label by label as edge lists on ``k0 ..
    k(k-1)``, kept only while their two-letter words are g's; each full
    pick is built as a graph and compared with ``decide_equality``.
    """
    from sofic.exact import decide_equality
    from sofic.graphs import is_essential

    names = [f"k{i}" for i in range(k)]
    labels = graph_labels(g)
    two = {w for w in brute_language(g, 2) if len(w) == 2}
    choices = {}
    for a in labels:
        choices[a] = []
        for targets in itertools.product([None] + names, repeat=k):
            edges = [(v, a, t) for v, t in zip(names, targets) if t is not None]
            if edges:
                starts = {v for v, _, _ in edges}
                ends = {t for _, _, t in edges}
                if bool(ends & starts) == ((a, a) in two):
                    choices[a].append((edges, starts, ends))

    def search(picked):
        if len(picked) == len(labels):
            candidate = LabeledGraph(
                vertices=names, edges=[e for _, (es, _, _) in picked for e in es]
            )
            return is_essential(candidate) and decide_equality(g, candidate)
        a = labels[len(picked)]
        for edges, starts, ends in choices[a]:
            if all(
                bool(ends & starts_b) == ((a, b) in two)
                and bool(ends_b & starts) == ((b, a) in two)
                for b, (_, starts_b, ends_b) in picked
            ):
                if search(picked + [(a, (edges, starts, ends))]):
                    return True
        return False

    return search([])


def two_mask_witness(g, h, cap=2**18):
    """``subshift_witness(g, h)`` by the two-mask subset-pair search.

    A state is the tuple (mask of g, mask of h); each graph has its own
    packed image table over g's labels (a label h lacks is a zero
    block), and the search is ``graphs.shortest_word`` from the pair of
    full sets, stopping where h's mask is empty.  Its witness, answer and
    cap count are what the one-mask search over the disjoint union must
    reproduce.
    """
    from sofic.exact import _image, _packed_tables
    from sofic.graphs import shortest_word

    labels = g._compiled().labels
    n_g, n_h = len(g.vertices), len(h.vertices)
    if not n_g:
        return True, None
    if not n_h:
        return False, ()
    lists_h = h._compiled().targets
    tables_g = _packed_tables([g._compiled().targets[a] for a in labels], n_g)
    tables_h = _packed_tables([lists_h.get(a, ()) for a in labels], n_h)
    full_g, full_h = (1 << n_g) - 1, (1 << n_h) - 1

    def successors(masks):
        packed_g = _image(masks[0], tables_g)
        packed_h = _image(masks[1], tables_h)
        return [
            (x, packed_h >> c * n_h & full_h) if (x := packed_g >> c * n_g & full_g) else None
            for c in range(len(labels))
        ]

    witness = shortest_word(
        [(full_g, full_h)], labels, successors, lambda masks: masks[1] == 0,
        cap, "subset-pair count",
    )
    return witness is None, witness
