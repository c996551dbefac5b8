"""Deliberately naive reference computations for cross-validation.

Everything here recomputes from the raw edge list so that agreement with
the package is meaningful.  The exceptions are the last nine
functions, which use the package inside their bodies: two keep the
routes of the exact deciders that build derived graphs (a follower
quotient, an induced subgraph, named candidates), one keeps the
two-mask subset-pair search that the one-mask search replaced, one
runs the class-level pair search on the reference follower refinement,
the next two build the one-label subset-image tables that the packed
table is checked against, one closes subsets through those tables, and
the last two keep the per-vertex follower refinement and the quotient
read off it by a loop over every vertex and label.
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


def per_token_graph(vertices=(), edges=()):
    """The sorted vertex and edge tuples ``LabeledGraph(vertices, edges)``
    holds, checking one token at a time: the vertices, then each edge's
    source, label and target, in input order.  Raises the ValueError or
    TypeError of the first bad token or malformed edge met that way.
    """

    def check(token, what):
        if not isinstance(token, str) or not token:
            raise ValueError(f"{what} must be a nonempty string, got {token!r}")
        if token.split() != [token]:
            raise ValueError(f"{what} {token!r} contains whitespace")

    vertex_set, edge_set = set(), set()
    for v in vertices:
        check(v, "vertex")
        vertex_set.add(v)
    for src, label, dst in edges:
        check(src, "vertex")
        check(label, "label")
        check(dst, "vertex")
        vertex_set.update((src, dst))
        edge_set.add((src, label, dst))
    return tuple(sorted(vertex_set)), tuple(sorted(edge_set))


def successor_lists(g):
    """The sorted successor indices of each vertex (vertex i is
    ``g.vertices[i]``), built eagerly from the edge list."""
    index = {v: i for i, v in enumerate(g.vertices)}
    succ = [set() for _ in g.vertices]
    for src, _, dst in g.edges:
        succ[index[src]].add(index[dst])
    return [sorted(s) for s in succ]


def unstranded(g):
    """Whether every vertex has a successor and is some vertex's successor."""
    succ = successor_lists(g)
    return all(succ) and len({j for s in succ for j in s}) == len(succ)


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


def sync_word_search(g, cap=2**18):
    """``shortest_sync_word(g, Caps(subsets=cap))`` by a breadth-first
    search over frozensets, labels in sorted order, with its own parent
    pointers: the word to the first subset of at most one vertex, or
    None, and the same ``CapExceededError`` when it stores more than
    `cap` subsets.  Each letter steps through a dict read off the edge
    list, so that it stays quick on graphs of a few dozen vertices.
    """
    from sofic.errors import CapExceededError

    step = {(src, a): dst for src, a, dst in g.edges}
    labels = graph_labels(g)
    start = frozenset(g.vertices)
    if len(start) <= 1:
        return () if start else None
    parent = {start: None}
    order = [start]  # the breadth-first queue
    for subset in order:
        for a in labels:
            nxt = frozenset(step[q, a] for q in subset if (q, a) in step)
            if not nxt or nxt in parent:
                continue
            if len(nxt) == 1:
                word = [a]
                while parent[subset] is not None:
                    subset, b = parent[subset]
                    word.append(b)
                return tuple(reversed(word))
            if len(parent) >= cap:
                raise CapExceededError(len(parent) + 1, "subset count")
            parent[nxt] = (subset, a)
            order.append(nxt)
    return None


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


def random_dfa(rng, max_states=3):
    """A random total DFA over {a, b} with 1 to `max_states` states.

    Draws the state count, then each transition target in (state, label)
    order, then whether each state accepts.
    """
    from sofic.constructions import Dfa

    states = [f"s{i}" for i in range(rng.randint(1, max_states))]
    delta = {(q, a): rng.choice(states) for q in states for a in "ab"}
    accepting = [q for q in states if rng.random() < 0.5]
    return Dfa(states, "ab", delta, states[0], accepting)


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


def disjoint_union(g, h):
    """The disjoint union of g and h, their vertices prefixed ``0`` and ``1``."""
    return LabeledGraph(
        vertices=["0" + v for v in g.vertices] + ["1" + v for v in h.vertices],
        edges=[("0" + s, a, "0" + d) for s, a, d in g.edges]
        + [("1" + s, a, "1" + d) for s, a, d in h.edges],
    )


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
    block), and the search is a breadth-first search with its own parent
    pointers from the pair of full sets, stopping where h's mask is
    empty.  Its witness, answer and cap count are what the one-mask
    search over the disjoint union must reproduce.
    """
    from sofic.errors import CapExceededError
    from sofic.exact import _image, _packed_tables

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

    start = (full_g, full_h)
    parent = {start: None}
    order = [start]  # the breadth-first queue
    for state in order:
        packed_g = _image(state[0], tables_g)
        packed_h = _image(state[1], tables_h)
        for c in range(len(labels)):
            nxt = (packed_g >> c * n_g & full_g, packed_h >> c * n_h & full_h)
            if not nxt[0] or nxt in parent:
                continue
            if not nxt[1]:
                word = [labels[c]]
                while parent[state] is not None:
                    state, c = parent[state]
                    word.append(labels[c])
                return False, tuple(reversed(word))
            if len(parent) >= cap:
                raise CapExceededError(len(parent) + 1, "subset-pair count")
            parent[nxt] = (state, c)
            order.append(nxt)
    return True, None


def class_witness(g, h, cap=2**18):
    """``subshift_witness(g, h, Caps(subsets=cap))`` by a breadth-first
    search over pairs of frozensets of follower-class ids from
    ``reference_blocks(g, h)``.

    The pair starts at (g's classes that h does not hold, h's classes),
    and each class steps to the class of the target of any member, read
    off the edge lists.  Labels of g are tried in sorted order, with the
    search's own parent pointers, stopping where the second set is
    empty.  Returns what the search returns, and raises the same
    ``CapExceededError`` when it stores more than `cap` pairs.
    """
    from sofic.errors import CapExceededError

    tagged = [(0, v) for v in g.vertices] + [(1, v) for v in h.vertices]
    cls = dict(zip(tagged, reference_blocks(g, h)))
    step = {}
    for side, graph in enumerate((g, h)):
        for src, a, dst in graph.edges:
            step[cls[side, src], a] = cls[side, dst]
    theirs = frozenset(cls[1, v] for v in h.vertices)
    start = (frozenset(cls[0, v] for v in g.vertices) - theirs, theirs)
    if not start[0]:
        return True, None
    if not start[1]:
        return False, ()
    labels = graph_labels(g)
    parent = {start: None}
    order = [start]  # the breadth-first queue
    for state in order:
        for a in labels:
            nxt = tuple(frozenset(step[b, a] for b in part if (b, a) in step) for part in state)
            if not nxt[0] or nxt in parent:
                continue
            if not nxt[1]:
                word = [a]
                while parent[state] is not None:
                    state, b = parent[state]
                    word.append(b)
                return False, tuple(reversed(word))
            if len(parent) >= cap:
                raise CapExceededError(len(parent) + 1, "subset-pair count")
            parent[nxt] = (state, a)
            order.append(nxt)
    return True, None


def class_equality(g, h, cap=2**18):
    """``decide_equality(g, h, Caps(subsets=cap))`` by
    :func:`class_witness` both ways, the second only when the first
    holds."""
    return class_witness(g, h, cap)[0] and class_witness(h, g, cap)[0]


def image_tables(targets):
    """The subset-image tables of one label, -1 for undefined: the packed
    tables of that label alone."""
    from sofic.exact import _packed_tables

    return _packed_tables([targets], len(targets))


def preimage_tables(targets):
    """The subset-preimage tables of one label."""
    from sofic.exact import _packed_tables

    return _packed_tables([targets], len(targets), preimages=True)


def table_closure(g, preimages=False):
    """The nonzero subsets reached from g's full vertex set under images
    (under preimages with `preimages`), each mapped to its tuple of
    images per label in sorted label order, 0 where a label kills it.

    A plain breadth-first set closure in label order, over the one-label
    tables of ``image_tables`` or ``preimage_tables`` built from target
    lists read off the edge list; insertion order is discovery order.
    """
    index = {v: i for i, v in enumerate(g.vertices)}
    build = preimage_tables if preimages else image_tables
    per_label = []
    for a in graph_labels(g):
        targets = [-1] * len(index)
        for src, label, dst in g.edges:
            if label == a:
                targets[index[src]] = index[dst]
        per_label.append(build(targets))

    def image_of(mask, tables):
        out = 0
        for i, table in enumerate(tables):
            out |= table[mask >> 4 * i & 15]
        return out

    start = (1 << len(index)) - 1
    rows = {}
    seen = {start} if start else set()
    queue = deque(seen)
    while queue:
        mask = queue.popleft()
        rows[mask] = tuple(image_of(mask, tables) for tables in per_label)
        for nxt in rows[mask]:
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return rows


def reference_blocks(*graphs):
    """``classify._blocks(*graphs)`` by the per-vertex refinement loop.

    Reads the compiled target lists of the deterministic `graphs`, joins
    them into one column per label (a label a graph lacks is all -1, and
    -1 reads the sink's block), and refines {sink} / rest by building one
    signature tuple per vertex per round until the class count stops
    growing.  Ids come in first-member order, the sink's last.
    """
    views = [g._compiled() for g in graphs]
    n = sum(view.n for view in views)
    columns = []
    for a in dict.fromkeys(a for view in views for a in view.labels):
        column = ()
        for view in views:
            t = view.targets.get(a, (-1,) * view.n)
            shift = len(column)
            column += tuple([j + shift if j >= 0 else -1 for j in t]) if shift else t
        columns.append(column + (n,))
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
    return block


def reference_quotient(*graphs):
    """``classify._quotient(*graphs)`` by a loop over every vertex and label.

    Takes the class ids of :func:`reference_blocks` and, for each label
    of the graphs in sorted order, sets each class's target from every
    member's compiled target that is not -1; a class with none keeps -1.
    """
    block = reference_blocks(*graphs)
    parts, shift = [], 0
    for g in graphs:
        view = g._compiled()
        parts.append((view.targets, block[shift:]))
        shift += view.n
    quotient = {}
    for a in sorted({a for targets, _ in parts for a in targets}):
        moved = quotient[a] = [-1] * block[-1]
        for targets, ids in parts:
            for v, t in enumerate(targets.get(a, ())):
                if t >= 0:
                    moved[ids[v]] = ids[t]
    return block, quotient
