"""Edge-labeled directed multigraphs and the transition action on vertex sets.

The carrier type for everything in this package is :class:`LabeledGraph`,
an immutable edge-labeled directed multigraph.  Vertices are named by
nonempty whitespace-free strings, and so are the labels; a *word* is a
tuple of label tokens (the empty tuple is the empty word).  All iteration
orders are derived from the lexicographic order on names, so every
operation in this package is reproducible run to run.

Duplicate parallel edges carrying the same label are collapsed on
construction: for the deterministic graphs the algorithms care about they
are indistinguishable at the language level.  An edge given as a plain
tuple is kept as that object, so a graph built from another graph's
``edges`` shares their triples; other edges become plain tuples.
Construction checks each distinct name once, all names together; on a
bad one it reports the first bad token in input order, as a check of one
token at a time would.

A graph is its sorted vertex and edge tuples plus one integer view
(:class:`_Compiled`), compiled on first use: one pass over the edges
gives the vertex count, the label actions and essentiality.  The view
derives the rest on first read and keeps it: the name index (for name
lookups and membership), the successor lists, the strong-connectivity
flag and the follower-set graph of :mod:`sofic.exact`.
Searches never run over names: every search shares the view, which
the precondition checks return, through the strong-connectivity test
:func:`is_irreducible`, the one SCC routine :func:`strong_components`
(flagged as initial or terminal index sets by :func:`_components`) and
the parent-pointer search :func:`shortest_word`
(the exact deciders' subset searches run their own over packed masks,
see :mod:`sofic.exact`, and rebuild words with the same
:func:`_word_to`).  Names come back only at the name-level API, such as
:func:`irreducible_components`.  A search that completes a graph with an
absorbing sink gives the sink index n, which a list of n + 1 entries
also answers at the undefined target -1; no sink graph is built.

On a deterministic graph :func:`is_irreducible` sweeps the label
actions, so the successor lists are read only for components (the
synchronization test and ``syncwords.sync_word_to_vertex`` need them on
a graph that is not strongly connected) and for nondeterministic
graphs; no exact decider reads them.
"""

from typing import NamedTuple

from .errors import NotDeterministicError, NotEssentialError, UnknownVertexError


def _check_token(token, what):
    if not isinstance(token, str) or not token:
        raise ValueError(f"{what} must be a nonempty string, got {token!r}")
    # str.split() breaks at exactly the characters str.isspace() accepts
    if token.split() != [token]:
        raise ValueError(f"{what} {token!r} contains whitespace")


def _are_tokens(names):
    """Whether every one of `names` is a nonempty string without whitespace.

    One join and one split over all names, in place of a check per name;
    raises TypeError on a name that is not a string.  `names` is read
    twice, so it must be a collection, not an iterator.
    """
    joined = "".join(names)
    return "" not in names and (not joined or joined.split() == [joined])


class LabeledGraph:
    """An immutable edge-labeled directed multigraph.

    Parameters
    ----------
    vertices : iterable of str, optional
        Vertex names; endpoints of `edges` are included automatically,
        so this is only needed for isolated vertices.
    edges : iterable of (src, label, dst) triples, optional
        A plain tuple triple is kept as is, shared with the caller; any
        other triple (a list, a namedtuple, an iterator) becomes a plain
        tuple.

    Raises
    ------
    ValueError
        If a name is not a nonempty string without whitespace, or an edge
        has other than three entries (TypeError if it is not iterable).
        Each distinct name is checked once, but the error names the first
        bad token or edge in input order: the vertices, then each edge's
        source, label and target.

    Examples
    --------
    >>> g = LabeledGraph(edges=[("a", "x", "b"), ("b", "x", "a"), ("a", "x", "b")])
    >>> g.vertices
    ('a', 'b')
    >>> g.edges
    (('a', 'x', 'b'), ('b', 'x', 'a'))
    """

    __slots__ = ("vertices", "edges", "_view")

    def __init__(self, vertices=(), edges=()):
        vertex_list, edge_list = [], []
        try:
            # extend keeps what an iterator yielded before it raised
            vertex_list.extend(vertices)
            edge_list.extend(edges)
            # tuple() returns a plain tuple edge itself, so the graph shares
            # the caller's triples, and dict.fromkeys keeps input order, so
            # sorting canonical input takes one linear pass
            distinct = dict.fromkeys(map(tuple, edge_list))
            srcs, labels, dsts = zip(*distinct) if distinct else ((), (), ())
            vertex_set = set(vertex_list).union(srcs, dsts)
            error = None
            if not (
                set(map(len, distinct)) <= {3}
                and _are_tokens(vertex_set)
                and _are_tokens(set(labels))
            ):
                error = ValueError  # the check below raises the precise one
        except (TypeError, ValueError) as exc:
            error = exc
        if error is not None:
            # report the first bad token or malformed edge in input order,
            # or else the error an argument's own iteration raised
            for v in vertex_list:
                _check_token(v, "vertex")
            for src, label, dst in edge_list:
                _check_token(src, "vertex")
                _check_token(label, "label")
                _check_token(dst, "vertex")
            raise error
        self.vertices = tuple(sorted(vertex_set))
        self.edges = tuple(sorted(distinct))
        self._view = None

    def _compiled(self):
        """The integer view of this graph, compiled on first use."""
        if self._view is None:
            self._view = _Compiled(self)
        return self._view

    def _require_vertex(self, q):
        """The index of vertex `q`."""
        i = self._compiled().index.get(q)
        if i is None:
            raise UnknownVertexError(f"vertex {q!r} is not in the graph")
        return i

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, q):
        return q in self._compiled().index

    def __eq__(self, other):
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"LabeledGraph(vertices={self.vertices!r}, edges={self.edges!r})"


class _Compiled:
    """The integer view of a graph: vertex i is ``g.vertices[i]``.

    It stores ``n``, the vertex count, and ``labels``, the sorted label
    tuple.  ``targets`` maps each label to its action, entry i the index
    reached from i or -1 (as in ``ActionRelation.targets``); it is None
    for nondeterministic graphs.  ``essential`` says whether every vertex
    has an out-edge and an in-edge.

    The rest is derived the first time it is read, and kept: ``index``,
    the name-to-index dict, for name lookups and for ``succ``;
    ``succ[i]``, the sorted successor indices of i; ``connected``, the
    strong-connectivity flag of :func:`is_irreducible`; and ``_fsg``,
    the follower-set graph that ``exact._follower_sets`` fills.  Most
    deciders read only ``targets``.
    """

    __slots__ = (
        "n", "labels", "targets", "essential",
        "_names", "_edges", "_index", "_succ", "_connected", "_fsg",
    )

    def __init__(self, g):
        self.n = n = len(g.vertices)
        index = {v: i for i, v in enumerate(g.vertices)}
        self.labels = tuple(sorted({label for _, label, _ in g.edges}))
        targets = {a: [-1] * n for a in self.labels}
        has_out, has_in = bytearray(n), bytearray(n)
        deterministic = True
        for src, label, dst in g.edges:
            i, j = index[src], index[dst]
            has_out[i] = has_in[j] = 1
            t = targets[label]
            # edges are distinct, so a target already set is a second one
            if t[i] >= 0:
                deterministic = False
            t[i] = j
        self.essential = all(has_out) and all(has_in)
        self.targets = (
            {a: tuple(t) for a, t in targets.items()} if deterministic else None
        )
        self._names, self._edges = g.vertices, g.edges
        self._index = self._succ = self._connected = self._fsg = None

    @property
    def index(self):
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self._names)}
        return self._index

    @property
    def succ(self):
        if self._succ is None:
            index = self.index
            succ = [set() for _ in range(self.n)]
            for src, _, dst in self._edges:
                succ[index[src]].add(index[dst])
            self._succ = [sorted(s) for s in succ]
        return self._succ

    @property
    def connected(self):
        if self._connected is None:
            self._connected = _strongly_connected(self)
        return self._connected


EMPTY = LabeledGraph()


def is_deterministic(g):
    """Returns True iff no vertex of `g` has two equal-labeled outgoing edges.

    Examples
    --------
    >>> is_deterministic(LabeledGraph(edges=[("v", "0", "v"), ("v", "1", "v")]))
    True
    >>> is_deterministic(LabeledGraph(edges=[("v", "0", "v"), ("v", "0", "w"), ("w", "0", "v")]))
    False
    """
    return g._compiled().targets is not None


def _require_deterministic(g):
    """The compiled view of `g`; raises unless `g` is deterministic."""
    if not is_deterministic(g):
        raise NotDeterministicError("graph is not deterministic")
    return g._compiled()


def alphabet(g):
    """The sorted tuple of labels appearing on edges of `g`."""
    return g._compiled().labels


def essentialize(g):
    """The maximal subgraph of `g` with no stranded vertex.

    A vertex is stranded if it has no outgoing or no incoming edge.
    Removing one can strand another, so removal iterates to a fixpoint;
    the result is independent of removal order and may be empty.  The
    operation is idempotent.

    Examples
    --------
    >>> essentialize(LabeledGraph(edges=[("a", "x", "b")])).vertices
    ()
    """
    alive = set(g.vertices)
    while True:
        out_ok = {src for src, _, dst in g.edges if src in alive and dst in alive}
        in_ok = {dst for src, _, dst in g.edges if src in alive and dst in alive}
        keep = {v for v in alive if v in out_ok and v in in_ok}
        if keep == alive:
            break
        alive = keep
    return induced_subgraph(g, alive)


def is_essential(g):
    """Returns True iff no vertex of `g` is stranded."""
    return g._compiled().essential


def _require_essential(g):
    if not is_essential(g):
        raise NotEssentialError("graph has stranded vertices")


def _require_presentation(g):
    """The compiled view of `g`; raises unless deterministic, then unless essential."""
    view = _require_deterministic(g)
    _require_essential(g)
    return view


def subset_step(g, s, w):
    """The transition action S . w on a set of vertices, as a frozenset.

    Vertices where the action of `w` is undefined simply drop out, so the
    result can be empty.  The operation is monotone in `s` and distributes
    over union.

    Parameters
    ----------
    g : deterministic LabeledGraph
    s : iterable of vertices of `g`
    w : word

    Examples
    --------
    >>> gm = LabeledGraph(edges=[("A", "0", "A"), ("A", "1", "B"), ("B", "0", "A")])
    >>> subset_step(gm, {"A", "B"}, ("1", "0"))
    frozenset({'A'})
    """
    targets = _require_deterministic(g).targets
    current = {g._require_vertex(q) for q in s}
    for a in w:
        t = targets.get(a)
        current = {t[i] for i in current if t[i] >= 0} if t else ()
    return frozenset(g.vertices[i] for i in current)


class Component(NamedTuple):
    """One irreducible component: a frozenset of vertices plus side flags."""

    vertices: frozenset
    initial: bool
    terminal: bool

    def __repr__(self):
        return (
            f"Component({sorted(self.vertices)}, "
            f"initial={self.initial}, terminal={self.terminal})"
        )


def irreducible_components(g):
    """The strongly connected components of `g` with initial/terminal flags.

    A component is initial when no edge enters it from another component,
    and terminal when no edge leaves it.  Components are returned sorted
    by their smallest vertex: :func:`_components`, named.

    Examples
    --------
    >>> g = LabeledGraph(edges=[("a", "x", "b"), ("b", "x", "b")])
    >>> irreducible_components(g)
    (Component(['a'], initial=True, terminal=False), Component(['b'], initial=False, terminal=True))
    """
    return tuple(
        Component(frozenset([g.vertices[i] for i in comp]), initial, terminal)
        for comp, initial, terminal in _components(g._compiled().succ)
    )


def _components(succ):
    """The strong components of ``succ`` as (index set, initial, terminal)
    triples, sorted by smallest index; see :func:`irreducible_components`."""
    comps = strong_components(succ)
    comp_of = {i: cid for cid, comp in enumerate(comps) for i in comp}
    crossing = {(comp_of[i], comp_of[j]) for i, js in enumerate(succ) for j in js}
    left = {a for a, b in crossing if a != b}
    entered = {b for a, b in crossing if a != b}
    flagged = [(set(c), cid not in entered, cid not in left) for cid, c in enumerate(comps)]
    return sorted(flagged, key=lambda c: min(c[0]))


def strong_components(succ):
    """The strongly connected components of a graph on vertex indices.

    Iterative Tarjan over ``succ``, where ``succ[i]`` lists the
    successor indices of vertex i.  Components are lists of indices,
    each listed after every component it reaches.
    """
    n = len(succ)
    order = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if order[w] < 0:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == order[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def shortest_word(starts, labels, successors, goal):
    """A shortest word leading from one of `starts` to a state meeting `goal`.

    Breadth-first search with parent pointers over hashable states;
    ``successors(state)`` lists the state reached by each entry of
    `labels`, in order, with None where the search dies.  Labels are
    tried in the order of `labels`, so among shortest words the least in
    that order wins.  Returns None when no reachable state meets `goal`.
    The search is unbounded: its callers search polynomial state spaces.

    Examples
    --------
    Counting up modulo 5 by ones and twos, 4 is two steps from 0:

    >>> shortest_word([0], "ab", lambda s: [(s + 1) % 5, (s + 2) % 5], lambda s: s == 4)
    ('b', 'b')
    >>> shortest_word([0], "a", lambda s: [None if s == 2 else s + 1], lambda s: s == 4)
    """
    parent = {}
    order = []  # the breadth-first queue
    for state in starts:
        if goal(state):
            return ()
        if state not in parent:
            parent[state] = None
            order.append(state)
    for state in order:
        for c, nxt in enumerate(successors(state)):
            if nxt is None or nxt in parent:
                continue
            if goal(nxt):
                return _word_to(parent, state, labels) + (labels[c],)
            parent[nxt] = (state, c)
            order.append(nxt)
    return None


def _word_to(parent, state, labels):
    """The word a parent-pointer search spelled to `state`.

    ``parent[s]`` is None for a start and otherwise the (state, label
    index) pair s was first reached from; `labels` names the indices.
    """
    word = []
    while (link := parent[state]) is not None:
        state, c = link
        word.append(labels[c])
    return tuple(reversed(word))


def is_irreducible(g):
    """Returns True iff `g` is strongly connected (at most one component).

    On a deterministic graph two sweeps over the label actions answer:
    one forward from vertex 0 along ``targets``, then one backward along
    predecessor lists built once from ``targets``; `g` is strongly
    connected exactly when both reach every vertex, and a graph of at
    most one vertex always is.  A nondeterministic graph falls back to
    counting its :func:`strong_components`.  The view keeps the answer,
    so the synchronization test on the same graph sweeps nothing.

    Examples
    --------
    >>> is_irreducible(LabeledGraph(edges=[("a", "x", "b"), ("b", "y", "a")]))
    True
    >>> is_irreducible(LabeledGraph(edges=[("a", "x", "b"), ("b", "y", "b")]))
    False
    """
    return g._compiled().connected


def _strongly_connected(view):
    """:func:`is_irreducible` on the compiled view of a graph; read it as
    ``view.connected``, which runs it once per view."""
    if view.targets is None:
        return len(strong_components(view.succ)) <= 1
    n = view.n
    if n <= 1:
        return True
    rows = tuple(view.targets.values())
    seen, stack = bytearray(n), [0]
    seen[0] = 1
    while stack:
        v = stack.pop()
        for t in rows:
            w = t[v]
            if w >= 0 and not seen[w]:
                seen[w] = 1
                stack.append(w)
    if 0 in seen:
        return False
    # the extra last list collects the undefined targets, -1, unread
    preds = [[] for _ in range(n + 1)]
    for t in rows:
        for v, w in enumerate(t):
            preds[w].append(v)
    seen, stack = bytearray(n), [0]
    seen[0] = 1
    while stack:
        for w in preds[stack.pop()]:
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
    return 0 not in seen


def induced_subgraph(g, p):
    """The subgraph of `g` induced by the vertex set `p`.

    Keeps exactly the vertices in `p` and the edges with both endpoints
    in `p`.

    Raises
    ------
    UnknownVertexError
        If `p` is not a subset of the vertices of `g`.
    """
    p = set(p)
    for v in p:
        g._require_vertex(v)
    return LabeledGraph(
        vertices=p,
        edges=[e for e in g.edges if e[0] in p and e[2] in p],
    )


def reachable_indices(succ, sources):
    """The set of indices reachable in `succ` from the indices `sources`, included."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen
