"""Edge-labeled directed multigraphs and the transition action.

The carrier type for everything in this package is :class:`LabeledGraph`,
an immutable edge-labeled directed multigraph.  Vertices are named by
nonempty whitespace-free strings, and so are the labels; a *word* is a
tuple of label tokens (the empty tuple is the empty word).  All iteration
orders are derived from the lexicographic order on names, so every
operation in this package is reproducible run to run.

Duplicate parallel edges carrying the same label are collapsed on
construction: for the deterministic graphs the algorithms care about they
are indistinguishable at the language level.

A graph is its sorted vertex and edge tuples plus one integer view
(:class:`_Compiled`), compiled on first use.  The name accessors
(membership, ``out_edges``, ``successors``, ``out_labels``) read that
view, and searches never run over names: every search shares the view,
through the one SCC routine :func:`strong_components` and the
parent-pointer search :func:`shortest_word` (the exact deciders' subset
searches run their own over packed masks, see :mod:`sofic.exact`).  A
search that completes a graph with an absorbing sink gives the sink
index n, which a list of n + 1 entries also answers at the undefined
target -1; no sink graph is built.
"""

from collections import deque
from itertools import accumulate

from .errors import (
    CapExceededError,
    NotDeterministicError,
    NotEssentialError,
    UnknownVertexError,
)


def _check_token(token, what):
    if not isinstance(token, str) or not token:
        raise ValueError(f"{what} must be a nonempty string, got {token!r}")
    # str.split() breaks at exactly the characters str.isspace() accepts
    if token.split() != [token]:
        raise ValueError(f"{what} {token!r} contains whitespace")
    return token


class LabeledGraph:
    """An immutable edge-labeled directed multigraph.

    Parameters
    ----------
    vertices : iterable of str, optional
        Vertex names; endpoints of `edges` are included automatically,
        so this is only needed for isolated vertices.
    edges : iterable of (src, label, dst) triples, optional

    Examples
    --------
    >>> g = LabeledGraph(edges=[("a", "x", "b"), ("b", "x", "a"), ("a", "x", "b")])
    >>> g.vertices
    ('a', 'b')
    >>> g.edges
    (('a', 'x', 'b'), ('b', 'x', 'a'))
    """

    __slots__ = ("vertices", "edges", "_deterministic", "_view")

    def __init__(self, vertices=(), edges=()):
        vertex_set = {_check_token(v, "vertex") for v in vertices}
        edge_set = set()
        for src, label, dst in edges:
            _check_token(src, "vertex")
            _check_token(label, "label")
            _check_token(dst, "vertex")
            vertex_set.add(src)
            vertex_set.add(dst)
            edge_set.add((src, label, dst))
        self.vertices = tuple(sorted(vertex_set))
        self.edges = tuple(sorted(edge_set))
        self._deterministic = len({e[:2] for e in self.edges}) == len(self.edges)
        self._view = None

    def _compiled(self):
        """The integer view of this graph, compiled on first use."""
        if self._view is None:
            self._view = _Compiled(self)
        return self._view

    def _edges_from(self, q):
        """The edges starting at `q`: one contiguous run of the sorted edges."""
        first = self._compiled().first
        i = self._require_vertex(q)
        return self.edges[first[i]:first[i + 1]]

    def out_edges(self, q):
        """Yields the (label, dst) pairs of edges starting at `q`, sorted."""
        for _, label, dst in self._edges_from(q):
            yield label, dst

    def successors(self, q, label):
        """The tuple of endpoints of `label`-edges starting at `q`, sorted."""
        return tuple(dst for _, a, dst in self._edges_from(q) if a == label)

    def out_labels(self, q):
        """The sorted tuple of labels on edges starting at `q`."""
        return tuple(dict.fromkeys(a for _, a, _ in self._edges_from(q)))

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

    ``index`` maps names to indices, ``labels`` is the sorted label tuple
    and ``succ[i]`` the sorted successor indices of i.  The edges starting
    at vertex i are ``g.edges[first[i]:first[i + 1]]``, one run of the
    sorted edge tuple.  ``targets`` maps each label to its action, entry
    i the index reached from i or -1 (as in ``ActionRelation.targets``);
    it is None for nondeterministic graphs.
    """

    __slots__ = ("index", "labels", "succ", "first", "targets")

    def __init__(self, g):
        n = len(g.vertices)
        self.index = index = {v: i for i, v in enumerate(g.vertices)}
        self.labels = tuple(sorted({label for _, label, _ in g.edges}))
        succ = [set() for _ in range(n)]
        first = [0] * (n + 1)
        targets = {a: [-1] * n for a in self.labels}
        for src, label, dst in g.edges:
            i, j = index[src], index[dst]
            succ[i].add(j)
            first[i + 1] += 1
            targets[label][i] = j
        self.succ = [sorted(s) for s in succ]
        self.first = list(accumulate(first))
        self.targets = (
            {a: tuple(t) for a, t in targets.items()} if g._deterministic else None
        )


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
    return g._deterministic


def _require_deterministic(g):
    if not g._deterministic:
        raise NotDeterministicError("graph is not deterministic")


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
    succ = g._compiled().succ
    return all(succ) and len({j for s in succ for j in s}) == len(succ)


def _require_essential(g):
    if not is_essential(g):
        raise NotEssentialError("graph has stranded vertices")


def step(g, q, w):
    """The transition action q . w, or None when no path labeled `w` starts at q.

    In a deterministic graph a path is determined by its start vertex and
    its label word, so the endpoint is well defined.  The empty word acts
    as the identity.

    Parameters
    ----------
    g : deterministic LabeledGraph
    q : vertex of `g`
    w : word (sequence of label tokens)

    Examples
    --------
    >>> gm = LabeledGraph(edges=[("A", "0", "A"), ("A", "1", "B"), ("B", "0", "A")])
    >>> step(gm, "A", ("1", "0"))
    'A'
    >>> step(gm, "B", ("1",)) is None
    True
    """
    _require_deterministic(g)
    view = g._compiled()
    i = g._require_vertex(q)
    for a in w:
        targets = view.targets.get(a)
        if targets is None or targets[i] < 0:
            return None
        i = targets[i]
    return g.vertices[i]


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
    """
    _require_deterministic(g)
    return frozenset(step(g, q, w) for q in s) - {None}


class Component(tuple):
    """One irreducible component: a frozenset of vertices plus side flags."""

    __slots__ = ()

    def __new__(cls, vertices, initial, terminal):
        return super().__new__(cls, (frozenset(vertices), initial, terminal))

    @property
    def vertices(self):
        return self[0]

    @property
    def initial(self):
        return self[1]

    @property
    def terminal(self):
        return self[2]

    def __repr__(self):
        return (
            f"Component({sorted(self.vertices)}, "
            f"initial={self.initial}, terminal={self.terminal})"
        )


def irreducible_components(g):
    """The strongly connected components of `g` with initial/terminal flags.

    A component is initial when no edge enters it from another component,
    and terminal when no edge leaves it.  Components are returned sorted
    by their smallest vertex.

    Examples
    --------
    >>> g = LabeledGraph(edges=[("a", "x", "b"), ("b", "x", "b")])
    >>> irreducible_components(g)
    (Component(['a'], initial=True, terminal=False), Component(['b'], initial=False, terminal=True))
    """
    view = g._compiled()
    comps = strong_components(view.succ)
    comp_of = [0] * len(g.vertices)
    for cid, comp in enumerate(comps):
        for i in comp:
            comp_of[i] = cid
    initial = [True] * len(comps)
    terminal = [True] * len(comps)
    for i, succ in enumerate(view.succ):
        for j in succ:
            a, b = comp_of[i], comp_of[j]
            if a != b:
                initial[b] = False
                terminal[a] = False
    result = [
        Component((g.vertices[i] for i in comp), initial[cid], terminal[cid])
        for cid, comp in enumerate(comps)
    ]
    result.sort(key=lambda c: min(c.vertices))
    return tuple(result)


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


def cycle_vertices(succ):
    """The indices on a cycle: in a component of two or more, or on a self loop."""
    on_cycle = set()
    for comp in strong_components(succ):
        if len(comp) > 1 or comp[0] in succ[comp[0]]:
            on_cycle.update(comp)
    return on_cycle


def paired_targets(g, h):
    """Each label of `g` or `h`, in sorted order, mapped to its targets in both.

    A label missing from one graph is undefined (-1) on all its vertices.
    """
    gv, hv = g._compiled(), h._compiled()
    none_g, none_h = (-1,) * len(g.vertices), (-1,) * len(h.vertices)
    return {
        a: (gv.targets.get(a, none_g), hv.targets.get(a, none_h))
        for a in sorted(set(gv.labels) | set(hv.labels))
    }


def shortest_word(starts, labels, successors, goal, cap=None, what=None):
    """A shortest word leading from one of `starts` to a state meeting `goal`.

    Breadth-first search with parent pointers over hashable states;
    ``successors(state)`` lists the state reached by each entry of
    `labels`, in order, with None where the search dies.  Labels are
    tried in the order of `labels`, so among shortest words the least in
    that order wins.  Returns None when no reachable state meets `goal`.
    Storing more than `cap` states raises ``CapExceededError(count,
    what)``.

    Examples
    --------
    Counting up modulo 5 by ones and twos, 4 is two steps from 0:

    >>> shortest_word([0], "ab", lambda s: [(s + 1) % 5, (s + 2) % 5], lambda s: s == 4)
    ('b', 'b')
    >>> shortest_word([0], "a", lambda s: [None if s == 2 else s + 1], lambda s: s == 4)
    """
    parent = {}
    queue = deque()
    for state in starts:
        if goal(state):
            return ()
        if state not in parent:
            parent[state] = None
            queue.append(state)
    while queue:
        state = queue.popleft()
        for a, nxt in zip(labels, successors(state)):
            if nxt is None or nxt in parent:
                continue
            if goal(nxt):
                word = [a]
                link = parent[state]
                while link is not None:
                    state, label = link
                    word.append(label)
                    link = parent[state]
                return tuple(reversed(word))
            if cap is not None and len(parent) >= cap:
                raise CapExceededError(len(parent) + 1, what)
            parent[nxt] = (state, a)
            queue.append(nxt)
    return None


def is_irreducible(g):
    """Returns True iff `g` is strongly connected (at most one component)."""
    return len(irreducible_components(g)) <= 1


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


def disjoint_union(g, h):
    """The disjoint union of `g` and `h`, plus a provenance map.

    Vertices keep their names unless the two graphs collide, in which
    case the right-hand vertex gets a fresh ``~2``-suffixed name.  The
    provenance map sends each vertex of the union to ``(side, original)``
    with side 0 for `g` and 1 for `h`.

    Returns
    -------
    (LabeledGraph, dict)
    """
    taken = set(g.vertices)
    rename = {}
    for v in h.vertices:
        if v not in taken:
            rename[v] = v
        else:
            fresh = v + "~2"
            while fresh in taken or fresh in rename.values():
                fresh += "~2"
            rename[v] = fresh
        taken.add(rename[v])
    provenance = {v: (0, v) for v in g.vertices}
    provenance.update({rename[v]: (1, v) for v in h.vertices})
    union = LabeledGraph(
        vertices=list(g.vertices) + [rename[v] for v in h.vertices],
        edges=list(g.edges)
        + [(rename[s], a, rename[d]) for s, a, d in h.edges],
    )
    return union, provenance


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
