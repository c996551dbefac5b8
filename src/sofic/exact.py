"""Exact deciders for general deterministic presentations.

The problems handled here (subshift, equality, sync-word existence,
SFT, existence of a synchronizing presentation, irreducibility,
minimality) have no known polynomial algorithms on reducible inputs, so
this module decides them by explicit search over finite state spaces:
reachable subsets of vertices, or reachable *actions* of words.

The action of a word w is the relation pairing p with q whenever a
w-labeled path runs from p to q.  On a deterministic graph every action
is a partial function, stored as a tuple of target indices with -1 for
undefined.  Actions compose like the words they come from, so the set of
all actions is a finite monoid generated by the single-letter actions;
breadth-first closure enumerates it together with a shortest generating
word per element.  Emptiness and intrinsic-synchronization tests over
that monoid decide the SFT and synchronizing-presentation questions.

Subsets are bit masks over vertex indices.  The subset searches look
images up 4 vertices at a time: per label, one 16-entry table per chunk
of 4 vertices gives the image of every subset of that chunk.  The tables
are built once per search and never cached on the graph: caching 8-bit
tables on the compiled view raised the peak RSS of the benchmark's
padded-family workload from 21.6 to 27.8 MiB (+29%), and saved nothing
there because that workload builds fresh graphs on every pass.

Every search is guarded by a cap and raises :class:`CapExceededError`
when an instance grows past desk scale.
"""

from collections import deque
from dataclasses import dataclass

from .classify import follower_separation, is_universal
from .errors import (
    CapExceededError,
    HostMismatchError,
    NotAnElementError,
    NotDeterministicError,
    NotEssentialError,
)
from .graphs import (
    LabeledGraph,
    alphabet,
    cycle_vertices,
    induced_subgraph,
    irreducible_components,
    is_essential,
    paired_targets,
    reachable_indices,
    shortest_word,
    subset_step,
)


@dataclass(frozen=True)
class Caps:
    """Search-size limits: reachable subsets, monoid elements, enumeration candidates."""

    subsets: int = 2**18
    relations: int = 2**18
    enumeration: int = 10**6


DEFAULT_CAPS = Caps()


def _require(g):
    if not g._deterministic:
        raise NotDeterministicError("graph is not deterministic")
    if not is_essential(g):
        raise NotEssentialError("graph has stranded vertices")


@dataclass(frozen=True)
class ActionRelation:
    """The action of a word: a partial function on the host's vertices.

    ``targets[i]`` is the index of the endpoint of the word-labeled path
    starting at vertex i, or -1 when no such path exists.  Equality and
    hashing are structural, so relations work as dict keys.
    """

    graph: object
    targets: tuple

    @property
    def pairs(self):
        """The relation as a frozenset of (src, dst) vertex-name pairs."""
        names = self.graph.vertices
        return frozenset(
            (names[i], names[t]) for i, t in enumerate(self.targets) if t >= 0
        )

    @property
    def is_empty(self):
        return all(t < 0 for t in self.targets)


def action_of_word(g, w):
    """The action of the word `w` on the vertices of `g`.

    The empty word yields the identity relation; letters outside the
    alphabet of `g` yield the empty relation from that point on.

    Parameters
    ----------
    g : deterministic LabeledGraph
    w : word

    Raises
    ------
    NotDeterministicError
    """
    if not g._deterministic:
        raise NotDeterministicError("graph is not deterministic")
    gens = g._compiled().targets
    empty = (-1,) * len(g.vertices)
    func = tuple(range(len(g.vertices)))
    for a in w:
        gen = gens.get(a, empty)
        func = tuple(gen[t] if t >= 0 else -1 for t in func)
    return ActionRelation(g, func)


def compose(r, s):
    """Relational composition: pairs (p, q) joined by `r` then `s`.

    Satisfies ``compose(action_of_word(g, u), action_of_word(g, v)) ==
    action_of_word(g, u + v)``.

    Raises
    ------
    HostMismatchError
        When the relations live on different graphs.
    """
    if r.graph != s.graph:
        raise HostMismatchError("relations live on different host graphs")
    st = s.targets
    return ActionRelation(
        r.graph, tuple(st[t] if t >= 0 else -1 for t in r.targets)
    )


def _dom_mask(func):
    m = 0
    for i, t in enumerate(func):
        if t >= 0:
            m |= 1 << i
    return m


def _ran_mask(func):
    m = 0
    for t in func:
        if t >= 0:
            m |= 1 << t
    return m


class ActionMonoid:
    """All actions of words on one graph, with generator and witness data.

    Built by :func:`action_monoid`.  Elements are reported in
    breadth-first order, so the witness of each element is a shortest
    (and lexicographically least) word generating it.
    """

    def __init__(self, graph, funcs, witnesses, generators, cayley):
        self.graph = graph
        self._funcs = funcs
        self._witnesses = witnesses
        self._generators = generators
        self._cayley = cayley
        self._intrinsic_cache = {}
        self._analysis = None

    @property
    def size(self):
        return len(self._funcs)

    @property
    def elements(self):
        return tuple(ActionRelation(self.graph, f) for f in self._funcs)

    @property
    def generators(self):
        return {a: ActionRelation(self.graph, f) for a, f in self._generators.items()}

    def __contains__(self, relation):
        return (
            isinstance(relation, ActionRelation)
            and relation.graph == self.graph
            and relation.targets in self._witnesses
        )

    def __iter__(self):
        return iter(self.elements)

    def word_witness(self, relation):
        """A shortest word whose action is `relation`."""
        self._require_element(relation)
        return self._witnesses[relation.targets]

    def step(self, relation, label):
        """The element ``relation ; [label]`` read off the Cayley table."""
        self._require_element(relation)
        try:
            func = self._cayley[(relation.targets, label)]
        except KeyError:
            raise NotAnElementError(
                f"label {label!r} is not a generator of this monoid"
            ) from None
        return ActionRelation(self.graph, func)

    def _require_element(self, relation):
        if relation not in self:
            raise NotAnElementError("relation is not an element of this monoid")

    def _prepare(self):
        if self._analysis is None:
            doms = {}
            rans = {}
            for f in self._funcs:
                doms[f] = _dom_mask(f)
                rans[f] = _ran_mask(f)
            self._analysis = (doms, rans, set(rans.values()), set(doms.values()))
        return self._analysis

    def _is_intrinsic(self, func):
        """Whether no live left/right extension pair of this action goes dead."""
        cached = self._intrinsic_cache.get(func)
        if cached is not None:
            return cached
        doms, rans, range_masks, dom_masks = self._prepare()
        dom_r = doms[func]
        ran_r = rans[func]
        result = True
        for left in range_masks:
            m = left & dom_r
            if m == 0:
                continue
            image = 0
            while m:
                low = m & -m
                image |= 1 << func[low.bit_length() - 1]
                m ^= low
            for right in dom_masks:
                if ran_r & right and not image & right:
                    result = False
                    break
            if not result:
                break
        self._intrinsic_cache[func] = result
        return result


def action_monoid(g, cap=None):
    """The monoid of all word actions on `g`, enumerated breadth-first.

    Parameters
    ----------
    g : deterministic LabeledGraph
    cap : int, optional
        Bound on the element count; defaults to ``DEFAULT_CAPS.relations``.

    Raises
    ------
    NotDeterministicError
    CapExceededError
    """
    if not g._deterministic:
        raise NotDeterministicError("graph is not deterministic")
    if cap is None:
        cap = DEFAULT_CAPS.relations
    generators = g._compiled().targets
    identity = tuple(range(len(g.vertices)))
    witnesses = {identity: ()}
    funcs = [identity]
    cayley = {}
    queue = deque([identity])
    while queue:
        func = queue.popleft()
        word = witnesses[func]
        for a, gen in generators.items():
            nxt = tuple(gen[t] if t >= 0 else -1 for t in func)
            cayley[(func, a)] = nxt
            if nxt not in witnesses:
                if len(witnesses) >= cap:
                    raise CapExceededError(len(witnesses) + 1, "monoid element count")
                witnesses[nxt] = word + (a,)
                funcs.append(nxt)
                queue.append(nxt)
    return ActionMonoid(g, tuple(funcs), witnesses, generators, cayley)


def is_intrinsically_sync_relation(m, r):
    """Whether the element `r` of the monoid `m` is intrinsically synchronizing.

    Means: for all elements S, T, if ``S;r`` and ``r;T`` are nonempty
    then so is ``S;r;T``.  For a word w in the language, this holds of
    its action exactly when w is intrinsically synchronizing for the
    presented shift.

    Raises
    ------
    NotAnElementError
    """
    m._require_element(r)
    return m._is_intrinsic(r.targets)


def preceded_by_intrinsic_sync(m, r):
    """Whether some intrinsically synchronizing element S has ``S;r`` nonempty.

    Raises
    ------
    NotAnElementError
    """
    m._require_element(r)
    doms, rans, _, _ = m._prepare()
    dom_r = doms[r.targets]
    for func in m._funcs:
        if rans[func] & dom_r and m._is_intrinsic(func):
            return True
    return False


def decide_sdp_exists(g, caps=DEFAULT_CAPS):
    """Whether the shift presented by `g` has a synchronizing deterministic presentation.

    Holds exactly when every nonempty action is preceded by an
    intrinsically synchronizing one.

    Parameters
    ----------
    g : deterministic essential LabeledGraph

    Raises
    ------
    CapExceededError
    """
    _require(g)
    m = action_monoid(g, caps.relations)
    doms, rans, _, _ = m._prepare()
    uncovered = {doms[f] for f in m._funcs if doms[f]}
    for func in m._funcs:
        if not uncovered:
            break
        ran = rans[func]
        if not ran:
            continue
        if not any(d & ran for d in uncovered):
            continue
        if m._is_intrinsic(func):
            uncovered = {d for d in uncovered if not d & ran}
    return not uncovered


def _cycle_reachable(m):
    """Indices of elements reachable from some element on a Cayley cycle."""
    funcs = m._funcs
    index = {f: i for i, f in enumerate(funcs)}
    succs = [
        sorted({index[m._cayley[(f, a)]] for a in m._generators}) for f in funcs
    ]
    return reachable_indices(succs, cycle_vertices(succs))


def decide_sft(g, caps=DEFAULT_CAPS):
    """Whether the shift presented by `g` is a shift of finite type.

    The shift fails to be an SFT exactly when arbitrarily long language
    words fail intrinsic synchronization.  In the finite Cayley graph of
    the action monoid, the actions of arbitrarily long words are exactly
    the elements reachable from a cycle, so it suffices to scan those for
    a nonempty non-intrinsically-synchronizing element.

    Parameters
    ----------
    g : deterministic essential LabeledGraph

    Raises
    ------
    CapExceededError
    """
    _require(g)
    m = action_monoid(g, caps.relations)
    doms, _, _, _ = m._prepare()
    for i in _cycle_reachable(m):
        func = m._funcs[i]
        if doms[func] and not m._is_intrinsic(func):
            return False
    return True


def _image_tables(targets):
    """Subset-image tables of one label, 16 entries per 4 vertices.

    ``tables[c][b]`` is the image mask of the subset ``b << 4*c``: the
    OR of the target bits ``1 << t`` of the chunk's vertices that ``b``
    selects, with 0 for a target of -1.
    """
    bits = [1 << t if t >= 0 else 0 for t in targets] + [0, 0, 0]
    chunks = iter(bits)
    tables = []
    for w, x, y, z in zip(chunks, chunks, chunks, chunks):
        wx = w | x
        yz = y | z
        tables.append(
            [0, w, x, wx, y, w | y, x | y, wx | y,
             z, w | z, x | z, wx | z, yz, w | yz, x | yz, wx | yz]
        )
    return tables


def _image(mask, tables):
    out = 0
    c = 0
    while mask:
        out |= tables[c][mask & 15]
        mask >>= 4
        c += 1
    return out


def synchronizing_vertices(g, caps=DEFAULT_CAPS):
    """The set of vertices some word synchronizes to, via subset search.

    Parameters
    ----------
    g : deterministic essential LabeledGraph

    Raises
    ------
    CapExceededError
    """
    _require(g)
    if not g.vertices:
        return frozenset()
    tables = [_image_tables(t) for t in g._compiled().targets.values()]
    full = (1 << len(g.vertices)) - 1
    seen = {full}
    queue = deque([full])
    while queue:
        mask = queue.popleft()
        for label_tables in tables:
            nxt = _image(mask, label_tables)
            if nxt and nxt not in seen:
                if len(seen) >= caps.subsets:
                    raise CapExceededError(len(seen) + 1, "subset count")
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(
        g.vertices[mask.bit_length() - 1]
        for mask in seen
        if mask.bit_count() == 1
    )


def shortest_sync_word(g, caps=DEFAULT_CAPS):
    """A minimum-length synchronizing word for `g`, or None.

    Breadth-first search over reachable subsets starting from the full
    vertex set; label-order expansion breaks ties lexicographically.

    Parameters
    ----------
    g : deterministic essential LabeledGraph

    Raises
    ------
    CapExceededError
    """
    _require(g)
    if not g.vertices:
        return None
    view = g._compiled()
    tables = {a: _image_tables(t) for a, t in view.targets.items()}

    def successor(mask, a):
        return _image(mask, tables[a]) or None

    def singleton(mask):
        return mask & (mask - 1) == 0

    full = (1 << len(g.vertices)) - 1
    return shortest_word(
        [full], view.labels, successor, singleton, caps.subsets, "subset count"
    )


def subshift_witness(g, h, caps=DEFAULT_CAPS):
    """Decides containment of shifts, returning (holds, witness).

    Runs the two subset automata in parallel from their full vertex
    sets; containment fails exactly when some word keeps `g` alive while
    killing `h`, and the first such word in breadth-first order is
    returned as the witness.

    Parameters
    ----------
    g, h : deterministic essential LabeledGraphs

    Returns
    -------
    (bool, tuple or None)

    Raises
    ------
    CapExceededError
    """
    _require(g)
    _require(h)
    if not g.vertices:
        return True, None
    if not h.vertices:
        return False, ()
    tables = {
        a: (_image_tables(tg), _image_tables(th))
        for a, (tg, th) in paired_targets(g, h).items()
    }

    def successor(masks, a):
        tg, th = tables[a]
        ng = _image(masks[0], tg)
        return (ng, _image(masks[1], th)) if ng else None

    def killed(masks):
        return masks[1] == 0

    full_g = (1 << len(g.vertices)) - 1
    full_h = (1 << len(h.vertices)) - 1
    witness = shortest_word(
        [(full_g, full_h)],
        tuple(tables),
        successor,
        killed,
        caps.subsets,
        "subset-pair count",
    )
    return witness is None, witness


def decide_subshift(g, h, caps=DEFAULT_CAPS):
    """Whether the shift presented by `g` is contained in that of `h`."""
    return subshift_witness(g, h, caps)[0]


def decide_equality(g, h, caps=DEFAULT_CAPS):
    """Whether `g` and `h` present the same shift (containment both ways)."""
    return subshift_witness(g, h, caps)[0] and subshift_witness(h, g, caps)[0]


def decide_irreducibility(g, caps=DEFAULT_CAPS):
    """Whether the shift presented by `g` is irreducible.

    Follower-separates `g`, then checks that the synchronizing vertices
    form a terminal irreducible component presenting the whole shift.

    Parameters
    ----------
    g : deterministic essential LabeledGraph

    Raises
    ------
    CapExceededError
    """
    _require(g)
    gfs = follower_separation(g)
    if not gfs.vertices:
        return True
    sync_vertices = synchronizing_vertices(gfs, caps)
    if not sync_vertices:
        return False
    components = irreducible_components(gfs)
    if not any(c.terminal and c.vertices == sync_vertices for c in components):
        return False
    return decide_equality(gfs, induced_subgraph(gfs, sync_vertices), caps)


def decide_minimality(g, k, caps=DEFAULT_CAPS):
    """Whether the shift presented by `g` has a k-vertex deterministic presentation.

    For ``k >= |Q|`` the answer is yes (superfluous vertices can always
    be added); ``k == 1`` asks whether the shift is full.  In between,
    all essential deterministic candidates with exactly k vertices over
    the alphabet of `g` are searched, pruned by the candidate's one- and
    two-letter language, and survivors are checked with the exact
    equality decider.

    Parameters
    ----------
    g : deterministic essential LabeledGraph
    k : positive int

    Raises
    ------
    CapExceededError
        When the candidate count ``(k+1)**(k*|alphabet|)`` exceeds
        ``caps.enumeration``.
    """
    _require(g)
    if k < 1:
        raise ValueError("k must be a positive integer")
    n = len(g.vertices)
    if k >= n:
        return True
    if k == 1:
        return is_universal(g)
    sigma = alphabet(g)
    count = (k + 1) ** (k * len(sigma))
    if count > caps.enumeration:
        raise CapExceededError(count, "enumeration candidate count")

    two_letter = {
        (a, b) for a in sigma for b in sigma if subset_step(g, g.vertices, (a, b))
    }

    # candidate transition choices per label: partial functions on k
    # vertices with at least one edge (every alphabet letter must occur)
    def functions():
        funcs = [()]
        for _ in range(k):
            funcs = [f + (t,) for f in funcs for t in range(-1, k)]
        return [f for f in funcs if any(t >= 0 for t in f)]

    options = functions()

    def joint_ok(fa, fb, need):
        has = any(t >= 0 and fb[t] >= 0 for t in fa)
        return has == need

    # assign the most constrained labels first
    domains = {
        a: [f for f in options if joint_ok(f, f, (a, a) in two_letter)]
        for a in sigma
    }
    order = sorted(sigma, key=lambda a: (len(domains[a]), a))

    names = tuple(f"k{i}" for i in range(k))

    def equal_candidate(assignment):
        edges = [
            (names[v], a, names[f[v]])
            for a, f in assignment.items()
            for v in range(k)
            if f[v] >= 0
        ]
        candidate = LabeledGraph(vertices=names, edges=edges)
        return is_essential(candidate) and decide_equality(g, candidate, caps)

    def search(pos, assignment):
        if pos == len(order):
            return equal_candidate(assignment)
        a = order[pos]
        for f in domains[a]:
            if all(
                joint_ok(f, fb, (a, b) in two_letter)
                and joint_ok(fb, f, (b, a) in two_letter)
                for b, fb in assignment.items()
            ):
                assignment[a] = f
                if search(pos + 1, assignment):
                    return True
                del assignment[a]
        return False

    return search(0, {})
