"""Exact deciders for general deterministic presentations.

The problems handled here (subshift, equality, sync-word existence,
SFT, existence of a synchronizing presentation, irreducibility,
minimality) have no known polynomial algorithms on reducible inputs, so
this module decides them by explicit search over finite state spaces:
reachable subsets of vertices, or reachable *actions* of words.

The action of a word w is the relation pairing p with q whenever a
w-labeled path runs from p to q.  On a deterministic graph every action
is a partial function; :class:`ActionRelation` lists its target indices
with -1 for undefined.  Actions compose like the words they come from,
so the set of all actions is a finite monoid generated by the
single-letter actions; breadth-first closure enumerates it together with
a shortest generating word per element.  Emptiness and
intrinsic-synchronization tests over that monoid decide the SFT and
synchronizing-presentation questions.

Inside the closure an action on n vertices is a byte string of target
indices with the sink index n for undefined, and composing it with a
letter is one ``bytes.translate`` over that letter's 256-byte table;
above 255 vertices actions are tuples instead.  Elements get integer
ids in breadth-first order; the Cayley table is one row of element ids
per element, and each element's witness is a parent pointer (the
element and label it was first reached from).

The analysis reads range and domain masks.  The range of an element is
the range of its parent imaged under the label it was reached by.  The
domains of all elements are the subsets reached from the full vertex
set under preimages, since ``dom(c;w)`` is the preimage of ``dom(w)``
under c.  Whether an element r is intrinsically synchronizing depends
only on its left-image set L(r), the set of nonzero ranges ``ran(S;r)``
over all elements S.  L(identity) is the set of nonzero ranges, which
are the subsets reached from the full set under images, and L(p;c) is
L(p) imaged under the letter c, less 0.  So the L-sets are interned per
monoid and worked out lazily down the witness chains of the elements
tested: each distinct set is imaged once per label and judged once,
however many elements share it.

The SDP search does not need the whole monoid.  A nonempty extension
``r;w`` of an intrinsically synchronizing r is one too, so the union U
of their ranges is closed under successors, and the search never
expands an element whose range lies inside the part of U found so far
(see :func:`decide_sdp_exists`).  Its bounds differ from the SFT
search's: ``Caps.relations`` bounds the elements it enumerates, not the
whole monoid, and ``Caps.subsets`` bounds the two subset closures that
give the domains and L(identity) up front.

Subsets are bit masks over vertex indices.  Images are looked up 4
vertices at a time: one 16-entry table per chunk of 4 vertices gives the
image of every subset of that chunk.  The subset searches image a subset
under every label at once through one packed table per graph: label c's
target t of a vertex sits at bit ``c*n + t`` of that vertex's mask, so
one lookup per chunk yields all the label images side by side, and label
c's image is the packed image shifted right by ``c*n`` and cut to n
bits.  The monoid's range and L-set steps image one label at a time and
keep one table per label.  The tables are built once per decision and
never cached on the graph: caching 8-bit tables on the compiled view
raised the peak RSS of the benchmark's padded-family workload from 21.6
to 27.8 MiB (+29%), and saved nothing there because that workload builds
fresh graphs on every pass.

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
    reachable_indices,
    shortest_word,
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


def _tuple_compose(func, ext):
    return tuple(map(ext.__getitem__, func))


def _action_codec(n, target_lists):
    """How actions on n vertices are stored and composed.

    An action lists a target index per vertex, with the sink index n for
    undefined.  Returns ``(pack, compose, letters)``: ``pack`` turns a
    sequence of indices into an action, and ``compose(func,
    letters[c])`` is the action `func` followed by the partial function
    ``target_lists[c]`` (-1 for undefined), which maps the sink to
    itself.  Up to 255 vertices actions are byte strings and composing
    is one ``bytes.translate`` over a 256-byte table; above that they
    are tuples.  This is the only place where storage depends on n.
    """
    exts = [[n if t < 0 else t for t in targets] + [n] for targets in target_lists]
    if n <= 255:
        return bytes, bytes.translate, [bytes(ext + [n] * (255 - n)) for ext in exts]
    return tuple, _tuple_compose, [tuple(ext) for ext in exts]


class ActionMonoid:
    """All actions of words on one graph, with generator and witness data.

    Built by :func:`action_monoid`.  Elements are reported in
    breadth-first order, so the witness of each element is a shortest
    (and lexicographically least) word generating it.

    Internally element k is the action ``_funcs[k]`` (see
    :func:`_action_codec`), ``_rows[k][c]`` is the element reached from
    it by label c, and ``_parents[k]`` is the (element, label index) pair
    it was first reached from.  Relations are converted only at the
    public boundary.  A new monoid holds only the identity until
    :meth:`_close` enumerates the rest; `caps` bounds the element count
    and the domain closure of :meth:`_prepare`.
    """

    def __init__(self, graph, caps):
        self.graph = graph
        self._caps = caps
        self._generators = graph._compiled().targets
        self._labels = {a: c for c, a in enumerate(self._generators)}
        n = len(graph.vertices)
        self._pack, self._compose, self._letters = _action_codec(
            n, self._generators.values()
        )
        identity = self._pack(range(n))
        self._funcs = [identity]
        self._index = {identity: 0}
        self._rows = []
        self._parents = [None]
        self._codes = {t: t for t in range(n)}
        self._codes[-1] = n
        self._analysis = None
        # per element id its range mask, and per label the ranges imaged so far
        self._rans = [(1 << n) - 1]  # the identity reaches every vertex
        self._known = [{} for _ in self._generators]
        # left-image sets, interned: element -> set id, and per set id
        # the set, its step per label and its verdict (None until asked)
        self._left = {}
        self._left_ids = {}
        self._left_sets = []
        self._left_steps = []
        self._verdicts = []

    @property
    def size(self):
        return len(self._funcs)

    @property
    def elements(self):
        return tuple(self._relation(k) for k in range(len(self._funcs)))

    @property
    def generators(self):
        return {a: ActionRelation(self.graph, f) for a, f in self._generators.items()}

    def __contains__(self, relation):
        return self._lookup(relation) is not None

    def __iter__(self):
        return iter(self.elements)

    def word_witness(self, relation):
        """A shortest word whose action is `relation`."""
        k = self._require_element(relation)
        labels = tuple(self._generators)
        word = []
        while self._parents[k] is not None:
            k, c = self._parents[k]
            word.append(labels[c])
        return tuple(reversed(word))

    def step(self, relation, label):
        """The element ``relation ; [label]`` read off the Cayley table."""
        k = self._require_element(relation)
        c = self._labels.get(label)
        if c is None:
            raise NotAnElementError(
                f"label {label!r} is not a generator of this monoid"
            )
        return self._relation(self._rows[k][c])

    def _relation(self, k):
        n = len(self.graph.vertices)
        return ActionRelation(
            self.graph, tuple(-1 if t == n else t for t in self._funcs[k])
        )

    def _lookup(self, relation):
        """The element id of `relation`, or None if it is not an element."""
        if not isinstance(relation, ActionRelation) or relation.graph != self.graph:
            return None
        key = [self._codes.get(t) for t in relation.targets]
        if None in key:
            return None
        return self._index.get(self._pack(key))

    def _require_element(self, relation):
        k = self._lookup(relation)
        if k is None:
            raise NotAnElementError("relation is not an element of this monoid")
        return k

    def _close(self, expand=None):
        """Enumerates the elements breadth-first, filling in the Cayley rows.

        Element k is composed with every letter when it is dequeued; with
        `expand` given, only when ``expand(k)`` is true, and otherwise its
        row is None.  Elements are dequeued in id order.

        Raises
        ------
        CapExceededError
            When the element count exceeds ``caps.relations``.
        """
        funcs, index, rows, parents = self._funcs, self._index, self._rows, self._parents
        compose, letters = self._compose, self._letters
        cap = self._caps.relations
        # funcs doubles as the breadth-first queue: row k is filled in when
        # element k is dequeued, and new elements are appended behind it
        for func in funcs:
            if expand is not None and not expand(len(rows)):
                rows.append(None)
                continue
            row = []
            for letter in letters:
                nxt = compose(func, letter)
                k = index.get(nxt)
                if k is None:
                    k = len(funcs)
                    if k >= cap:
                        raise CapExceededError(k + 1, "monoid element count")
                    index[nxt] = k
                    funcs.append(nxt)
                    parents.append((len(rows), len(row)))
                row.append(k)
            rows.append(row)

    def _prepare(self):
        """The nonzero domain masks of all elements, and the letter tables.

        The domains are the subsets reached from the full vertex set
        under preimages, since ``dom(c;w)`` is the preimage of ``dom(w)``
        under the letter c; so they do not depend on how much of the
        monoid is enumerated.
        """
        if self._analysis is None:
            gens = self._generators.values()
            doms = _subset_closure(
                gens, len(self.graph.vertices), self._caps.subsets, preimages=True
            )
            self._analysis = (doms, [_image_tables(t) for t in gens])
        return self._analysis

    def _ranges(self):
        """Per element id, for every element enumerated so far, its range mask.

        The range of an element is the range of its parent imaged under
        the label it was reached by, imaged once per distinct (range,
        label) pair.
        """
        rans = self._rans
        if len(rans) < len(self._parents):
            tables = self._prepare()[1]
            known = self._known
            for p, c in self._parents[len(rans):]:
                ran = rans[p]
                image = known[c].get(ran)
                if image is None:
                    image = known[c][ran] = _image(ran, tables[c])
                rans.append(image)
        return rans

    def _is_intrinsic(self, k):
        """Whether no live left/right extension pair of element k goes dead.

        With ``r`` the element, a left extension S and a right one T keep
        ``S;r;T`` alive exactly when ``ran(S;r)`` meets ``dom T``.  So the
        verdict depends only on the left-image set L(k) of the nonzero
        ranges ``ran(S;r)``: every member must meet every nonzero
        ``dom T & ran r``, where ``ran r`` is the largest member (S the
        identity).  It is worked out once per distinct L-set.
        """
        lid = self._left_set(k)
        verdict = self._verdicts[lid]
        if verdict is None:
            left = self._left_sets[lid]
            ran_r = max(left, default=0)
            values = {right & ran_r for right in self._prepare()[0]}
            values.discard(0)
            verdict = all(x & v for x in left for v in values)
            self._verdicts[lid] = verdict
        return verdict

    def _left_set(self, k):
        """The id of the interned L-set of element k.

        When ``_parents[k] == (p, c)``, L(k) is L(p) imaged under the
        letter c, less 0.  Ids are worked out down the witness chain from
        the nearest element already known, with one image per distinct
        (L-set, label) pair.
        """
        tables = self._prepare()[1]
        left = self._left
        if not left:
            # L(identity) is the set of nonzero ranges; a search that
            # enumerates only part of the monoid sets it beforehand
            left[0] = self._intern(frozenset(self._ranges()) - {0})
        chain = []
        while k not in left:
            chain.append(k)
            k = self._parents[k][0]
        lid = left[k]
        for j in reversed(chain):
            c = self._parents[j][1]
            steps = self._left_steps[lid]
            if steps[c] is None:
                image = {_image(x, tables[c]) for x in self._left_sets[lid]}
                image.discard(0)
                steps[c] = self._intern(frozenset(image))
            lid = left[j] = steps[c]
        return lid

    def _intern(self, left):
        """The id of the L-set `left`, a frozenset of masks, given on first sight."""
        lid = self._left_ids.setdefault(left, len(self._left_sets))
        if lid == len(self._left_sets):
            self._left_sets.append(left)
            self._left_steps.append([None] * len(self._generators))
            self._verdicts.append(None)
        return lid


def _domain(func, n):
    """The domain mask of an action with sink index n."""
    return sum(1 << i for i, t in enumerate(func) if t != n)


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
    # no monoid has more distinct domains than elements, so the domain
    # closure never reaches the same cap
    m = ActionMonoid(g, Caps(subsets=cap, relations=cap))
    m._close()
    return m


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
    return m._is_intrinsic(m._require_element(r))


def preceded_by_intrinsic_sync(m, r):
    """Whether some intrinsically synchronizing element S has ``S;r`` nonempty.

    Raises
    ------
    NotAnElementError
    """
    k = m._require_element(r)
    rans = m._ranges()
    dom_r = _domain(m._funcs[k], len(m.graph.vertices))
    return any(ran & dom_r and m._is_intrinsic(j) for j, ran in enumerate(rans))


def decide_sdp_exists(g, caps=DEFAULT_CAPS):
    """Whether the shift presented by `g` has a synchronizing deterministic presentation.

    Holds exactly when every nonempty action is preceded by an
    intrinsically synchronizing one, that is when every nonzero domain
    meets the union U of the ranges of intrinsically synchronizing
    elements.  A nonempty extension ``r;w`` of an intrinsically
    synchronizing r is one too, since ``S;r;w`` nonempty implies ``S;r``
    nonempty; so U is the set of vertices reachable from those ranges.

    The monoid is enumerated breadth-first, but an element whose range
    lies inside the part of U found so far is never expanded: every
    extension of it has its range inside U too.  The search stops once
    every nonzero domain meets U.

    Parameters
    ----------
    g : deterministic essential LabeledGraph
    caps : Caps
        ``caps.relations`` bounds the elements enumerated, and
        ``caps.subsets`` each of the two subset closures that give the
        domains and the ranges of all elements up front.  An input whose
        whole monoid exceeds ``caps.relations`` can still get an answer.

    Raises
    ------
    CapExceededError
    """
    _require(g)
    n = len(g.vertices)
    succ = g._compiled().succ
    m = ActionMonoid(g, caps)
    doms = m._prepare()[0]
    ranges = _subset_closure(g._compiled().targets.values(), n, caps.subsets)
    m._left[0] = m._intern(frozenset(ranges))
    uncovered = list(doms)
    covered = 0

    def expand(k):
        nonlocal uncovered, covered
        ran = m._ranges()[k]
        if not uncovered or not ran & ~covered:
            return False
        if m._is_intrinsic(k):
            reached = reachable_indices(succ, (v for v in range(n) if ran >> v & 1))
            covered |= sum(1 << v for v in reached)
            uncovered = [d for d in uncovered if not d & covered]
            return False
        return True

    m._close(expand)
    return not uncovered


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
    rans = m._ranges()
    rows = m._rows
    return not any(
        rans[k] and not m._is_intrinsic(k)
        for k in reachable_indices(rows, cycle_vertices(rows))
    )


def _mask_tables(bits):
    """Subset-image tables over per-vertex masks, 16 entries per 4 vertices.

    ``tables[c][b]`` is the image mask of the subset ``b << 4*c``: the
    OR of ``bits[v]`` over the vertices v of the chunk that ``b``
    selects.
    """
    chunks = iter(list(bits) + [0, 0, 0])
    tables = []
    for w, x, y, z in zip(chunks, chunks, chunks, chunks):
        wx = w | x
        yz = y | z
        tables.append(
            [0, w, x, wx, y, w | y, x | y, wx | y,
             z, w | z, x | z, wx | z, yz, w | yz, x | yz, wx | yz]
        )
    return tables


def _packed_tables(target_lists, n, preimages=False):
    """Subset-image tables of several labels on n vertices at once.

    Label c takes bits ``c*n`` up to ``(c+1)*n``: vertex v's mask has bit
    ``c*n + t`` when label c takes v to t, so that a subset's image is
    every label's image side by side (see :func:`_mask_tables`).  An
    empty entry of `target_lists` is a label defined nowhere.  With
    `preimages`, vertex t's mask has bit ``c*n + v`` instead, and label
    c's block of an image is the set of vertices c takes into the subset.
    """
    bits = [0] * n
    for c, targets in enumerate(target_lists):
        for v, t in enumerate(targets):
            if t >= 0:
                src, dst = (t, v) if preimages else (v, t)
                bits[src] |= 1 << c * n + dst
    return _mask_tables(bits)


def _image_tables(targets):
    """Subset-image tables of one label, -1 for undefined."""
    return _packed_tables([targets], len(targets))


def _preimage_tables(targets):
    """Subset-preimage tables of one label."""
    return _packed_tables([targets], len(targets), preimages=True)


def _image(mask, tables):
    out = 0
    c = 0
    while mask:
        out |= tables[c][mask & 15]
        mask >>= 4
        c += 1
    return out


def _subset_closure(target_lists, n, cap, preimages=False):
    """The nonzero subsets reached from the full set of n vertices.

    Breadth-first under the images of the labels `target_lists`, or
    their preimages (see :func:`_packed_tables`), with the full set
    included when n > 0.

    Raises
    ------
    CapExceededError
        When the subset count exceeds `cap`.
    """
    tables = _packed_tables(target_lists, n, preimages)
    offsets = [c * n for c in range(len(target_lists))]
    full = (1 << n) - 1
    seen = {full} if n else set()
    queue = deque(seen)
    while queue:
        packed = _image(queue.popleft(), tables)
        for offset in offsets:
            nxt = packed >> offset & full
            if nxt and nxt not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(len(seen) + 1, "subset count")
                seen.add(nxt)
                queue.append(nxt)
    return seen


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
    targets = g._compiled().targets
    return frozenset(
        g.vertices[mask.bit_length() - 1]
        for mask in _subset_closure(targets.values(), len(g.vertices), caps.subsets)
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
    n = len(g.vertices)
    targets = g._compiled().targets
    tables = _packed_tables(targets.values(), n)
    offsets = [c * n for c in range(len(targets))]
    full = (1 << n) - 1

    def successors(mask):
        packed = _image(mask, tables)
        return [packed >> offset & full or None for offset in offsets]

    def singleton(mask):
        return mask & (mask - 1) == 0

    return shortest_word(
        [full], tuple(targets), successors, singleton, caps.subsets, "subset count"
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
    # labels of h alone kill g at once, so only g's labels are tried
    labels = g._compiled().labels
    return _containment(g, h, labels, _tables(g, labels), _tables(h, labels), caps)


def _tables(g, labels):
    """The packed image tables of `g` over `labels` (see
    :func:`_packed_tables`); a label `g` lacks is a zero block."""
    targets = g._compiled().targets
    return _packed_tables([targets.get(a, ()) for a in labels], len(g.vertices))


def _containment(g, h, labels, tables_g, tables_h, caps):
    """:func:`subshift_witness` on checked graphs, given their packed
    tables over `labels`, which hold every label of `g`."""
    if not g.vertices:
        return True, None
    if not h.vertices:
        return False, ()
    n_g, n_h = len(g.vertices), len(h.vertices)
    offsets = [(c * n_g, c * n_h) for c in range(len(labels))]
    full_g, full_h = (1 << n_g) - 1, (1 << n_h) - 1

    def successors(masks):
        packed_g = _image(masks[0], tables_g)
        packed_h = _image(masks[1], tables_h)
        return [
            (x, packed_h >> at_h & full_h) if (x := packed_g >> at_g & full_g) else None
            for at_g, at_h in offsets
        ]

    def killed(masks):
        return masks[1] == 0

    witness = shortest_word(
        [(full_g, full_h)], labels, successors, killed, caps.subsets, "subset-pair count"
    )
    return witness is None, witness


def _equal(g, h, labels, tables_g, caps):
    """Containment both ways of checked graphs, given g's packed tables
    over `labels`, which hold every label of both."""
    tables_h = _tables(h, labels)
    return (
        _containment(g, h, labels, tables_g, tables_h, caps)[0]
        and _containment(h, g, labels, tables_h, tables_g, caps)[0]
    )


def decide_subshift(g, h, caps=DEFAULT_CAPS):
    """Whether the shift presented by `g` is contained in that of `h`."""
    return subshift_witness(g, h, caps)[0]


def decide_equality(g, h, caps=DEFAULT_CAPS):
    """Whether `g` and `h` present the same shift (containment both ways)."""
    _require(g)
    _require(h)
    labels = tuple(sorted(set(g._compiled().labels) | set(h._compiled().labels)))
    return _equal(g, h, labels, _tables(g, labels), caps)


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
    # a subgraph presents a subshift of its host, so one containment is enough
    return decide_subshift(gfs, induced_subgraph(gfs, sync_vertices), caps)


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

    targets = g._compiled().targets
    two_letter = {
        (a, b)
        for a in sigma
        for b in sigma
        if any(t >= 0 and targets[b][t] >= 0 for t in targets[a])
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
    tables = _tables(g, sigma)

    def equal_candidate(assignment):
        edges = [
            (names[v], a, names[f[v]])
            for a, f in assignment.items()
            for v in range(k)
            if f[v] >= 0
        ]
        candidate = LabeledGraph(vertices=names, edges=edges)
        return is_essential(candidate) and _equal(g, candidate, sigma, tables, caps)

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
