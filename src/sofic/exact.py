"""Exact deciders for general deterministic presentations.

Subshift, equality, sync-word existence, SFT, existence of a
synchronizing presentation, irreducibility and minimality have no known
polynomial algorithms on reducible inputs, so this module decides them
by search over reachable vertex subsets or reachable actions of words,
and builds no graphs.  Each mechanism is described where it is built:

* word actions: :class:`ActionRelation` at the public boundary, stored
  as byte strings or, above 255 vertices, tuples (:func:`_action_codec`);
* the action monoid: a breadth-first closure with parent pointers
  (:class:`ActionMonoid`), analysed through domain and range closures
  (:meth:`ActionMonoid._prepare`) and left-image sets
  (:meth:`ActionMonoid._is_intrinsic`), and expanded only in part by
  :func:`decide_sft` and :func:`decide_sdp_exists`;
* packed subset tables: a subset is an int mask imaged under every label
  at once (:func:`_packed_bits`, :func:`_mask_tables`), in one closure
  routine (:func:`_subset_closure`) or one search for a word
  (:func:`_word_search`), both switching to byte-wide tables past 256
  stored subsets (:func:`_byte_tables`);
* pair searches: subshift and equality search pairs of sets of follower
  classes of the union of both graphs (:func:`_containments`), and
  minimality's candidate checks pairs of vertex sets (:func:`_equal`);
* caps: every search is bounded by a field of :class:`Caps` and raises
  :class:`CapExceededError` past it.
"""

from dataclasses import dataclass
from itertools import product

from .classify import _quotient, is_universal
from .errors import CapExceededError, HostMismatchError, NotAnElementError
from .graphs import (
    reachable_indices,
    strong_components,
    _require_deterministic,
    _require_presentation,
    _word_to,
)


@dataclass(frozen=True)
class Caps:
    """Search-size limits: ``subsets`` for subset and subset-pair searches,
    ``relations`` for monoid elements, ``enumeration`` for minimality's candidates."""

    subsets: int = 2**18
    relations: int = 2**18
    enumeration: int = 10**6


DEFAULT_CAPS = Caps()


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
    gens = _require_deterministic(g).targets
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
    undefined.  Returns ``(pack, compose, letters, pad)``: ``pack`` turns
    a sequence of indices into an action, and ``compose(func,
    letters[c])`` is the action `func` followed by the partial function
    ``target_lists[c]`` (-1 for undefined), which maps the sink to
    itself; ``func + pad`` is `func` as such a letter, so that
    ``compose(func, func + pad)`` is `func` twice.  Up to 255 vertices
    actions are byte strings and composing is one ``bytes.translate``
    over a 256-byte table; above that they are tuples.  This is the only
    place where storage depends on n.
    """
    exts = [[n if t < 0 else t for t in targets] for targets in target_lists]
    if n <= 255:
        pad = bytes([n]) * (256 - n)
        return bytes, bytes.translate, [bytes(ext) + pad for ext in exts], pad
    return tuple, _tuple_compose, [(*ext, n) for ext in exts], (n,)


class ActionMonoid:
    """All actions of words on one graph, with witness data.

    Built by :func:`action_monoid`.  Actions compose like the words they
    come from (:func:`compose`), so they form a finite monoid generated
    by the actions of single letters.  Elements are reported in
    breadth-first order, so the witness of each element is a shortest
    (and lexicographically least) word generating it.

    Internally element k is the action ``_funcs[k]`` (see
    :func:`_action_codec`) and ``_parents[k]`` is the (element, label
    index) pair it was first reached from: witnesses are read off these
    parent pointers, and no Cayley table is kept.  Relations are
    converted only at the public boundary.  A new monoid holds only the
    identity until :meth:`_close` enumerates the rest, all of it or the
    part a decider expands.
    """

    def __init__(self, graph, caps):
        self.graph = graph
        self._caps = caps
        self._generators = graph._compiled().targets
        n = len(graph.vertices)
        self._pack, self._compose, self._letters, self._pad = _action_codec(
            n, self._generators.values()
        )
        identity = self._pack(range(n))
        self._funcs = [identity]
        self._index = {identity: 0}
        self._parents = [None]
        self._analysis = None
        self._full = (1 << n) - 1
        self._rans = [self._full]  # the identity reaches every vertex
        self._lefts = []
        self._images = {}
        self._verdicts = {}

    @property
    def size(self):
        return len(self._funcs)

    @property
    def elements(self):
        return tuple(self._relation(k) for k in range(len(self._funcs)))

    def __contains__(self, relation):
        return self._lookup(relation) is not None

    def word_witness(self, relation):
        """A shortest word whose action is `relation`."""
        k = self._require_element(relation)
        return _word_to(self._parents, k, tuple(self._generators))

    def _relation(self, k):
        n = len(self.graph.vertices)
        return ActionRelation(
            self.graph, tuple(-1 if t == n else t for t in self._funcs[k])
        )

    def _lookup(self, relation):
        """The element id of `relation`, or None if it is not an element."""
        if not isinstance(relation, ActionRelation) or relation.graph != self.graph:
            return None
        n = len(self.graph.vertices)
        if not all(-1 <= t < n for t in relation.targets):
            return None
        return self._index.get(self._pack([n if t < 0 else t for t in relation.targets]))

    def _require_element(self, relation):
        k = self._lookup(relation)
        if k is None:
            raise NotAnElementError("relation is not an element of this monoid")
        return k

    def _close(self, expand=None):
        """Enumerates the elements breadth-first, recording parent pointers.

        Element k is composed with every letter when it is dequeued; with
        `expand` given, only when ``expand(k)`` is true.  Elements are
        dequeued in id order.

        Raises
        ------
        CapExceededError
            When the element count exceeds ``caps.relations``.
        """
        funcs, index, parents = self._funcs, self._index, self._parents
        compose, letters = self._compose, self._letters
        cap = self._caps.relations
        # funcs doubles as the breadth-first queue: new elements are
        # appended behind the one being expanded
        for k, func in enumerate(funcs):
            if expand is not None and not expand(k):
                continue
            for c, letter in enumerate(letters):
                nxt = compose(func, letter)
                if nxt not in index:
                    j = len(funcs)
                    if j >= cap:
                        raise CapExceededError(j + 1, "monoid element count")
                    index[nxt] = j
                    funcs.append(nxt)
                    parents.append((k, c))

    def _prepare(self):
        """The nonzero domain masks of all elements, and the range automaton.

        Since ``dom(c;w)`` is the preimage of ``dom(w)`` under c, the
        domains are the subsets reached from the full vertex set under
        preimages, and the nonzero ranges those reached from it under
        images, so neither depends on how much of the monoid is
        enumerated.  The rows of the range closure are the automaton: it
        maps each nonzero range, and 0, to its packed image, label c's
        image at bits ``c*n``.  Both closures are bounded by
        ``caps.subsets``, the domain closure first.
        """
        if self._analysis is None:
            gens, n, cap = self._generators.values(), len(self.graph.vertices), self._caps.subsets
            doms = _subset_closure(_packed_tables(gens, n, preimages=True), n, self._full, cap)
            steps = _subset_closure(_packed_tables(gens, n), n, self._full, cap)
            steps[0] = 0
            self._analysis = (doms, steps)
        return self._analysis

    def _ranges(self):
        """Per element id, for every element enumerated so far, its range mask:
        the range of its parent imaged under the label it was reached by,
        one lookup in the range automaton."""
        rans = self._rans
        if len(rans) < len(self._parents):
            steps, n, full = self._prepare()[1], len(self.graph.vertices), self._full
            rans.extend(steps[rans[p]] >> c * n & full for p, c in self._parents[len(rans):])
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
        left = self._left_sets(k)[k]
        verdict = self._verdicts.get(left)
        if verdict is None:
            ran_r = max(left, default=0)
            values = {right & ran_r for right in self._prepare()[0]} - {0}
            verdict = self._verdicts[left] = all(x & v for x in left for v in values)
        return verdict

    def _left_sets(self, k):
        """Per element id, up to element k at least, its L-set.

        L(identity) is the set of nonzero ranges, and when ``_parents[j]
        == (p, c)``, L(j) is L(p) imaged under the letter c, less 0; each
        distinct (L-set, label) pair is imaged once, by lookups in the
        range automaton, however many elements share it.
        """
        lefts, images = self._lefts, self._images
        if len(lefts) <= k:
            steps, n, full = self._prepare()[1], len(self.graph.vertices), self._full
            if not lefts:
                lefts.append(frozenset(steps) - {0})
            for p, c in self._parents[len(lefts):k + 1]:
                key = lefts[p], c
                if key not in images:
                    images[key] = frozenset(steps[x] >> c * n & full for x in key[0]) - {0}
                lefts.append(images[key])
        return lefts


def action_monoid(g, caps=DEFAULT_CAPS):
    """The monoid of all word actions on `g`, enumerated breadth-first.

    Parameters
    ----------
    g : deterministic LabeledGraph
    caps : Caps
        ``caps.relations`` bounds the element count.  A closed monoid has
        no more nonzero domains or ranges than elements, so the closures
        of its later analysis (:meth:`ActionMonoid._prepare`) stay within
        ``caps.subsets`` whenever it is at least ``caps.relations``.

    Raises
    ------
    NotDeterministicError
    CapExceededError
    """
    _require_deterministic(g)
    m = ActionMonoid(g, caps)
    m._close()
    return m


def is_intrinsically_sync_relation(m, r):
    """Whether the element `r` of the monoid `m` is intrinsically synchronizing.

    Means: for all elements S, T, if ``S;r`` and ``r;T`` are nonempty
    then so is ``S;r;T``.  For a word w in the language, this holds of
    its action exactly when w is intrinsically synchronizing for the
    presented shift.  Every nonempty extension ``a;r;b`` of such an r is
    one too: if ``S;a;r;b`` and ``a;r;b;T`` are nonempty, so are
    ``S;a;r`` and ``r;b;T``, hence ``S;a;r;b;T``.

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
    m._require_element(r)
    dom_r = _masks(r.targets)[0]
    return any(ran & dom_r and m._is_intrinsic(j) for j, ran in enumerate(m._ranges()))


def decide_sdp_exists(g, caps=DEFAULT_CAPS):
    """Whether the shift presented by `g` has a synchronizing deterministic presentation.

    Holds exactly when every nonempty action is preceded by an
    intrinsically synchronizing one, that is when every nonzero domain
    meets the union U of the ranges of intrinsically synchronizing
    elements.  Their nonempty extensions are intrinsically synchronizing
    too (see :func:`is_intrinsically_sync_relation`), so U is the set of
    vertices reachable from those ranges.

    The monoid is enumerated breadth-first, but an element whose range
    lies inside the part of U found so far is never expanded: every
    extension of it has its range inside U too.  The search stops once
    every nonzero domain meets U.

    Parameters
    ----------
    g : deterministic essential LabeledGraph
    caps : Caps
        ``caps.relations`` bounds the elements enumerated, and
        ``caps.subsets`` the closures of :meth:`ActionMonoid._prepare`.
        An input whose whole monoid exceeds ``caps.relations`` can still
        get an answer.

    Raises
    ------
    CapExceededError
    """
    succ = _require_presentation(g).succ
    n = len(g.vertices)
    m = ActionMonoid(g, caps)
    uncovered = list(m._prepare()[0])
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
    the elements reachable from a cycle.  Those hold a nonempty
    non-intrinsically-synchronizing element exactly when some nonempty
    idempotent e of S+, the actions of nonempty words, is not
    intrinsically synchronizing:

    - An element c on a cycle satisfies ``c = c;s`` with s in S+, so
      ``c = c;e`` for the idempotent power e of s, and every element
      reachable from a cycle has the form ``a;e;b``.
    - If e is intrinsically synchronizing, so is every nonempty
      ``a;e;b`` (see :func:`is_intrinsically_sync_relation`).
    - Every idempotent e of S+ lies on a cycle, since ``e = e;e``.

    The idempotents other than the identity are the elements k with
    ``k;k == k``; the identity is in S+ exactly when some letter acts as
    a total permutation.

    The monoid is enumerated breadth-first, but an element is expanded
    only when it is nonempty and not intrinsically synchronizing.  The
    search answers False at the first nonempty idempotent of S+ that is
    not intrinsically synchronizing, and True when the queue drains.
    That is sound: take a nonempty element x that is never enumerated,
    and the longest prefix u of a word of x whose action e is
    enumerated.  The empty prefix acts as the identity, which is
    enumerated, so u exists; u is a proper prefix, and the action of the
    next longer one, e composed with a letter, is not enumerated, so e
    was not expanded.  Since ``x = e;v`` for the rest v of the word, e is
    nonempty, so e is intrinsically synchronizing, and so is its
    nonempty extension x.  Hence every nonempty idempotent that is not
    intrinsically synchronizing is enumerated, and judged when it is
    dequeued.

    Parameters
    ----------
    g : deterministic essential LabeledGraph
    caps : Caps
        As in :func:`decide_sdp_exists`.

    Raises
    ------
    CapExceededError
    """
    _require_presentation(g)
    m = ActionMonoid(g, caps)
    n = len(g.vertices)
    funcs, compose, pad = m._funcs, m._compose, m._pad
    zero = m._pack([n] * n)
    identity_in_s_plus = any(-1 not in t and len(set(t)) == n for t in m._generators.values())
    failed = False

    def expand(k):
        nonlocal failed
        f = funcs[k]
        if failed or f == zero or m._is_intrinsic(k):
            return False
        if (k or identity_in_s_plus) and compose(f, f + pad) == f:
            failed = True
            return False
        return True

    m._close(expand)
    return not failed


def _mask_tables(bits):
    """Subset-image tables over per-vertex masks, 16 entries per 4 vertices.

    ``tables[c][b]`` is the image mask of the subset ``b << 4*c``: the
    OR of ``bits[v]`` over the vertices v of the chunk that ``b``
    selects.  A decision builds its tables once (minimality once per
    candidate).
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
    """:func:`_mask_tables` of the :func:`_packed_bits` of n vertices in
    label blocks n bits wide."""
    return _mask_tables(_packed_bits(target_lists, n, n, 0, preimages))


def _packed_bits(target_lists, n, width, at=0, preimages=False):
    """The per-vertex masks of :func:`_mask_tables` for n vertices laid out
    at bits ``at`` up to ``at + n`` of label blocks `width` bits wide.

    Vertex v's mask has bit ``c*width + at + t`` when label c takes v to
    t; an empty entry of `target_lists` is a label defined nowhere.  With
    `preimages`, vertex t's mask has that bit for v instead, and label
    c's block of an image is the set of vertices c takes into the subset.
    """
    bits = [0] * n
    for c, targets in enumerate(target_lists):
        base = c * width + at
        if preimages:
            for v, t in enumerate(targets):
                if t >= 0:
                    bits[t] |= 1 << base + v
        else:
            for v, t in enumerate(targets):
                if t >= 0:
                    bits[v] |= 1 << base + t
    return bits


def _byte_tables(tables):
    """Subset-image tables 256 entries per 8 vertices, from the 16-entry
    tables of :func:`_mask_tables`: ``lo | hi`` over each pair of chunks,
    with a zero chunk to pad an odd count.

    :func:`_word_search` and :func:`_subset_closure` switch to them, and
    to :func:`_byte_image`, once they have stored 256 subsets, as many as
    a byte-wide table has entries.  The switch rides on the cap check: a
    search compares its stored count with ``min(cap, 256)`` and, reaching
    it below the cap, swaps tables and raises the limit to the cap.  The
    subsets, their order, the words, the rows and the cap counts do not
    depend on the width.  No DFA-battery search and, since subshift
    searches follower classes, no padded-family pair verdict stores 256
    subsets; ``shortest_sync_word`` and ``synchronizing_vertices`` on
    padded n >= 26 do, and the switch pays there.  Without it,
    ``shortest_sync_word`` on padded n = 36 and 41 took 6.4-6.6 and
    21.6-21.7 ms against 5.8-6.8 and 18.9-19.4 ms, and
    ``synchronizing_vertices`` on n = 36 took 5.7 against 5.0-5.1 ms
    (in-process, min of 11, three alternating runs each, shared 2-core
    VM); n = 26 ran slightly faster without it.

    Byte tables for every decision cut the DFA battery's throughput by
    15%, as its small graphs paid for the larger tables.  Other ways to
    switch, measured when the padded-family pair verdicts still searched
    vertex sets, as changes of that workload's median verdict time: the
    width chosen per call inside :func:`_image`, +4%; a check on every
    dequeued subset, +2.5%; switching after 128 dequeued subsets, +23%;
    byte tables from the start for masks of 48 bits or more, +6.5%.
    Caching byte tables on the compiled view raised the workload's peak
    RSS from 21.6 to 27.8 MiB (+29%) and saved nothing, as it builds fresh
    graphs on every pass.
    """
    chunks = iter(tables + [[0] * 16] if len(tables) % 2 else tables)
    return [[lo | hi for hi in t_hi for lo in t_lo] for t_lo, t_hi in zip(chunks, chunks)]


def _image(mask, tables):
    out = 0
    c = 0
    while mask:
        out |= tables[c][mask & 15]
        mask >>= 4
        c += 1
    return out


def _byte_image(mask, tables):
    out = 0
    c = 0
    while mask:
        out |= tables[c][mask & 255]
        mask >>= 8
        c += 1
    return out


def _word_search(tables, width, labels, start, live, goal, spare, cap, what):
    """Breadth-first search with parent pointers over the subsets reached
    from `start` under the packed `tables` of `labels` in blocks `width`
    bits wide, labels tried in order.

    A subset that misses `live` dies; one with at most `spare` (0 or 1)
    vertices in `goal` is a goal, tested on `start` and on each subset
    when first reached.  Returns the word to the first goal found, or None.
    Storing more than `cap` subsets raises ``CapExceededError(count, what)``.

    Every subset search that returns a word runs this loop.  Routing it
    through :func:`~sofic.graphs.shortest_word` instead, with a
    ``successors`` callback per subset, slowed ``shortest_sync_word`` and
    ``decide_subshift`` both ways on the padded family (n = 12..36,
    against renamed copies) from 210 to 265 ms, the medians of twelve
    alternating in-process runs on a shared 2-core VM.
    """
    parent = {start: None}
    found = start & goal
    if not found & (found - spare):
        return ()
    full = (1 << width) - 1
    indices = range(len(labels))
    image, limit = _image, min(cap, 256)
    order = [start]  # the breadth-first queue
    for mask in order:
        packed = image(mask, tables)
        for c in indices:
            nxt = packed & full
            packed >>= width
            if not nxt & live or nxt in parent:
                continue
            found = nxt & goal
            if not found & (found - spare):
                return _word_to(parent, mask, labels) + (labels[c],)
            if len(parent) >= limit:
                if limit == cap:
                    raise CapExceededError(len(parent) + 1, what)
                image, tables, limit = _byte_image, _byte_tables(tables), cap
            parent[nxt] = (mask, c)
            order.append(nxt)
    return None


def _subset_closure(tables, width, start, cap):
    """The nonzero subsets reached from `start` under the packed `tables`
    in blocks `width` bits wide, in breadth-first order (labels tried in
    order), each mapped to its row: its packed image, imaged once when it
    is dequeued (None until then).  Storing more than `cap` subsets raises
    ``CapExceededError(count, "subset count")``.

    A subset's children are read off its row label by label;
    deduplicating them with set operations instead slowed the 4000
    closures of a seed-1 DFA-battery benchmark pass from 110 to 156 ms.
    """
    rows = {start: None} if start else {}
    full = (1 << width) - 1
    image, limit = _image, min(cap, 256)
    order = list(rows)  # the breadth-first queue
    for mask in order:
        packed = rows[mask] = image(mask, tables)
        while packed:
            nxt = packed & full
            packed >>= width
            if nxt and nxt not in rows:
                if len(rows) >= limit:
                    if limit == cap:
                        raise CapExceededError(len(rows) + 1, "subset count")
                    image, tables, limit = _byte_image, _byte_tables(tables), cap
                rows[nxt] = None
                order.append(nxt)
    return rows


def synchronizing_vertices(g, caps=DEFAULT_CAPS):
    """The set of vertices some word synchronizes to, via subset search.

    Parameters
    ----------
    g : deterministic essential LabeledGraph

    Raises
    ------
    CapExceededError
    """
    gens = _require_presentation(g).targets.values()
    n = len(g.vertices)
    reached = _subset_closure(_packed_tables(gens, n), n, (1 << n) - 1, caps.subsets)
    return frozenset(g.vertices[m.bit_length() - 1] for m in reached if m.bit_count() == 1)


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
    view = _require_presentation(g)
    if not g.vertices:
        return None
    n = len(g.vertices)
    full, tables = (1 << n) - 1, _packed_tables(view.targets.values(), n)
    return _word_search(tables, n, view.labels, full, full, full, 1, caps.subsets, "subset count")


def subshift_witness(g, h, caps=DEFAULT_CAPS):
    """Decides containment of shifts, returning (holds, witness).

    Containment fails exactly when some word keeps `g` alive while
    killing `h`; the first such word in breadth-first order is the
    witness, searched on the follower classes of the union of both
    graphs (see :func:`_containments`).

    Parameters
    ----------
    g, h : deterministic essential LabeledGraphs
    caps : Caps
        ``caps.subsets`` bounds the stored pairs of class sets.

    Returns
    -------
    (bool, tuple or None)

    Raises
    ------
    CapExceededError
    """
    _require_presentation(g)
    _require_presentation(h)
    return next(_containments(g, h, caps))


def _joined_tables(lists, m):
    """The packed tables of target lists over m classes joined with
    themselves: one copy at the low m bits of each 2m-bit label block,
    one at the high."""
    return _mask_tables(_packed_bits(lists, m, 2 * m) + _packed_bits(lists, m, 2 * m, m))


def _containment(tables, width, labels, start, live, cap):
    """:func:`subshift_witness` on the subset `start` of a union, given its
    packed tables over `labels`: whether no word kills the part outside
    `live` and keeps the part inside alive, and the first word that does.
    Storing more than `cap` subsets raises."""
    if not start & live:
        return True, None
    witness = _word_search(tables, width, labels, start, live, ~live, 0, cap, "subset-pair count")
    return witness is None, witness


def _equal(tables, width, labels, n_g, caps):
    """Containment both ways between the first n_g vertices of a union and
    the rest, given its packed tables over every label of both, by the
    vertex-level search.  Minimality's candidate checks run it, since a
    quotient per candidate would cost more than the search it saves."""
    full, low = (1 << width) - 1, (1 << n_g) - 1
    return (
        _containment(tables, width, labels, full, low, caps.subsets)[0]
        and _containment(tables, width, labels, full, full ^ low, caps.subsets)[0]
    )


def _containments(g, h, caps):
    """:func:`_containment` of g's shift in h's, then of h's in g's, each
    run when it is asked for, on one follower quotient of the union of
    `g` and `h`.

    The quotient comes from :func:`~sofic.classify._quotient`, one target
    list per label of either graph, joined with itself as in
    :func:`decide_irreducibility` when a direction first searches.  The
    live half starts at the live graph's classes that the other graph
    does not hold (with none, there is no search), and the other half at
    all of the other graph's classes.  A dropped class is held by the
    other graph, so it never keeps the live part alive on a witness, and
    a label of the other graph alone kills the live part: the witnesses,
    and so the first one in breadth-first order, are those of the search
    over the vertices of both graphs.  The quotient is about half of a
    call's 33 us on pairs of graphs on at most 3 vertices (in-process,
    min of 20, shared 2-core VM) but pays on large inputs: padded n = 61,
    on which a search over the vertices overruns the default cap, answers
    in under 1 ms.
    """
    block, quotient = _quotient(g, h)
    m, n_g = block[-1], len(g.vertices)
    classes = set(block[:n_g]), set(block[n_g:-1])
    tables = None
    for ours, theirs in (classes, classes[::-1]):
        if ours <= theirs:  # no live class: no search and no table
            yield True, None
        else:
            tables = tables or _joined_tables(quotient.values(), m)
            start = sum(1 << b for b in ours - theirs) | sum(1 << b for b in theirs) << m
            yield _containment(tables, 2 * m, tuple(quotient), start, (1 << m) - 1, caps.subsets)


def decide_subshift(g, h, caps=DEFAULT_CAPS):
    """Whether the shift presented by `g` is contained in that of `h`."""
    return subshift_witness(g, h, caps)[0]


def decide_equality(g, h, caps=DEFAULT_CAPS):
    """Whether `g` and `h` present the same shift: containment both ways
    (see :func:`_containments`)."""
    _require_presentation(g)
    _require_presentation(h)
    return all(holds for holds, _ in _containments(g, h, caps))


def decide_irreducibility(g, caps=DEFAULT_CAPS):
    """Whether the shift presented by `g` is irreducible.

    Reads the follower quotient of `g` from
    :func:`~sofic.classify._quotient`, as ``is_sft_sync`` does: target
    lists over the follower classes.  The shift is irreducible exactly
    when the synchronizing classes form a terminal irreducible component
    whose restriction presents the whole shift.  A successor of a
    synchronizing class is synchronizing too, so they form a terminal
    component as soon as they form a component, and the restriction's
    images are the quotient's own: one table of the quotient joined with
    itself serves the class closure and the containment.

    Parameters
    ----------
    g : deterministic essential LabeledGraph

    Raises
    ------
    CapExceededError
    """
    labels = _require_presentation(g).labels
    if not g.vertices:
        return True
    block, quotient = _quotient(g)
    n, quotient = block[-1], quotient.values()
    tables = _joined_tables(quotient, n)
    full = (1 << n) - 1
    reached = _subset_closure(tables, 2 * n, full, caps.subsets)
    sync = sum(mask for mask in reached if mask.bit_count() == 1)
    succ = [{t[v] for t in quotient} - {-1} for v in range(n)]
    if not any(sum(1 << v for v in comp) == sync for comp in strong_components(succ)):
        return False
    # the restriction presents a subshift of the quotient's, so one
    # containment is enough
    return _containment(tables, 2 * n, labels, full | sync << n, full, caps.subsets)[0]


def decide_minimality(g, k, caps=DEFAULT_CAPS):
    """Whether `g`'s shift has a deterministic presentation on at most k vertices.

    For ``k >= |Q|`` `g` itself is one; ``k == 1`` asks whether the shift
    is full.  In between, for j = 2 .. k, all essential deterministic
    candidates with exactly j vertices over the alphabet of `g` are
    searched, pruned by the candidate's one- and two-letter language, and
    survivors are checked with the exact equality decider.  (A j-cycle on
    one label with loops on the rest presents the full shift.  Exactly j
    vertices is not monotone in j: the 4-cycle labeled abab has essential
    presentations on 2 and 4 vertices but none on 3.)  A candidate is one
    target list per label, each with its domain and range masks: the
    pruning tests whether a range meets a domain, essentiality whether
    the domains and the ranges each cover every vertex, and equality
    reads one packed table of the union of `g` and the candidate, g's
    part laid out once per j.

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
    labels = _require_presentation(g).labels
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k >= len(g.vertices):
        return True
    if k == 1:
        return is_universal(g)
    count = (k + 1) ** (k * len(labels))
    if count > caps.enumeration:
        raise CapExceededError(count, "enumeration candidate count")
    return any(_presented_on(g, j, caps) for j in range(2, k + 1))


def _presented_on(g, k, caps):
    """Whether an essential candidate on exactly k vertices presents g's shift."""
    n, view = len(g.vertices), g._compiled()
    sigma = view.labels

    # a label's options are the partial functions on k vertices with at
    # least one edge (every alphabet letter must occur), with their domain
    # and range masks: ab is a word exactly when a's range meets b's domain
    options = [
        (f, dom, ran)
        for f in product(range(-1, k), repeat=k)
        for dom, ran in [_masks(f)]
        if dom
    ]
    masks = {a: _masks(t) for a, t in view.targets.items()}
    two_letter = {(a, b) for a in sigma for b in sigma if masks[a][1] & masks[b][0]}

    # assign the most constrained labels first: sorted label order, with
    # the self-pair check folded into the pairwise one, took
    # decide_minimality(g, 2) over 1000 seeded DFA-battery graphs from
    # 357 to 5359 ms (medians of eight alternating in-process runs)
    domains = {
        a: [o for o in options if bool(o[2] & o[1]) == ((a, a) in two_letter)]
        for a in sigma
    }
    order = sorted(sigma, key=lambda a: (len(domains[a]), a))
    full = (1 << k) - 1
    # g's part of the union with each candidate, whose vertices follow g's
    g_bits = _packed_bits(view.targets.values(), n, n + k)

    def equal_candidate(assignment):
        chosen = [assignment[a] for a in sigma]
        dom = ran = 0
        for _, d, r in chosen:
            dom |= d
            ran |= r
        # an essential candidate has an edge out of and into every vertex
        if dom != full or ran != full:
            return False
        bits = g_bits + _packed_bits([o[0] for o in chosen], k, n + k, n)
        return _equal(_mask_tables(bits), n + k, sigma, n, caps)

    def search(pos, assignment):
        if pos == len(order):
            return equal_candidate(assignment)
        a = order[pos]
        joint = [
            (dom_b, ran_b, (a, b) in two_letter, (b, a) in two_letter)
            for b, (_, dom_b, ran_b) in assignment.items()
        ]
        for option in domains[a]:
            _, dom, ran = option
            if all(
                bool(ran & dom_b) == ab and bool(ran_b & dom) == ba
                for dom_b, ran_b, ab, ba in joint
            ):
                assignment[a] = option
                if search(pos + 1, assignment):
                    return True
                del assignment[a]
        return False

    return search(0, {})


def _masks(targets):
    """The domain and range masks of a partial function, -1 for undefined."""
    return (
        sum(1 << v for v, t in enumerate(targets) if t >= 0),
        sum({1 << t for t in targets if t >= 0}),
    )
