"""Exact deciders for general deterministic presentations.

Subshift, equality, sync-word existence, SFT, existence of a
synchronizing presentation, irreducibility and minimality have no known
polynomial algorithms on reducible inputs, so this module decides them
by search over reachable vertex subsets or sets of them, and builds no
graphs.  Each mechanism is described where it is built:

* word actions: :class:`ActionRelation` at the public boundary, stored
  as byte strings or, above 255 vertices, tuples (:func:`_action_codec`);
* the action monoid: a breadth-first closure with parent pointers
  (:class:`ActionMonoid`), built for its queries and display only;
* left-image sets: the ranges of an action's left extensions
  (:func:`_left_sets`), judged against the domains (:func:`_intrinsic`)
  by :func:`decide_sdp_exists` and the monoid's queries;
* packed subset tables: a subset is an int mask imaged under every label
  at once (:func:`_packed_bits`, :func:`_mask_tables`), in one closure
  routine (:func:`_subset_closure`) or one search for a word
  (:func:`_word_search`), both switching to byte-wide tables past 256
  stored subsets (:func:`_byte_tables`);
* the follower-set automaton: the closure from the full vertex set
  (:func:`_range_closure`) refined to the follower sets of words
  (:func:`_follower_sets`), built once per compiled view, on whose class
  pairs :func:`decide_sft` searches for a cycle and whose class counts
  bound :func:`decide_minimality`;
* pair searches: subshift and equality search pairs of sets of follower
  classes of the union of both graphs (:func:`_containments`), and
  minimality's candidate checks pairs of vertex sets (:func:`_equal`);
* caps: every search is bounded by a field of :class:`Caps` and raises
  :class:`CapExceededError` past it.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .classify import _class_targets, _list_rounds, _quotient, is_universal
from .errors import CapExceededError, HostMismatchError, NotAnElementError
from .graphs import (
    strong_components,
    _require_deterministic,
    _require_presentation,
    _word_to,
)


@dataclass(frozen=True)
class Caps:
    """Search-size limits: ``subsets`` for subset and subset-pair searches,
    the follower-set closure among them, ``relations`` for
    :func:`action_monoid`'s elements and :func:`decide_sdp_exists`'s
    left-image sets, ``enumeration`` for minimality's candidates."""

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
    undefined.  Returns ``(pack, compose, letters)``: ``pack`` turns a
    sequence of indices into an action, and ``compose(func, letters[c])``
    is the action `func` followed by the partial function
    ``target_lists[c]`` (-1 for undefined), which maps the sink to
    itself.  Up to 255 vertices actions are byte strings and composing is
    one ``bytes.translate`` over a 256-byte table; above that they are
    tuples.  This is the only place where storage depends on n.
    """
    exts = [[n if t < 0 else t for t in targets] for targets in target_lists]
    if n <= 255:
        pad = bytes([n]) * (256 - n)
        return bytes, bytes.translate, [bytes(ext) + pad for ext in exts]
    return tuple, _tuple_compose, [(*ext, n) for ext in exts]


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
    identity until :meth:`_close` enumerates the rest.
    """

    def __init__(self, graph, caps):
        self.graph = graph
        self._caps = caps
        self._generators = graph._compiled().targets
        n = len(graph.vertices)
        self._pack, self._compose, self._letters = _action_codec(
            n, self._generators.values()
        )
        identity = self._pack(range(n))
        self._funcs = [identity]
        self._index = {identity: 0}
        self._parents = [None]

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

    @cached_property
    def _analysis(self):
        """:func:`_domains_and_ranges` of the graph, for the queries."""
        return _domains_and_ranges(self.graph._compiled(), self._caps.subsets)

    def _close(self):
        """Enumerates the elements breadth-first, recording parent pointers.

        Element k is composed with every letter when it is dequeued, and
        elements are dequeued in id order.

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
            for c, letter in enumerate(letters):
                nxt = compose(func, letter)
                if nxt not in index:
                    j = len(funcs)
                    if j >= cap:
                        raise CapExceededError(j + 1, "monoid element count")
                    index[nxt] = j
                    funcs.append(nxt)
                    parents.append((k, c))


def action_monoid(g, caps=DEFAULT_CAPS):
    """The monoid of all word actions on `g`, enumerated breadth-first,
    for its queries and for display: no decider builds it.

    Parameters
    ----------
    g : deterministic LabeledGraph
    caps : Caps
        ``caps.relations`` bounds the element count.  A closed monoid has
        no more nonzero domains, ranges or left-image sets than elements,
        so its queries' closures (:func:`_domains_and_ranges`,
        :func:`_left_sets`) stay within ``caps.relations``, and within
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


def _domains_and_ranges(view, cap):
    """The nonzero domains of all word actions on a compiled view, and the
    range automaton, each by a closure bounded by `cap`, the domains first.

    As ``dom(c;w)`` is the preimage of ``dom(w)`` under c, the domains are
    the subsets reached from the full vertex set under preimages, and the
    nonzero ranges those reached under images.  The range closure's rows,
    with 0 mapped to 0, are the automaton: label c's image at bits ``c*n``.
    """
    gens, n = view.targets.values(), view.n
    doms = _subset_closure(_packed_tables(gens, n, preimages=True), n, (1 << n) - 1, cap)
    steps = _range_closure(gens, n, cap)
    steps[0] = 0
    return doms, steps


def _intrinsic(left, doms):
    """Whether an action r with left-image set `left` is intrinsically
    synchronizing, given the nonzero domains `doms`: as extensions S and T
    keep ``S;r;T`` alive exactly when ``ran(S;r)`` meets ``dom T``, every
    member of `left`, the nonzero ``ran(S;r)``, must meet every nonzero
    ``dom T & ran r``, where ``ran r`` is the largest member (S = 1)."""
    ran_r = max(left, default=0)
    values = {right & ran_r for right in doms} - {0}
    return all(x & v for x in left for v in values)


def _left_sets(steps, n, count, cap, expand):
    """The left-image sets L(w), the nonzero ranges ``ran(u;w)`` over all
    u, breadth-first over `count` labels: L() is the nonzero ranges, and
    L(wc) is L(w) imaged under c by the range automaton `steps`, less 0.

    Each set is yielded once, when dequeued, after it is expanded if
    ``expand(set)`` is true.  A child is imaged, and stored if new, only
    when dequeued, so a caller that stops early stores no more.  Storing
    more than `cap` sets raises ``CapExceededError(count, "left-image set
    count")``; the start is stored unchecked.
    """
    full, start = (1 << n) - 1, frozenset(steps) - {0}
    seen, queue = {start}, [(start, None)]  # (parent set, label) pairs
    for left, c in queue:
        if c is not None:
            left = frozenset(steps[x] >> c * n & full for x in left) - {0}
            if left in seen:
                continue
            if len(seen) >= cap:
                raise CapExceededError(len(seen) + 1, "left-image set count")
            seen.add(left)
        if expand(left):
            queue.extend((left, c) for c in range(count))
        yield left


def is_intrinsically_sync_relation(m, r):
    """Whether the element `r` of the monoid `m` is intrinsically synchronizing.

    Means: for all elements S, T, if ``S;r`` and ``r;T`` are nonempty
    then so is ``S;r;T``.  For a word w in the language, this holds of
    its action exactly when w is intrinsically synchronizing for the
    presented shift.  Every nonempty extension ``a;r;b`` of such an r is
    one too: if ``S;a;r;b`` and ``a;r;b;T`` are nonempty, so are
    ``S;a;r`` and ``r;b;T``, hence ``S;a;r;b;T``.  Judged by
    :func:`_intrinsic` on the left-image set of `r`'s witness.

    Raises
    ------
    NotAnElementError
    """
    k = m._require_element(r)
    (doms, steps), n = m._analysis, len(m.graph.vertices)
    left, full = frozenset(steps) - {0}, (1 << n) - 1
    for c in _word_to(m._parents, k, range(len(m._letters))):
        left = frozenset(steps[x] >> c * n & full for x in left) - {0}
    return _intrinsic(left, doms)


def preceded_by_intrinsic_sync(m, r):
    """Whether some intrinsically synchronizing element S has ``S;r`` nonempty.

    Scans every element's left-image set, whose largest member is its
    range: no more sets than elements, so within `m`'s ``caps.relations``.

    Raises
    ------
    NotAnElementError
    """
    m._require_element(r)
    dom_r = _masks(r.targets)[0]
    (doms, steps), n = m._analysis, len(m.graph.vertices)
    lefts = _left_sets(steps, n, len(m._letters), m._caps.relations, lambda _: True)
    return any(max(left, default=0) & dom_r and _intrinsic(left, doms) for left in lefts)


def decide_sdp_exists(g, caps=DEFAULT_CAPS):
    """Whether the shift presented by `g` has a synchronizing deterministic presentation.

    Holds exactly when every nonempty action is preceded by an
    intrinsically synchronizing one, that is when every nonzero domain
    meets the union U of the ranges of intrinsically synchronizing
    actions.  Their nonempty extensions are intrinsically synchronizing
    too (see :func:`is_intrinsically_sync_relation`), so U is the set of
    vertices reachable from those ranges, found by imaging masks under
    per-vertex successor masks.

    The search runs over left-image sets, not actions: an action w's
    range is the largest member of L(w), its verdict reads L(w) alone
    (:func:`_intrinsic`), and L(wc) is L(w) imaged under c.  So whether w
    adds to U, and every extension of w, depend only on L(w), and there
    are no more sets than actions.

    U starts as the vertices reachable from the singleton ranges of the
    range closure: an action r of rank one is intrinsically
    synchronizing, as nonempty ``S;r`` and ``r;T`` both pass through its
    one range vertex.  Then the sets are searched breadth-first
    (:func:`_left_sets`), but one whose range lies inside the part of U
    found so far is never expanded: every extension has its range inside
    U too.  The search stops once every nonzero domain meets U, and does
    not start when the singletons cover them all.

    Parameters
    ----------
    g : deterministic essential LabeledGraph
    caps : Caps
        ``caps.relations`` bounds the left-image sets stored, and
        ``caps.subsets`` the closures of :func:`_domains_and_ranges`.  An
        input whose whole monoid exceeds ``caps.relations`` can still get
        an answer.

    Raises
    ------
    CapExceededError
    """
    view = _require_presentation(g)
    # in label blocks 0 bits wide, a vertex's mask is the OR of its successors
    tables = _mask_tables(_packed_bits(view.targets.values(), view.n, 0))

    def reach(new, covered):
        """`covered`, closed under successors, with all that `new` reaches."""
        while new:
            covered |= new
            new = _image(new, tables) & ~covered
        return covered

    doms, steps = _domains_and_ranges(view, caps.subsets)
    covered = reach(sum(r for r in steps if r.bit_count() == 1), 0)
    uncovered = [d for d in doms if not d & covered]

    def expand(left):
        """Whether w's range leaves U and w is not intrinsically synchronizing."""
        nonlocal uncovered, covered
        new = max(left, default=0) & ~covered
        if new and _intrinsic(left, doms):
            covered = reach(new, covered)
            uncovered = [d for d in uncovered if not d & covered]
            return False
        return new

    lefts = _left_sets(steps, view.n, len(view.labels), caps.relations, expand)
    return not uncovered or any(not uncovered for _ in lefts)


def decide_sft(g, caps=DEFAULT_CAPS):
    """Whether the shift presented by `g` is a shift of finite type.

    Reads the follower-set graph of :func:`_follower_sets`: its classes
    are the follower sets F(w) of words w, F() that of the empty word,
    and a label a steps F(w) to F(wa).  The shift is an SFT exactly when
    no cycle runs through unordered pairs of distinct classes stepped
    together by each label, a pair whose sides merge or that loses a
    side having no edge.  For the shift is M-step exactly when F(uw) =
    F(w) whenever uw is a word and |w| >= M (Lind and Marcus, Thm
    2.1.8):

    - If no cycle is reachable from a pair {F(), F(u)}, no path from
      one has M steps, M the number of pairs; so for |w| >= M the pair
      {F()·w, F(u)·w} = {F(w), F(uw)}, both sides defined, has merged.
    - A cycle through {F(u), F(v)}, repeated, gives arbitrarily long w
      with F(uw) != F(vw), both defined; one of them, say F(uw),
      differs from F(w), and then F(up) != F(p) for every prefix p of
      w, as a merged pair stays merged.  So the path from {F(), F(u)}
      along w is as long as w, and the shift is M-step for no M.

    So the iterative depth-first search, which stops at the first pair
    it finds on its own path, starts only from the pairs holding F(),
    the class of the full vertex set.

    Parameters
    ----------
    g : deterministic essential LabeledGraph
    caps : Caps
        ``caps.subsets`` bounds the one subset closure.

    Raises
    ------
    CapExceededError
    """
    m, lists = _follower_sets(_require_presentation(g), caps.subsets)

    def steps(pair):
        i, j = divmod(pair, m)
        for t in lists:
            a, b = t[i], t[j]
            if a >= 0 and b >= 0 and a != b:
                yield a * m + b if a < b else b * m + a

    on_path, finished = set(), set()
    for start in range(1, m):  # the pair {0, j} is j
        if start in finished:
            continue
        on_path.add(start)
        stack = [(start, steps(start))]
        while stack:
            pair, rest = stack[-1]
            for nxt in rest:
                if nxt in on_path:
                    return False
                if nxt not in finished:
                    on_path.add(nxt)
                    stack.append((nxt, steps(nxt)))
                    break
            else:
                stack.pop()
                on_path.remove(pair)
                finished.add(pair)
    return True


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


def _range_closure(gens, n, cap):
    """:func:`_subset_closure` from the full set of n vertices under the
    images of the label target lists `gens`: the nonzero sets V·w."""
    return _subset_closure(_packed_tables(gens, n), n, (1 << n) - 1, cap)


def _follower_sets(view, cap):
    """The follower-set graph of the shift presented by an essential
    deterministic graph, given its compiled view.

    The rows of :func:`_range_closure` are a deterministic automaton on
    the nonzero sets V·w, and the follower set of V·w is that of the
    word w, F(w).  Read as target lists, 0 mapped to -1, they are
    refined by :func:`~sofic.classify._list_rounds`, so the classes are
    the distinct F(w) (Lind and Marcus, Sec. 3.2), class 0 the class of
    V.  Returns the class count and, per label, each class's target or
    -1.  Storing more than `cap` subsets raises.

    The view keeps the result with the closure's subset count, so
    :func:`decide_sft` and :func:`decide_minimality` on one graph build
    it once; a closure that raised keeps nothing.  A later call with a
    cap below the kept count raises the count and message the closure
    would: the closure stores its start unchecked, so under a cap below 1
    it overruns at the second subset.
    """
    if view._fsg is None:
        n = view.n
        full = (1 << n) - 1
        rows = _range_closure(view.targets.values(), n, cap)
        index = dict(zip(rows, range(len(rows))))
        index[0] = -1
        lists = [
            [index[row >> c * n & full] for row in rows.values()]
            for c in range(len(view.labels))
        ]
        block, signatures = _list_rounds(len(rows), lists)
        view._fsg = len(rows), block[-1], _class_targets(block, signatures)
    count, m, lists = view._fsg
    limit = max(cap, 1)
    if count > limit:
        raise CapExceededError(limit + 1, "subset count")
    return m, lists


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
    reached = _range_closure(gens, n, caps.subsets)
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
    is full.  In between, the follower-set graph of :func:`_follower_sets`
    answers when it can:

    - True when its essential part has at most k classes, since that part
      is a deterministic presentation of the shift.
    - False when it has more than 2**k - 1 classes, since the follower
      set of w is fixed by the set U·w of a presentation on vertices U,
      and on k vertices at most 2**k - 1 such sets are nonempty.

    Otherwise, or when its closure stores more than ``caps.subsets``
    subsets, for j = 2 .. k all essential deterministic candidates with
    exactly j vertices over the alphabet of `g` are searched, pruned by
    the candidate's one- and two-letter language, and survivors are
    checked with the exact equality decider.  (A j-cycle on one label
    with loops on the rest presents the full shift.  Exactly j vertices
    is not monotone in j: the 4-cycle labeled abab has essential
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
    caps : Caps
        ``caps.enumeration`` bounds the candidate count, checked before
        anything else; ``caps.subsets`` bounds the follower-set closure,
        past which the candidate search answers alone, and each equality
        check of the search.

    Raises
    ------
    CapExceededError
        When the candidate count ``(k+1)**(k*|alphabet|)`` exceeds
        ``caps.enumeration``.
    """
    view = _require_presentation(g)
    labels = view.labels
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k >= len(g.vertices):
        return True
    if k == 1:
        return is_universal(g)
    count = (k + 1) ** (k * len(labels))
    if count > caps.enumeration:
        raise CapExceededError(count, "enumeration candidate count")
    try:
        m, lists = _follower_sets(view, caps.subsets)
    except CapExceededError:
        pass
    else:
        if m >= 1 << k:
            return False
        if _essential_count(m, lists) <= k:
            return True
    return any(_presented_on(g, j, caps) for j in range(2, k + 1))


def _essential_count(m, lists):
    """The number of the m states of the automaton with target lists
    `lists` that lie on a bi-infinite path: those left when states with
    no edge in or no edge out are dropped until none is."""
    alive = set(range(m))
    while True:
        heads = {t[v] for t in lists for v in alive}
        kept = {v for v in alive if v in heads and any(t[v] in alive for t in lists)}
        if len(kept) == len(alive):
            return len(alive)
        alive = kept


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
