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
synchronizing-presentation questions; the SFT test needs only the
nonempty idempotents of the actions of nonempty words (see
:func:`decide_sft`).

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

Subsets are bit masks over vertex indices, imaged 4 vertices at a time
through one 16-entry table per chunk.  One packed table images a subset
under every label at once: label c's target t of a vertex sits at bit
``c*n + t`` of that vertex's mask.  A subset pair is one mask over the
disjoint union of the two graphs, g's vertices at the low n_g bits and
h's above, with one packed table of width ``n_g + n_h``: g is alive while
the mask meets the low bits, and h is killed once it misses the high
ones; containment the other way reads the same table.  Tables are built
once per decision.  Caching 8-bit tables on the compiled view raised the
peak RSS of the benchmark's padded-family workload from 21.6 to 27.8 MiB
(+29%) and saved nothing, as it builds fresh graphs on every pass.
Building 8-bit chunk tables (256 entries per 8 vertices) per decision
raised its throughput from about 380 to 430 verdicts/s but cut that of
the DFA reduction battery, whose small graphs pay for the larger tables
on every call, from 2768 to 2351 (-15%; ``bench/run.py``, 15 s runs on a
shared 2-core VM); a chunk width chosen by size would be one more knob.

The deciders build no graphs.  Irreducibility works on the target lists
of the follower quotient over class ids, minimality on the target lists
of each candidate.  The one exception is minimality for k = 1, which asks
:func:`~sofic.classify.is_universal` and so builds the one-vertex full
shift.

Every search is guarded by a cap and raises :class:`CapExceededError`
when an instance grows past desk scale.
"""

from collections import deque
from dataclasses import dataclass
from itertools import product

from .classify import _blocks, is_universal
from .errors import CapExceededError, HostMismatchError, NotAnElementError
from .graphs import (
    alphabet,
    reachable_indices,
    strong_components,
    _require_deterministic,
    _require_essential,
)


@dataclass(frozen=True)
class Caps:
    """Search-size limits: reachable subsets, monoid elements, enumeration candidates."""

    subsets: int = 2**18
    relations: int = 2**18
    enumeration: int = 10**6


DEFAULT_CAPS = Caps()


def _require(g):
    _require_deterministic(g)
    _require_essential(g)


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
    _require_deterministic(g)
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
    exts = [[n if t < 0 else t for t in targets] + [n] for targets in target_lists]
    if n <= 255:
        pad = [n] * (256 - n)
        return bytes, bytes.translate, [bytes(ext + pad[1:]) for ext in exts], bytes(pad)
    return tuple, _tuple_compose, [tuple(ext) for ext in exts], (n,)


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
        self._pack, self._compose, self._letters, self._pad = _action_codec(
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
            n = len(self.graph.vertices)
            tables = _packed_tables(gens, n, preimages=True)
            doms = _subset_closure(tables, n, len(gens), (1 << n) - 1, self._caps.subsets)
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
    _require_deterministic(g)
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
    m._require_element(r)
    dom_r = _masks(r.targets)[0]
    return any(ran & dom_r and m._is_intrinsic(j) for j, ran in enumerate(m._ranges()))


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
    gens = g._compiled().targets.values()
    ranges = _subset_closure(_packed_tables(gens, n), n, len(gens), (1 << n) - 1, caps.subsets)
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
    the elements reachable from a cycle.  Those hold a nonempty
    non-intrinsically-synchronizing element exactly when some nonempty
    idempotent e of S+, the actions of nonempty words, is not
    intrinsically synchronizing:

    - An element c on a cycle satisfies ``c = c;s`` with s in S+, so
      ``c = c;e`` for the idempotent power e of s, and every element
      reachable from a cycle has the form ``a;e;b``.
    - Intrinsic synchronization is closed under extension on both
      sides: if ``a;e;b`` is nonempty and e is intrinsically
      synchronizing, so is ``a;e;b``.
    - Every idempotent e of S+ lies on a cycle, since ``e = e;e``.

    The idempotents other than the identity are the elements k with
    ``k;k == k``; the identity is in S+ exactly when some letter acts as
    a total permutation.  The whole monoid is enumerated first, so
    ``caps.relations`` bounds it as in :func:`action_monoid`.

    Parameters
    ----------
    g : deterministic essential LabeledGraph

    Raises
    ------
    CapExceededError
    """
    _require(g)
    m = action_monoid(g, caps.relations)
    n = len(g.vertices)
    gens = m._generators.values()
    # the nonzero ranges are the subsets reached from the full set, no
    # more of them than elements, so this closure stays under the cap
    ranges = _subset_closure(_packed_tables(gens, n), n, len(gens), (1 << n) - 1, m._caps.subsets)
    m._left[0] = m._intern(frozenset(ranges))
    funcs, compose, pad = m._funcs, m._compose, m._pad
    idempotents = [
        k for k in range(1, len(funcs)) if compose(funcs[k], funcs[k] + pad) == funcs[k]
    ]
    if any(-1 not in t and len(set(t)) == n for t in gens):
        idempotents.append(0)
    zero = m._pack([n] * n)
    return all(m._is_intrinsic(k) for k in idempotents if funcs[k] != zero)


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

    Label c takes bits ``c*n`` up to ``(c+1)*n``, so that a subset's image
    is every label's image side by side (see :func:`_packed_bits`).
    """
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
        for v, t in enumerate(targets):
            if t >= 0:
                src, dst = (t, v) if preimages else (v, t)
                bits[src] |= 1 << base + dst
    return bits


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


def _word_search(tables, width, labels, start, live, goal, spare, cap, what):
    """Breadth-first search with parent pointers over the subsets reached
    from `start` under the packed `tables` of `labels` in blocks `width`
    bits wide, labels tried in order.

    A subset that misses `live` dies; one with at most `spare` (0 or 1)
    vertices in `goal` is a goal, tested on `start` and on each subset
    when first reached.  Returns the parent pointers of the subsets stored
    and the word to the first goal found, or None.  Storing more than
    `cap` subsets raises ``CapExceededError(count, what)``.
    """
    parent = {start: None}
    found = start & goal
    if not found & (found - spare):
        return parent, ()
    full = (1 << width) - 1
    indices = range(len(labels))
    queue = deque(parent)
    while queue:
        mask = queue.popleft()
        packed = _image(mask, tables)
        for c in indices:
            nxt = packed & full
            packed >>= width
            if not nxt & live or nxt in parent:
                continue
            found = nxt & goal
            if not found & (found - spare):
                word = [labels[c]]
                while parent[mask] is not None:
                    mask, c = parent[mask]
                    word.append(labels[c])
                return parent, tuple(reversed(word))
            if len(parent) >= cap:
                raise CapExceededError(len(parent) + 1, what)
            parent[nxt] = (mask, c)
            queue.append(nxt)
    return parent, None


def _subset_closure(tables, width, count, start, cap):
    """The nonzero subsets reached from `start` under `count` labels, as the
    keys of a dict (see :func:`_word_search`, where no nonzero subset has
    no vertex in `full`, so none is a goal)."""
    if not start:
        return {}
    full = (1 << width) - 1
    return _word_search(tables, width, range(count), start, full, full, 0, cap, "subset count")[0]


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
    gens = g._compiled().targets.values()
    n = len(g.vertices)
    reached = _subset_closure(_packed_tables(gens, n), n, len(gens), (1 << n) - 1, caps.subsets)
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
    _require(g)
    if not g.vertices:
        return None
    n = len(g.vertices)
    targets = g._compiled().targets
    full = (1 << n) - 1
    return _word_search(
        _packed_tables(targets.values(), n), n, tuple(targets), full, full, full, 1,
        caps.subsets, "subset count",
    )[1]


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
    tables, width = _union_tables(g, h, labels)
    return _containment(tables, width, labels, (1 << width) - 1, (1 << len(g.vertices)) - 1, caps)


def _union_tables(g, h, labels):
    """The packed image tables over `labels` of the disjoint union of `g`
    and `h`, g's vertices first, and their width; a label that a graph
    lacks leaves its part of the label's block empty."""
    n_g = len(g.vertices)
    width = n_g + len(h.vertices)
    lists_g, lists_h = ([x._compiled().targets.get(a, ()) for a in labels] for x in (g, h))
    bits = _packed_bits(lists_g, n_g, width) + _packed_bits(lists_h, width - n_g, width, n_g)
    return _mask_tables(bits), width


def _containment(tables, width, labels, start, live, caps):
    """:func:`subshift_witness` on the subset `start` of a union, given its
    packed tables over `labels`: whether no word kills the part outside
    `live` and keeps the part inside alive, and the first word that does."""
    if not start & live:
        return True, None
    witness = _word_search(
        tables, width, labels, start, live, ~live, 0, caps.subsets, "subset-pair count"
    )[1]
    return witness is None, witness


def _equal(tables, width, labels, n_g, caps):
    """Containment both ways between the first n_g vertices of a union and
    the rest, given its packed tables over every label of both."""
    full, low = (1 << width) - 1, (1 << n_g) - 1
    return (
        _containment(tables, width, labels, full, low, caps)[0]
        and _containment(tables, width, labels, full, full ^ low, caps)[0]
    )


def decide_subshift(g, h, caps=DEFAULT_CAPS):
    """Whether the shift presented by `g` is contained in that of `h`."""
    return subshift_witness(g, h, caps)[0]


def decide_equality(g, h, caps=DEFAULT_CAPS):
    """Whether `g` and `h` present the same shift (containment both ways)."""
    _require(g)
    _require(h)
    labels = tuple(sorted(set(g._compiled().labels) | set(h._compiled().labels)))
    tables, width = _union_tables(g, h, labels)
    return _equal(tables, width, labels, len(g.vertices), caps)


def decide_irreducibility(g, caps=DEFAULT_CAPS):
    """Whether the shift presented by `g` is irreducible.

    Works on the follower quotient of `g`, kept as target lists over the
    follower classes: the shift is irreducible exactly when the
    synchronizing classes form a terminal irreducible component whose
    restriction presents the whole shift.  A successor of a
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
    _require(g)
    if not g.vertices:
        return True
    block = _blocks(g)
    # class ids come in first-member order and the sink's is the class count
    n = block[-1]
    quotient = []
    for targets in g._compiled().targets.values():
        moved = [-1] * n
        for v, t in enumerate(targets):
            if t >= 0:
                moved[block[v]] = block[t]
        quotient.append(moved)
    tables = _mask_tables(_packed_bits(quotient, n, 2 * n) + _packed_bits(quotient, n, 2 * n, n))
    full = (1 << n) - 1
    reached = _subset_closure(tables, 2 * n, len(quotient), full, caps.subsets)
    sync = sum(mask for mask in reached if mask.bit_count() == 1)
    succ = [{t[v] for t in quotient} - {-1} for v in range(n)]
    if not any(sum(1 << v for v in comp) == sync for comp in strong_components(succ)):
        return False
    # the restriction presents a subshift of the quotient's, so one
    # containment is enough
    return _containment(tables, 2 * n, g._compiled().labels, full | sync << n, full, caps)[0]


def decide_minimality(g, k, caps=DEFAULT_CAPS):
    """Whether the shift presented by `g` has a k-vertex deterministic presentation.

    For ``k >= |Q|`` the answer is yes (superfluous vertices can always
    be added); ``k == 1`` asks whether the shift is full.  In between,
    all essential deterministic candidates with exactly k vertices over
    the alphabet of `g` are searched, pruned by the candidate's one- and
    two-letter language, and survivors are checked with the exact
    equality decider.  A candidate is one target list per label, each
    with its domain and range masks: the pruning tests whether a range
    meets a domain, essentiality whether the domains and the ranges each
    cover every vertex, and equality reads one packed table of the union
    of `g` and the candidate, g's part laid out once per call.

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

    # a label's options are the partial functions on k vertices with at
    # least one edge (every alphabet letter must occur), with their domain
    # and range masks: ab is a word exactly when a's range meets b's domain
    options = [
        (f, dom, ran)
        for f in product(range(-1, k), repeat=k)
        for dom, ran in [_masks(f)]
        if dom
    ]
    masks = {a: _masks(t) for a, t in g._compiled().targets.items()}
    two_letter = {(a, b) for a in sigma for b in sigma if masks[a][1] & masks[b][0]}

    # assign the most constrained labels first
    domains = {
        a: [o for o in options if bool(o[2] & o[1]) == ((a, a) in two_letter)]
        for a in sigma
    }
    order = sorted(sigma, key=lambda a: (len(domains[a]), a))
    full = (1 << k) - 1
    # g's part of the union with each candidate, whose vertices follow g's
    g_bits = _packed_bits(g._compiled().targets.values(), n, n + k)

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
