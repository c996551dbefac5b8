"""Instance generators: reductions from DFA problems and extremal families.

The generators turn DFA-intersection and DFA-union instances into
presentations whose shift-theoretic properties mirror the automata
question, which makes every correctness statement about them a runnable
test: union universality lines up with equality/irreducibility/SDP
existence of the first construction and with SFT/minimality of the
second, and intersection nonemptiness lines up with sync-word existence
of the third.

The special symbols of the constructions are spelled as the reserved
tokens ``lm`` (left marker into a machine), ``rm`` (right marker out),
``st`` (pre-initial loop), ``ter`` (terminal loop), and ``ell``
(re-entry).  Input alphabets containing any of them are rejected.

Also here: a family of (k+1) three-state DFAs over {0..k} whose shortest
common word has length 2**k, the word that attains it, and the padded
presentation family whose shortest synchronizing word is exponential in
the vertex count.
"""

from .errors import AlphabetClashError, AllLanguagesEmptyError, TooSmallError
from .graphs import LabeledGraph, induced_subgraph

LEFT = "lm"
RIGHT = "rm"
STAR = "st"
TERM = "ter"
ELL = "ell"
RESERVED_LABELS = (LEFT, RIGHT, STAR, TERM, ELL)


class MultiEntryDfa:
    """A fully deterministic automaton with several entry states.

    A word is accepted when reading it from at least one entry state ends
    in an accepting state.

    Parameters
    ----------
    states : iterable of str
    alphabet : iterable of str
    delta : dict mapping (state, label) to state, total on states x alphabet
    starts : nonempty sequence of states, in order
    accepting : iterable of states
    """

    __slots__ = ("states", "alphabet", "delta", "starts", "accepting")

    def __init__(self, states, alphabet, delta, starts, accepting):
        self.starts = tuple(starts)
        if not self.starts:
            raise ValueError("need at least one entry state")
        self.states = tuple(sorted(set(states)))
        self.alphabet = tuple(sorted(set(alphabet)))
        self.accepting = frozenset(accepting)
        if self.starts[0] not in self.states:
            raise ValueError(f"start state {self.starts[0]!r} is not a state")
        if not self.accepting <= set(self.states):
            raise ValueError("accepting states must be states")
        expected = {(q, a) for q in self.states for a in self.alphabet}
        if set(delta) != expected:
            raise ValueError("transition function must be total on states x alphabet")
        if not set(delta.values()) <= set(self.states):
            raise ValueError("transition targets must be states")
        self.delta = dict(delta)
        for s in self.starts:
            if s not in self.states:
                raise ValueError(f"entry state {s!r} is not a state")

    def step(self, q, w):
        for a in w:
            q = self.delta[(q, a)]
        return q

    def accepts(self, w):
        return any(self.step(s, w) in self.accepting for s in self.starts)

    def reachable(self):
        """States reachable from an entry state."""
        seen = set(self.starts)
        frontier = list(seen)
        while frontier:
            q = frontier.pop()
            for a in self.alphabet:
                t = self.delta[(q, a)]
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return frozenset(seen)

    def _key(self):
        # the class is part of the key, so a Dfa never equals a MultiEntryDfa
        return (
            type(self),
            self.states,
            self.alphabet,
            frozenset(self.delta.items()),
            self.starts,
            self.accepting,
        )

    def __eq__(self, other):
        if not isinstance(other, MultiEntryDfa):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Dfa(MultiEntryDfa):
    """A fully deterministic automaton: total transitions, one start state.

    The multiple-entry automaton whose only entry state is `start`.
    """

    __slots__ = ("start",)

    def __init__(self, states, alphabet, delta, start, accepting):
        super().__init__(states, alphabet, delta, (start,), accepting)
        self.start = start

    def complemented(self):
        return Dfa(
            self.states,
            self.alphabet,
            self.delta,
            self.start,
            set(self.states) - self.accepting,
        )

    def __repr__(self):
        return (
            f"Dfa(states={self.states!r}, alphabet={self.alphabet!r}, "
            f"start={self.start!r}, accepting={sorted(self.accepting)!r})"
        )


def _check_reserved(alphabet):
    clash = set(alphabet) & set(RESERVED_LABELS)
    if clash:
        raise AlphabetClashError(
            f"input alphabet uses reserved tokens {sorted(clash)}"
        )


def _check_shared_alphabet(dfas):
    if not dfas:
        raise ValueError("need at least one automaton")
    sigma = dfas[0].alphabet
    if any(d.alphabet != sigma for d in dfas):
        raise ValueError("all automata must share one alphabet")
    _check_reserved(sigma)
    return sigma


def _machine(i, automaton, keep):
    """The vertex name ``m{i}_{q}`` of each state q in `keep`, and the
    transition edges among them; `keep` must be closed under the transitions."""
    names = {q: f"m{i}_{q}" for q in keep}
    edges = []
    for (q, a), t in automaton.delta.items():
        if q in names:
            edges.append((names[q], a, names[t]))
    return names, edges


def reduction_irred(dfas):
    """Builds the presentation pair (G, H) from a union-universality instance.

    Each machine gets a pre-initial state with a ``st`` loop, an ``lm``
    edge into its start state, ``rm`` edges from accepting states back
    to the first pre-initial state, and ``ell`` re-entry edges from every
    machine state to its start; the pre-initial states are chained by
    ``ell`` into a bypass pair pstar/sstar whose follower set covers
    every marked word.  H is G without pstar.

    Machines are normalized first: states unreachable from the start are
    dropped, and machines with empty language are dropped entirely.

    The union of the input languages is universal exactly when G and H
    present the same shift, equivalently when the shift of G is
    contained in that of H, is irreducible, or has a synchronizing
    deterministic presentation.

    Returns
    -------
    (LabeledGraph, LabeledGraph)

    Raises
    ------
    AlphabetClashError
    AllLanguagesEmptyError
    """
    sigma = _check_shared_alphabet(dfas)
    kept = []
    for dfa in dfas:
        reach = dfa.reachable()
        if dfa.accepting & reach:
            kept.append((dfa, reach))
    if not kept:
        raise AllLanguagesEmptyError("every input automaton has empty language")

    edges = []
    n = len(kept)
    for i, (dfa, reach) in enumerate(kept, start=1):
        names, machine = _machine(i, dfa, reach)
        pre = f"p{i}"
        start = names[dfa.start]
        edges.append((pre, STAR, pre))
        edges.append((pre, LEFT, start))
        edges.extend(machine)
        for q, name in names.items():
            edges.append((name, ELL, start))
            if q in dfa.accepting:
                edges.append((name, RIGHT, "p1"))
        edges.append((pre, ELL, f"p{i + 1}" if i < n else "sstar"))
    edges.append(("pstar", STAR, "pstar"))
    edges.append(("pstar", LEFT, "sstar"))
    edges.append(("sstar", RIGHT, "p1"))
    edges.extend(("sstar", a, "sstar") for a in sigma)

    g = LabeledGraph(edges=edges)
    h = induced_subgraph(g, set(g.vertices) - {"pstar"})
    return g, h


def reduction_sft(dfas):
    """Builds (G, H) from a union-universality instance, H the fixed two-vertex graph.

    Machine states keep ``ell`` self loops and ``lm`` edges back to their
    start state; accepting states exit by ``rm`` into a shared terminal
    with a ``ter`` loop; a bypass state sstar loops on the base alphabet
    and ``ell``.  The shift of G is always contained in that of H, with
    equality exactly when the union is universal, which is also exactly
    when the shift of G has finite type and when it has a two-vertex
    deterministic presentation.

    Returns
    -------
    (LabeledGraph, LabeledGraph)
    """
    sigma = _check_shared_alphabet(dfas)
    edges = [("t", TERM, "t"), ("sstar", RIGHT, "t"), ("sstar", ELL, "sstar")]
    edges.extend(("sstar", a, "sstar") for a in sigma)
    for i, dfa in enumerate(dfas, start=1):
        names, machine = _machine(i, dfa, dfa.states)
        start = names[dfa.start]
        edges.extend(machine)
        for q, name in names.items():
            edges.append((name, LEFT, start))
            edges.append((name, ELL, name))
            if q in dfa.accepting:
                edges.append((name, RIGHT, "t"))
    g = LabeledGraph(edges=edges)

    h_edges = [("q1", LEFT, "q1"), ("q1", ELL, "q1"), ("q1", RIGHT, "q2"), ("q2", TERM, "q2")]
    h_edges.extend(("q1", a, "q1") for a in sigma)
    return g, LabeledGraph(edges=h_edges)


def reduction_sync(dfas):
    """Builds the sync-word instance G from an intersection-nonemptiness instance.

    Pre-initial states loop on the base alphabet and ``rm`` and enter
    their machines by ``lm``; on ``rm``, accepting states go to a shared
    success state while nonaccepting states fall into per-machine fail
    states, all of which loop on ``rm``.  A word synchronizes G exactly
    when it has the form v lm w rm^j with j >= 1 and w accepted by every
    machine, so G has a synchronizing word exactly when the language
    intersection is nonempty.

    A single input machine is duplicated (two parallel copies keep the
    pre-initial states from merging spuriously), and machines are
    restricted to their reachable states so the result is essential.

    Returns
    -------
    LabeledGraph
    """
    _check_shared_alphabet(dfas)
    if len(dfas) == 1:
        dfas = [dfas[0], dfas[0]]

    edges = [("t", RIGHT, "t")]
    for i, dfa in enumerate(dfas, start=1):
        names, machine = _machine(i, dfa, dfa.reachable())
        pre, fail = f"p{i}", f"r{i}"
        edges.append((pre, RIGHT, pre))
        edges.extend((pre, a, pre) for a in dfa.alphabet)
        edges.append((pre, LEFT, names[dfa.start]))
        edges.append((fail, RIGHT, fail))
        edges.extend(machine)
        for q, name in names.items():
            edges.append((name, RIGHT, "t" if q in dfa.accepting else fail))
    return LabeledGraph(edges=edges)


def sdp_blowup(medfa):
    """Builds a presentation whose minimal synchronizing presentation
    mirrors determinization of the given multiple-entry automaton.

    Each entry state gets a pre-initial state with a ``st`` loop and an
    ``lm`` edge in; accepting states exit by ``rm`` to a terminal with a
    ``ter`` loop.  Applying the same construction to the minimal DFA of
    the automaton's language gives the minimal synchronizing
    deterministic presentation of the resulting shift, so entry-state
    blowup under determinization becomes vertex blowup of the minimal
    synchronizing presentation.

    Returns
    -------
    LabeledGraph
    """
    _check_reserved(medfa.alphabet)
    names, edges = _machine(1, medfa, medfa.reachable())
    edges.append(("t", TERM, "t"))
    for i, s in enumerate(dict.fromkeys(medfa.starts), start=1):
        pre = f"p{i}"
        edges.append((pre, STAR, pre))
        edges.append((pre, LEFT, names[s]))
    for q, name in names.items():
        if q in medfa.accepting:
            edges.append((name, RIGHT, "t"))
    return LabeledGraph(edges=edges)


def family_mik(k):
    """The k+1 three-state DFAs over {0..k} with shortest common word 2**k.

    Machine 0 flips to its accepting state on 0 and stays there on
    anything nonzero; machine i >= 1 ignores symbols above i, toggles on
    i, steps forward on symbols below i, and dies otherwise.  Their
    intersection forces the doubling recursion of :func:`word_wk`.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    sigma = [str(j) for j in range(k + 1)]
    states = ("q0", "q1", "qstar")
    dfas = []
    for i in range(k + 1):
        delta = {}
        for j_token in sigma:
            j = int(j_token)
            if i == 0:
                delta[("q0", j_token)] = "q1" if j == 0 else "qstar"
                delta[("q1", j_token)] = "q1" if j != 0 else "qstar"
            else:
                if j > i:
                    delta[("q0", j_token)] = "q0"
                    delta[("q1", j_token)] = "q1"
                elif j < i:
                    delta[("q0", j_token)] = "q1"
                    delta[("q1", j_token)] = "qstar"
                else:
                    delta[("q0", j_token)] = "qstar"
                    delta[("q1", j_token)] = "q0"
            delta[("qstar", j_token)] = "qstar"
        accepting = {"q1"} if i == 0 else {"q0"}
        dfas.append(Dfa(states, sigma, delta, "q0", accepting))
    return dfas


def word_wk(k):
    """The length-2**k word in the common language of :func:`family_mik`.

    Starts from the single symbol 0 and, at each level j, inserts the
    symbol j after every symbol of the previous word.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    word = ("0",)
    for j in range(1, k + 1):
        token = str(j)
        word = tuple(x for a in word for x in (a, token))
    return word


def padded_family_gn(n):
    """The n-vertex member of the exponential-sync-word family.

    Applies :func:`reduction_sync` to ``family_mik(k)`` with
    ``k = (n - 6) // 5`` and pads up to exactly n vertices.  A pad state
    loops on the base alphabet and exits by ``rm`` to the success state;
    it must NOT loop on ``lm`` (a pad surviving two ``lm``s outlives
    every machine state and would admit a three-letter synchronizing
    word), so pads are dead after any ``lm`` and the shortest
    synchronizing word keeps length ``2**k + 2``.

    Raises
    ------
    TooSmallError
        When no member with exactly n vertices exists (n < 11: the
        single-machine case is built from two machine copies).
    """
    if n < 6:
        raise TooSmallError(f"no family member has {n} vertices")
    k = (n - 6) // 5
    base = reduction_sync(family_mik(k))
    pad_count = n - len(base.vertices)
    if pad_count < 0:
        raise TooSmallError(f"no family member has {n} vertices")
    sigma = [str(j) for j in range(k + 1)]
    edges = list(base.edges)
    for j in range(1, pad_count + 1):
        pad = f"pad{j}"
        edges.extend((pad, a, pad) for a in sigma)
        edges.append((pad, RIGHT, "t"))
    return LabeledGraph(edges=edges)
