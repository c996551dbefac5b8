"""Reference answers computed without the package under test.

Every verdict the benchmark times is checked against one of these
routines (or against a property the generator guarantees by
construction).  They work on plain edge triples ``(src, label, dst)``
of deterministic graphs and share no code with ``sofic``; they are
written for clarity, not speed, and run outside every timed region.
"""

import heapq


def successor_table(edges):
    """``{vertex: {label: dst}}`` for a deterministic edge list."""
    table = {}
    for src, label, dst in edges:
        table.setdefault(src, {})[label] = dst
        table.setdefault(dst, {})
    return table


def walk_all(edges, vertices, word):
    """The set of endpoints of `word`-labelled paths starting anywhere."""
    table = successor_table(edges)
    alive = set(vertices)
    for a in word:
        alive = {table[q][a] for q in alive if a in table[q]}
    return alive


def is_strongly_connected(edges, vertices):
    """Whether every vertex reaches every other one (forward and backward search)."""
    if not vertices:
        return True
    forward, backward = {}, {}
    for src, _, dst in edges:
        forward.setdefault(src, set()).add(dst)
        backward.setdefault(dst, set()).add(src)
    root = next(iter(vertices))
    for adjacency in (forward, backward):
        seen, stack = {root}, [root]
        while stack:
            for nxt in adjacency.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != set(vertices):
            return False
    return True


def largest_component(edges):
    """The vertex set of the largest strongly connected component with an edge."""
    forward = {}
    for src, _, dst in edges:
        forward.setdefault(src, set()).add(dst)
        forward.setdefault(dst, set())
    best = set()
    unassigned = set(forward)
    while unassigned:
        root = min(unassigned)
        reach = _closure(forward, root)
        comp = {v for v in reach if root in _closure(forward, v)}
        unassigned -= comp
        has_edge = any(dst in comp for v in comp for dst in forward[v])
        if has_edge and len(comp) > len(best):
            best = comp
    return best


def _closure(adjacency, root):
    seen, stack = {root}, [root]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def find_sync_word(edges, vertices, limit):
    """A word sending every vertex to one vertex, by best-first subset search.

    Expands the smallest live subset first and gives up (returning None)
    after `limit` expansions, so an instance it cannot certify is treated
    as not synchronizing.
    """
    table = successor_table(edges)
    labels = sorted({a for _, a, _ in edges})
    start = frozenset(vertices)
    heap = [(len(start), 0, start, ())]
    seen = {start}
    counter = 1
    while heap and limit > 0:
        limit -= 1
        _, _, subset, word = heapq.heappop(heap)
        for a in labels:
            image = frozenset(table[q][a] for q in subset if a in table[q])
            if not image or image in seen:
                continue
            if len(image) == 1:
                return word + (a,)
            seen.add(image)
            heapq.heappush(heap, (len(image), counter, image, word + (a,)))
            counter += 1
    return None


def follower_quotient(edges, vertices):
    """The follower-separated quotient, each class named after its smallest member.

    Moore refinement over the graph completed with a sink; returns the
    quotient's vertex set and edge set.
    """
    table = successor_table(edges)
    labels = sorted({a for _, a, _ in edges})
    sink = object()
    block = {v: 0 for v in vertices}
    block[sink] = 1
    count = 2
    while True:
        signature = {
            v: (block[v],)
            + tuple(block[sink if v is sink else table[v].get(a, sink)] for a in labels)
            for v in block
        }
        ids = {}
        new_block = {v: ids.setdefault(sig, len(ids)) for v, sig in signature.items()}
        if len(ids) == count:
            break
        block, count = new_block, len(ids)
    members = {}
    for v in vertices:
        members.setdefault(block[v], []).append(v)
    rep = {v: min(group) for group in members.values() for v in group}
    return set(rep.values()), {(rep[s], a, rep[d]) for s, a, d in edges}


def is_sft_fischer(edges, vertices):
    """Whether an irreducible synchronizing deterministic graph presents a shift of finite type.

    Passes to the follower quotient (the Fischer cover) and checks that it
    has finite memory: the graph on pairs of distinct vertices, with an
    ``a``-edge when both coordinates have one, must be acyclic.
    """
    qvertices, qedges = follower_quotient(edges, vertices)
    table = successor_table(qedges)
    pairs = [(p, q) for p in qvertices for q in qvertices if p != q]
    succ = {}
    indegree = {pair: 0 for pair in pairs}
    for p, q in pairs:
        targets = []
        for a, p2 in table[p].items():
            q2 = table[q].get(a)
            if q2 is not None and q2 != p2:
                targets.append((p2, q2))
        succ[(p, q)] = targets
        for t in targets:
            indegree[t] += 1
    ready = [pair for pair, d in indegree.items() if d == 0]
    removed = 0
    while ready:
        pair = ready.pop()
        removed += 1
        for t in succ[pair]:
            indegree[t] -= 1
            if indegree[t] == 0:
                ready.append(t)
    return removed == len(pairs)


def parse_rendered_graph(text):
    """Vertex and edge sets of the single graph document in `text`."""
    vertices, edges = set(), set()
    for line in text.splitlines():
        tokens = line.split()
        if tokens[:1] == ["vertex"]:
            vertices.add(tokens[1])
        elif tokens[:1] == ["edge"]:
            edges.add(tuple(tokens[1:4]))
    return vertices, edges


def transition_monoid_size(dfas, cap):
    """Size of the transition monoid of the automata run side by side, capped at `cap`.

    Used to stratify random automaton tuples by difficulty; `dfas` are
    ``(states, delta)`` pairs over one alphabet with total `delta`.
    """
    index = {}
    for i, (states, _) in enumerate(dfas):
        for q in states:
            index[(i, q)] = len(index)
    letters = sorted({a for _, delta in dfas for (_, a) in delta})
    generators = [
        tuple(index[(i, delta[(q, a)])] for i, (states, delta) in enumerate(dfas) for q in states)
        for a in letters
    ]
    identity = tuple(range(len(index)))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for func in frontier:
            for gen in generators:
                image = tuple(gen[t] for t in func)
                if image not in seen:
                    if len(seen) >= cap:
                        return cap
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return len(seen)
