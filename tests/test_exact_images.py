"""Table-driven subset images and the subset searches, across chunk boundaries.

Subset images are looked up 4 vertices at a time, and masks of more
than 64 vertices no longer fit one machine word, so these tests use
graphs of every size up to 70 and of every residue mod 4, and check
against the naive edge-scanning references of ``tests/oracles.py``.
"""

import random
from collections import deque

import pytest

from sofic.exact import (
    _image,
    _image_tables,
    shortest_sync_word,
    subshift_witness,
    synchronizing_vertices,
)
from sofic.graphs import LabeledGraph, essentialize

from .oracles import (
    brute_shortest_sync_length,
    graph_labels,
    image,
    random_deterministic_graph,
    reachable_subsets,
)


def names(n):
    # zero-padded, so that sorted order is index order
    return [f"v{i:02d}" for i in range(n)]


def mask_of(subset):
    return sum(1 << int(v[1:]) for v in subset)


def subset_of(mask, n):
    return {v for i, v in enumerate(names(n)) if mask >> i & 1}


@pytest.mark.parametrize("n", range(71))
def test_image_matches_edge_scan(n):
    rng = random.Random(n)
    vs = names(n)
    targets = tuple(rng.randrange(-1, n) for _ in range(n))
    g = LabeledGraph(
        vertices=vs, edges=[(vs[i], "a", vs[t]) for i, t in enumerate(targets) if t >= 0]
    )
    tables = _image_tables(targets)
    assert len(tables) == (n + 3) // 4
    assert all(len(table) == 16 for table in tables)
    full = (1 << n) - 1
    masks = [0, full, full >> 1, 1 << max(n - 1, 0)] + [rng.getrandbits(n) for _ in range(4)]
    for mask in masks:
        mask &= full
        assert _image(mask, tables) == mask_of(image(g, subset_of(mask, n), ("a",)))


def hub_graph(rng, n, hubs):
    """An essential graph with few reachable subsets for its size.

    The vertices form a cycle labelled ``b`` when leaving a hub and
    ``c`` otherwise; ``a`` sends each vertex to a random hub or nowhere.
    """
    vs = names(n)
    edges = []
    for i in range(n):
        edges.append((vs[i], "b" if i in hubs else "c", vs[(i + 1) % n]))
        t = rng.choice(hubs + (-1,))
        if t >= 0:
            edges.append((vs[i], "a", vs[t]))
    return LabeledGraph(vertices=vs, edges=edges)


def distances(start, successors):
    """Breadth-first distance of every state reachable from `start`."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for nxt in successors(state):
            if nxt not in dist:
                dist[nxt] = dist[state] + 1
                queue.append(nxt)
    return dist


def brute_sync_length(g):
    """Length of a shortest synchronizing word, by frozenset BFS."""
    labels = graph_labels(g)
    dist = distances(
        frozenset(g.vertices),
        lambda s: [t for a in labels for t in [image(g, s, (a,))] if t],
    )
    lengths = [d for s, d in dist.items() if len(s) == 1]
    return min(lengths) if lengths else None


def brute_kill_length(g, h):
    """Length of a shortest word of g that h cannot read, or None."""
    labels = sorted(set(graph_labels(g)) | set(graph_labels(h)))

    def successors(pair):
        sg, sh = pair
        for a in labels:
            tg = image(g, sg, (a,))
            if tg:
                yield tg, image(h, sh, (a,)) if sh else sh

    dist = distances((frozenset(g.vertices), frozenset(h.vertices)), successors)
    lengths = [d for (_, sh), d in dist.items() if not sh]
    return min(lengths) if lengths else None


def check_searches(g, h, sync_length):
    word = shortest_sync_word(g)
    assert (None if word is None else len(word)) == sync_length
    if word is not None:
        assert len(image(g, g.vertices, word)) == 1
    singletons = {v for s in reachable_subsets(g) if len(s) == 1 for v in s}
    assert synchronizing_vertices(g) == singletons
    for x, y in ((g, h), (h, g)):
        holds, witness = subshift_witness(x, y)
        kill = brute_kill_length(x, y)
        assert holds == (kill is None)
        if not holds:
            assert len(witness) == kill
            assert image(x, x.vertices, witness) and not image(y, y.vertices, witness)


def small_graph(rng, n):
    """A seeded essential random graph with exactly n vertices."""
    while True:
        g = essentialize(random_deterministic_graph(rng, n, ["0", "1"]))
        if len(g.vertices) == n:
            return g


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_small_graphs_match_subset_lattice(n):
    rng = random.Random(100 + n)
    for _ in range(6):
        g, h = small_graph(rng, n), small_graph(rng, n)
        check_searches(g, h, brute_shortest_sync_length(g))


@pytest.mark.parametrize(
    "n,hubs",
    [(17, (3, 9, 14)), (18, (0, 7, 16)), (19, (4, 11, 18)), (20, (2, 10, 15)),
     (70, (5, 33, 66)), (70, (2, 63, 64))],
)
def test_hub_graphs_match_frozenset_search(n, hubs):
    rng = random.Random(n + sum(hubs))
    g = hub_graph(rng, n, hubs)
    # h adds an `a` edge wherever g has none, so it reads every word of g
    hub = g.vertices[hubs[0]]
    h = LabeledGraph(
        edges=list(g.edges)
        + [(v, "a", hub) for v in g.vertices if not g.successors(v, "a")]
    )
    check_searches(g, h, brute_sync_length(g))
