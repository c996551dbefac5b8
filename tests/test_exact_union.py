"""The one-mask subset-pair search against the two-mask search it replaced.

Minimality's candidate checks keep a subset pair as one mask over the
disjoint union of the two graphs (g's vertices first), in tables laid
out as ``_presented_on`` lays them out.  ``two_mask_witness`` in
``tests/oracles.py`` runs the former search over (mask of g, mask of h)
tuples; both must return the same answer and the same witness, and
raise the same cap count, on seeded random graphs whose union straddles
a 4-vertex chunk, whose alphabets differ, where one graph is empty, and
whose union has more than 255 vertices.  ``subshift_witness``, which
searches the union's follower classes, must return the same answer and
witness at the default cap.
"""

import random

import pytest

from sofic.errors import CapExceededError
from sofic.exact import _containment, _mask_tables, _packed_bits, subshift_witness
from sofic.graphs import EMPTY, LabeledGraph

from .oracles import two_mask_witness
from .test_exact_packed import essential_graph


def one_mask_witness(g, h, cap):
    """The search over vertices on the one packed table of the union of
    `g` and `h` over g's labels, h's part of a label it lacks empty."""
    labels = g._compiled().labels
    n_g, width = len(g.vertices), len(g.vertices) + len(h.vertices)
    lists_h = h._compiled().targets
    bits = _packed_bits([g._compiled().targets[a] for a in labels], n_g, width)
    bits += _packed_bits([lists_h.get(a, ()) for a in labels], width - n_g, width, n_g)
    full = (1 << width) - 1
    return _containment(_mask_tables(bits), width, labels, full, (1 << n_g) - 1, cap)


def outcome(search, g, h, cap):
    """The (holds, witness) pair, or the count of a cap exceeded."""
    try:
        return search(g, h, cap)
    except CapExceededError as error:
        return error.count


def check_same(g, h, caps=(1, 2, 5)):
    for x, y in ((g, h), (h, g)):
        assert subshift_witness(x, y) == two_mask_witness(x, y)
        for k in caps:
            assert outcome(one_mask_witness, x, y, k) == outcome(two_mask_witness, x, y, k)


@pytest.mark.parametrize("n_g", range(1, 10))
def test_union_straddling_a_chunk(n_g):
    rng = random.Random(9100 + n_g)
    for n_h in (1, 2, 3, 5, 8):
        check_same(essential_graph(rng, n_g, "01"), essential_graph(rng, n_h, "01"))


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_unequal_alphabets(n):
    rng = random.Random(9200 + n)
    for _ in range(3):
        g = essential_graph(rng, n, "012")
        # h lacks g's label "1", then h has the extra label "3"
        check_same(g, essential_graph(rng, n + 1, "02"))
        check_same(g, essential_graph(rng, n + 2, "0123"))


def test_empty_graphs():
    rng = random.Random(9300)
    check_same(EMPTY, EMPTY)
    for n in (1, 3, 4, 5):
        check_same(EMPTY, essential_graph(rng, n, "01"))


def hub_graph(rng, n, hubs):
    """An essential n-vertex graph: label "0" runs one cycle through every
    vertex, and "1" and "2" send each vertex to one of `hubs` random
    vertices or nowhere, so few subsets are reachable."""
    names = [f"v{i}" for i in range(n)]
    edges = [(names[i], "0", names[(i + 1) % n]) for i in range(n)]
    for a in "12":
        targets = rng.sample(range(n), hubs)
        edges += [
            (names[i], a, names[t])
            for i in range(n)
            for t in [rng.choice(targets + [-1])]
            if t >= 0
        ]
    return LabeledGraph(vertices=names, edges=edges)


@pytest.mark.parametrize("n_g,n_h", [(130, 127), (131, 200), (255, 3)])
def test_union_above_255_vertices(n_g, n_h):
    rng = random.Random(9400 + n_g)
    g, h = hub_graph(rng, n_g, 1), hub_graph(rng, n_h, 2)
    check_same(g, h, caps=(1, 2, 50))
    check_same(g, g, caps=(1, 2, 50))
