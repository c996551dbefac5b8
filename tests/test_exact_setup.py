"""The set-up of the action monoid: the subset closures behind its analysis.

``exact._subset_closure`` maps each subset it reaches to its row, the
packed image it took when it dequeued the subset, and
``ActionMonoid._prepare`` reads the domains off the keys of the preimage
closure and the range automaton off the rows of the image closure.  Both
are checked against ``tests/oracles.table_closure``, a plain set closure
over one-label tables, in breadth-first order.  The set-up images each
nonzero domain and each nonzero range exactly once, and under
``Caps(subsets=k)`` the domain closure runs, and raises, first.
"""

import random

import pytest

from sofic import exact
from sofic.errors import CapExceededError
from sofic.exact import (
    DEFAULT_CAPS,
    ActionMonoid,
    Caps,
    _packed_tables,
    _subset_closure,
    decide_sdp_exists,
    decide_sft,
)
from sofic.graphs import LabeledGraph

from .conftest import fixture_graph
from .oracles import random_deterministic_graph, table_closure


def rotation(n):
    """n vertices: "a" turns them one step, "b" sends the first half to 0."""
    return LabeledGraph(
        edges=[(f"v{i:03d}", "a", f"v{(i + 1) % n:03d}") for i in range(n)]
        + [(f"v{i:03d}", "b", "v000") for i in range(n // 2)]
    )


def special_graphs():
    return {
        "empty": LabeledGraph(),
        "one vertex": LabeledGraph(edges=[("p", "a", "p")]),
        "one vertex, two labels": LabeledGraph(edges=[("p", "a", "p"), ("p", "b", "p")]),
        # "b" is missing from q and r, "c" from p and r
        "missing labels": LabeledGraph(
            edges=[("p", "a", "q"), ("q", "a", "r"), ("r", "a", "p"),
                   ("p", "b", "p"), ("q", "c", "p")]
        ),
        "300 vertices": rotation(300),
    }


def seeded_graphs():
    rng = random.Random(1300)
    return [random_deterministic_graph(rng, 9, "abc") for _ in range(40)]


GRAPHS = list(special_graphs().values()) + seeded_graphs()
IDS = list(special_graphs()) + [f"seeded{i}" for i in range(40)]


def unpacked(rows, n, count):
    """The rows of `_subset_closure` as tuples of per-label images."""
    full = (1 << n) - 1
    return [(mask, tuple(row >> c * n & full for c in range(count))) for mask, row in rows.items()]


@pytest.mark.parametrize("g", GRAPHS, ids=IDS)
@pytest.mark.parametrize("preimages", [False, True])
def test_closure_rows_match_a_plain_set_closure(g, preimages):
    lists = g._compiled().targets.values()
    n = len(g.vertices)
    tables = _packed_tables(lists, n, preimages)
    rows = _subset_closure(tables, n, (1 << n) - 1, DEFAULT_CAPS.subsets)
    assert unpacked(rows, n, len(lists)) == list(table_closure(g, preimages).items())


@pytest.mark.parametrize("g", GRAPHS, ids=IDS)
def test_prepare_reads_domains_and_range_automaton_off_the_closures(g):
    n, count = len(g.vertices), len(g._compiled().labels)
    doms, steps = ActionMonoid(g, DEFAULT_CAPS)._prepare()
    assert list(doms) == list(table_closure(g, preimages=True))
    ranges = table_closure(g)
    assert steps.pop(0) == 0
    assert unpacked(steps, n, count) == list(ranges.items())


@pytest.mark.parametrize("g", GRAPHS, ids=IDS)
def test_set_up_images_each_domain_and_each_range_once(g, monkeypatch):
    imaged = []  # the masks imaged by either table width, in order

    def counted(image):
        def imaging(mask, tables):
            imaged.append(mask)
            return image(mask, tables)

        return imaging

    # closures past 256 subsets, the 300-vertex ones, go on 8 bits at a time
    for name in ("_image", "_byte_image"):
        monkeypatch.setattr(exact, name, counted(getattr(exact, name)))
    ActionMonoid(g, DEFAULT_CAPS)._prepare()
    # |D| + |R| images: each domain, then each range, once
    assert imaged == list(table_closure(g, preimages=True)) + list(table_closure(g))


# gm has fewer domains than ranges, fig1 as many
@pytest.mark.parametrize("name", ["gm", "fig1"])
@pytest.mark.parametrize("decide", [decide_sft, decide_sdp_exists])
def test_subset_cap_boundaries(name, decide, monkeypatch):
    g = fixture_graph(name)
    d, r = len(table_closure(g, preimages=True)), len(table_closure(g))
    assert decide(g, Caps(subsets=max(d, r))) == decide(g)
    closures = []  # the preimage flag of each closure's tables, in build order
    packed_tables = exact._packed_tables

    def recorded(target_lists, n, preimages=False):
        closures.append(preimages)
        return packed_tables(target_lists, n, preimages)

    monkeypatch.setattr(exact, "_packed_tables", recorded)
    with pytest.raises(CapExceededError) as info:
        decide(g, Caps(subsets=d - 1))
    assert info.value.count == d
    assert str(info.value) == f"subset count {d} exceeds the configured cap"
    assert closures == [True]  # the range closure never started
    if r > d:
        closures.clear()
        with pytest.raises(CapExceededError) as info:
            decide(g, Caps(subsets=r - 1))
        assert info.value.count == r
        assert closures == [True, False]
