"""Which precondition each public entry point refuses, and in which order.

Every entry point that takes a graph runs on three small inputs:

- ``NONDETERMINISTIC``: essential and irreducible, but p has two a-edges;
- ``NONESSENTIAL``: deterministic, but q has no outgoing edge;
- ``BOTH``: p has two a-edges and q has no outgoing edge.

The table pins the error class raised on each, or "ok".  A call that
checks both preconditions checks determinism first, so the ``BOTH``
column always reads ``NotDeterministicError`` where the first one does.
Calls on two graphs run with the bad graph first and, under the
``/second`` rows, second; the other argument is the full shift on {a, b}.
"""

import pytest

from sofic import classify, exact, graphs, products, syncwords
from sofic.cli import main
from sofic.graphs import LabeledGraph

NONDETERMINISTIC = LabeledGraph(edges=[("p", "a", "p"), ("p", "a", "q"), ("q", "a", "p")])
NONESSENTIAL = LabeledGraph(edges=[("p", "a", "p"), ("p", "b", "q")])
BOTH = LabeledGraph(edges=[("p", "a", "p"), ("p", "a", "q")])
FULL = LabeledGraph(edges=[("v", "a", "v"), ("v", "b", "v")])

CALLS = {
    "exact.action_of_word": lambda g: exact.action_of_word(g, ("a",)),
    "exact.action_monoid": exact.action_monoid,
    "exact.decide_sdp_exists": exact.decide_sdp_exists,
    "exact.decide_sft": exact.decide_sft,
    "exact.synchronizing_vertices": exact.synchronizing_vertices,
    "exact.shortest_sync_word": exact.shortest_sync_word,
    "exact.subshift_witness": lambda g: exact.subshift_witness(g, FULL),
    "exact.subshift_witness/second": lambda g: exact.subshift_witness(FULL, g),
    "exact.decide_subshift": lambda g: exact.decide_subshift(g, FULL),
    "exact.decide_subshift/second": lambda g: exact.decide_subshift(FULL, g),
    "exact.decide_equality": lambda g: exact.decide_equality(g, FULL),
    "exact.decide_equality/second": lambda g: exact.decide_equality(FULL, g),
    "exact.decide_irreducibility": exact.decide_irreducibility,
    "exact.decide_minimality": lambda g: exact.decide_minimality(g, 1),
    "syncwords.pair_synchronizing_word": lambda g: syncwords.pair_synchronizing_word(g, "p", "q"),
    "syncwords.synchronizing_word_irreducible": syncwords.synchronizing_word_irreducible,
    "syncwords.separating_word": lambda g: syncwords.separating_word(g, FULL),
    "syncwords.separating_word/second": lambda g: syncwords.separating_word(FULL, g),
    "syncwords.is_synchronizing": syncwords.is_synchronizing,
    "syncwords.sync_word_to_vertex": lambda g: syncwords.sync_word_to_vertex(g, "p"),
    "classify.follower_partition": classify.follower_partition,
    "classify.is_follower_separated": classify.is_follower_separated,
    "classify.follower_separation": classify.follower_separation,
    "classify.are_isomorphic": lambda g: classify.are_isomorphic(g, FULL),
    "classify.are_isomorphic/second": lambda g: classify.are_isomorphic(FULL, g),
    "classify.equal_sync": lambda g: classify.equal_sync(g, FULL),
    "classify.equal_sync/second": lambda g: classify.equal_sync(FULL, g),
    "classify.is_sft_sync": classify.is_sft_sync,
    "classify.m_step_bound": classify.m_step_bound,
    "classify.is_irreducible_shift_sync": classify.is_irreducible_shift_sync,
    "classify.is_universal": classify.is_universal,
    "graphs.subset_step": lambda g: graphs.subset_step(g, {"p"}, ("a",)),
    "products.sink_vertex_graph": lambda g: products.sink_vertex_graph(g, ("a", "b")),
    "products.hat_graph": products.hat_graph,
    "products.find_word_to": lambda g: products.find_word_to(g, {"p"}, lambda v: v == "q"),
}

ND, NE, NI = "NotDeterministicError", "NotEssentialError", "NotIrreducibleError"

# entry point: (NONDETERMINISTIC, NONESSENTIAL, BOTH)
TABLE = {
    "exact.action_of_word": (ND, "ok", ND),
    "exact.action_monoid": (ND, "ok", ND),
    "exact.decide_sdp_exists": (ND, NE, ND),
    "exact.decide_sft": (ND, NE, ND),
    "exact.synchronizing_vertices": (ND, NE, ND),
    "exact.shortest_sync_word": (ND, NE, ND),
    "exact.subshift_witness": (ND, NE, ND),
    "exact.subshift_witness/second": (ND, NE, ND),
    "exact.decide_subshift": (ND, NE, ND),
    "exact.decide_subshift/second": (ND, NE, ND),
    "exact.decide_equality": (ND, NE, ND),
    "exact.decide_equality/second": (ND, NE, ND),
    "exact.decide_irreducibility": (ND, NE, ND),
    "exact.decide_minimality": (ND, NE, ND),
    "syncwords.pair_synchronizing_word": (ND, "ok", ND),
    "syncwords.synchronizing_word_irreducible": (ND, NI, ND),
    "syncwords.separating_word": (ND, NI, ND),
    "syncwords.separating_word/second": (ND, "ok", ND),
    "syncwords.is_synchronizing": (ND, "ok", ND),
    "syncwords.sync_word_to_vertex": (ND, "ok", ND),
    "classify.follower_partition": (ND, "ok", ND),
    "classify.is_follower_separated": (ND, "ok", ND),
    "classify.follower_separation": (ND, NE, ND),
    "classify.are_isomorphic": (ND, "ok", ND),
    "classify.are_isomorphic/second": (ND, "ok", ND),
    "classify.equal_sync": (ND, NE, ND),
    "classify.equal_sync/second": (ND, NE, ND),
    "classify.is_sft_sync": (ND, NE, ND),
    "classify.m_step_bound": (ND, NE, ND),
    "classify.is_irreducible_shift_sync": (ND, NE, ND),
    "classify.is_universal": (ND, NE, ND),
    "graphs.subset_step": (ND, "ok", ND),
    "products.sink_vertex_graph": (ND, "ok", ND),
    "products.hat_graph": (ND, "ok", ND),
    # a name-level search that walks nondeterministic graphs edge by edge
    "products.find_word_to": ("ok", "ok", "ok"),
}


def outcome(call, g):
    try:
        call(g)
    except Exception as exc:
        return type(exc).__name__
    return "ok"


def test_table_covers_every_call():
    assert set(TABLE) == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_refusals(name):
    got = tuple(outcome(CALLS[name], g) for g in (NONDETERMINISTIC, NONESSENTIAL, BOTH))
    assert got == TABLE[name]


@pytest.mark.parametrize(
    "command",
    [["is-sft", "X"], ["equal", "X", "X"], ["subshift", "--exact", "X", "X"], ["minimal", "--k", "2", "X"]],
)
def test_cli_refuses_nondeterministic(command, tmp_path, capsys):
    path = tmp_path / "nd.sg"
    path.write_text("graph ND\nvertex p\nvertex q\nedge p a p\nedge p a q\nedge q a p\n")
    code = main([str(path) if arg == "X" else arg for arg in command])
    assert code == 2
    assert "graph is not deterministic" in capsys.readouterr().err
