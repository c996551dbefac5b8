"""Cap behaviour of the subset and subset-pair searches, pinned to recorded values.

Each row runs ``shortest_sync_word``, ``synchronizing_vertices``,
``subshift_witness``, ``decide_equality``, ``decide_irreducibility``,
``decide_sft`` or ``decide_sdp_exists`` under ``Caps(subsets=k)`` on
``padded_family_gn`` members, on the graphs of ``tests/fixtures`` or on
``irred_mik1``, the first graph of ``reduction_irred`` on an instance
whose union is universal (so its irreducibility test reaches the
subset-pair search).  The expected counts, messages and answers of the
first three were recorded from the bit-walking subset image that the
table-driven one replaced, those of the next two from the two-mask pair
search that the one-mask search over the disjoint union replaced, and
those of the monoid deciders from the ``decide_sft`` that closed the
whole monoid before judging its idempotents; any change to the
breadth-first order, to the cap test or to the message shows up here.

That ``decide_sft`` built its monoid with ``Caps.relations`` bounding
both subset closures, so ``Caps.subsets`` never stopped it; the pruned
search bounds them by ``Caps.subsets``, as ``decide_sdp_exists`` does,
and its rows that raise were answers then (marked below).  The rows
under ``Caps(relations=k)`` pin the monoid element count; there the
pruned search answers some inputs on which the whole closure raised.
"""

import pytest

from sofic.constructions import family_mik, padded_family_gn, reduction_irred
from sofic.errors import CapExceededError
from sofic.exact import (
    Caps,
    decide_equality,
    decide_irreducibility,
    decide_sdp_exists,
    decide_sft,
    shortest_sync_word,
    subshift_witness,
    synchronizing_vertices,
)
from sofic.fileformat import parse

from .conftest import FIXTURES

SEARCHES = {
    "shortest_sync_word": shortest_sync_word,
    "synchronizing_vertices": synchronizing_vertices,
    "subshift_witness": subshift_witness,
    "decide_equality": decide_equality,
    "decide_irreducibility": decide_irreducibility,
    "decide_sft": decide_sft,
    "decide_sdp_exists": decide_sdp_exists,
}

# (search, graph names, k, CapExceededError.count, message)
CAP_EXCEEDED = [
    ('shortest_sync_word', ('padded21',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('shortest_sync_word', ('padded21',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('shortest_sync_word', ('padded21',), 50, 51, 'subset count 51 exceeds the configured cap'),
    ('shortest_sync_word', ('padded21',), 125, 126, 'subset count 126 exceeds the configured cap'),
    ('synchronizing_vertices', ('padded21',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('synchronizing_vertices', ('padded21',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('synchronizing_vertices', ('padded21',), 50, 51, 'subset count 51 exceeds the configured cap'),
    ('synchronizing_vertices', ('padded21',), 136, 137, 'subset count 137 exceeds the configured cap'),
    ('synchronizing_vertices', ('ev',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('synchronizing_vertices', ('ev',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('synchronizing_vertices', ('fig1',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('synchronizing_vertices', ('fig1',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('synchronizing_vertices', ('gm',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('synchronizing_vertices', ('gm',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('synchronizing_vertices', ('hfig1',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('synchronizing_vertices', ('hfig1',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('subshift_witness', ('padded21', 'padded21'), 1, 2, 'subset-pair count 2 exceeds the configured cap'),
    ('subshift_witness', ('padded21', 'padded21'), 2, 3, 'subset-pair count 3 exceeds the configured cap'),
    ('subshift_witness', ('padded21', 'padded21'), 136, 137, 'subset-pair count 137 exceeds the configured cap'),
    ('subshift_witness', ('padded21', 'padded26'), 1, 2, 'subset-pair count 2 exceeds the configured cap'),
    ('subshift_witness', ('padded21', 'padded26'), 142, 143, 'subset-pair count 143 exceeds the configured cap'),
    ('subshift_witness', ('padded26', 'padded21'), 1, 2, 'subset-pair count 2 exceeds the configured cap'),
    ('subshift_witness', ('padded26', 'padded21'), 4, 5, 'subset-pair count 5 exceeds the configured cap'),
    ('subshift_witness', ('fig1', 'hfig1'), 1, 2, 'subset-pair count 2 exceeds the configured cap'),
    ('subshift_witness', ('fig1', 'hfig1'), 2, 3, 'subset-pair count 3 exceeds the configured cap'),
    ('subshift_witness', ('hfig1', 'fig1'), 1, 2, 'subset-pair count 2 exceeds the configured cap'),
    ('subshift_witness', ('hfig1', 'fig1'), 2, 3, 'subset-pair count 3 exceeds the configured cap'),
    ('subshift_witness', ('gm', 'ev'), 1, 2, 'subset-pair count 2 exceeds the configured cap'),
    ('subshift_witness', ('gm', 'ev'), 2, 3, 'subset-pair count 3 exceeds the configured cap'),
    ('subshift_witness', ('gm', 'ev'), 3, 4, 'subset-pair count 4 exceeds the configured cap'),
    ('subshift_witness', ('gm', 'ev'), 4, 5, 'subset-pair count 5 exceeds the configured cap'),
    ('subshift_witness', ('ev', 'gm'), 1, 2, 'subset-pair count 2 exceeds the configured cap'),
    ('subshift_witness', ('ev', 'gm'), 2, 3, 'subset-pair count 3 exceeds the configured cap'),
    ('subshift_witness', ('ev', 'gm'), 3, 4, 'subset-pair count 4 exceeds the configured cap'),
    ('subshift_witness', ('full1', 'gm'), 1, 2, 'subset-pair count 2 exceeds the configured cap'),
    ('subshift_witness', ('full1', 'gm'), 2, 3, 'subset-pair count 3 exceeds the configured cap'),
    ('subshift_witness', ('gm', 'full1'), 1, 2, 'subset-pair count 2 exceeds the configured cap'),
    ('subshift_witness', ('gm', 'full1'), 2, 3, 'subset-pair count 3 exceeds the configured cap'),
    ('decide_equality', ('padded21', 'padded21'), 1, 2, 'subset-pair count 2 exceeds the configured cap'),
    ('decide_equality', ('padded21', 'padded21'), 2, 3, 'subset-pair count 3 exceeds the configured cap'),
    ('decide_equality', ('padded21', 'padded21'), 136, 137, 'subset-pair count 137 exceeds the configured cap'),
    ('decide_equality', ('padded21', 'padded26'), 1, 2, 'subset-pair count 2 exceeds the configured cap'),
    ('decide_equality', ('padded21', 'padded26'), 2, 3, 'subset-pair count 3 exceeds the configured cap'),
    ('decide_equality', ('padded21', 'padded26'), 142, 143, 'subset-pair count 143 exceeds the configured cap'),
    ('decide_equality', ('padded26', 'padded21'), 1, 2, 'subset-pair count 2 exceeds the configured cap'),
    ('decide_equality', ('padded26', 'padded21'), 4, 5, 'subset-pair count 5 exceeds the configured cap'),
    ('decide_equality', ('fig1', 'hfig1'), 1, 2, 'subset-pair count 2 exceeds the configured cap'),
    ('decide_equality', ('fig1', 'hfig1'), 2, 3, 'subset-pair count 3 exceeds the configured cap'),
    ('decide_equality', ('hfig1', 'fig1'), 2, 3, 'subset-pair count 3 exceeds the configured cap'),
    ('decide_equality', ('gm', 'ev'), 1, 2, 'subset-pair count 2 exceeds the configured cap'),
    ('decide_equality', ('gm', 'ev'), 4, 5, 'subset-pair count 5 exceeds the configured cap'),
    ('decide_equality', ('ev', 'gm'), 3, 4, 'subset-pair count 4 exceeds the configured cap'),
    ('decide_equality', ('full1', 'gm'), 2, 3, 'subset-pair count 3 exceeds the configured cap'),
    ('decide_equality', ('gm', 'full1'), 2, 3, 'subset-pair count 3 exceeds the configured cap'),
    ('decide_irreducibility', ('padded21',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('decide_irreducibility', ('padded21',), 5, 6, 'subset count 6 exceeds the configured cap'),
    ('decide_irreducibility', ('padded26',), 5, 6, 'subset count 6 exceeds the configured cap'),
    ('decide_irreducibility', ('ev',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('decide_irreducibility', ('fig1',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('decide_irreducibility', ('gm',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('decide_irreducibility', ('hfig1',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('decide_irreducibility', ('irred_mik1',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('decide_irreducibility', ('irred_mik1',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('decide_irreducibility', ('irred_mik1',), 30, 31, 'subset count 31 exceeds the configured cap'),
    ('decide_irreducibility', ('irred_mik1',), 45, 46, 'subset count 46 exceeds the configured cap'),
    ('decide_irreducibility', ('irred_mik1',), 46, 47, 'subset-pair count 47 exceeds the configured cap'),
    ('decide_irreducibility', ('irred_mik1',), 52, 53, 'subset-pair count 53 exceeds the configured cap'),
    ('decide_sdp_exists', ('padded21',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('decide_sdp_exists', ('padded21',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('decide_sdp_exists', ('padded21',), 3, 4, 'subset count 4 exceeds the configured cap'),
    ('decide_sdp_exists', ('padded21',), 50, 51, 'subset count 51 exceeds the configured cap'),
    ('decide_sdp_exists', ('ev',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('decide_sdp_exists', ('ev',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('decide_sdp_exists', ('fig1',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('decide_sdp_exists', ('fig1',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('decide_sdp_exists', ('gm',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('decide_sdp_exists', ('gm',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('decide_sdp_exists', ('hfig1',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('decide_sdp_exists', ('hfig1',), 2, 3, 'subset count 3 exceeds the configured cap'),
    # the whole-monoid decide_sft answered these: False, except True on gm
    ('decide_sft', ('padded21',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('decide_sft', ('padded21',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('decide_sft', ('padded21',), 3, 4, 'subset count 4 exceeds the configured cap'),
    ('decide_sft', ('padded21',), 50, 51, 'subset count 51 exceeds the configured cap'),
    ('decide_sft', ('ev',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('decide_sft', ('ev',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('decide_sft', ('fig1',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('decide_sft', ('fig1',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('decide_sft', ('gm',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('decide_sft', ('gm',), 2, 3, 'subset count 3 exceeds the configured cap'),
    ('decide_sft', ('hfig1',), 1, 2, 'subset count 2 exceeds the configured cap'),
    ('decide_sft', ('hfig1',), 2, 3, 'subset count 3 exceeds the configured cap'),
]

# (search, graph names, k, answer); vertex sets as sorted tuples
ANSWERS = [
    ('shortest_sync_word', ('padded21',), 126, ('lm', '0', '3', '2', '3', '1', '3', '2', '3', 'rm')),
    ('synchronizing_vertices', ('padded21',), 137, ('t',)),
    ('shortest_sync_word', ('ev',), 1, ('1',)),
    ('shortest_sync_word', ('ev',), 2, ('1',)),
    ('shortest_sync_word', ('ev',), 3, ('1',)),
    ('synchronizing_vertices', ('ev',), 3, ('A', 'B')),
    ('shortest_sync_word', ('fig1',), 1, ('1',)),
    ('shortest_sync_word', ('fig1',), 2, ('1',)),
    ('shortest_sync_word', ('fig1',), 3, ('1',)),
    ('synchronizing_vertices', ('fig1',), 3, ('q2', 'q3')),
    ('shortest_sync_word', ('full1',), 1, ()),
    ('shortest_sync_word', ('full1',), 2, ()),
    ('shortest_sync_word', ('full1',), 3, ()),
    ('synchronizing_vertices', ('full1',), 1, ('v',)),
    ('synchronizing_vertices', ('full1',), 2, ('v',)),
    ('synchronizing_vertices', ('full1',), 3, ('v',)),
    ('shortest_sync_word', ('gm',), 1, ('0',)),
    ('shortest_sync_word', ('gm',), 2, ('0',)),
    ('shortest_sync_word', ('gm',), 3, ('0',)),
    ('synchronizing_vertices', ('gm',), 3, ('A', 'B')),
    ('shortest_sync_word', ('hfig1',), 1, ('1',)),
    ('shortest_sync_word', ('hfig1',), 2, ('1',)),
    ('shortest_sync_word', ('hfig1',), 3, ('1',)),
    ('synchronizing_vertices', ('hfig1',), 3, ('q2', 'q3')),
    ('subshift_witness', ('padded21', 'padded21'), 137, (True, None)),
    ('subshift_witness', ('padded21', 'padded26'), 143, (True, None)),
    ('subshift_witness', ('padded26', 'padded21'), 5, (False, ('4',))),
    ('subshift_witness', ('fig1', 'hfig1'), 3, (True, None)),
    ('subshift_witness', ('fig1', 'hfig1'), 4, (True, None)),
    ('subshift_witness', ('fig1', 'hfig1'), 5, (True, None)),
    ('subshift_witness', ('hfig1', 'fig1'), 3, (True, None)),
    ('subshift_witness', ('hfig1', 'fig1'), 4, (True, None)),
    ('subshift_witness', ('hfig1', 'fig1'), 5, (True, None)),
    ('subshift_witness', ('gm', 'ev'), 5, (False, ('1', '0', '1'))),
    ('subshift_witness', ('ev', 'gm'), 4, (False, ('1', '1'))),
    ('subshift_witness', ('ev', 'gm'), 5, (False, ('1', '1'))),
    ('subshift_witness', ('full1', 'gm'), 3, (False, ('1', '1'))),
    ('subshift_witness', ('full1', 'gm'), 4, (False, ('1', '1'))),
    ('subshift_witness', ('full1', 'gm'), 5, (False, ('1', '1'))),
    ('subshift_witness', ('gm', 'full1'), 3, (True, None)),
    ('subshift_witness', ('gm', 'full1'), 4, (True, None)),
    ('subshift_witness', ('gm', 'full1'), 5, (True, None)),
    ('decide_equality', ('padded21', 'padded21'), 137, True),
    ('decide_equality', ('padded21', 'padded26'), 143, False),
    ('decide_equality', ('padded26', 'padded21'), 5, False),
    ('decide_equality', ('fig1', 'hfig1'), 3, True),
    ('decide_equality', ('hfig1', 'fig1'), 3, True),
    ('decide_equality', ('gm', 'ev'), 5, False),
    ('decide_equality', ('ev', 'gm'), 4, False),
    ('decide_equality', ('full1', 'gm'), 3, False),
    ('decide_equality', ('gm', 'full1'), 3, False),
    ('decide_irreducibility', ('padded21',), 6, False),
    ('decide_irreducibility', ('padded26',), 6, False),
    ('decide_irreducibility', ('ev',), 3, True),
    ('decide_irreducibility', ('fig1',), 3, True),
    ('decide_irreducibility', ('gm',), 3, True),
    ('decide_irreducibility', ('hfig1',), 3, True),
    ('decide_irreducibility', ('full1',), 1, True),
    ('decide_irreducibility', ('irred_mik1',), 53, True),
    ('decide_sdp_exists', ('ev',), 3, True),
    ('decide_sdp_exists', ('ev',), 50, True),
    ('decide_sdp_exists', ('fig1',), 3, True),
    ('decide_sdp_exists', ('fig1',), 50, True),
    ('decide_sdp_exists', ('gm',), 3, True),
    ('decide_sdp_exists', ('gm',), 50, True),
    ('decide_sdp_exists', ('hfig1',), 3, True),
    ('decide_sdp_exists', ('hfig1',), 50, True),
    ('decide_sdp_exists', ('full1',), 1, True),
    ('decide_sdp_exists', ('full1',), 2, True),
    ('decide_sdp_exists', ('full1',), 3, True),
    ('decide_sdp_exists', ('full1',), 50, True),
    ('decide_sft', ('ev',), 3, False),
    ('decide_sft', ('ev',), 50, False),
    ('decide_sft', ('fig1',), 3, False),
    ('decide_sft', ('fig1',), 50, False),
    ('decide_sft', ('gm',), 3, True),
    ('decide_sft', ('gm',), 50, True),
    ('decide_sft', ('hfig1',), 3, False),
    ('decide_sft', ('hfig1',), 50, False),
    ('decide_sft', ('full1',), 1, True),
    ('decide_sft', ('full1',), 2, True),
    ('decide_sft', ('full1',), 3, True),
    ('decide_sft', ('full1',), 50, True),
]

# (search, graph names, k, CapExceededError.count, message) under Caps(relations=k)
RELATIONS_EXCEEDED = [
    ('decide_sft', ('padded21',), 1, 2, 'monoid element count 2 exceeds the configured cap'),
    ('decide_sft', ('padded21',), 2, 3, 'monoid element count 3 exceeds the configured cap'),
    ('decide_sdp_exists', ('padded21',), 1, 2, 'monoid element count 2 exceeds the configured cap'),
    ('decide_sdp_exists', ('padded21',), 2, 3, 'monoid element count 3 exceeds the configured cap'),
]

# (search, graph names, k, answer) under Caps(relations=k)
RELATIONS_ANSWERS = [
    ('decide_sft', ('full1',), 1, True),
    ('decide_sdp_exists', ('full1',), 1, True),
    ('decide_sdp_exists', ('gm',), 3, True),
    # the whole-monoid decide_sft raised on these; a letter of ev, fig1
    # and hfig1 is a permutation, so the identity is judged first
    ('decide_sft', ('ev',), 1, False),
    ('decide_sft', ('fig1',), 1, False),
    ('decide_sft', ('hfig1',), 1, False),
    ('decide_sft', ('gm',), 3, True),
]


def graphs():
    found = {"padded21": padded_family_gn(21), "padded26": padded_family_gn(26)}
    machines = family_mik(1)
    found["irred_mik1"] = reduction_irred(machines + [machines[0].complemented()])[0]
    for path in sorted(FIXTURES.glob("*.sg")):
        for doc in parse(path.read_text(encoding="utf-8")):
            if doc.kind == "graph":
                found[path.stem] = doc.value
    return found


GRAPHS = graphs()


@pytest.mark.parametrize("search,names,k,count,message", CAP_EXCEEDED)
def test_cap_exceeded_count_and_message(search, names, k, count, message):
    with pytest.raises(CapExceededError) as info:
        SEARCHES[search](*(GRAPHS[n] for n in names), Caps(subsets=k))
    assert info.value.count == count
    assert str(info.value) == message


@pytest.mark.parametrize("search,names,k,answer", ANSWERS)
def test_answer_within_cap(search, names, k, answer):
    result = SEARCHES[search](*(GRAPHS[n] for n in names), Caps(subsets=k))
    if isinstance(result, frozenset):
        result = tuple(sorted(result))
    assert result == answer


@pytest.mark.parametrize("search,names,k,count,message", RELATIONS_EXCEEDED)
def test_relations_cap_exceeded_count_and_message(search, names, k, count, message):
    with pytest.raises(CapExceededError) as info:
        SEARCHES[search](*(GRAPHS[n] for n in names), Caps(relations=k))
    assert info.value.count == count
    assert str(info.value) == message


@pytest.mark.parametrize("search,names,k,answer", RELATIONS_ANSWERS)
def test_answer_within_relations_cap(search, names, k, answer):
    assert SEARCHES[search](*(GRAPHS[n] for n in names), Caps(relations=k)) == answer
