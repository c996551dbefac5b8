"""The action monoid and its analysis, pinned to recorded values.

The inputs are the graphs of ``tests/fixtures`` and seeded
``reduction_irred``/``reduction_sft`` graphs built from 2-3 random DFAs
with 1-5 states, as the benchmark's DFA battery builds them.  For each
input the record holds the elements in breadth-first order, every word
witness, the Cayley step of every element by every label, both flags of
the analysis for every element, ``decide_sft``, ``decide_sdp_exists``
and the ``CapExceededError`` of ``action_monoid(g, Caps(relations=k))``
for a few k up to the size minus one.  Bulky values are kept as SHA-256
digests of their JSON form, so any change to the element order, to a
witness or to a step shows up as a different digest.

The values were recorded from the tuple-keyed closure that the
byte-string one replaced.  To record them again (only when a change of
these answers is intended)::

    PYTHONPATH=src python -m tests.test_exact_monoid
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from sofic.constructions import reduction_irred, reduction_sft
from sofic.errors import (
    AllLanguagesEmptyError,
    CapExceededError,
    NotAnElementError,
    SoficError,
)
from sofic.exact import (
    ActionRelation,
    Caps,
    action_monoid,
    action_of_word,
    decide_sdp_exists,
    decide_sft,
    is_intrinsically_sync_relation,
    preceded_by_intrinsic_sync,
)
from sofic.fileformat import parse
from sofic.graphs import LabeledGraph

from .oracles import random_dfa

ROOT = Path(__file__).resolve().parent
RECORD = ROOT / "golden" / "monoid.json"
BATTERY_TUPLES = 15
# tuples whose monoid on either graph exceeds this are skipped, which
# keeps the battery at about a second
BATTERY_SIZE_LIMIT = 2000


def graphs():
    """The inputs by name: fixture graphs, then the seeded reduction battery."""
    out = {}
    for path in sorted((ROOT / "fixtures").glob("*.sg")):
        for doc in parse(path.read_text(encoding="utf-8")):
            if doc.kind == "graph":
                out[path.stem] = doc.value
    rng = random.Random(4)
    tuples = 0
    while tuples < BATTERY_TUPLES:
        dfas = [random_dfa(rng, 5) for _ in range(rng.randint(2, 3))]
        try:
            g1, _ = reduction_irred(dfas)
        except AllLanguagesEmptyError:
            continue
        g2, _ = reduction_sft(dfas)
        try:
            for g in (g1, g2):
                action_monoid(g, Caps(relations=BATTERY_SIZE_LIMIT))
        except CapExceededError:
            continue
        out[f"irred{tuples}"] = g1
        out[f"sft{tuples}"] = g2
        tuples += 1
    return out


def digest(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def outcome(call):
    try:
        return call()
    except SoficError as exc:
        return [type(exc).__name__, str(exc)]


def cap_errors(g, size):
    rows = []
    for k in sorted({1, 2, size // 2, size - 1} - {0}):
        if k >= size:
            continue
        with pytest.raises(CapExceededError) as info:
            action_monoid(g, Caps(relations=k))
        rows.append([k, info.value.count, str(info.value)])
    return rows


def observe(g):
    m = action_monoid(g)
    elements = m.elements
    position = {e.targets: i for i, e in enumerate(elements)}
    labels = sorted(m.generators)
    return {
        "size": m.size,
        "elements": digest([list(e.targets) for e in elements]),
        "witnesses": digest([list(m.word_witness(e)) for e in elements]),
        "steps": digest([[position[m.step(e, a).targets] for a in labels] for e in elements]),
        "intrinsic": "".join(
            "1" if is_intrinsically_sync_relation(m, e) else "0" for e in elements
        ),
        "preceded": "".join(
            "1" if preceded_by_intrinsic_sync(m, e) else "0" for e in elements
        ),
        "decide_sft": outcome(lambda: decide_sft(g)),
        "decide_sdp_exists": outcome(lambda: decide_sdp_exists(g)),
        "cap_errors": cap_errors(g, m.size),
    }


def _load():
    with open(RECORD, encoding="utf-8") as handle:
        return json.load(handle)


GRAPHS = graphs()


def test_record_covers_the_inputs():
    assert sorted(_load()) == sorted(GRAPHS)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_monoid_matches_record(name):
    assert observe(GRAPHS[name]) == _load()[name]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_witnesses_and_steps_are_actions_of_words(name):
    g = GRAPHS[name]
    m = action_monoid(g)
    for e in m.elements:
        word = m.word_witness(e)
        assert action_of_word(g, word) == e
        for a in m.generators:
            assert m.step(e, a) == action_of_word(g, word + (a,))


def test_cap_equal_to_size_is_enough():
    for g in GRAPHS.values():
        size = action_monoid(g).size
        assert action_monoid(g, Caps(relations=size)).size == size


# ------------------------------------------------- more than 255 vertices


def big_graph():
    """A 0-cycle through v000..v299 with 1-edges v_i -> v_(i+1) for even i."""
    names = [f"v{i:03d}" for i in range(300)]
    edges = [(names[i], "0", names[(i + 1) % 300]) for i in range(300)]
    edges += [(names[i], "1", names[i + 1]) for i in range(0, 300, 2)]
    return LabeledGraph(vertices=names, edges=edges)


def test_monoid_above_255_vertices():
    g = big_graph()
    m = action_monoid(g)
    assert m.size == 901
    assert decide_sft(g) is False
    assert decide_sdp_exists(g) is True
    elements = m.elements
    assert len(set(elements)) == 901
    assert all(e in m for e in elements)
    for e in elements[::37] + elements[-3:]:
        word = m.word_witness(e)
        assert action_of_word(g, word) == e
        assert m.step(e, "1") == action_of_word(g, word + ("1",))
    with pytest.raises(CapExceededError) as info:
        action_monoid(g, Caps(relations=900))
    assert info.value.count == 901


# ----------------------------------------------------- lookups that fail


def not_elements():
    gm = GRAPHS["gm"]
    big = big_graph()
    return [
        (gm, ActionRelation(gm, (0,))),
        (gm, ActionRelation(gm, (0, 1, 1))),
        (gm, ActionRelation(gm, (256, 0))),
        (gm, ActionRelation(gm, (0, 300))),
        (gm, ActionRelation(gm, (-2, 0))),
        (gm, ActionRelation(gm, (2, 2))),
        (gm, ActionRelation(gm, (1, 0))),
        (gm, ActionRelation(GRAPHS["ev"], (0, 1))),
        (big, ActionRelation(big, tuple(range(299)))),
        (big, ActionRelation(big, (300,) + tuple(range(1, 300)))),
        (big, ActionRelation(big, (-2,) + tuple(range(1, 300)))),
        (big, ActionRelation(big, (300,) * 300)),
    ]


@pytest.mark.parametrize("index", range(len(not_elements())))
def test_lookup_of_a_non_element(index):
    g, relation = not_elements()[index]
    m = action_monoid(g)
    assert relation not in m
    with pytest.raises(NotAnElementError):
        m.word_witness(relation)
    with pytest.raises(NotAnElementError):
        m.step(relation, "0")
    with pytest.raises(NotAnElementError):
        is_intrinsically_sync_relation(m, relation)
    with pytest.raises(NotAnElementError):
        preceded_by_intrinsic_sync(m, relation)


def test_step_by_a_foreign_label():
    m = action_monoid(GRAPHS["gm"])
    with pytest.raises(NotAnElementError):
        m.step(m.elements[0], "2")


def record():
    with open(RECORD, "w", encoding="utf-8") as handle:
        json.dump({name: observe(g) for name, g in GRAPHS.items()}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    record()
