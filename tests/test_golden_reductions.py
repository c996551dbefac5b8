"""Golden digests of the DFA reductions and the padded family.

``reductions.json`` holds, for each generator of ``sofic.constructions``,
one SHA-256 digest over its outputs on a fixed, seeded list of inputs:

- ``reduction_irred``, ``reduction_sft`` and ``reduction_sync`` on
  tuples of one to three random DFAs with up to four states (these
  include unreachable states, empty languages and single machines);
- ``sdp_blowup`` on random multiple-entry automata, some with repeated
  entry states;
- ``padded_family_gn(n)`` for n = 11..40.

Each output enters the digest as the ``repr`` of its sorted vertices and
edges (both graphs of a pair), or as the class name of the error raised,
so any change to a built graph changes the digest.

To record the digests again (only when an output change is intended)::

    PYTHONPATH=src python -m tests.test_golden_reductions
"""

import hashlib
import json
import random

from sofic.constructions import (
    MultiEntryDfa,
    padded_family_gn,
    reduction_irred,
    reduction_sft,
    reduction_sync,
    sdp_blowup,
)
from sofic.errors import SoficError

from .oracles import random_dfa
from .test_golden import GOLDEN

REDUCTIONS = GOLDEN / "reductions.json"
TUPLE_COUNT = 300
MEDFA_COUNT = 200
PADDED_SIZES = range(11, 41)


def dfa_tuples():
    rng = random.Random(2020)
    return [
        [random_dfa(rng, 4) for _ in range(rng.randint(1, 3))]
        for _ in range(TUPLE_COUNT)
    ]


def random_medfa(rng):
    dfa = random_dfa(rng, 4)
    starts = [rng.choice(dfa.states) for _ in range(rng.randint(1, 3))]
    return MultiEntryDfa(dfa.states, dfa.alphabet, dfa.delta, starts, dfa.accepting)


def medfas():
    rng = random.Random(2021)
    return [random_medfa(rng) for _ in range(MEDFA_COUNT)]


def layout(result):
    if isinstance(result, tuple):
        return tuple(layout(g) for g in result)
    return (result.vertices, result.edges)


def digest(build, inputs):
    h = hashlib.sha256()
    for x in inputs:
        try:
            out = layout(build(x))
        except SoficError as exc:
            out = type(exc).__name__
        h.update(repr(out).encode("utf-8") + b"\n")
    return h.hexdigest()


def observe():
    tuples = dfa_tuples()
    return {
        "reduction_irred": digest(reduction_irred, tuples),
        "reduction_sft": digest(reduction_sft, tuples),
        "reduction_sync": digest(reduction_sync, tuples),
        "sdp_blowup": digest(sdp_blowup, medfas()),
        "padded_family_gn": digest(padded_family_gn, PADDED_SIZES),
    }


def test_inputs_cover_the_normalizations():
    tuples = dfa_tuples()
    assert any(len(t) == 1 for t in tuples)
    assert any(len(d.reachable()) < len(d.states) for t in tuples for d in t)
    assert any(not (d.accepting & d.reachable()) for t in tuples for d in t)
    assert any(len(set(m.starts)) < len(m.starts) for m in medfas())


def test_reduction_digests():
    with open(REDUCTIONS, encoding="utf-8") as handle:
        assert observe() == json.load(handle)


def record():
    with open(REDUCTIONS, "w", encoding="utf-8") as handle:
        json.dump(observe(), handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    record()
