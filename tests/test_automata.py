"""``Dfa`` and ``MultiEntryDfa``: equality, reachability, validation and slots."""

import pytest

from sofic.constructions import Dfa, MultiEntryDfa

STATES = ("p", "q", "r", "s")
DELTA = {
    ("p", "a"): "p", ("p", "b"): "q",
    ("q", "a"): "q", ("q", "b"): "q",
    ("r", "a"): "s", ("r", "b"): "r",
    ("s", "a"): "s", ("s", "b"): "s",
}


def test_a_dfa_never_equals_a_multi_entry_dfa():
    dfa = Dfa(STATES, "ab", DELTA, "p", ["q"])
    medfa = MultiEntryDfa(STATES, "ab", DELTA, ["p"], ["q"])
    assert dfa != medfa
    assert medfa != dfa
    assert not dfa == medfa
    assert len({dfa, medfa}) == 2
    assert dfa == Dfa(STATES, "ba", dict(DELTA), "p", {"q"})
    assert medfa == MultiEntryDfa(STATES, "ba", dict(DELTA), ("p",), {"q"})
    assert hash(dfa) == hash(Dfa(STATES, "ba", dict(DELTA), "p", {"q"}))
    assert dfa != Dfa(STATES, "ab", DELTA, "r", ["q"])
    assert medfa != MultiEntryDfa(STATES, "ab", DELTA, ["p", "r"], ["q"])
    assert medfa != MultiEntryDfa(STATES, "ab", DELTA, ["p"], ["s"])


def test_equality_with_other_types_and_repr():
    dfa = Dfa(STATES, "ba", DELTA, "p", ["s", "q"])
    assert dfa != STATES
    assert dfa.__eq__(STATES) is NotImplemented
    assert repr(dfa) == (
        "Dfa(states=('p', 'q', 'r', 's'), alphabet=('a', 'b'), "
        "start='p', accepting=['q', 's'])"
    )


def test_reachable_from_several_entries():
    assert Dfa(STATES, "ab", DELTA, "p", []).reachable() == {"p", "q"}
    assert Dfa(STATES, "ab", DELTA, "s", []).reachable() == {"s"}
    medfa = MultiEntryDfa(STATES, "ab", DELTA, ["q", "r"], [])
    assert medfa.reachable() == {"q", "r", "s"}
    assert MultiEntryDfa(STATES, "ab", DELTA, ["r", "r"], []).reachable() == {"r", "s"}
    assert MultiEntryDfa(STATES, "ab", DELTA, ["s", "p"], []).reachable() == set(STATES) - {"r"}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Dfa(STATES, "ab", DELTA, "x", []), "start state 'x' is not a state"),
        (lambda: Dfa(STATES, "ab", DELTA, "p", ["x"]), "accepting states must be states"),
        (
            lambda: Dfa(STATES, "a", DELTA, "p", []),
            "transition function must be total on states x alphabet",
        ),
        (
            lambda: Dfa(STATES, "ab", {**DELTA, ("p", "a"): "x"}, "p", []),
            "transition targets must be states",
        ),
        (lambda: MultiEntryDfa(STATES, "ab", DELTA, [], []), "need at least one entry state"),
        (
            lambda: MultiEntryDfa(STATES, "ab", DELTA, ["x", "p"], []),
            "start state 'x' is not a state",
        ),
        (
            lambda: MultiEntryDfa(STATES, "ab", DELTA, ["p", "x"], []),
            "entry state 'x' is not a state",
        ),
        (
            lambda: MultiEntryDfa(STATES, "ab", DELTA, ["p", "x"], ["y"]),
            "accepting states must be states",
        ),
        (
            lambda: MultiEntryDfa(STATES, "a", DELTA, ["p", "x"], []),
            "transition function must be total on states x alphabet",
        ),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_instances_take_no_new_attributes():
    for value in (
        Dfa(STATES, "ab", DELTA, "p", []),
        MultiEntryDfa(STATES, "ab", DELTA, ["p"], []),
    ):
        with pytest.raises(AttributeError):
            value.extra = 1
