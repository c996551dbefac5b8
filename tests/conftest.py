from pathlib import Path

import pytest

from sofic.fileformat import parse_one
from sofic.graphs import LabeledGraph

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name):
    """The path of the file ``tests/fixtures/<name>``, as a string."""
    return str(FIXTURES / name)


def fixture_graph(name):
    """The graph of ``tests/fixtures/<name>.sg``."""
    return parse_one((FIXTURES / f"{name}.sg").read_text(encoding="utf-8"), "graph").value


@pytest.fixture
def full1():
    return fixture_graph("full1")


@pytest.fixture
def fig1():
    # reducible, follower-separated, deterministic; its shift equals hfig1's
    return fixture_graph("fig1")


@pytest.fixture
def hfig1():
    return fixture_graph("hfig1")


@pytest.fixture
def gm():
    return fixture_graph("gm")


@pytest.fixture
def ev():
    return fixture_graph("ev")


@pytest.fixture
def p2():
    # two-cycle with one letter: no synchronizing word
    return LabeledGraph(edges=[("A", "a", "B"), ("B", "a", "A")])


@pytest.fixture
def dup_gm():
    # golden mean with the 0-loop split across two equivalent vertices
    return LabeledGraph(
        edges=[
            ("A", "0", "Ap"),
            ("Ap", "0", "A"),
            ("A", "1", "B"),
            ("Ap", "1", "B"),
            ("B", "0", "A"),
        ]
    )
