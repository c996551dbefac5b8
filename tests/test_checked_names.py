"""Names are checked once, where they enter: the graphs that the parser,
``induced_subgraph``, ``essentialize`` and ``follower_separation`` build
without a second check equal what the public constructor builds."""

import random
import re

from sofic import graphs
from sofic.classify import follower_separation
from sofic.constructions import Dfa
from sofic.fileformat import parse
from sofic.graphs import EMPTY, LabeledGraph, essentialize, induced_subgraph

from .conftest import FIXTURES, fixture_graph
from .oracles import random_deterministic_graph
from .test_classify import quotient_graph

NAMES = ["v0", "v1", "q10", "a|b", "x.y", "é", "Z", "_", "0", "edge", "graph"]
LABELS = ["0", "1", "ab", "λ"]


def layout(rng, tokens):
    """One line of `tokens`, spaced by runs of spaces and tabs, sometimes
    with a comment, glued or not, and with an LF or a CRLF end."""
    line = rng.choice(["", " ", "\t", " \t "])
    for i, token in enumerate(tokens):
        line += token + (rng.choice([" ", "\t", "   ", " \t "]) if i + 1 < len(tokens) else "")
    line += rng.choice(["", "", " ", "\t", "# note", " # a # b", "#"])
    return line + rng.choice(["\n", "\r\n"])


def graph_lines(rng, name):
    """A graph document: some vertices declared unsorted before the first
    edges and the rest after them, then more edges, some repeated."""
    vertices = rng.sample(NAMES, rng.randint(1, len(NAMES)))
    early = vertices[: rng.randint(1, len(vertices))]
    lines = [["graph", name]] + [["vertex", v] for v in early]
    for declared in (early, vertices):
        edges = [
            ["edge", rng.choice(declared), rng.choice(LABELS), rng.choice(declared)]
            for _ in range(rng.randint(0, 12))
        ]
        lines += edges + rng.sample(edges, len(edges) // 3)
        if declared is early:
            lines += [["vertex", v] for v in vertices[len(early):]]
    return lines


def dfa_lines(rng, name):
    """A total dfa document over {a, b} on two or three states."""
    states = [f"s{i}" for i in range(rng.randint(2, 3))]
    lines = [["dfa", name], *(["vertex", q] for q in states), ["start", rng.choice(states)]]
    lines += [["edge", q, a, rng.choice(states)] for q in states for a in "ab"]
    return lines + [["accept", *rng.sample(states, rng.randint(0, len(states)))]]


def seeded_text(rng):
    """Two to four graph documents and one dfa document, with blank and
    comment-only lines between the lines."""
    docs = [graph_lines(rng, f"G{i}") for i in range(rng.randint(2, 4))]
    docs.insert(rng.randint(0, len(docs)), dfa_lines(rng, "D"))
    text = ""
    for tokens in (tokens for doc in docs for tokens in doc):
        text += rng.choice(["", "", "", "\n", "# comment\n", "\t\r\n", "  #\n"])
        text += layout(rng, tokens)
    return text


def tokenized(text):
    """The (kind, name, value) of each document in `text`, read by this
    test's own tokenizer and built by the public constructors."""
    docs = []
    for line in re.split(r"\r?\n", text):
        tokens = re.findall(r"[^\s#]+", line.split("#")[0])
        if not tokens:
            continue
        if tokens[0] in ("graph", "dfa"):
            docs.append((tokens[0], tokens[1], {"vertex": [], "edge": [], "start": [], "accept": []}))
        else:
            docs[-1][2][tokens[0]].extend([tokens[1:]] if tokens[0] == "edge" else tokens[1:])
    built = []
    for kind, name, decl in docs:
        if kind == "graph":
            value = LabeledGraph(vertices=decl["vertex"], edges=decl["edge"])
        else:
            delta = {(q, a): t for q, a, t in decl["edge"]}
            sigma = sorted({a for _, a, _ in decl["edge"]})
            value = Dfa(decl["vertex"], sigma, delta, decl["start"][0], decl["accept"])
        built.append((kind, name, value))
    return built


def test_parse_equals_the_public_constructor_on_seeded_documents():
    rng = random.Random(71)
    for _ in range(300):
        text = seeded_text(rng)
        got = [(doc.kind, doc.name, doc.value) for doc in parse(text)]
        assert got == tokenized(text), text


def test_parse_equals_the_public_constructor_on_the_fixtures():
    for path in sorted(FIXTURES.glob("*.sg")):
        text = path.read_text(encoding="utf-8")
        assert [(d.kind, d.name, d.value) for d in parse(text)] == tokenized(text)


def seeded_graphs():
    rng = random.Random(72)
    fixtures = [fixture_graph(name) for name in ("ev", "fig1", "full1", "gm", "hfig1")]
    return [EMPTY, *fixtures, *(random_deterministic_graph(rng, 6, "01") for _ in range(300))]


def test_derived_graphs_equal_the_public_constructor():
    rng = random.Random(73)
    for g in seeded_graphs():
        part = rng.sample(g.vertices, rng.randint(0, len(g.vertices)))
        inside = [e for e in g.edges if e[0] in part and e[2] in part]
        assert induced_subgraph(g, part) == LabeledGraph(vertices=part, edges=inside)
        core = essentialize(g)
        alive = set(core.vertices)
        kept = [e for e in g.edges if e[0] in alive and e[2] in alive]
        assert core == LabeledGraph(vertices=alive, edges=kept)
        assert essentialize(core) == core
        assert follower_separation(core) == quotient_graph(core)


def test_parse_checks_no_name_a_second_time(monkeypatch):
    calls = []
    are_tokens = graphs._are_tokens

    def counted(names):
        calls.append(names)
        return are_tokens(names)

    monkeypatch.setattr(graphs, "_are_tokens", counted)
    text = "\n".join(path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.sg")))
    docs = parse(text)
    assert len(docs) == len(list(FIXTURES.glob("*.sg"))) and calls == []
    # the public constructor still checks every name
    g = next(doc.value for doc in docs if doc.kind == "graph")
    assert LabeledGraph(vertices=g.vertices, edges=g.edges) == g and calls
