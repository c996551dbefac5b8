
import pytest

from sofic.constructions import Dfa, MultiEntryDfa, family_mik
from sofic.errors import DuplicateVertexError, ParseError
from sofic.fileformat import (
    dfa_document,
    graph_document,
    medfa_document,
    parse,
    parse_one,
    render,
)
from sofic.graphs import LabeledGraph

from .conftest import FIXTURES


def test_parse_graph(full1):
    doc = parse_one("graph FULL1\nvertex v\nedge v 0 v\nedge v 1 v\n")
    assert doc.kind == "graph"
    assert doc.name == "FULL1"
    assert doc.value == full1


def test_parse_dfa():
    doc = parse_one("dfa D\nvertex a\nstart a\naccept a\nedge a x a\n")
    dfa = doc.value
    assert dfa.start == "a"
    assert dfa.accepting == {"a"}
    assert dfa.accepts(("x", "x"))


def test_parse_medfa():
    text = (
        "medfa N\nvertex e\nvertex o\nstart e\nstart o\naccept e\n"
        "edge e a o\nedge o a e\n"
    )
    doc = parse_one(text)
    assert doc.kind == "medfa"
    assert doc.value.starts == ("e", "o")
    assert doc.value.accepts(("a",))  # entry o reaches e


def test_parse_errors():
    with pytest.raises(ParseError) as err:
        parse("graph G\nvertex a\nedge a x b\n")
    assert err.value.line == 3

    with pytest.raises(DuplicateVertexError):
        parse("graph G\nvertex a\nvertex a\n")

    with pytest.raises(ParseError):
        parse("vertex a\n")
    with pytest.raises(ParseError):
        parse("graph G\nfrobnicate a\n")
    with pytest.raises(ParseError):
        parse("dfa D\nvertex a\nedge a x a\n")  # no start
    with pytest.raises(ParseError):
        parse("dfa D\nvertex a\nvertex b\nstart a\nstart b\nedge a x a\nedge b x b\n")
    with pytest.raises(ParseError):
        # not total: b lacks an x edge
        parse("dfa D\nvertex a\nvertex b\nstart a\nedge a x b\n")


def parse_as_dfa(text):
    return parse_one(text, expect="dfa")


@pytest.mark.parametrize(
    "read, text, line, message",
    [
        (parse, "graph\n", 1, "graph header needs exactly one name"),
        (parse, "graph G\ndfa D E\n", 2, "dfa header needs exactly one name"),
        (parse, "graph G\nvertex a\nstart a\n", 3, "start is only valid in dfa/medfa documents"),
        (parse, "dfa D\nvertex a\nstart\n", 3, "start takes exactly one name"),
        (parse, "medfa N\nvertex a\nstart a a\n", 3, "start takes exactly one name"),
        (parse, "dfa D\nvertex a\nstart b\n", 3, "unknown start vertex 'b'"),
        (parse, "graph G\nvertex a\naccept a\n", 3, "accept is only valid in dfa/medfa documents"),
        (parse, "dfa D\nvertex a\nstart a\naccept a b\n", 4, "unknown accepting vertex 'b'"),
        (parse_one, "# nothing\n", 0, "expected exactly one document, found 0"),
        (parse_one, "graph G\ngraph H\n", 0, "expected exactly one document, found 2"),
        (parse_as_dfa, "graph G\nvertex a\n", 0, "expected a dfa document, found graph"),
        (parse, "edge a x b\n", 1, "'edge' before any document header"),
        (parse, "graph G\nvertex a\nedge a x b\n", 3, "edge references unknown vertex 'b'"),
        (parse, "graph G\nvertex a\nedge b x c\n", 3, "edge references unknown vertex 'b'"),
        (parse, "graph G\nvertex a\nedge a x b\nvertex b\n", 3,
         "edge references unknown vertex 'b'"),
        (parse, "graph G\nvertex a\nedge a x\n", 3, "edge takes SRC LABEL DST"),
        (parse, "graph G\nvertex a\nedge a x a y\n", 3, "edge takes SRC LABEL DST"),
        (parse, "graph G\nvertex a\nedge a x#y a\n", 3, "edge takes SRC LABEL DST"),
        (parse, "graph G\nvertex a\nedge a x b#a\n", 3, "edge references unknown vertex 'b'"),
        (parse, "graph G\nvertex a\ngraph H\nvertex b\nedge a x b\n", 5,
         "edge references unknown vertex 'a'"),
        (parse, "dfa D\nvertex a\nstart a\nedge a x b\n", 4, "edge references unknown vertex 'b'"),
        (parse, "dfa D\nvertex a\nstart a\nedge a x a\nedge a x a\n", 1,
         "dfa document 'D' has two 'x'-edges from 'a'"),
        (parse, "graph G\nmedfa N\nvertex a\nstart a\nedge a x a\nedge a x a\n", 2,
         "medfa document 'N' has two 'x'-edges from 'a'"),
    ],
    ids=[
        "header-no-name", "header-two-names", "start-in-graph", "start-no-name",
        "start-two-names", "unknown-start", "accept-in-graph", "unknown-accepting",
        "no-document", "two-documents", "wrong-kind", "edge-before-header",
        "edge-to-undeclared", "edge-from-undeclared", "vertex-after-edge", "edge-3-tokens",
        "edge-5-tokens", "edge-comment-cuts-label", "edge-comment-glued",
        "edge-vertex-of-previous-document", "dfa-edge-to-undeclared", "dfa-two-edges",
        "medfa-two-edges",
    ],
)
def test_parse_error_messages_and_lines(read, text, line, message):
    with pytest.raises(ParseError) as err:
        read(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_comments_and_blank_lines():
    text = "# leading comment\n\ngraph G  # trailing\nvertex a\nedge a x a\n"
    doc = parse_one(text)
    assert doc.value == LabeledGraph(edges=[("a", "x", "a")])


def test_edge_lines_that_take_the_general_branches():
    # a comment glued to a token, tabs, a blank comment line, and edges
    # in dfa and medfa documents
    text = (
        "graph G\nvertex a\nvertex b\nedge a x b#c\n\tedge\tb x a # back\n#\n"
        "dfa D\nvertex p\nvertex q\nstart p\nedge p x q\nedge q x p#\naccept q\n"
        "medfa N\nvertex e\nvertex o\nstart o\nedge e a o\nedge o a e\n"
    )
    g, d, n = (doc.value for doc in parse(text))
    assert g == LabeledGraph(edges=[("a", "x", "b"), ("b", "x", "a")])
    assert d.delta == {("p", "x"): "q", ("q", "x"): "p"}
    assert d.accepts(("x",)) and not d.accepts(("x", "x"))
    assert n.delta == {("e", "a"): "o", ("o", "a"): "e"}
    assert n.starts == ("o",)


def test_multiple_documents():
    text = "graph A\nvertex v\nedge v x v\n\ngraph B\nvertex w\nedge w y w\n"
    docs = parse(text)
    assert [d.name for d in docs] == ["A", "B"]


def test_round_trip_fixture_files():
    for path in sorted(FIXTURES.glob("*.sg")):
        docs = parse(path.read_text())
        assert parse(render(docs)) == docs


def test_round_trip_generated_documents(gm, fig1):
    docs = [
        graph_document("GM", gm),
        graph_document("FIG1", fig1),
        dfa_document("M0", family_mik(0)[0]),
        medfa_document(
            "N",
            MultiEntryDfa(
                ["e", "o"], ["a"], {("e", "a"): "o", ("o", "a"): "e"}, ["e", "o"], ["e"]
            ),
        ),
    ]
    assert parse(render(docs)) == tuple(docs)


def test_render_is_canonical(gm):
    text = render(graph_document("GM", gm))
    assert render(parse(text)) == text


def test_empty_graph_document():
    doc = parse_one("graph EMPTY\n")
    assert doc.value == LabeledGraph()
    assert parse(render(doc)) == (doc,)


def _two_state_dfa(p, q):
    return Dfa([p, q], ["x"], {(p, "x"): q, (q, "x"): p}, p, [q])


@pytest.mark.parametrize(
    "doc",
    [
        graph_document("G", LabeledGraph(edges=[("a#b", "x", "a#b")])),
        graph_document("G", LabeledGraph(edges=[("a", "x#", "a")])),
        graph_document("G#1", LabeledGraph(edges=[("a", "x", "a")])),
        graph_document("two words", LabeledGraph(edges=[("a", "x", "a")])),
        graph_document("", LabeledGraph(edges=[("a", "x", "a")])),
        dfa_document("D", _two_state_dfa("p q", "r")),
        dfa_document("D", _two_state_dfa("p", "")),
        dfa_document("D", _two_state_dfa("p", "#r")),
        medfa_document(
            "N",
            MultiEntryDfa(
                ["p", "q\tr"], ["x"], {("p", "x"): "p", ("q\tr", "x"): "p"}, ["q\tr"], []
            ),
        ),
    ],
)
def test_render_rejects_names_that_do_not_read_back(doc):
    with pytest.raises(ValueError, match="cannot render"):
        render(doc)


def test_render_round_trips_punctuated_names():
    docs = (
        graph_document(
            "G-1",
            LabeledGraph(edges=[("(a|b)", "x.y", "a\\b"), ("a\\b", "x.y", "(a|b)")]),
        ),
        dfa_document("D_2", _two_state_dfa("m0_q0", "m0_q1")),
    )
    assert parse(render(docs)) == docs
