"""Line-oriented text format for graphs and automata.

A file holds one or more documents, each opened by a header line::

    graph NAME | dfa NAME | medfa NAME

followed, in any order, by declarations:

    vertex NAME
    edge SRC LABEL DST
    start NAME          (dfa: exactly once; medfa: repeatable, in order)
    accept NAME...      (dfa/medfa)

Tokens are whitespace-separated; everything after a ``#`` is a comment.
Edges may only reference declared vertices.  Rendering emits the
canonical form (sorted vertices and edges), and parse/render/parse is
the identity on it.
"""

from dataclasses import dataclass

from .constructions import Dfa, MultiEntryDfa
from .errors import DuplicateVertexError, ParseError
from .graphs import LabeledGraph, _are_tokens

KINDS = ("graph", "dfa", "medfa")


@dataclass(frozen=True)
class GraphDocument:
    """One named document: a graph or automaton plus its header kind."""

    kind: str
    name: str
    value: object


def _finish(kind, name, line, vertices, edges, starts, accepting):
    if kind == "graph":
        return GraphDocument(kind, name, LabeledGraph(vertices=vertices, edges=edges))
    if not starts:
        raise ParseError(line, f"{kind} document {name!r} has no start state")
    sigma = sorted({a for _, a, _ in edges})
    delta = {}
    for src, a, dst in edges:
        if (src, a) in delta:
            raise ParseError(
                line, f"{kind} document {name!r} has two {a!r}-edges from {src!r}"
            )
        delta[(src, a)] = dst
    try:
        if kind == "dfa":
            value = Dfa(vertices, sigma, delta, starts[0], accepting)
        else:
            value = MultiEntryDfa(vertices, sigma, delta, starts, accepting)
    except ValueError as exc:
        raise ParseError(line, f"invalid {kind} {name!r}: {exc}") from None
    return GraphDocument(kind, name, value)


def parse(text):
    """Parses every document in `text`, returning a tuple of GraphDocuments.

    Raises
    ------
    ParseError
        With the offending 1-based line number.
    """
    docs = []
    kind = name = None
    header_line = 0
    vertices = set()
    edges = []
    starts = []
    accepting = []

    def close():
        if kind is not None:
            docs.append(
                _finish(kind, name, header_line, vertices, edges, starts, accepting)
            )

    for number, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        # a well-formed edge first; outside a document `vertices` is empty,
        # so every other line keeps the general branches and their errors
        if (
            len(tokens) == 4
            and tokens[0] == "edge"
            and tokens[1] in vertices
            and tokens[3] in vertices
        ):
            edges.append((tokens[1], tokens[2], tokens[3]))
            continue
        if not tokens:
            continue
        directive, args = tokens[0], tokens[1:]
        if directive in KINDS:
            if len(args) != 1:
                raise ParseError(number, f"{directive} header needs exactly one name")
            close()
            kind, name, header_line = directive, args[0], number
            vertices, edges, starts, accepting = set(), [], [], []
            continue
        if kind is None:
            raise ParseError(number, f"{directive!r} before any document header")
        if directive == "vertex":
            if len(args) != 1:
                raise ParseError(number, "vertex takes exactly one name")
            if args[0] in vertices:
                raise DuplicateVertexError(
                    number, f"vertex {args[0]!r} declared twice"
                )
            vertices.add(args[0])
        elif directive == "edge":
            if len(args) != 3:
                raise ParseError(number, "edge takes SRC LABEL DST")
            # well-formed edges were taken above, so an endpoint is unknown
            unknown = next(v for v in (args[0], args[2]) if v not in vertices)
            raise ParseError(number, f"edge references unknown vertex {unknown!r}")
        elif directive == "start":
            if kind == "graph":
                raise ParseError(number, "start is only valid in dfa/medfa documents")
            if len(args) != 1:
                raise ParseError(number, "start takes exactly one name")
            if args[0] not in vertices:
                raise ParseError(number, f"unknown start vertex {args[0]!r}")
            if kind == "dfa" and starts:
                raise ParseError(number, "dfa documents take a single start state")
            starts.append(args[0])
        elif directive == "accept":
            if kind == "graph":
                raise ParseError(number, "accept is only valid in dfa/medfa documents")
            for state in args:
                if state not in vertices:
                    raise ParseError(number, f"unknown accepting vertex {state!r}")
                accepting.append(state)
        else:
            raise ParseError(number, f"unknown directive {directive!r}")
    close()
    return tuple(docs)


def parse_one(text, expect=None):
    """Parses exactly one document, optionally checking its kind."""
    docs = parse(text)
    if len(docs) != 1:
        raise ParseError(0, f"expected exactly one document, found {len(docs)}")
    if expect is not None and docs[0].kind != expect:
        raise ParseError(0, f"expected a {expect} document, found {docs[0].kind}")
    return docs[0]


def _check_tokens(tokens):
    """Raises ValueError unless each of `tokens` reads back as one token."""
    tokens = list(map(str, tokens))
    if _are_tokens(tokens) and "#" not in "".join(tokens):
        return
    bad = next(t for t in tokens if not t or "#" in t or t.split() != [t])
    raise ValueError(f"cannot render {bad!r}: empty, or holds whitespace or '#'")


def render(docs):
    """Renders one document or an iterable of documents in canonical form.

    Raises ValueError on a name that would not read back as itself.
    """
    if isinstance(docs, GraphDocument):
        docs = (docs,)
    chunks = []
    for doc in docs:
        lines = [f"{doc.kind} {doc.name}"]
        value = doc.value
        if doc.kind == "graph":
            vertices, edges = value.vertices, value.edges
        else:
            vertices = value.states
            edges = sorted((q, a, t) for (q, a), t in value.delta.items())
        _check_tokens([doc.name, *vertices, *sorted({a for _, a, _ in edges})])
        lines.extend(f"vertex {v}" for v in vertices)
        if doc.kind == "dfa":
            lines.append(f"start {value.start}")
        elif doc.kind == "medfa":
            lines.extend(f"start {s}" for s in value.starts)
        if doc.kind != "graph" and value.accepting:
            lines.append("accept " + " ".join(sorted(value.accepting)))
        lines.extend(f"edge {src} {label} {dst}" for src, label, dst in edges)
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def graph_document(name, graph):
    return GraphDocument("graph", name, graph)


def dfa_document(name, dfa):
    return GraphDocument("dfa", name, dfa)


def medfa_document(name, medfa):
    return GraphDocument("medfa", name, medfa)
