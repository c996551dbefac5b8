"""Command-line front end.

Every decision procedure and generator is exposed as a subcommand over
the text format of :mod:`sofic.fileformat`.  Exit status 0 means the
queried property holds (or output was produced), 1 means it fails, and 2
means an error (bad input, unmet precondition).  ``--json`` swaps the
human-readable report for a single JSON object with ``result``,
``witness``, and ``details`` fields.
"""

import argparse
import functools
import json
import sys

from . import classify, exact, fileformat, oracle, syncwords
from .constructions import (
    family_mik,
    padded_family_gn,
    reduction_irred,
    reduction_sft,
    reduction_sync,
    sdp_blowup,
)
from .errors import NotSynchronizingError, SoficError
from .graphs import (
    alphabet,
    essentialize,
    irreducible_components,
    is_deterministic,
    is_essential,
    is_irreducible,
)

SCHEMA_VERSION = "1"
# family_mik(k) takes O(k**2) time; padded_family_gn(n) builds family_mik((n - 6) // 5)
MAX_FAMILY_K = 64


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_docs(paths):
    docs = []
    for path in paths or ["-"]:
        docs.extend(fileformat.parse(_read(path)))
    if not docs:
        raise SoficError("no documents found in input")
    return docs


def _one_graph(args):
    doc = _load_docs(args.files)[0]
    if doc.kind != "graph":
        raise SoficError(f"expected a graph document, found {doc.kind} {doc.name!r}")
    return doc.value


def _two_graphs(args):
    docs = _load_docs(args.files)
    if len(docs) < 2:
        raise SoficError("need two graph documents (two files, or one file with two)")
    for doc in docs[:2]:
        if doc.kind != "graph":
            raise SoficError(
                f"expected graph documents, found {doc.kind} {doc.name!r}"
            )
    return docs[0].value, docs[1].value


def _dfas(args, reader="generator"):
    docs = _load_docs(args.files)
    if any(doc.kind != "dfa" for doc in docs):
        raise SoficError(f"this {reader} expects dfa documents only")
    return [doc.value for doc in docs]


def _word(w):
    return " ".join(w) if w else "(empty word)"


def _emit(args, code, result, witness=None, details=None, text=None):
    if args.json:
        payload = {"schema": SCHEMA_VERSION, "result": result}
        if witness is not None:
            payload["witness"] = list(witness)
        if details:
            payload["details"] = details
        if text is not None:
            payload["text"] = text
        print(json.dumps(payload, sort_keys=True))
        return code
    if text is not None:
        sys.stdout.write(text)
    else:
        print(f"result: {str(result).lower() if isinstance(result, bool) else result}")
        if witness is not None:
            print(f"witness: {_word(witness)}")
        for key, value in (details or {}).items():
            print(f"{key}: {value}")
    return code


def _bool_result(args, value, witness=None, details=None):
    return _emit(args, 0 if value else 1, value, witness=witness, details=details)


def cmd_check(args):
    g = _one_graph(args)
    det = is_deterministic(g)
    details = {
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "alphabet": " ".join(alphabet(g)),
        "deterministic": det,
        "essential": is_essential(g),
        "irreducible": is_irreducible(g),
        "synchronizing": syncwords.is_synchronizing(g) if det else "n/a",
    }
    return _emit(args, 0, True, details=details)


def _print_graph(args, name, g):
    return _emit(args, 0, True, text=fileformat.render(fileformat.graph_document(name, g)))


def cmd_essential(args):
    return _print_graph(args, "essential", essentialize(_one_graph(args)))


def cmd_components(args):
    g = _one_graph(args)
    details = {}
    for i, comp in enumerate(irreducible_components(g), start=1):
        flags = [w for w, keep in (("initial", comp.initial), ("terminal", comp.terminal)) if keep]
        details[f"component{i}"] = " ".join(sorted(comp.vertices)) + (
            f"  [{', '.join(flags)}]" if flags else ""
        )
    return _emit(args, 0, True, details=details)


def cmd_syncword(args):
    g = _one_graph(args)
    if args.exact:
        word = exact.shortest_sync_word(g)
    else:
        word = syncwords.synchronizing_word_irreducible(g)
    return _bool_result(args, word is not None, witness=word)


def cmd_separate(args):
    g, h = _two_graphs(args)
    word = syncwords.separating_word(g, h)
    return _bool_result(args, word is not None, witness=word)


def cmd_subshift(args):
    g, h = _two_graphs(args)
    if args.exact:
        holds, witness = exact.subshift_witness(g, h)
    else:
        witness = syncwords.separating_word(g, h)
        holds = witness is None
    return _bool_result(args, holds, witness=witness)


def _decide(args, polynomial, exhaustive, *graphs):
    """Answers by the polynomial decider, or by the exact one if the input is not synchronizing.

    The two agree wherever the polynomial one applies.
    """
    try:
        value = polynomial(*graphs)
    except NotSynchronizingError:
        value = exhaustive(*graphs)
    return _bool_result(args, value)


def cmd_equal(args):
    return _decide(args, classify.equal_sync, exact.decide_equality, *_two_graphs(args))


def cmd_is_sft(args):
    return _decide(args, classify.is_sft_sync, exact.decide_sft, _one_graph(args))


def cmd_is_irreducible(args):
    return _decide(
        args, classify.is_irreducible_shift_sync, exact.decide_irreducibility, _one_graph(args)
    )


def cmd_has_sdp(args):
    return _bool_result(args, exact.decide_sdp_exists(_one_graph(args)))


def cmd_universal(args):
    return _bool_result(args, classify.is_universal(_one_graph(args)))


def cmd_minimal(args):
    return _bool_result(args, exact.decide_minimality(_one_graph(args), args.k))


def cmd_sync_to(args):
    word = syncwords.sync_word_to_vertex(_one_graph(args), args.vertex)
    return _emit(args, 0, True, witness=word)


def cmd_follower_sep(args):
    return _print_graph(args, "separated", classify.follower_separation(_one_graph(args)))


def cmd_iso(args):
    g, h = _two_graphs(args)
    mapping = classify.are_isomorphic(g, h)
    details = None
    if mapping is not None:
        details = {f"map {src}": dst for src, dst in sorted(mapping.items())}
    return _bool_result(args, mapping is not None, details=details)


def cmd_gen(args):
    kind = args.generator
    if kind == "mik":
        if args.k is None:
            raise SoficError("gen mik needs --k")
        if args.k > MAX_FAMILY_K:
            raise SoficError(f"gen mik --k must be at most {MAX_FAMILY_K}")
        docs = [
            fileformat.dfa_document(f"M{i}", dfa)
            for i, dfa in enumerate(family_mik(args.k))
        ]
    elif kind == "padded":
        if args.n is None:
            raise SoficError("gen padded needs --n")
        if (args.n - 6) // 5 > MAX_FAMILY_K:
            raise SoficError(f"gen padded --n must be at most {6 + 5 * MAX_FAMILY_K + 4}")
        docs = [fileformat.graph_document(f"G{args.n}", padded_family_gn(args.n))]
    elif kind in ("red-irred", "red-sft"):
        reduction = reduction_irred if kind == "red-irred" else reduction_sft
        docs = [
            fileformat.graph_document(name, graph)
            for name, graph in zip("GH", reduction(_dfas(args)))
        ]
    elif kind == "red-sync":
        docs = [fileformat.graph_document("G", reduction_sync(_dfas(args)))]
    else:  # sdp-blowup
        loaded = _load_docs(args.files)
        if len(loaded) != 1 or loaded[0].kind != "medfa":
            raise SoficError("gen sdp-blowup expects a single medfa document")
        docs = [fileformat.graph_document("G", sdp_blowup(loaded[0].value))]
    return _emit(args, 0, True, text=fileformat.render(docs))


def cmd_oracle(args):
    if args.oracle == "lang":
        g = _one_graph(args)
        words = sorted(oracle.language_upto(g, args.max_len), key=lambda w: (len(w), w))
        if args.json:
            return _emit(args, 0, True, details={"words": [list(w) for w in words]})
        for w in words:
            print(_word(w))
        return 0
    dfas = _dfas(args, "oracle")
    if args.oracle == "dfa-int":
        word = oracle.dfa_intersection_shortest(dfas)
        details = None if word is None else {"length": len(word)}
        return _bool_result(args, word is not None, witness=word, details=details)
    universal, witness = oracle.dfa_union_universal(dfas)
    return _bool_result(args, universal, witness=witness)


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sofic",
        description="decision procedures and generators for sofic-shift presentations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, exact=False, selector=None, choices=None):
        p = sub.add_parser(name)
        if selector:
            p.add_argument(selector, choices=choices)
        p.add_argument("files", nargs="*", help="input files ('-' for stdin)")
        p.add_argument("--json", action="store_true")
        if exact:
            p.add_argument("--exact", action="store_true")
        p.set_defaults(handler=handler)
        return p

    add("check", cmd_check)
    add("essential", cmd_essential)
    add("components", cmd_components)
    add("syncword", cmd_syncword, exact=True)
    add("separate", cmd_separate)
    add("subshift", cmd_subshift, exact=True)
    add("equal", cmd_equal)
    add("is-sft", cmd_is_sft)
    add("is-irreducible", cmd_is_irreducible)
    add("has-sdp", cmd_has_sdp)
    add("universal", cmd_universal)
    minimal = add("minimal", cmd_minimal)
    minimal.add_argument("--k", type=int, required=True)
    sync_to = add("sync-to", cmd_sync_to)
    sync_to.add_argument("--vertex", required=True)
    add("follower-sep", cmd_follower_sep)
    add("iso", cmd_iso)
    gen = add(
        "gen",
        cmd_gen,
        selector="generator",
        choices=["red-irred", "red-sft", "red-sync", "sdp-blowup", "mik", "padded"],
    )
    gen.add_argument("--k", type=int)
    gen.add_argument("--n", type=int)
    orc = add("oracle", cmd_oracle, selector="oracle", choices=["lang", "dfa-int", "dfa-union"])
    orc.add_argument("--max-len", type=int, default=8)
    return parser


def main(argv=None):
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse fills the file list (after the selector of gen and oracle)
    # from the words before the first option, so files after one end up here
    args.files += [a for a in extra if a == "-" or not a.startswith("-")]
    extra = [a for a in extra if a != "-" and a.startswith("-")]
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # SoficError subclasses ValueError, so this covers both the
        # package's precondition errors and plain bad arguments
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
