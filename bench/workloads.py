"""The three seeded workloads: instance generators, verdict batteries, references.

A workload's ``build(pkg, rng, smallest)`` generates its instances from
the seeded `rng` with the package modules in `pkg` and returns a list of
:class:`Case`.  Each case carries its inputs (graphs or ``.sg`` text) and
its verdicts: a decision call on the inputs plus a check of the answer
against a reference that does not come from the engine under test.
Checks run after the timed loop; a reference is computed on first use
and cached on the case.
"""

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass, field

import naive


@dataclass
class Verdict:
    kind: str
    call: object  # inputs -> answer
    check: object  # (case, answer) -> bool


@dataclass
class Case:
    name: str
    inputs: dict  # name -> LabeledGraph or .sg text
    verdicts: list
    facts: dict = field(default_factory=dict)  # generator data for the checks
    refs: dict = field(default_factory=dict)  # cached reference answers

    def ref(self, key, compute):
        if key not in self.refs:
            self.refs[key] = compute()
        return self.refs[key]


def renew(pkg, inputs):
    """Fresh graph objects with the same content, so no per-object state carries over."""
    graph_type = pkg.graphs.LabeledGraph
    return {
        key: graph_type(vertices=value.vertices, edges=value.edges)
        if isinstance(value, graph_type)
        else value
        for key, value in inputs.items()
    }


def renamed(pkg, g, names):
    """The copy of `g` whose i-th vertex (sorted order) is called ``names[i]``."""
    mapping = dict(zip(g.vertices, names))
    return pkg.graphs.LabeledGraph(
        vertices=names, edges=[(mapping[s], a, mapping[d]) for s, a, d in g.edges]
    )


def random_names(rng, count, prefix):
    names = set()
    while len(names) < count:
        names.add(prefix + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6)))
    return sorted(names)


# ---------------------------------------------------------------- padded_sync

PADDED_RANGE = range(12, 37)


def doubling_word(k):
    """The length-2**k word every machine of the doubling family accepts."""
    word = ["0"]
    for j in range(1, k + 1):
        word = [x for a in word for x in (a, str(j))]
    return tuple(word)


def _padded_word_ok(case, word):
    k = case.facts["k"]
    if word is None or len(word) != 2**k + 2:
        return False
    g = case.facts["graph"]
    return len(naive.walk_all(g.edges, g.vertices, word)) == 1


def _padded_target(case):
    # lm w rm synchronizes the family to one vertex (the success state)
    g = case.facts["graph"]
    word = ("lm",) + doubling_word(case.facts["k"]) + ("rm",)
    (target,) = naive.walk_all(g.edges, g.vertices, word)
    return target


def build_padded_sync(pkg, rng, smallest):
    exact = pkg.exact
    sizes = list(PADDED_RANGE)[:1] if smallest else list(PADDED_RANGE)
    verdicts = [
        Verdict("shortest_sync_word", lambda ins: exact.shortest_sync_word(ins["g"]), _padded_word_ok),
        Verdict(
            "synchronizing_vertices",
            lambda ins: exact.synchronizing_vertices(ins["g"]),
            lambda case, got: case.ref("target", lambda: _padded_target(case)) in got,
        ),
        Verdict(
            "decide_subshift(g,h)",
            lambda ins: exact.decide_subshift(ins["g"], ins["h"]),
            lambda case, got: got is True,
        ),
        Verdict(
            "decide_subshift(h,g)",
            lambda ins: exact.decide_subshift(ins["h"], ins["g"]),
            lambda case, got: got is True,
        ),
    ]
    cases = []
    for n in sizes:
        g = pkg.constructions.padded_family_gn(n)
        # reverse the sorted order of the names so that tie-breaks differ
        h = renamed(pkg, g, random_names(rng, n, "r")[::-1])
        cases.append(
            Case(f"n{n}", {"g": g, "h": h}, verdicts, facts={"graph": g, "k": (n - 6) // 5})
        )
    return cases


# ---------------------------------------------------------------- dfa_battery

# Tuples are stratified by the size P of the joint transition monoid of
# their automata, which tracks the cost of the exact deciders: bucket b
# holds P in [2**b, 2**(b+1)).  Quotas follow the natural bucket frequencies
# of the generator below, so every seed gets the same difficulty profile;
# P >= 256 is left out because single tuples there cost up to 30 s.
DFA_QUOTAS = (25, 67, 151, 202, 189, 160, 118, 88)  # 1000 tuples, 6000 verdicts
DFA_MAX_STATES = 5


def random_dfa(pkg, rng):
    states = [f"s{i}" for i in range(rng.randint(1, DFA_MAX_STATES))]
    delta = {(q, a): rng.choice(states) for q in states for a in ("a", "b")}
    accepting = [q for q in states if rng.random() < 0.5]
    return pkg.constructions.Dfa(states, ("a", "b"), delta, states[0], accepting)


def _union_universal(pkg, case):
    return case.ref("universal", lambda: pkg.oracle.dfa_union_universal(case.facts["dfas"])[0])


def _sync_word_ok(pkg, case, word):
    nonempty = case.ref(
        "nonempty", lambda: pkg.oracle.dfa_intersection_shortest(case.facts["dfas"]) is not None
    )
    if word is None:
        return not nonempty
    g3 = case.facts["g3"]
    return nonempty and len(naive.walk_all(g3.edges, g3.vertices, word)) == 1


def build_dfa_battery(pkg, rng, smallest):
    exact, constructions = pkg.exact, pkg.constructions
    quotas = [1] + [0] * (len(DFA_QUOTAS) - 1) if smallest else list(DFA_QUOTAS)

    def universal(case, got):
        return got == _union_universal(pkg, case)

    verdicts = [
        Verdict("decide_equality(G1,H1)", lambda ins: exact.decide_equality(ins["g1"], ins["h1"]), universal),
        Verdict("decide_irreducibility(G1)", lambda ins: exact.decide_irreducibility(ins["g1"]), universal),
        Verdict("decide_sdp_exists(G1)", lambda ins: exact.decide_sdp_exists(ins["g1"]), universal),
        Verdict("decide_sft(G2)", lambda ins: exact.decide_sft(ins["g2"]), universal),
        Verdict("decide_minimality(G2,2)", lambda ins: exact.decide_minimality(ins["g2"], 2), universal),
        Verdict(
            "shortest_sync_word(G3)",
            lambda ins: exact.shortest_sync_word(ins["g3"]),
            lambda case, got: _sync_word_ok(pkg, case, got),
        ),
    ]
    buckets = [[] for _ in quotas]
    while any(len(b) < q for b, q in zip(buckets, quotas)):
        dfas = [random_dfa(pkg, rng) for _ in range(rng.randint(2, 3))]
        size = naive.transition_monoid_size([(d.states, d.delta) for d in dfas], 2 ** len(quotas))
        bucket = int(math.log2(size))
        if bucket >= len(quotas) or len(buckets[bucket]) >= quotas[bucket]:
            continue
        try:
            g1, h1 = constructions.reduction_irred(dfas)
        except pkg.errors.AllLanguagesEmptyError:
            continue
        g2, _ = constructions.reduction_sft(dfas)
        g3 = constructions.reduction_sync(dfas)
        buckets[bucket].append((size, dfas, {"g1": g1, "h1": h1, "g2": g2, "g3": g3}))
    # interleave the strata so every prefix of the battery has the same mix
    order = sorted(
        (rank / len(b), bucket, rank) for bucket, b in enumerate(buckets) for rank in range(len(b))
    )
    cases = []
    for _, bucket, rank in order:
        size, dfas, inputs = buckets[bucket][rank]
        cases.append(
            Case(
                f"tuple{len(cases)}[P={size},states={'+'.join(str(len(d.states)) for d in dfas)}]",
                inputs,
                verdicts,
                facts={"dfas": dfas, "g3": inputs["g3"]},
            )
        )
    return cases


# ---------------------------------------------------------------- poly_cli

POLY_RANDOM_SIZES = (24, 48, 72, 96)
POLY_BLOCK_MEMORY = (3, 4)
POLY_PER_KIND = 28
SYNC_SEARCH_LIMIT = 2000

# The graph behind the name-collision bug: product vertices are named
# "(p|q)", which is not injective once names contain "|".  The known
# answer of is-sft is true; each variant renames its vertices and must
# agree with a copy named v0..v4.
NAME_PROBE_EDGES = (
    ("a|b", "y", "c|a"),
    ("b", "x", "b|c"),
    ("b|c", "x", "c|a"),
    ("c", "y", "a|b"),
    ("c|a", "x", "c"),
    ("c|a", "y", "b"),
)
NAME_PROBE_VARIANTS = {
    "pipes": ("a|b", "b", "b|c", "c", "c|a"),
    "parens": ("(a", "b)", "(b", "c)", "(c|a)"),
    "zeros": ("0", "00", "000", "0000", "00000"),
    "nonascii": ("äb", "ß", "ßç", "ç", "çä"),
    "mixed": ("|", "(", ")", "||", "(|)"),
}


def random_irreducible(pkg, rng, n):
    """A Hamiltonian 0-cycle plus random partial 1- and 2-maps, synchronizing."""
    while True:
        names = random_names(rng, n, "q")
        cycle = rng.sample(names, n)
        edges = [(cycle[i], "0", cycle[(i + 1) % n]) for i in range(n)]
        for label in ("1", "2"):
            edges.extend((v, label, rng.choice(names)) for v in names if rng.random() < 0.5)
        if naive.find_sync_word(edges, names, SYNC_SEARCH_LIMIT) is not None:
            return pkg.graphs.LabeledGraph(vertices=names, edges=edges)


def random_block_presentation(pkg, rng, memory):
    """The (memory+1)-block presentation of a random SFT over {0,1,2}, on its largest component.

    Vertices are the allowed words of length `memory`, and each allowed
    word of length memory+1 is an edge labelled by its last symbol.  A
    word of length `memory` determines the vertex it ends at, so the
    graph is synchronizing and presents a shift of finite type.
    """
    while True:
        blocks = [""]
        for _ in range(memory + 1):
            blocks = [b + s for b in blocks for s in "012"]
        edges = [(b[:-1], b[-1], b[1:]) for b in blocks if rng.random() < 0.8]
        keep = naive.largest_component(edges)
        if len(keep) >= 3 ** (memory - 1):
            return pkg.graphs.LabeledGraph(
                vertices=keep, edges=[e for e in edges if e[0] in keep and e[2] in keep]
            )


def run_cli(pkg, command, text):
    """``sofic <command> - --json`` in-process on `text`; returns (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = pkg.cli.main([command, "-", "--json"])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _cli_result(got, code):
    exit_code, stdout = got
    if exit_code != code:
        return None
    return json.loads(stdout)


def _check_ok(case, got):
    payload = _cli_result(got, 0)
    if payload is None:
        return False
    g = case.facts["graph"]
    expected = {
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "deterministic": True,
        "essential": True,
        "irreducible": True,
        "synchronizing": True,
    }
    details = payload.get("details", {})
    return all(details.get(key) == value for key, value in expected.items())


def _syncword_ok(case, got):
    payload = _cli_result(got, 0)
    if payload is None or payload.get("result") is not True:
        return False
    g = case.facts["graph"]
    return len(naive.walk_all(g.edges, g.vertices, payload["witness"])) == 1


def _expected_sft(case):
    g = case.facts["graph"]
    if case.facts["kind"] == "block":
        return True
    return naive.is_sft_fischer(g.edges, g.vertices)


def _is_sft_ok(case, got):
    expected = case.ref("sft", lambda: _expected_sft(case))
    payload = _cli_result(got, 0 if expected else 1)
    return payload is not None and payload.get("result") is expected


def _follower_sep_ok(case, got):
    payload = _cli_result(got, 0)
    if payload is None:
        return False
    g = case.facts["graph"]
    expected = case.ref("quotient", lambda: naive.follower_quotient(g.edges, g.vertices))
    return naive.parse_rendered_graph(payload["text"]) == expected


def _bool_ok(value):
    def check(case, got):
        payload = _cli_result(got, 0 if value else 1)
        return payload is not None and payload.get("result") is value and "witness" not in payload

    return check


def build_poly_cli(pkg, rng, smallest):
    fileformat = pkg.fileformat

    def cli(command, key):
        return lambda ins: run_cli(pkg, command, ins[key])

    verdicts = [
        Verdict("check", cli("check", "one"), _check_ok),
        Verdict("syncword", cli("syncword", "one"), _syncword_ok),
        Verdict("is-sft", cli("is-sft", "one"), _is_sft_ok),
        Verdict("is-irreducible", cli("is-irreducible", "one"), _bool_ok(True)),
        Verdict("follower-sep", cli("follower-sep", "one"), _follower_sep_ok),
        Verdict("equal", cli("equal", "pair"), _bool_ok(True)),
        Verdict("separate", cli("separate", "pair"), _bool_ok(False)),
    ]
    per_kind = 1 if smallest else POLY_PER_KIND
    cases = []
    for i in range(per_kind):
        for kind in ("random", "block"):
            if kind == "random":
                g = random_irreducible(pkg, rng, POLY_RANDOM_SIZES[i % len(POLY_RANDOM_SIZES)])
            else:
                g = random_block_presentation(pkg, rng, POLY_BLOCK_MEMORY[i % len(POLY_BLOCK_MEMORY)])
            twin = renamed(pkg, g, rng.sample(random_names(rng, len(g.vertices), "t"), len(g.vertices)))
            doc, twin_doc = fileformat.graph_document("G", g), fileformat.graph_document("H", twin)
            inputs = {"one": fileformat.render(doc), "pair": fileformat.render([doc, twin_doc])}
            cases.append(
                Case(f"{kind}{len(g.vertices)}#{i}", inputs, verdicts, facts={"graph": g, "kind": kind})
            )
    return cases


def name_probe(pkg):
    """Runs ``is-sft`` on each renamed variant of the name-probe graph and its plain copy.

    Returns ``[(variant, answer, plain_answer)]``; the known answer is true.
    """
    fileformat = pkg.fileformat
    base = pkg.graphs.LabeledGraph(edges=NAME_PROBE_EDGES)

    def is_sft(names):
        g = renamed(pkg, base, names)
        code, stdout = run_cli(pkg, "is-sft", fileformat.render(fileformat.graph_document("G", g)))
        return json.loads(stdout)["result"] if code in (0, 1) else f"exit {code}"

    plain = is_sft([f"v{i}" for i in range(len(base.vertices))])
    return [(variant, is_sft(names), plain) for variant, names in NAME_PROBE_VARIANTS.items()]


WORKLOADS = {
    "padded_sync": build_padded_sync,
    "dfa_battery": build_dfa_battery,
    "poly_cli": build_poly_cli,
}
