"""Span recorder for the traced run, attached from outside the package.

:meth:`Tracer.install` rebinds each public function named in ``LAYERS``
with a recording wrapper in every ``sofic.*`` module that binds it (so
``follower_separation`` is wrapped both in ``classify`` and in
``exact``), and wraps ``LabeledGraph.__init__`` on the class.  A span
records its name, start, end, parent span and the verdict that caused
it; spans stay in memory until :meth:`Tracer.dump`.  Counters are taken
from arguments and return values only.
"""

import json
import sys
import time
from collections import defaultdict

# layer name -> functions ("module.attr") whose calls are its spans
LAYERS = {
    "exact.monoid": ("exact.action_monoid",),
    "exact.analysis": ("exact.decide_sft", "exact.decide_sdp_exists"),
    "exact.subset_bfs": ("exact.shortest_sync_word", "exact.synchronizing_vertices"),
    "exact.subset_pair": ("exact.subshift_witness",),
    "exact.minimality": ("exact.decide_minimality",),
    "exact.decide": ("exact.decide_subshift", "exact.decide_equality", "exact.decide_irreducibility"),
    "syncwords.pair_sync": ("syncwords.pair_synchronizing_word",),
    "syncwords.sync_word": ("syncwords.synchronizing_word_irreducible", "syncwords.sync_word_to_vertex"),
    "syncwords.separating": ("syncwords.separating_word",),
    "syncwords.is_synchronizing": ("syncwords.is_synchronizing",),
    "classify.follower_partition": ("classify.follower_partition",),
    "classify.follower_separation": ("classify.follower_separation",),
    "classify.isomorphism": ("classify.are_isomorphic",),
    "classify.is_sft_sync": ("classify.is_sft_sync",),
    "classify.equal_sync": ("classify.equal_sync",),
    "classify.irreducible_sync": ("classify.is_irreducible_shift_sync",),
    "products.hat_graph": ("products.hat_graph",),
    "products.sink_graph": ("products.sink_vertex_graph",),
    "products.find_word": ("products.find_word_to",),
    "graphs.construct": ("graphs.LabeledGraph.__init__",),
    "graphs.scc": ("graphs.irreducible_components",),
    "graphs.subset_step": ("graphs.subset_step",),
    "graphs.essentialize": ("graphs.essentialize",),
    "graphs.induced": ("graphs.induced_subgraph",),
    "fileformat.parse": ("fileformat.parse",),
    "fileformat.render": ("fileformat.render",),
    "cli.main": ("cli.main",),
}
ROOT = "bench.verdict"  # one per verdict; its self time is what no layer claims
PER_GRAPH = ("exact.monoid", "syncwords.is_synchronizing", "classify.follower_partition")


def _graph_key(args):
    g = args[0]
    return (g.vertices, g.edges)


# layer -> (args, result) -> {counter: increment}; keys of a set counter are added
COUNTERS = {
    "exact.monoid": lambda args, result: {"elements": result.size},
    "products.hat_graph": lambda args, result: {"vertices": len(result.vertices)},
    "fileformat.parse": lambda args, result: {"bytes": len(args[0])},
}


def metric_names():
    """Every per-layer metric the traced run reports, with its unit, in order."""
    names = [(ROOT + ".calls", "count"), (ROOT + ".self_s", "s")]
    for layer in LAYERS:
        names += [(layer + ".calls", "count"), (layer + ".self_s", "s")]
    names += [
        ("exact.monoid.elements", "count"),
        ("exact.monoid.elements_per_s", "1/s"),
        ("exact.calls", "count"),
        ("exact.cap_exceeded", "ratio"),
        ("products.hat_graph.vertices", "count"),
        ("fileformat.parse.bytes", "count"),
    ]
    for layer in PER_GRAPH:
        names += [(layer + ".graphs", "count"), (layer + ".per_graph", "ratio")]
    names += [
        ("constructions.generate_s", "s"),
        ("oracle.check_s", "s"),
        ("trace.spans", "count"),
        ("trace.overhead", "ratio"),
    ]
    return names


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, verdict, name, start, end, exception)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.graphs = defaultdict(set)
        self.cap_errors = set()
        self._stack = []  # [span id, time covered by children]
        self._verdict = None
        self._restore = []

    def call(self, name, func, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        error = None
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.calls[name] += 1
            self.self_s[name] += end - start - frame[1]
            self.spans[frame[0]] = (
                frame[0],
                None if parent is None else parent[0],
                self._verdict,
                name,
                start,
                end,
                None if error is None else type(error).__name__,
            )
            if error is not None and type(error).__name__ == "CapExceededError":
                self.cap_errors.add(id(error))
            elif error is None:
                self._count(name, args, result)
            if parent is not None:
                # the parent's self time excludes the counting done here too
                parent[1] += time.perf_counter() - start
        return result

    def _count(self, name, args, result):
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, value in counter(args, result).items():
                self.counters[f"{name}.{key}"] += value
        if name in PER_GRAPH:
            self.graphs[name].add(_graph_key(args))

    def verdict(self, verdict_id, call, inputs):
        """Runs one verdict as the root span of its tree."""
        self._verdict = verdict_id
        try:
            return self.call(ROOT, call, (inputs,), {})
        finally:
            self._verdict = None

    def _wrapper(self, name, func):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, func, args, kwargs)

        traced.__wrapped__ = func
        return traced

    def install(self, pkg):
        """Rebinds every traced function in every ``sofic.*`` module that binds it."""
        modules = [m for key, m in sys.modules.items() if key == "sofic" or key.startswith("sofic.")]
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, attr = target.split(".", 1)
                if attr == "LabeledGraph.__init__":
                    cls = pkg.graphs.LabeledGraph
                    original = cls.__init__
                    self._restore.append((cls, "__init__", original))
                    cls.__init__ = self._wrapper(layer, original)
                    continue
                original = getattr(getattr(pkg, module_name), attr)
                wrapped = self._wrapper(layer, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, key, original))
                            setattr(module, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def metrics(self, generate_s, check_s, overhead):
        """Per-layer totals by metric name: ``{name: (value, unit)}``."""
        units = dict(metric_names())
        values = {}
        for layer in (ROOT,) + tuple(LAYERS):
            values[layer + ".calls"] = self.calls[layer]
            values[layer + ".self_s"] = self.self_s[layer]
        monoid_s = self.self_s["exact.monoid"]
        elements = self.counters["exact.monoid.elements"]
        exact_calls = sum(self.calls[layer] for layer in LAYERS if layer.startswith("exact."))
        values.update(
            {
                "exact.monoid.elements": elements,
                "exact.monoid.elements_per_s": elements / monoid_s if monoid_s else 0.0,
                "exact.calls": exact_calls,
                "exact.cap_exceeded": len(self.cap_errors) / exact_calls if exact_calls else 0.0,
                "products.hat_graph.vertices": self.counters["products.hat_graph.vertices"],
                "fileformat.parse.bytes": self.counters["fileformat.parse.bytes"],
                "constructions.generate_s": generate_s,
                "oracle.check_s": check_s,
                "trace.spans": len(self.spans),
                "trace.overhead": overhead,
            }
        )
        for layer in PER_GRAPH:
            graphs = len(self.graphs[layer])
            values[layer + ".graphs"] = graphs
            values[layer + ".per_graph"] = self.calls[layer] / graphs if graphs else 0.0
        return {name: (values[name], units[name]) for name, _ in metric_names()}

    def slowest_tree(self):
        """Lines describing the slowest verdict's span tree, children merged by name."""
        roots = [s for s in self.spans if s[3] == ROOT]
        if not roots:
            return []
        root = max(roots, key=lambda s: s[5] - s[4])
        children = defaultdict(list)
        for span in self.spans:
            if span[2] == root[2] and span[1] is not None:
                children[span[1]].append(span)

        lines = []

        def walk(spans, depth):
            groups = defaultdict(list)
            for span in spans:
                groups[span[3]].append(span)
            for name, group in sorted(groups.items(), key=lambda kv: -sum(s[5] - s[4] for s in kv[1])):
                total = sum(s[5] - s[4] for s in group)
                below = [c for s in group for c in children[s[0]]]
                self_time = total - sum(c[5] - c[4] for c in below)
                lines.append(
                    f"{'  ' * depth}{name}  calls {len(group)}  total {1e3 * total:.3f} ms"
                    f"  self {1e3 * self_time:.3f} ms"
                )
                walk(below, depth + 1)

        walk([root], 0)
        return lines

    def dump(self, path):
        """Writes every span as a JSON list of records."""
        fields = ("id", "parent", "verdict", "name", "start", "end", "error")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)
