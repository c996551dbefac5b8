"""Benchmark runner for sofic: one workload, one process, one closed-loop client.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload padded_sync --seed 1 --seconds 20 --trace 0

Imports ``sofic`` from ``src/`` of the checkout and builds the workload's
battery from ``--seed`` (``setup_s`` is the median of several set-ups).
It then runs whole passes over the battery, one verdict after the other,
until ``--seconds`` have elapsed and at least ``MIN_PASSES`` passes are
done; passes after the first get fresh graph objects.  Every answer is
checked against its reference after the timed loop.

On a shared machine the speed of the process changes, in bursts of a
fraction of a second (by up to a factor of 1.7) and in drifts over
minutes.  Every time is therefore reported at a reference speed: a
fixed kernel of dict and frozenset operations, like the engine's own,
is timed between verdicts (at least every ``CAL_EVERY_S``), and a
verdict's time (and each set-up's) is multiplied by ``CAL_REFERENCE_S``
over the mean of the two kernel timings around it.  A verdict's time is
then the median of its passes, which are seconds apart.  The unscaled
figures are printed beside the scaled ones.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
makes two untraced passes (its end-to-end table; the faster is the base
of ``trace.overhead``) and then one traced pass, so that its counts are
per pass of the battery; the spans are written to ``.bench_out/`` at the
end.
``--smallest`` runs only the smallest instances, as a quick self-check.
"""

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 15
SETUP_SECONDS = 2.0
PACKAGE_MODULES = (
    "graphs", "products", "syncwords", "classify", "exact",
    "constructions", "oracle", "fileformat", "cli", "errors",
)
END_TO_END = (
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)
MIN_PASSES = 3
CAL_EVERY_S = 0.02  # longest stretch of verdicts between two kernel timings
CAL_REFERENCE_S = 5.0e-4  # kernel time at the reference speed


def kernel_time():
    start = time.perf_counter()
    seen = {}
    for i in range(400):
        key = frozenset((i, i + 1, i % 7))
        seen[key] = seen.get(frozenset((i - 1, i, (i - 2) % 7)), 0) + 1
    return time.perf_counter() - start


class Package:
    """The ``sofic`` modules of one import, by short name."""

    def __init__(self):
        for name in PACKAGE_MODULES:
            setattr(self, name, importlib.import_module(f"sofic.{name}"))


def import_package():
    for key in [k for k in sys.modules if k == "sofic" or k.startswith("sofic.")]:
        del sys.modules[key]
    importlib.import_module("sofic")
    return Package()


def set_up(build, seed, smallest):
    """Imports the package and builds the battery several times.

    Repeats at least `SETUP_MIN_REPEATS` times and until `SETUP_SECONDS`
    have passed, at most `SETUP_MAX_REPEATS` times.

    Returns the package and cases of the last set-up, the median set-up
    time, unscaled and at the reference speed (each set-up scaled by the
    mean of the kernel timings just before and after it), the median
    generation time and the number of set-ups.
    """
    totals, scaled, generation = [], [], []
    first = time.perf_counter()
    while not totals or not smallest and (
        len(totals) < SETUP_MIN_REPEATS
        or time.perf_counter() - first < SETUP_SECONDS and len(totals) < SETUP_MAX_REPEATS
    ):
        pkg = cases = None  # every set-up starts from the same heap
        gc.collect()
        before = kernel_time()
        start = time.perf_counter()
        pkg = import_package()
        imported = time.perf_counter()
        cases = build(pkg, random.Random(seed), smallest)
        end = time.perf_counter()
        after = kernel_time()
        totals.append(end - start)
        scaled.append((end - start) * 2 * CAL_REFERENCE_S / (before + after))
        generation.append(end - imported)
    return (
        pkg,
        cases,
        statistics.median(totals),
        statistics.median(scaled),
        statistics.median(generation),
        len(totals),
    )


def run_pass(pkg, cases, fresh, kernel_times, tracer=None):
    """One closed-loop pass over the battery.

    Returns records ``(case, verdict, answer, error, seconds, scaled)``:
    `scaled` is `seconds` at the reference speed, measured by the mean of
    the two kernel timings around the verdict, so that a burst of speed
    or slowness moves the kernel with the verdict.  The kernel is timed
    at the start and the end of the pass and between verdicts at least
    every `CAL_EVERY_S`; the timings are appended to `kernel_times`.
    """
    batch = [(case, workloads.renew(pkg, case.inputs) if fresh else case.inputs) for case in cases]
    records = []
    gc.collect()
    kernel_times.append(kernel_time())
    last = time.perf_counter()
    for case, inputs in batch:
        for verdict in case.verdicts:
            start = time.perf_counter()
            try:
                if tracer is None:
                    answer = verdict.call(inputs)
                else:
                    answer = tracer.verdict(len(records), verdict.call, inputs)
                error = None
            except Exception as exc:  # a failed verdict is counted, not fatal
                answer, error = None, exc
            end = time.perf_counter()
            records.append((case, verdict, answer, error, end - start, len(kernel_times) - 1))
            if end - last >= CAL_EVERY_S:
                kernel_times.append(kernel_time())
                last = time.perf_counter()
    kernel_times.append(kernel_time())
    scaled = []
    for case, verdict, answer, error, seconds, k in records:
        kernel_s = (kernel_times[k] + kernel_times[k + 1]) / 2
        scaled.append((case, verdict, answer, error, seconds, seconds * CAL_REFERENCE_S / kernel_s))
    return scaled


def run_passes(pkg, cases, seconds, min_passes, kernel_times):
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(pkg, cases, bool(passes), kernel_times))
    return passes


def check(records):
    """Checks every answer; returns the failures as (case, verdict kind, reason)."""
    failures = []
    for case, verdict, answer, error, *_ in records:
        if error is not None:
            failures.append((case.name, verdict.kind, f"{type(error).__name__}: {error}"))
        elif not verdict.check(case, answer):
            failures.append((case.name, verdict.kind, f"wrong answer {answer!r:.80}"))
    return failures


def latency(seconds):
    """Verdicts per second, median and 90th percentile in ms."""
    ms = sorted(1e3 * s for s in seconds)
    if len(ms) > 1:
        deciles = statistics.quantiles(ms, n=10, method="inclusive")
        p50, p90 = deciles[4], deciles[8]
    else:
        p50 = p90 = ms[0]
    return 1e3 * len(ms) / sum(ms), p50, p90


def print_table(title, rows):
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:40s} {value:>14.6g} {unit:6s} {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smallest", action="store_true", help="smallest instances only")
    args = parser.parse_args(argv)

    build = workloads.WORKLOADS[args.workload]
    pkg, cases, raw_setup_s, setup_s, generate_s, setups = set_up(build, args.seed, args.smallest)
    where = Path(pkg.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"sofic was imported from {where}, not from {SRC}")
    verdict_count = sum(len(c.verdicts) for c in cases)
    print(
        f"workload {args.workload}  seed {args.seed}  {len(cases)} instances, "
        f"{verdict_count} verdicts per pass  (closed loop, one client)"
    )

    kernel_times = []
    tracer = None
    if args.trace:
        # two untraced passes (the first warms up) and one traced pass,
        # so that counts are per pass
        passes = run_passes(pkg, cases, 0, 2, kernel_times)
        tracer = tracing.Tracer()
        tracer.install(pkg)
        try:
            traced = run_pass(pkg, cases, True, [], tracer)
        finally:
            tracer.uninstall()
    else:
        passes = run_passes(pkg, cases, args.seconds, 1 if args.smallest else MIN_PASSES, kernel_times)
        traced = []
    kernel_median = statistics.median(kernel_times)

    start = time.perf_counter()
    failures = check([r for records in passes for r in records] + traced)
    check_s = time.perf_counter() - start
    attempted = sum(map(len, passes)) + len(traced)

    def typical(field):
        """Each verdict's median over the passes of record field `field`."""
        return [statistics.median(times) for times in zip(*([r[field] for r in records] for records in passes))]

    scaled = typical(5)
    rate, p50, p90 = latency(scaled)
    raw_rate, raw_p50, raw_p90 = latency(typical(4))
    e2e = {
        "setup_s": setup_s,
        "verdicts_per_s": rate,
        "verdict_p50_ms": p50,
        "verdict_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = f"n={len(scaled)} verdicts, median of {len(passes)} pass(es)"
    print_table(
        "end to end" + (" (untraced pass)" if tracer else "")
        + f"; times at reference speed, kernel median {1e3 * kernel_median:.4f} ms of {len(kernel_times)}",
        [
            ("setup_s", e2e["setup_s"], "s", f"median of {setups} set-ups; unscaled {raw_setup_s:.6g}"),
            ("verdicts_per_s", rate, "1/s", f"{samples}; unscaled {raw_rate:.6g}"),
            ("verdict_p50_ms", p50, "ms", f"{samples}; unscaled {raw_p50:.6g}"),
            ("verdict_p90_ms", p90, "ms", f"{samples}; unscaled {raw_p90:.6g}"),
            ("fail_ratio", len(failures) / attempted, "ratio", f"{len(failures)}/{attempted} verdicts failed"),
            ("peak_rss_mb", e2e["peak_rss_mb"], "MiB", "ru_maxrss of this process"),
        ],
    )
    for case_name, kind, reason in failures[:20]:
        print(f"  FAILED {case_name} {kind}: {reason}")

    if args.workload == "poly_cli":
        # known-answer probe for name independence; reported, not part of the battery
        for variant, answer, plain in workloads.name_probe(pkg):
            status = "ok" if answer is True and plain is True else "WRONG"
            print(f"  name probe is-sft [{variant}]: {answer} (plain names: {plain}, known: True) {status}")

    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        untraced_s = min(sum(r[4] for r in records) for records in passes)
        overhead = sum(r[4] for r in traced) / untraced_s - 1
        layer = tracer.metrics(generate_s, check_s, overhead)
        print_table(
            "per layer (traced pass; self time excludes child spans)",
            [(name, value, unit, "") for name, (value, unit) in layer.items()],
        )
        print("slowest verdict, span tree:")
        for line in tracer.slowest_tree():
            print("  " + line)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}

    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    if not (SRC / "sofic" / "__init__.py").is_file():
        print(f"error: no sofic package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import tracing  # noqa: E402
    import workloads  # noqa: E402

    sys.exit(main())
