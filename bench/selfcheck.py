"""Self-check and combined report for the benchmark.

    python3 bench/selfcheck.py                      # smallest instance of each workload
    python3 bench/selfcheck.py --full --seconds 20  # full batteries, one table

Runs ``bench/run.py`` for every workload in ``BENCHMARK.json``, untraced
and traced, each in its own process, one at a time.  Fails (exit 1)
unless every run exits 0, prints its result line with exactly the
metrics ``BENCHMARK.json`` names and with their units, checked at least
one verdict, and printed every metric in its human-readable table too.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run(workload, seed, seconds, trace, smallest):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    if smallest:
        argv.append("--smallest")
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr


def problems(spec, workload, trace, code, stdout, stderr):
    """What is wrong with one run's output, as a list of messages."""
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-300:]}"]
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        found.append(f"verdict checks failed: {result.get('failed')} of {result.get('attempted')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        found.append("no verdict was attempted")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != wanted:
        found.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
    for name, metric in result.get("metrics", {}).items():
        if not isinstance(metric.get("value"), (int, float)):
            found.append(f"{name} has no numeric value")
    table = "\n".join(lines[:-1])
    found += [f"{name} missing from the printed table" for name in wanted if f" {name} " not in table]
    if "n=" not in table:
        found.append("no sample count printed")
    if workload == "poly_cli" and "name probe" not in table:
        found.append("name probe not reported")
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="full batteries instead of the smallest instances")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, stdout, stderr = run(workload, args.seed, args.seconds, trace, not args.full)
            print(f"==== {workload} --trace {trace}")
            print("\n".join(stdout.strip().splitlines()[:-1]))
            found = problems(spec, workload, trace, code, stdout, stderr)
            for message in found:
                print(f"SELF-CHECK FAIL {workload} trace={trace}: {message}")
            failed = failed or bool(found)
    print("self-check " + ("FAILED" if failed else "passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
