"""The benchmark's own self-check passes against this checkout.

Runs ``bench/selfcheck.py`` (the smallest instance of each workload,
untraced and traced), so a change to ``src/`` that breaks the
benchmark's independent reference checks fails the test suite.  The
benchmark's tracer must also see the deciders that the CLI calls.
"""

import importlib.util
import os
import subprocess
import sys
from types import SimpleNamespace

from .test_golden import ROOT, run_cli


def test_bench_selfcheck_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "bench/selfcheck.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def load_tracing():
    """``bench/tracing.py``, loaded by file path."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_cli_question_deciders():
    # cli.main looks each shift question's deciders up at call time, so
    # the benchmark's tracer, which rebinds module attributes, sees them
    tracing = load_tracing()
    names = {target.split(".")[0] for targets in tracing.LAYERS.values() for target in targets}
    pkg = SimpleNamespace(**{name: importlib.import_module(f"sofic.{name}") for name in names})
    tracer = tracing.Tracer()
    tracer.install(pkg)
    try:
        for question in ("is-sft", "is-irreducible", "equal"):
            argv = [question] + ["tests/fixtures/gm.sg"] * (2 if question == "equal" else 1)
            assert run_cli(argv)["code"] == 0
    finally:
        tracer.uninstall()
    layers = ("classify.is_sft_sync", "classify.irreducible_sync", "classify.equal_sync")
    assert {layer: tracer.calls[layer] for layer in layers} == dict.fromkeys(layers, 1)
