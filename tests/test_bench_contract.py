"""The package names that the benchmark in ``bench/`` reads are still there.

``bench/tracer.py`` wraps package functions and methods by name, and
``bench/workloads.py`` imports from the package, so renaming or deleting one
of those names breaks the benchmark without a failure in ``tests/``. This
resolves every traced per-layer metric of ``BENCHMARK.json`` through the
tracer and imports the workloads, and runs every workload call with the
``--seed`` and ``--out`` flags the benchmark's worker adds, once as is and
once under the installed tracer, whose hooks read engine attributes; each
runs in a fresh interpreter (installing the tracer rebinds the package's
functions) that writes no bytecode under ``bench/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import run, tracer
spec = json.load(open({spec!r}))
traced = tracer.Tracer()
traced.install()
for layer in spec["per_layer"]:
    if layer["name"] not in run.RUN_LEVEL_LAYERS:
        traced.metric(layer["name"])
import workloads
"""


CALLS = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
if {traced!r}:
    import tracer
    tracer.Tracer().install()
from biased_voter import cli
import workloads
failed = []
for workload in workloads.WORKLOADS.values():
    for call in workload.calls:
        out = {out!r} + "/" + call.name + ".csv"
        code = cli.main([*call.argv, "--seed", "1", "--out", out])
        if code != 0:
            failed.append((workload.name, call.name, code))
sys.exit(f"calls that exit nonzero: {{failed}}" if failed else 0)
"""


def _run(script: str):
    proc = subprocess.run([sys.executable, "-B", "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_names_resolve():
    _run(SCRIPT.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"),
                       spec=str(ROOT / "BENCHMARK.json")))


def test_every_benchmark_call_exits_0(tmp_path):
    # each call as the benchmark's worker runs it: its argv plus --seed and --out
    _run(CALLS.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"), out=str(tmp_path),
                      traced=False))


def test_every_benchmark_call_exits_0_under_the_tracer(tmp_path):
    # the tracer's hooks read engine attributes at call boundaries (the
    # forward stream's total_rate, a simulation's time); one that is gone
    # fails the call here rather than a traced benchmark run
    _run(CALLS.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"), out=str(tmp_path),
                      traced=True))
