"""Benchmark of the biased-voter toolkit, driven through its CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sandwich --seed 1 --seconds 20 --trace 0

The workloads and their checks are in ``workloads.py``; the metric names and
units in ``BENCHMARK.json`` at the root. A run starts fresh single-process
interpreters (``worker.py``), at least four and until ``--seconds`` have
passed; each repeats the workload's CLI calls for a fifth of ``--seconds``
with seeds derived from ``--seed``. Then, outside the timed region, it
checks the outputs and prints one line per check and per metric, and as its
last line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a call counts as failed on a nonzero exit or a failed check.

``--trace 0`` reports the end-to-end metrics. On the small shared machines
this runs on, the speed at which a core runs interpreted code (the engines'
event loops, imports) drifts by up to 2x over minutes as other tenants load
the machine; large array operations slow down less. So times are scaled to
a reference-speed core: each call's wall time is multiplied by
(``REFERENCE_PROBE_S`` / probe) ** ``probe_exponent``, where probe is the
time of a fixed probe loop run just before the call and the exponent (1, or
``workloads.ARRAY_BOUND`` for array-bound calls) says how the call follows
that speed; set-up time is scaled with ``SETUP_PROBE_EXPONENT``. The
unscaled median is printed too. ``wall_s`` sums each call's median over repetitions; ``setup_s`` and
``peak_rss_mb`` are medians over interpreters; ``time_to_1pct_s`` combines
the call times with the relative stderr of all repetitions pooled
(``workloads.time_to_1pct``).

``--trace 1`` alternates untraced and traced interpreters and reports the
per-layer metrics of the traced repetitions (medians), the tracing overhead,
and writes each traced interpreter's spans under ``bench/out/``. Per-run
metadata (commit, ``src/`` line count, library versions, nproc, seed,
reference times) is printed and written beside the metrics in ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE_PROBE_S = 0.012   # probe-loop time that defines the reference core speed
# set-up (reading, unmarshalling and linking files) follows the probe about as
# weakly as array-bound calls do (workloads.ARRAY_BOUND)
SETUP_PROBE_EXPONENT = 0.4
MIN_CHILDREN = 4          # fresh interpreters per run, each one set-up sample
MAX_REPS_PER_CHILD = 200
CHILD_TIMEOUT_S = 150
RUN_LEVEL_LAYERS = ("trace.overhead_s", "fail_ratio")   # computed here, not by the tracer
# one BLAS/OpenMP thread per process, so a run measures one core's work
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


def derive_seed(*parts) -> int:
    digest = hashlib.blake2b(":".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big") % (2 ** 62)


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(workload, seed, child, traced, work, budget_s, layer_names) -> dict:
    """Run repetitions of the workload in one fresh interpreter; return its result."""
    result_path = work / f"result-{child}.json"
    job = {"src": str(SRC), "trace": traced, "budget_s": budget_s,
           "calls": [list(call.argv) for call in workload.calls],
           "names": [call.name for call in workload.calls],
           "seeds": [[derive_seed(seed, workload.name, child, r, call.name)
                      for call in workload.calls] for r in range(MAX_REPS_PER_CHILD)],
           "out": str(work / str(child)), "result": str(result_path),
           "spans": str(work / f"spans-{child}.json"), "layer_metrics": layer_names}
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    job["spawned"] = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"interpreter {child} timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        proc = None
    result = None
    if proc is not None and proc.returncode == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
    if proc is not None and (result is None or any(
            c["rc"] != 0 for rep in result["reps"] for c in rep["calls"])):
        print(f"interpreter {child} (exit {proc.returncode}) stderr tail:\n"
              + "\n".join(proc.stderr.splitlines()[-15:]), file=sys.stderr)
    if result is None:   # nothing ran to completion: one repetition, every call failed
        result = {"reps": [{"calls": [{"rc": -1, "wall_s": 0.0, "cal_s": REFERENCE_PROBE_S}
                                      for _ in workload.calls]}]}
    result["traced"] = traced
    return result


def repetitions(children) -> list[dict]:
    """Every repetition of every interpreter, keyed ``<interpreter>-<repetition>``."""
    return [dict(rep, key=f"{c}-{r}", traced=child["traced"])
            for c, child in enumerate(children) for r, rep in enumerate(child["reps"])]


def evaluate(workload, reps, work, seed):
    """Per-call tables, the failed (repetition, call) pairs and the check lines."""
    from workloads import CHECKS, read_table
    tables = {call.name: {} for call in workload.calls}
    failed, lines = set(), []
    for rep in reps:
        for call, res in zip(workload.calls, rep["calls"]):
            if res["rc"] != 0:
                failed.add((rep["key"], call.name))
                continue
            try:
                tables[call.name][rep["key"]] = read_table(
                    work / f"{rep['key']}-{call.name}.csv", call.grid)
            except (OSError, ValueError, IndexError) as exc:
                failed.add((rep["key"], call.name))
                lines.append(f"check {call.name}.output: FAIL repetition {rep['key']}: {exc}")
    attempted = len(reps) * len(workload.calls)
    lines.append(f"check {workload.name}.exit_codes: "
                 f"{'PASS' if not failed else 'FAIL'} "
                 f"({attempted - len(failed)}/{attempted} calls exited 0 with a table)")
    for check in CHECKS[workload.name](workload.calls, tables,
                                       derive_seed(seed, workload.name, "check")):
        if not check.passed:
            failed.update(check.calls)
        lines.append(f"check {check.name}: {'PASS' if check.passed else 'FAIL'} "
                     f"{check.detail}")
    return tables, failed, attempted, lines


def call_time(workload, reps, k, scale=True) -> float:
    """Median time of call ``k`` over the repetitions.

    With ``scale``, each time is first scaled to the reference core speed by
    the probe timed just before it, to the call's ``probe_exponent``.
    """
    exponent = workload.calls[k].probe_exponent if scale else 0.0
    return statistics.median(
        c["wall_s"] * (REFERENCE_PROBE_S / c["cal_s"]) ** exponent
        for c in (rep["calls"][k] for rep in reps))


def workload_time(workload, reps, scale=True) -> float:
    return sum(call_time(workload, reps, k, scale) for k in range(len(workload.calls)))


def end_to_end(workload, children, reps, tables) -> dict:
    from workloads import time_to_1pct
    plain_children = [c for c in children if not c["traced"] and "setup_s" in c]
    plain = [rep for rep in reps if not rep["traced"]]
    t2t = 0.0
    for k, call in enumerate(workload.calls):
        ok = [rep for rep in plain if rep["key"] in tables[call.name]]
        if ok:
            t2t += time_to_1pct(call, [tables[call.name][rep["key"]] for rep in ok],
                                call_time(workload, ok, k))
    return {
        "wall_s": workload_time(workload, plain),
        "setup_s": statistics.median(
            c["setup_s"] * (REFERENCE_PROBE_S / c["setup_cal_s"]) ** SETUP_PROBE_EXPONENT
            for c in plain_children) if plain_children else 0.0,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in plain_children)
        if plain_children else 0.0,
        "time_to_1pct_s": t2t,
    }


def per_layer(workload, reps, layer_names, fail_ratio) -> dict:
    """Medians over traced repetitions, in measured (unscaled) seconds."""
    traced = [rep for rep in reps if rep["traced"] and "layers" in rep]
    plain = [rep for rep in reps if not rep["traced"]]
    out = {}
    for name in layer_names:
        if name == "trace.overhead_s":
            out[name] = workload_time(workload, traced, False) - \
                workload_time(workload, plain, False) if traced and plain else 0.0
        elif name == "fail_ratio":
            out[name] = fail_ratio
        else:
            out[name] = float(statistics.median(rep["layers"][name] for rep in traced)) \
                if traced else 0.0
    return out


def metadata(workload, seed, tables, n_children, n_reps) -> dict:
    import numpy
    import scipy
    t_ref = {}
    for call in workload.calls:
        got = list(tables[call.name].values())
        if call.t_ref_index is not None and got:
            t_ref[call.name] = float(got[0]["t"][call.t_ref_index])
    return {
        "commit": git_commit(ROOT),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": seed,
        "interpreters": n_children,
        "repetitions": n_reps,
        "t_ref": t_ref,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not __debug__:
        print("refusing to run under python -O: the engines' invariants are "
              "asserts, and without them a different program is measured",
              file=sys.stderr)
        return 2
    if not (SRC / "biased_voter" / "cli.py").is_file():
        print(f"no biased_voter package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS or \
            args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    layer_names = [m["name"] for m in spec["per_layer"]]
    traced_names = [n for n in layer_names if n not in RUN_LEVEL_LAYERS]

    work = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + args.seconds
    budget_s = args.seconds / (MIN_CHILDREN + 1)
    children = []
    while len(children) < MIN_CHILDREN or time.monotonic() < deadline:
        c = len(children)
        children.append(run_child(workload, args.seed, c, bool(args.trace and c % 2 == 1),
                                  work, budget_s, traced_names))
    reps = repetitions(children)

    tables, failed, attempted, check_lines = evaluate(workload, reps, work, args.seed)
    fail_ratio = len(failed) / attempted
    e2e = end_to_end(workload, children, reps, tables)
    values = per_layer(workload, reps, layer_names, fail_ratio) if args.trace else e2e
    meta = metadata(workload, args.seed, tables, len(children), len(reps))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported}
    replicas = sum(call.replicas for call in workload.calls)

    print("meta " + json.dumps(meta, sort_keys=True))
    print("\n".join(check_lines))
    print(f"info fail_ratio = {fail_ratio!r} ratio ({len(failed)}/{attempted} calls)")
    plain = [rep for rep in reps if not rep["traced"]]
    raw_wall = workload_time(workload, plain, False)
    print(f"info raw_wall_s = {raw_wall!r} s (median as measured, not gated)")
    print(f"info probe_s = {statistics.median(c['cal_s'] for rep in plain for c in rep['calls'])!r}"
          f" s (reference {REFERENCE_PROBE_S} s)")
    if replicas:
        print(f"info replicas_per_s = {replicas / e2e['wall_s']!r} 1/s (not gated)")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    with open(work.with_suffix(".json"), "w") as fh:
        json.dump({"meta": meta, "metrics": metrics, "end_to_end": e2e,
                   "checks": check_lines, "children": children}, fh, indent=1)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
