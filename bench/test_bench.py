"""Tests of the benchmark itself: every check can fail, and the run refuses
to measure the wrong program.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

KEY = "0-0"


def _csv(path: Path, table: dict) -> Path:
    """Write a table the way the CLI does: comment header, then columns."""
    cols = list(table)
    rows = ["# biased-voter test output", ",".join(cols)]
    for i in range(len(table[cols[0]])):
        rows.append(",".join(repr(float(table[c][i])) for c in cols))
    path.write_text("\n".join(rows) + "\n")
    return path


def _roundtrip(tmp_path, table) -> dict:
    return wl.read_table(_csv(tmp_path / "out.csv", table))


def _failed(results) -> set:
    return {r.name for r in results if not r.passed}


def test_sandwich_check_fails_on_perturbed_bounds(tmp_path):
    call, = wl.WORKLOADS["sandwich"].calls
    t = call.grid
    lower = wl._exact_curve(wl.nu2(wl.LAW), t)
    upper = wl._exact_curve(wl.nu1(wl.LAW), t)
    good = {"t": t, "estimate": lower, "stderr": 0.02 * lower,
            "lower": lower, "lower_stderr": 0.02 * lower,
            "upper": upper, "upper_stderr": 0.02 * upper}
    table = _roundtrip(tmp_path, good)
    assert not _failed(wl.check_sandwich([call], {"sandwich": {KEY: table}}, 0))
    for curve in ("lower", "upper"):
        bad = dict(good, **{curve: good[curve] * np.where(np.arange(t.size) == 3, 1.5, 1.0)})
        results = wl.check_sandwich([call], {"sandwich": {KEY: _roundtrip(tmp_path, bad)}}, 0)
        assert _failed(results) == {f"sandwich.{curve}_vs_exact"}
        assert (KEY, "sandwich") in next(r for r in results if not r.passed).calls


def test_forward_check_fails_on_perturbed_estimate(tmp_path):
    call, = wl.WORKLOADS["forward"].calls
    t = call.grid
    ref, ref_se = wl.forward_reference(t, 5)
    good = {"t": t, "mean": ref, "stderr": ref_se, "replicas": np.full(t.size, 256.0)}
    table = _roundtrip(tmp_path, good)
    assert not _failed(wl.check_forward([call], {"forward": {KEY: table}}, 5))
    bad = dict(good, mean=ref - 6.0 * ref_se * np.sqrt(2.0))
    assert _failed(wl.check_forward([call], {"forward": {KEY: _roundtrip(tmp_path, bad)}}, 5)) \
        == {"forward.vs_dual_walk"}


def test_short_horizon_checks_fail_on_each_perturbed_call(tmp_path):
    calls = wl.WORKLOADS["short_horizon"].calls
    stored = wl.load_reference()["short_horizon"]
    good = {}
    for call in calls:
        t = call.grid
        if call.name == "range":
            mean = wl._exact_curve(1.0, t)
            se = 0.01 * mean
        else:
            mean, se = np.array(stored[call.name]["mean"]), np.array(stored[call.name]["stderr"])
        good[call.name] = {"t": t, "mean": mean, "stderr": se}
    tables = {name: {KEY: _roundtrip(tmp_path, tab)} for name, tab in good.items()}
    assert not _failed(wl.check_short_horizon(calls, tables, 0))
    for call in calls:
        bad = dict(good[call.name])
        bad["mean"] = bad["mean"] + np.where(np.arange(bad["t"].size) == 1,
                                             8.0 * bad["stderr"], 0.0)
        perturbed = dict(tables, **{call.name: {KEY: _roundtrip(tmp_path, bad)}})
        assert len(_failed(wl.check_short_horizon(calls, perturbed, 0))) == 1


def test_oracle_checks_fail_on_perturbed_values(tmp_path):
    calls = wl.WORKLOADS["oracle"].calls
    stored = wl.load_reference()["oracle"]["exact_range"]
    values = np.array(stored["value"])
    exact = {"t": np.array(stored["t"]), "value": values}
    gate = {"field": [0.0], "t": [10.0], "max_abs_diff": [1e-15], "pass": [1.0]}
    tables = {"exact_range": {KEY: _roundtrip(tmp_path, exact)},
              "duality": {KEY: wl.read_table(_csv(tmp_path / "gate.csv", gate))}}
    assert not _failed(wl.check_oracle(calls, tables, 0))
    nudged = dict(exact, value=values * (1.0 + 1e-10))
    assert _failed(wl.check_oracle(calls, dict(tables, exact_range={KEY: _roundtrip(
        tmp_path, nudged)}), 0)) == {"oracle.range_vs_reference"}
    failing_gate = dict(gate, **{"pass": [0.0]})
    assert _failed(wl.check_oracle(calls, dict(tables, duality={KEY: wl.read_table(
        _csv(tmp_path / "gate.csv", failing_gate))}), 0)) == {"oracle.duality_gate_rows"}


def test_nonzero_exit_wrong_grid_and_missing_output_count_as_failed(tmp_path):
    workload = wl.WORKLOADS["oracle"]
    stored = wl.load_reference()["oracle"]["exact_range"]
    _csv(tmp_path / f"{KEY}-exact_range.csv",
         {"t": stored["t"], "value": stored["value"]})
    _csv(tmp_path / "0-1-exact_range.csv",
         {"t": stored["t"][:-1], "value": stored["value"][:-1]})
    reps = [{"key": KEY, "calls": [{"rc": 0, "wall_s": 1.0}, {"rc": 3, "wall_s": 1.0}]},
            {"key": "0-1", "calls": [{"rc": 0, "wall_s": 1.0}, {"rc": 0, "wall_s": 1.0}]}]
    _tables, failed, attempted, _lines = run.evaluate(workload, reps, tmp_path, 0)
    assert attempted == 4
    assert failed == {(KEY, "duality"), ("0-1", "exact_range"), ("0-1", "duality")}


def test_traced_worker_reports_every_layer(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    names = [m["name"] for m in spec["per_layer"] if m["name"] not in run.RUN_LEVEL_LAYERS]
    workload = wl.Workload("tiny", (
        wl.Call("range", ("range", "--nu", "1.0", "--t-grid", "1:5:3", "--replicas", "64",
                          *wl.MC_FLAGS)),
        wl.Call("exact", ("exact", "--what", "range", "--nu", "1.0", "--t-grid", "1,2",
                          "--width-cap", "50"))))
    result = run.run_child(workload, 1, 0, True, tmp_path, 0.0, names)
    rep, = result["reps"]
    assert [c["rc"] for c in rep["calls"]] == [0, 0]
    layers = rep["layers"]
    assert set(layers) == set(names)
    assert layers["walks.walk_curve.calls"] == 1
    assert layers["walks.jumps"] == 64 * 5
    assert layers["exact.exact_range_functional_curve_1d.self_s"] > 0
    assert layers["dual.DualSimulation.advance_to.calls"] == 0
    assert layers["harness.csv_bytes"] > 0
    spans = json.loads((tmp_path / "spans-0.json").read_text())["spans"]
    assert {"cli.main", "walks.walk_curve", "rangestats.mc_range_functional"} <= \
        {s[3] for s in spans}


@pytest.mark.parametrize("flags", [["-O"], []])
def test_refuses_without_asserts_or_program(tmp_path, flags):
    """``python -O`` and a directory without ``src/`` both exit nonzero, silently."""
    root = BENCH.parent
    if not flags:   # only the benchmark's own files: no program to measure
        shutil.copytree(BENCH, tmp_path / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(root / "BENCHMARK.json", tmp_path)
        root = tmp_path
    proc = subprocess.run([sys.executable, *flags, "bench/run.py", "--workload", "oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
