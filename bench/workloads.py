"""Workload definitions and output checks of the benchmark.

A workload is a fixed list of ``biased-voter`` CLI calls. The benchmark
repeats the list many times in a run, in a few fresh interpreters, with
seeds derived from the workload seed, and checks the outputs here, outside
the timed region. Statistical checks pool every repetition of a call in the
run (more replicas, one comparison per grid time) and use the
4-standard-error band of the acceptance suite. Each repetition is short
(about a second of calls at most), so a run holds tens of them and their
medians ride out the bursts of contention of a shared machine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from biased_voter.disorder import bernoulli_law, nu1, nu2
from biased_voter.exact import exact_range_functional_curve_1d
from biased_voter.harness import parse_t_grid
from biased_voter.kernel import make_nn_kernel
from biased_voter.walks import walk_curve

SIGMA_BAND = 4.0
EXACT_REL_TOL = 1e-12
EXACT_WIDTH_CAP = 200          # passes the width check up to t of about 1500
FORWARD_REF_REPLICAS = 20_000
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Calls dominated by interpreted per-event loops (and small numpy or scipy
# calls) slow down in step with the probe loop when other tenants load the
# machine; calls dominated by large array operations slow down about 0.4 as
# much, in logarithm (measured over runs of this benchmark on a 2-core VM).
ARRAY_BOUND = 0.4

LAW = bernoulli_law(q=0.5, b=1.0)
LAW_FLAGS = ("--disorder", "bernoulli", "--q", "0.5", "--b", "1")
MC_FLAGS = ("--threads", "1")


@dataclass(frozen=True)
class Call:
    """One CLI call of a workload; ``--seed`` and ``--out`` are added per run."""

    name: str
    argv: tuple[str, ...]
    t_ref_index: int | None = None   # grid index of the time-to-1% metric; None: exact
    # how the call's time follows the core's speed at interpreted code, as
    # (probe time) ** probe_exponent: see ARRAY_BOUND
    probe_exponent: float = 1.0

    @property
    def replicas(self) -> int:
        if "--replicas" not in self.argv:
            return 0
        return int(self.argv[self.argv.index("--replicas") + 1])

    @property
    def grid(self) -> np.ndarray:
        return np.array(parse_t_grid(self.argv[self.argv.index("--t-grid") + 1]))

    def with_replicas(self, replicas: int) -> "Call":
        argv = list(self.argv)
        argv[argv.index("--replicas") + 1] = str(replicas)
        return Call(self.name, tuple(argv), self.t_ref_index, self.probe_exponent)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    calls: tuple[tuple[str, str], ...]   # (repetition, call) pairs failed by a failing check


@dataclass(frozen=True)
class Workload:
    """A named list of calls; why each workload exists is in ``BENCHMARK.json``."""

    name: str
    calls: tuple[Call, ...]


# Sizes keep one repetition of a workload under about a second, so a run holds
# tens of repetitions; the checks and time_to_1pct_s pool all of them.
WORKLOADS = {w.name: w for w in (
    Workload(
        "sandwich",
        (Call("sandwich", ("sandwich", *LAW_FLAGS, "--observable", "site 0",
                           "--t-grid", "10:1000:12", "--replicas", "2048", *MC_FLAGS),
              t_ref_index=6, probe_exponent=ARRAY_BOUND),)),
    Workload(
        "forward",
        (Call("forward", ("simulate-forward", "--dim", "1", "--L", "32", *LAW_FLAGS,
                          "--observable", "site 0", "--t-grid", "lin:0.5:8:6",
                          "--replicas", "128", *MC_FLAGS),
              t_ref_index=5),)),
    Workload(
        "short_horizon",
        (Call("annealed", ("simulate-dual", "--mode", "annealed", "--sites", "0;1;3",
                           *LAW_FLAGS, "--t-grid", "10:100:6", "--replicas", "100",
                           *MC_FLAGS),
              t_ref_index=2),
         Call("quenched", ("simulate-dual", "--mode", "quenched", "--disorder-seed", "11",
                           "--sites", "0;1;3", *LAW_FLAGS, "--t-grid", "10:100:6",
                           "--replicas", "100", *MC_FLAGS),
              t_ref_index=2),
         Call("range", ("range", "--nu", "1.0", "--t-grid", "1:50:10",
                        "--replicas", "10000", *MC_FLAGS),
              t_ref_index=2, probe_exponent=ARRAY_BOUND))),
    Workload(
        "oracle",
        (Call("exact_range", ("exact", "--what", "range", "--nu", "1.0",
                              "--t-grid", "100:1000:13", "--width-cap", "200"),
              probe_exponent=ARRAY_BOUND),
         Call("duality", ("exact", "--what", "duality", "--L", "8", "--fields", "1",
                          "--t-grid", "10")))),
)}


# ---------------------------------------------------------------------------
# Reading and pooling outputs
# ---------------------------------------------------------------------------


def read_table(path, grid=None) -> dict[str, np.ndarray]:
    """Columns of an output CSV as float arrays; blank cells read as NaN.

    With ``grid``, the ``t`` column must be that time grid.
    """
    with open(path) as fh:
        rows = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = rows[0].split(",")
    cells = [row.split(",") for row in rows[1:]]
    if not cells or any(len(c) != len(header) for c in cells):
        raise ValueError(f"{path}: malformed table")
    table = {name: np.array([float(c[i]) if c[i] else math.nan for c in cells])
             for i, name in enumerate(header)}
    if grid is not None and (table["t"].shape != grid.shape
                             or not np.allclose(table["t"], grid, rtol=1e-12, atol=0.0)):
        raise ValueError(f"{path}: times differ from the call's grid")
    return table


def value_column(table) -> str:
    return "estimate" if "estimate" in table else "mean"


def pool(tables, replicas: int, value: str, stderr: str = "stderr"):
    """Mean and stderr over equal-size runs, as if they were one run.

    Each run's sum of squared deviations is rebuilt from its stderr and
    merged with the between-run spread (the pairwise moment update).
    """
    means = np.array([t[value] for t in tables])
    ses = np.array([t[stderr] for t in tables])
    n = replicas
    total = n * len(tables)
    mean = means.mean(axis=0)
    m2 = (ses ** 2 * n * (n - 1)).sum(axis=0) + (n * (means - mean) ** 2).sum(axis=0)
    return mean, np.sqrt(m2 / (total - 1) / total)


def time_to_1pct(call: Call, tables, wall_s: float) -> float:
    """Seconds to a 1% relative stderr at the reference time.

    ``wall_s`` is the call's time for one repetition. A Monte Carlo stderr
    scales as replicas^-1/2, so one repetition's time times
    (rel_stderr of one repetition / 0.01)^2 is the time to 1%; the relative
    stderr comes from all repetitions pooled, scaled back to one. An exact
    call reaches any accuracy in one call.
    """
    if call.t_ref_index is None:
        return wall_s
    mean, se = pool(tables, call.replicas, value_column(tables[0]))
    j = call.t_ref_index
    return float(wall_s * len(tables) * (se[j] / mean[j] / 0.01) ** 2)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Checks: each returns one CheckResult per comparison family
# ---------------------------------------------------------------------------


def _band_check(name, judged, estimate, est_se, reference, ref_se=0.0) -> CheckResult:
    sigma = np.sqrt(np.asarray(est_se) ** 2 + np.asarray(ref_se) ** 2)
    dev = np.abs(np.asarray(estimate) - np.asarray(reference))
    ok = bool(np.all(np.isfinite(dev)) and np.all(dev <= SIGMA_BAND * sigma))
    worst = float(np.max(dev / np.where(sigma > 0, sigma, np.inf))) if dev.size else 0.0
    return CheckResult(name, ok, f"worst deviation {worst:.2f} stderr "
                                 f"(limit {SIGMA_BAND:g})", judged)


def _judged(tables_by_rep, call_name) -> tuple[tuple[str, str], ...]:
    return tuple((key, call_name) for key in sorted(tables_by_rep))


def _exact_curve(nu, ts):
    return exact_range_functional_curve_1d(nu, ts, EXACT_WIDTH_CAP)


def check_sandwich(calls, tables, seed) -> list[CheckResult]:
    """Both bound curves against the exact 1-d range functional, t <= 123."""
    call = calls[0]
    got = tables[call.name]
    if not got:
        return []
    rows = list(got.values())
    ts = rows[0]["t"][:call.t_ref_index + 1]
    out = []
    for curve, nu in (("lower", nu2(LAW)), ("upper", nu1(LAW))):
        mean, se = pool(rows, call.replicas, curve, f"{curve}_stderr")
        k = ts.size
        out.append(_band_check(f"sandwich.{curve}_vs_exact", _judged(got, call.name),
                               mean[:k], se[:k], _exact_curve(nu, ts)))
    return out


def forward_reference(ts, seed):
    """Annealed single-site weight from the walk engine: the dual of forward."""
    stats = walk_curve(make_nn_kernel(1), ts, FORWARD_REF_REPLICAS, seed, law=LAW)
    return stats.weight_mean, stats.weight_stderr


def check_forward(calls, tables, seed) -> list[CheckResult]:
    """Forward relaxation against the dual walk estimate at every grid time."""
    call = calls[0]
    got = tables[call.name]
    if not got:
        return []
    rows = list(got.values())
    mean, se = pool(rows, call.replicas, "mean")
    ref, ref_se = forward_reference(rows[0]["t"], seed)
    return [_band_check("forward.vs_dual_walk", _judged(got, call.name),
                        mean, se, ref, ref_se)]


def check_short_horizon(calls, tables, seed) -> list[CheckResult]:
    """Range against the exact curve; dual runs against the stored reference."""
    reference = load_reference()["short_horizon"]
    out = []
    for call in calls:
        got = tables[call.name]
        if not got:
            continue
        rows = list(got.values())
        mean, se = pool(rows, call.replicas, "mean")
        if call.name == "range":
            ref, ref_se = _exact_curve(1.0, rows[0]["t"]), 0.0
        else:
            k = call.t_ref_index + 1
            stored = reference[call.name]
            mean, se = mean[:k], se[:k]
            ref, ref_se = np.array(stored["mean"][:k]), np.array(stored["stderr"][:k])
        out.append(_band_check(f"short_horizon.{call.name}_vs_"
                               f"{'exact' if call.name == 'range' else 'reference'}",
                               _judged(got, call.name), mean, se, ref, ref_se))
    return out


def check_oracle(calls, tables, seed) -> list[CheckResult]:
    """Every exact range output against the stored reference; every gate row passes."""
    stored = np.array(load_reference()["oracle"]["exact_range"]["value"])
    rel = {key: float(np.max(np.abs(t["value"] - stored) / np.abs(stored)))
           for key, t in tables["exact_range"].items()}
    bad = tuple((key, "exact_range") for key, r in sorted(rel.items())
                if not r <= EXACT_REL_TOL)
    gate = tables["duality"]
    bad_gate = tuple((key, "duality") for key, t in sorted(gate.items())
                     if not np.all(t["pass"] == 1.0))
    worst_gate = max((float(np.max(t["max_abs_diff"])) for t in gate.values()), default=0.0)
    return [
        CheckResult("oracle.range_vs_reference", not bad,
                    f"worst relative difference {max(rel.values(), default=0.0):.2e} "
                    f"over {len(rel)} outputs (limit {EXACT_REL_TOL:g})", bad),
        CheckResult("oracle.duality_gate_rows", not bad_gate,
                    f"worst |forward - dual| {worst_gate:.2e} over {len(gate)} outputs",
                    bad_gate),
    ]


CHECKS = {
    "sandwich": check_sandwich,
    "forward": check_forward,
    "short_horizon": check_short_horizon,
    "oracle": check_oracle,
}
