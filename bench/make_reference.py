"""Regenerate ``reference.json``, the stored references of the benchmark checks.

    python3 bench/make_reference.py

The annealed and quenched dual calls of ``short_horizon`` are rerun with 200
times the workload's replicas under a fixed seed; the exact range call of
``oracle`` is stored as computed. Rerun only when a workload's configuration
changes, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from biased_voter import cli  # noqa: E402
from workloads import REFERENCE_PATH, WORKLOADS, read_table  # noqa: E402

REPLICA_FACTOR = 200
SEED = 20_261_017


def _run(argv, out) -> dict:
    rc = cli.main([*argv, "--seed", str(SEED), "--out", str(out)])
    if rc != 0:
        raise SystemExit(f"reference call failed with exit {rc}: {argv}")
    return read_table(out)


def main():
    reference = {"short_horizon": {}, "oracle": {}}
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        for call in WORKLOADS["short_horizon"].calls:
            if call.name == "range":
                continue   # checked against the exact curve
            big = call.with_replicas(call.replicas * REPLICA_FACTOR)
            table = _run(big.argv, Path(tmp) / f"{call.name}.csv")
            reference["short_horizon"][call.name] = {
                "argv": list(big.argv), "seed": SEED,
                "t": table["t"].tolist(), "mean": table["mean"].tolist(),
                "stderr": table["stderr"].tolist()}
        call = next(c for c in WORKLOADS["oracle"].calls if c.name == "exact_range")
        table = _run(call.argv, Path(tmp) / "exact_range.csv")
        reference["oracle"]["exact_range"] = {
            "argv": list(call.argv), "t": table["t"].tolist(),
            "value": table["value"].tolist()}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
