"""One interpreter of a benchmark run: repeats a workload's CLI calls.

Started by ``run.py`` with a JSON job on the command line. It imports the
package from the checkout's ``src``, optionally installs the span tracer,
and then runs the workload's calls through ``cli.main``, one repetition
after another with the seeds the job lists, until its time budget is spent
(at least once). Right before each call it times a short probe loop,
which tells the parent how fast the core runs interpreted code at that
moment.
It writes a JSON result: the set-up time (from the parent's spawn to the
first call ``cli`` makes into another package module), each call's exit
code, wall time and probe time per repetition, the peak resident memory of
this process and, when traced, the per-layer metrics of each repetition.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

import numpy as np


def _mark_first_package_call(cli, mark: list):
    """Record when ``cli`` first calls a function it imported from the package."""
    def probe(fn):
        def wrapper(*args, **kwargs):
            if not mark:
                mark.append(time.monotonic())
            return fn(*args, **kwargs)
        return wrapper

    for name, value in list(vars(cli).items()):
        module = getattr(value, "__module__", "") or ""
        if callable(value) and not isinstance(value, type) and \
                module.startswith("biased_voter.") and module != cli.__name__:
            setattr(cli, name, probe(value))


def _calibrate() -> float:
    """Seconds for a fixed probe loop of the kind the engines run per event.

    Scalar numpy calls and single-element array updates, as in the forward
    and dual event loops; its time tells how fast the core runs such code now.
    """
    rng = np.random.default_rng(12345)
    cum = np.linspace(1 / 64, 1.0, 64)
    cells = np.zeros(64, dtype=np.uint8)
    start = time.perf_counter()
    for _ in range(4000):
        i = int(np.searchsorted(cum, rng.random()))
        cells[i] = cells[63 - i] ^ 1
    return time.perf_counter() - start


def _run_call(cli, argv) -> int:
    try:
        return int(cli.main(argv))
    except SystemExit as exc:          # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:                  # an escaped invariant or engine error
        traceback.print_exc()
        return 1


def main() -> int:
    if not __debug__:
        print("refusing to run under python -O: the engines' asserts are part "
              "of the measured program", file=sys.stderr)
        return 2
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    from biased_voter import cli
    if not cli.__file__.startswith(job["src"]):
        print(f"imported biased_voter from {cli.__file__}, not {job['src']}",
              file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    mark: list = []
    _mark_first_package_call(cli, mark)

    reps = []
    start = time.perf_counter()
    for r, seeds in enumerate(job["seeds"]):
        if r and time.perf_counter() - start >= job["budget_s"]:
            break
        if tracer is not None:
            tracer.reset(r)
        calls = []
        for argv, name, seed in zip(job["calls"], job["names"], seeds):
            out = f"{job['out']}-{r}-{name}.csv"
            cal = _calibrate()
            t0 = time.perf_counter()
            rc = _run_call(cli, [*argv, "--seed", str(seed), "--out", out])
            calls.append({"rc": rc, "wall_s": time.perf_counter() - t0, "cal_s": cal})
        rep = {"calls": calls}
        if tracer is not None:
            rep["layers"] = {name: tracer.metric(name) for name in job["layer_metrics"]}
        reps.append(rep)
    # set-up ends inside the first call, after that call's probe: leave the probe out
    first_probe = reps[0]["calls"][0]["cal_s"]
    result = {
        "setup_s": (mark[0] if mark else time.monotonic()) - job["spawned"] - first_probe,
        "setup_cal_s": first_probe,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reps": reps,
    }
    if tracer is not None:
        tracer.write_spans(job["spans"])
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
