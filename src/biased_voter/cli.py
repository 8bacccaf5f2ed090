"""Command-line entry points for the experiment pipelines.

Subcommands: ``simulate-forward``, ``simulate-dual``, ``range``, ``exact``,
``fit``, ``sandwich``, ``localfn``. Every experiment subcommand reads its
run description from a ``--config`` file in the ``key = value`` grammar, then
from every flag given, which wins over the file's key, and takes the mode
from the subcommand; it writes CSV whose header embeds the full config and
its hash.

Exit codes: 0 success, 2 hypothesis failure (the disorder law does not
satisfy a bound curve's precondition), 3 invariant violation (an audited
identity or ordering failed beyond tolerance).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .exact import duality_gap, exact_range_functional_curve_1d
from .harness import (CONFIG_KEYS, MODES, ConfigError, ExperimentConfig,
                      build_config, fit_stretch_exponent, make_kernel,
                      parse_t_grid, parse_window, read_config_items, read_curve_csv,
                      run, sandwich_report, write_records_csv, write_sandwich_csv,
                      write_table)
from .localfn import is_monotone, lemma1_check, parse_localfn_text, sigma_and_support, gap
from .rangestats import effective_exponent
from .stats import InvariantError

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_INVARIANT = 3


def _common_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="config file in key = value form")
    sub.add_argument("--seed")
    sub.add_argument("--replicas")
    sub.add_argument("--out", help="output CSV path (default: stdout)")
    sub.add_argument("--threads")


def _model_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--dim")
    sub.add_argument("--L")
    sub.add_argument("--kernel", choices=("nn", "power"))
    sub.add_argument("--alpha")
    sub.add_argument("--cutoff")
    sub.add_argument("--disorder", choices=("bernoulli", "deterministic", "table"))
    sub.add_argument("--q")
    sub.add_argument("--b")
    sub.add_argument("--atoms", help="table disorder: 'b:p, b:p, ...'")
    sub.add_argument("--observable", help="'site <coords>' or 'file <path>'")
    sub.add_argument("--t-grid", dest="t_grid",
                     help="a:b:n log-spaced, lin:a:b:n, or comma list")


def _build_config(args) -> ExperimentConfig:
    """The config file's keys, then every flag given, then the subcommand's mode.

    Flags keep their text, so one builder casts file and flag values alike
    and names the ``file:line`` or the flag of a bad one.
    """
    items = {}
    if args.config:
        with open(args.config) as fh:
            items = read_config_items(fh.read(), args.config)
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None and key != "mode":
            flag = "--window" if key == "fit_window" else "--" + key.replace("_", "-")
            items[key] = (value, flag)
    # simulate-dual's --mode names the dual half of the mode
    mode = args.mode if args.mode in MODES else f"dual-{args.mode}"
    items["mode"] = (mode, args.command)
    return build_config(items, args.config or "<flags>")


def _cmd_run(args) -> int:
    config = _build_config(args)
    columns, max_abs_position = run(config)
    write_records_csv(args.out, columns, config, max_abs_position)
    return EXIT_OK


def _cmd_sandwich(args) -> int:
    report = sandwich_report(_build_config(args))
    write_sandwich_csv(args.out, report)
    print(f"target exponent d/(d+alpha) = {report.gamma_target:.6f}", file=sys.stderr)
    for name, g in (("estimate", report.gamma_estimate),
                    ("lower", report.gamma_lower), ("upper", report.gamma_upper)):
        if g:
            print(f"gamma[{name}] = {g[0]:.4f} +- {g[1]:.4f}", file=sys.stderr)
    if not report.hypotheses_ok:
        side = "lower" if not report.hypothesis_lower_ok else "upper"
        print(f"hypothesis failure: the disorder law does not satisfy the "
              f"{side}-bound precondition", file=sys.stderr)
        return EXIT_HYPOTHESIS
    if not report.ordering_ok or report.gamma_bracket_ok is False:
        print("invariant violation: bound ordering or exponent bracket failed",
              file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_fit(args) -> int:
    ts, ms = read_curve_csv(args.input)
    window = parse_window(args.window) if args.window else None
    gamma, ci = fit_stretch_exponent(zip(ts, ms), window)
    print(f"gamma = {gamma!r}")
    print(f"ci_halfwidth = {ci!r}")
    return EXIT_OK


def _cmd_exact(args) -> int:
    if args.what == "duality":
        return _exact_duality(args)
    return _exact_range(args)


def _exact_duality(args) -> int:
    tk = make_kernel(args.kernel, args.dim, args.alpha, args.cutoff, args.L)
    rng = np.random.default_rng(args.seed)
    times = parse_t_grid(args.t_grid) if args.t_grid else (0.1, 1.0, 10.0)
    rows = []
    worst = 0.0
    for fidx in range(args.fields):
        beta = rng.uniform(0.0, 2.0, size=tk.n_sites)
        for t in times:
            diff = duality_gap(beta, tk, t)
            worst = max(worst, diff)
            rows.append((fidx, float(t), diff, diff <= args.tol))
    write_table(args.out, ("field", "t", "max_abs_diff", "pass"), rows)
    status = "PASS" if worst <= args.tol else "FAIL"
    print(f"duality gate: {status} (worst |forward - dual| = {worst:.3e}, "
          f"tolerance {args.tol:g})", file=sys.stderr)
    return EXIT_OK if worst <= args.tol else EXIT_INVARIANT


def _exact_range(args) -> int:
    if args.nu is None:
        print("exact range needs --nu", file=sys.stderr)
        return EXIT_HYPOTHESIS
    times = parse_t_grid(args.t_grid) if args.t_grid else tuple(
        float(x) for x in np.geomspace(100, 2000, 13))
    values = exact_range_functional_curve_1d(args.nu, times, args.width_cap)
    slopes = dict(effective_exponent([(t, v) for t, v in zip(times, values)
                                      if t > 0.0 and 0.0 < v < 1.0]))
    write_table(args.out, ("t", "value", "local_exponent"),
                ((float(t), float(v), slopes.get(float(t))) for t, v in zip(times, values)))
    decreasing = bool(np.all(np.diff(values) < 0))
    print(f"range functional: strictly decreasing in t: {decreasing}",
          file=sys.stderr)
    return EXIT_OK if decreasing else EXIT_INVARIANT


def _cmd_localfn(args) -> int:
    with open(args.check) as fh:
        f = parse_localfn_text(fh.read())
    sigma, support = sigma_and_support(f)
    mono = is_monotone(f)
    lemma = lemma1_check(f)
    print(f"support = {sorted(support)}")
    print(f"sigma = {sigma!r}")
    print(f"gap = {gap(f)!r}")
    print(f"monotone = {mono}")
    print(f"coefficient_criterion = {lemma}")
    if mono != lemma:
        print("invariant violation: the two monotonicity characterizations "
              "disagree", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biased-voter",
        description="Simulation and verification toolkit for the biased "
                    "random voter model")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate-forward",
                        help="forward dynamics on a torus, disorder sampled per replica")
    _common_flags(p)
    _model_flags(p)
    p.set_defaults(func=_cmd_run, mode="forward")

    p = subs.add_parser("simulate-dual",
                        help="coalescing dual estimator (quenched or annealed)")
    _common_flags(p)
    _model_flags(p)
    p.add_argument("--mode", choices=("quenched", "annealed"), default="annealed")
    p.add_argument("--sites", help="start set, e.g. '0;1' or '0,0;1,0'")
    p.add_argument("--disorder-seed", dest="disorder_seed")
    p.set_defaults(func=_cmd_run)

    p = subs.add_parser("range", help="Monte Carlo range functional of one walk")
    _common_flags(p)
    _model_flags(p)
    p.add_argument("--nu")
    p.set_defaults(func=_cmd_run, mode="range")

    p = subs.add_parser("exact", help="exact small-system oracles")
    p.add_argument("--what", choices=("duality", "range"), required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--L", type=int, default=3)
    p.add_argument("--kernel", choices=("nn", "power"), default="nn")
    p.add_argument("--alpha", type=float)
    p.add_argument("--cutoff", type=int, default=100)
    p.add_argument("--fields", type=int, default=5,
                   help="number of random bias fields for the duality gate")
    p.add_argument("--t-grid", dest="t_grid")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--nu", type=float)
    p.add_argument("--width-cap", type=int, dest="width_cap", default=400,
                   help="largest interval length summed exactly by the range "
                        "oracle; an error names the cap when its remainder "
                        "bound exceeds 1e-12 of the value")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exact)

    p = subs.add_parser("fit", help="stretched-exponent fit of a curve CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--window", help="fit window a:b (default: last decade)")
    p.set_defaults(func=_cmd_fit)

    p = subs.add_parser("sandwich",
                        help="two-sided bound audit of the annealed relaxation")
    _common_flags(p)
    _model_flags(p)
    p.add_argument("--window", dest="fit_window", help="fit window a:b")
    p.set_defaults(func=_cmd_sandwich, mode="dual-annealed")

    p = subs.add_parser("localfn", help="inspect a local observable file")
    p.add_argument("--check", required=True, help="observable text file")
    p.set_defaults(func=_cmd_localfn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS


if __name__ == "__main__":
    sys.exit(main())
