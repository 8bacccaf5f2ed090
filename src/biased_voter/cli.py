"""Command-line entry points for the experiment pipelines.

Subcommands: ``simulate-forward``, ``simulate-dual``, ``range``, ``exact``,
``fit``, ``sandwich``, ``localfn``. Every experiment subcommand accepts a
``--config`` file in the ``key = value`` grammar plus flag overrides, and
writes CSV whose header embeds the full config and its hash.

Exit codes: 0 success, 2 hypothesis failure (the disorder law does not
satisfy a bound curve's precondition), 3 invariant violation (an audited
identity or ordering failed beyond tolerance).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from .exact import (exact_dual_values_all, exact_range_functional_curve_1d,
                    product_indicator_vector, semigroup_apply,
                    build_forward_generator)
from .harness import (ConfigError, ExperimentConfig, config_hash,
                      fit_stretch_exponent, parse_config_text, parse_sites,
                      parse_t_grid, read_curve_csv, run, sandwich_report,
                      write_records_csv, write_sandwich_csv)
from .kernel import fold_to_torus
from .localfn import is_monotone, lemma1_check, parse_localfn_text, sigma_and_support, gap
from .rangestats import effective_exponent
from .stats import InvariantError

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_INVARIANT = 3


def _common_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="config file in key = value form")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--replicas", type=int)
    sub.add_argument("--out", help="output CSV path (default: stdout)")
    sub.add_argument("--threads", type=int)


def _model_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--dim", type=int)
    sub.add_argument("--L", type=int, dest="side")
    sub.add_argument("--kernel", choices=("nn", "power"))
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--cutoff", type=int)
    sub.add_argument("--disorder", choices=("bernoulli", "deterministic", "table"))
    sub.add_argument("--q", type=float)
    sub.add_argument("--b", type=float)
    sub.add_argument("--atoms", help="table disorder: 'b:p, b:p, ...'")
    sub.add_argument("--observable", help="'site <coords>' or 'file <path>'")
    sub.add_argument("--t-grid", dest="t_grid",
                     help="a:b:n log-spaced, lin:a:b:n, or comma list")


def _build_config(args, mode: str) -> ExperimentConfig:
    """Config file first, then flag overrides, then validation."""
    if args.config:
        with open(args.config) as fh:
            base = parse_config_text(fh.read(), name=args.config)
        base = replace(base, mode=mode)
    else:
        lines = [f"mode = {mode}"]
        if getattr(args, "t_grid", None):
            lines.append(f"t_grid = {args.t_grid}")
        if args.replicas is not None:
            lines.append(f"replicas = {args.replicas}")
        for key, raw in (("disorder", getattr(args, "disorder", None)),
                         ("q", getattr(args, "q", None)),
                         ("b", getattr(args, "b", None)),
                         ("atoms", getattr(args, "atoms", None)),
                         ("observable", getattr(args, "observable", None)),
                         ("kernel", getattr(args, "kernel", None)),
                         ("alpha", getattr(args, "alpha", None)),
                         ("cutoff", getattr(args, "cutoff", None)),
                         ("dim", getattr(args, "dim", None)),
                         ("L", getattr(args, "side", None)),
                         ("nu", getattr(args, "nu", None)),
                         ("sites", getattr(args, "sites", None)),
                         ("seed", getattr(args, "seed", None)),
                         ("threads", getattr(args, "threads", None)),
                         ("fit_window", getattr(args, "window", None)),
                         ("disorder_seed", getattr(args, "disorder_seed", None))):
            if raw is not None:
                lines.append(f"{key} = {raw}")
        return parse_config_text("\n".join(lines), name="<flags>")
    # flag overrides on top of the file
    updates = {}
    if getattr(args, "t_grid", None):
        updates["t_grid"] = parse_t_grid(args.t_grid)
    if args.replicas is not None:
        updates["replicas"] = args.replicas
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.threads is not None:
        updates["threads"] = args.threads
    for attr, key in (("dim", "dim"), ("side", "side"), ("alpha", "alpha"),
                      ("cutoff", "cutoff"), ("nu", "nu"),
                      ("disorder_seed", "disorder_seed")):
        if getattr(args, attr, None) is not None:
            updates[key] = getattr(args, attr)
    if getattr(args, "kernel", None) is not None:
        updates["kernel_name"] = args.kernel
    if getattr(args, "sites", None):
        updates["sites"] = parse_sites(args.sites)
    if getattr(args, "window", None):
        a, _, b = args.window.partition(":")
        updates["fit_window"] = (float(a), float(b))
    config = replace(base, **updates)
    config.validate()
    return config


def _emit(path, writer):
    if path:
        writer(path)
    else:
        writer(sys.stdout)


def _cmd_simulate_forward(args) -> int:
    config = _build_config(args, "forward")
    records = run(config)
    _emit(args.out, lambda dst: write_records_csv(dst, records, config))
    return EXIT_OK


def _cmd_simulate_dual(args) -> int:
    mode = "dual-quenched" if args.mode == "quenched" else "dual-annealed"
    config = _build_config(args, mode)
    records = run(config)
    _emit(args.out, lambda dst: write_records_csv(dst, records, config))
    return EXIT_OK


def _cmd_range(args) -> int:
    config = _build_config(args, "range")
    records = run(config)
    _emit(args.out, lambda dst: write_records_csv(dst, records, config))
    return EXIT_OK


def _cmd_sandwich(args) -> int:
    config = _build_config(args, "dual-annealed")
    report = sandwich_report(config)
    _emit(args.out, lambda dst: write_sandwich_csv(dst, report, config))
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
    window = None
    if args.window:
        a, _, b = args.window.partition(":")
        window = (float(a), float(b))
    gamma, ci = fit_stretch_exponent(zip(ts, ms), window)
    print(f"gamma = {gamma!r}")
    print(f"ci_halfwidth = {ci!r}")
    return EXIT_OK


def _cmd_exact(args) -> int:
    if args.what == "duality":
        return _exact_duality(args)
    return _exact_range(args)


def _exact_duality(args) -> int:
    dim = args.dim or 1
    side = args.side or 3
    n = side ** dim
    if n > 12:
        print(f"torus with {n} sites exceeds the exact limit of 12", file=sys.stderr)
        return EXIT_HYPOTHESIS
    from .kernel import make_nn_kernel, make_power_kernel
    if (args.kernel or "nn") == "nn":
        kern = make_nn_kernel(dim)
    else:
        kern = make_power_kernel(args.alpha, args.cutoff or 100)
    tk = fold_to_torus(kern, side)
    rng = np.random.default_rng(args.seed or 0)
    times = parse_t_grid(args.t_grid) if args.t_grid else (0.1, 1.0, 10.0)
    lines = ["field,t,max_abs_diff,pass"]
    worst = 0.0
    for fidx in range(args.fields):
        beta = rng.uniform(0.0, 2.0, size=n)
        gen = build_forward_generator(beta, tk)
        for t in times:
            dual_vals = exact_dual_values_all(beta, tk, t)
            diff = 0.0
            for mask in range(1, 1 << n):
                g = product_indicator_vector(n, mask)
                fwd = semigroup_apply(gen, g, t)[(1 << n) - 1]
                diff = max(diff, abs(float(fwd) - float(dual_vals[mask])))
            worst = max(worst, diff)
            lines.append(f"{fidx},{float(t)!r},{float(diff)!r},{int(diff <= args.tol)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
    slopes = dict(effective_exponent(list(zip(times, values))))
    lines = ["t,value,local_exponent"]
    for t, v in zip(times, values):
        s = slopes.get(float(t))
        lines.append(f"{float(t)!r},{float(v)!r},{'' if s is None else repr(float(s))}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
    p.set_defaults(func=_cmd_simulate_forward)

    p = subs.add_parser("simulate-dual",
                        help="coalescing dual estimator (quenched or annealed)")
    _common_flags(p)
    _model_flags(p)
    p.add_argument("--mode", choices=("quenched", "annealed"), default="annealed")
    p.add_argument("--sites", help="start set, e.g. '0;1' or '0,0;1,0'")
    p.add_argument("--disorder-seed", type=int, dest="disorder_seed")
    p.set_defaults(func=_cmd_simulate_dual)

    p = subs.add_parser("range", help="Monte Carlo range functional of one walk")
    _common_flags(p)
    _model_flags(p)
    p.add_argument("--nu", type=float)
    p.set_defaults(func=_cmd_range)

    p = subs.add_parser("exact", help="exact small-system oracles")
    p.add_argument("--what", choices=("duality", "range"), required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--L", type=int, dest="side")
    p.add_argument("--kernel", choices=("nn", "power"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--cutoff", type=int)
    p.add_argument("--fields", type=int, default=5,
                   help="number of random bias fields for the duality gate")
    p.add_argument("--t-grid", dest="t_grid")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--nu", type=float)
    p.add_argument("--width-cap", type=int, dest="width_cap", default=400)
    p.add_argument("--seed", type=int)
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
    p.add_argument("--sites")
    p.add_argument("--window", help="fit window a:b")
    p.set_defaults(func=_cmd_sandwich)

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
