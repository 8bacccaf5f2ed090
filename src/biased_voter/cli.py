"""Command-line entry points for the experiment pipelines.

Subcommands: ``simulate-forward``, ``simulate-dual``, ``range``, ``exact``,
``fit``, ``sandwich``, ``localfn``. Every experiment subcommand reads its
run description from a ``--config`` file in the ``key = value`` grammar, then
from every flag given, which wins over the file's key, and takes the mode
from the subcommand; it writes CSV whose header embeds the full config and
its hash.

``exact`` imports the oracles, and with them scipy, once its flags have
parsed; the other subcommands never load them.

Exit codes: 0 success, 2 config error or hypothesis failure (the disorder
law does not satisfy a bound curve's precondition), 3 invariant violation
(an audited identity or ordering failed beyond tolerance). A ``sandwich``
whose fitted exponents miss their bracket warns and exits 0: the bounds
are per-time inequalities, which the ordering audits.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .harness import (_POWER_KEYS, CONFIG_KEYS, MODES, ConfigError, ExperimentConfig,
                      build_config, check_t_grid, fit_stretch_exponent, parse_t_grid,
                      parse_window, read_config_items, read_curve_csv, read_keys, run,
                      sandwich_report, write_records_csv, write_sandwich_csv, write_table)
from .kernel import KERNELS, make_kernel
from .localfn import is_monotone, lemma1_check, parse_localfn_text, sigma_and_support, gap
from .rangestats import local_exponent_column
from .stats import InvariantError, check_seed

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_INVARIANT = 3
DUALITY_TOL = 1e-10   # the duality gate's bound on |forward - dual|


def _flag(key: str) -> str:
    return "--window" if key == "fit_window" else "--" + key.replace("_", "-")


_FLAG_OPTIONS = {
    "kernel": dict(choices=KERNELS),
    "disorder": dict(choices=("bernoulli", "deterministic", "table")),
    "atoms": dict(help="table disorder: 'b:p, b:p, ...'"),
    "observable": dict(help="'site <coords>' or 'file <path>'"),
    "sites": dict(help="start set A, the observable H(., A), e.g. '0;1' or '0,0;1,0'"),
    "t_grid": dict(help="a:b:n log-spaced, lin:a:b:n, or comma list"),
    "fit_window": dict(help="fit window a:b"),
}


def _experiment(subs, command: str, modes: tuple[str, ...], func, help: str):
    """A subcommand with one text flag per key its modes read; ``mode`` is its own."""
    sub = subs.add_parser(command, help=help)
    sub.add_argument("--config", help="config file in key = value form")
    sub.add_argument("--out", help="output CSV path (default: stdout)")
    keys = {key for mode in modes for key in read_keys(mode)} - {"mode"}
    for key in CONFIG_KEYS:
        if key in keys:
            sub.add_argument(_flag(key), dest=key, **_FLAG_OPTIONS.get(key, {}))
    sub.set_defaults(func=func, mode=modes[0])
    return sub


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
        if value is not None:
            items[key] = (value, _flag(key))
    # simulate-dual's --mode names the dual half of the mode
    mode = args.mode if args.mode in MODES else f"dual-{args.mode}"
    items["mode"] = (mode, args.command)
    return build_config(items, args.config or "<flags>")


def _cmd_run(args) -> int:
    config = _build_config(args)
    columns, notes = run(config)
    write_records_csv(args.out, columns, config, notes)
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
    if not report.ordering_ok:
        print("invariant violation: bound ordering failed", file=sys.stderr)
        return EXIT_INVARIANT
    if report.gamma_bracket_ok is False:
        # the bounds hold per time; slopes fitted on a finite window are no bound
        fits = ", ".join(f"{name} {g[0]:.4f} +- {g[1]:.4f}" for name, g in (
            ("estimate", report.gamma_estimate), ("lower", report.gamma_lower),
            ("upper", report.gamma_upper)))
        print(f"warning: the bound exponents do not bracket the estimate's on the "
              f"fit window ({fits})", file=sys.stderr)
    return EXIT_OK


def _cmd_fit(args) -> int:
    ts, ms = read_curve_csv(args.input)
    window = parse_window(args.window) if args.window else None
    gamma, ci = fit_stretch_exponent(zip(ts, ms), window)
    print(f"gamma = {gamma!r}")
    print(f"ci_halfwidth = {ci!r}")
    return EXIT_OK


# exact's flags: dest -> (the oracles that read it, argparse options)
_EXACT_FLAGS = {
    "dim": (("duality",), dict(type=int, default=1)),
    "L": (("duality",), dict(type=int, default=3)),
    "kernel": (("duality",), dict(choices=KERNELS, default="nn")),
    "alpha": (("duality",), dict(type=float)),
    "cutoff": (("duality",), dict(type=int, default=100)),
    "fields": (("duality",), dict(type=int, default=5, help="number of random bias fields")),
    "t_grid": (("duality", "range"), dict()),
    "nu": (("range",), dict(type=float)),
    "width_cap": (("range",), dict(type=int, default=400, help=(
        "largest interval length summed exactly; an error names the cap when its "
        "remainder bound exceeds 1e-12 of the value"))),
    "seed": (("duality", "range"), dict(type=int, default=0, help=(
        "seed of the duality gate's bias fields; the range oracle draws nothing"))),
}


def _cmd_exact(args) -> int:
    """Run one oracle; a flag it does not read, set off its default, is a config error."""
    for dest, (oracles, options) in _EXACT_FLAGS.items():
        reads = args.what in oracles and (args.kernel == "power" or dest not in _POWER_KEYS)
        if not reads and getattr(args, dest) != options.get("default"):
            raise ConfigError(f"exact --what {args.what} does not read {_flag(dest)}")
    check_seed(args.seed, "--seed")
    return (_exact_duality if args.what == "duality" else _exact_range)(args)


def _exact_duality(args) -> int:
    if args.fields < 1:
        raise ConfigError(f"--fields must be at least 1, got {args.fields}: "
                          "a duality gate over no field compares nothing")
    try:   # a kernel the rule rejects is a config error, as in every subcommand
        tk = make_kernel(args.kernel, args.dim, args.alpha, args.cutoff, args.L)
    except ValueError as exc:
        raise ConfigError(f"<flags>: {exc}") from exc
    rng = np.random.default_rng(args.seed)
    times = check_t_grid(parse_t_grid(args.t_grid)) if args.t_grid else (0.1, 1.0, 10.0)
    from .exact import duality_gap
    rows = []
    worst = 0.0
    for fidx in range(args.fields):
        beta = rng.uniform(0.0, 2.0, size=tk.n_sites)
        for t, diff in zip(times, duality_gap(beta, tk, times).tolist()):
            worst = max(worst, diff)
            rows.append((fidx, float(t), diff, diff <= DUALITY_TOL))
    write_table(args.out, ("field", "t", "max_abs_diff", "pass"), rows)
    status = "PASS" if worst <= DUALITY_TOL else "FAIL"
    print(f"duality gate: {status} (worst |forward - dual| = {worst:.3e}, "
          f"tolerance {DUALITY_TOL:g})", file=sys.stderr)
    return EXIT_OK if worst <= DUALITY_TOL else EXIT_INVARIANT


def _exact_range(args) -> int:
    if args.nu is None:
        raise ConfigError("exact --what range needs --nu")
    times = check_t_grid(parse_t_grid(args.t_grid)) if args.t_grid else tuple(
        float(x) for x in np.geomspace(100, 2000, 13))
    from .exact import exact_range_functional_curve_1d
    values = exact_range_functional_curve_1d(args.nu, times, args.width_cap)
    write_table(args.out, ("t", "value", "local_exponent"),
                zip(times, map(float, values), local_exponent_column(times, values)))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused by every ``main``."""
    parser = argparse.ArgumentParser(
        prog="biased-voter",
        description="Simulation and verification toolkit for the biased "
                    "random voter model")
    subs = parser.add_subparsers(dest="command", required=True)

    _experiment(subs, "simulate-forward", ("forward",), _cmd_run,
                "forward dynamics on a torus, disorder sampled per replica")
    p = _experiment(subs, "simulate-dual", ("dual-quenched", "dual-annealed"), _cmd_run,
                    "coalescing dual estimator (quenched or annealed)")
    p.add_argument("--mode", choices=("quenched", "annealed"), default="annealed")
    _experiment(subs, "range", ("range",), _cmd_run,
                "Monte Carlo range functional of one walk")

    p = subs.add_parser("exact", help="exact small-system oracles")
    p.add_argument("--what", choices=("duality", "range"), required=True)
    for dest, (_, options) in _EXACT_FLAGS.items():
        p.add_argument(_flag(dest), dest=dest, **options)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exact)

    p = subs.add_parser("fit", help="stretched-exponent fit of a curve CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--window", help="fit window a:b (default: last decade)")
    p.set_defaults(func=_cmd_fit)

    _experiment(subs, "sandwich", ("sandwich",), _cmd_sandwich,
                "two-sided bound audit of the annealed relaxation")

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
