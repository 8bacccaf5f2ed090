"""Experiment orchestration: relaxation curves, bounds, fits, persistence.

An experiment is a ``key = value`` config or an ``ExperimentConfig``. The
``sites`` key is a second spelling of ``observable``: start set A reads as
the product indicator H(., A). A mode that reads ``observable``, given
neither, gets the origin-site indicator written in, so header and hash
record what ran. ``run`` returns its mode's CSV columns. A dual mode
estimates f = sum_A fhat(A) H(., A) as sum over nonempty A of fhat(A) times
the dual expectation from A, annealed (law integrated out) or quenched (one
lazy field), in one walk over one draw where each A's walkers coalesce
among themselves (a start set is one such A, with coefficient 1). A
quenched run in d = 1 with the nn kernel goes on exactly once one rider
of a term is left, through the box ``_quenched_box`` picks.
``sandwich`` is the bound audit, run by ``sandwich_report`` on that walk:

    upper(t) = Sigma(f) * |support(f)| * E[ exp(-nu1 |R_t|) ]
    lower(t) = gap(f) * E[ exp(-nu2 |R_t|) ] ** |support(f)|

with |R_t| the visited-site count of the first support site's own walk in
the same draw, which removes most of the relative noise between the three
curves. Where E exp(-nu2 |R_t|) is known exactly (d = 1, nn kernel, one
single-site term), the estimate takes it as a control variate. The upper
bound is an asymptotic-regime curve: at times of order one it can dip
below the estimate (its derivation replaces occupation times by visit
counts), so audits are meaningful on the grids actually used here,
t >= O(10).

Replicas are split into fixed-size batches with per-batch seed streams and
merged in batch order, so a rerun with a different thread count writes a
byte-identical CSV.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .disorder import DisorderLaw, LazyBiasField, bernoulli_law, deterministic_law, nu1, nu2
from .forward import forward_relaxation
from .kernel import KERNELS, Kernel, TorusKernel, make_kernel, site_array
from .localfn import (LocalFunction, gap, hat_coeffs, is_monotone, parse_localfn_text,
                      product_indicator, sigma_and_support, site_indicator, _from_masks)
from .rangestats import (dirichlet_eigenvalue, dv_constant, local_exponent_column,
                         mc_range_functional)
from .stats import ConfigError, check_nu, check_seed, check_t_grid
from .walks import QuenchedBox, walk_curve

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SandwichReport",
    "CONFIG_KEYS",
    "KEYS",
    "read_keys",
    "read_config_items",
    "build_config",
    "parse_config_text",
    "parse_t_grid",
    "check_t_grid",
    "parse_sites",
    "parse_window",
    "config_hash",
    "run",
    "fit_stretch_exponent",
    "sandwich_report",
    "write_records_csv",
    "write_sandwich_csv",
    "write_table",
    "read_curve_csv",
]

MODES = ("forward", "dual-quenched", "dual-annealed", "range", "sandwich")
SIGMA_BAND = 4.0        # audit tolerance in combined standard errors
CONTROL_CAP_CEILING = 1024   # widest exact range series the sandwich control variate tries
BOX_WIDTH_CEILING = 512      # widest half-width a d = 1 quenched run's box tries
CI_LEVEL = 0.99         # two-sided confidence level of exponent fits


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one measurement run."""

    mode: str
    t_grid: tuple[float, ...]
    replicas: int
    seed: int = 0
    dim: int = 1
    side: int = 16
    kernel_name: str = "nn"
    alpha: float | None = None
    cutoff: int = 100
    law: DisorderLaw | None = None
    observable: LocalFunction | None = None
    nu: float | None = None
    threads: int = 1
    fit_window: tuple[float, float] | None = None
    disorder_seed: int | None = None

    def __post_init__(self):
        if self.observable is None and "observable" in read_keys(self.mode):
            object.__setattr__(self, "observable", site_indicator((0,) * self.dim))

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.replicas < 2:
            raise ConfigError("replicas must be at least 2")
        check_t_grid(self.t_grid)
        check_seed(self.seed)
        try:   # the engines' own kernel and site rules
            kernel = self.kernel()
            if self.observable is not None:
                site_array(kernel, self.observable.support)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        reads = read_keys(self.mode, self.kernel_name)
        for key in KEYS:
            if key.name not in reads and getattr(self, key.field) != _DEFAULTS[key.field]:
                raise ConfigError(f"a {self.mode} run with the {self.kernel_name} kernel "
                                  f"does not read {key.name!r}")
        if self.mode == "range":
            check_nu(self.nu)
        if self.disorder_seed is not None:
            check_seed(self.disorder_seed, "disorder_seed")
        if self.fit_window is not None:
            check_window(self.fit_window)
        if self.mode != "range" and self.law is None:
            raise ConfigError(f"mode {self.mode!r} needs a disorder law")
        f = self.observable
        if f is not None:
            if self.mode != "forward" and not f.support:
                raise ConfigError("a constant observable has no dual to start")
            if self.mode == "sandwich" and not is_monotone(f):
                raise ConfigError("the sandwich bounds need a monotone observable")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")

    def kernel(self) -> Kernel | TorusKernel:
        """The run's kernel by ``kernel.make_kernel``, folded onto the torus for a forward run."""
        return make_kernel(self.kernel_name, self.dim, self.alpha, self.cutoff,
                           self.side if self.mode == "forward" else None)

    def canonical_items(self) -> list[tuple[str, str]]:
        """The header's ``key = value`` pairs: every key the run reads that has a header form."""
        reads = read_keys(self.mode, self.kernel_name)
        return [(k.name, "" if getattr(self, k.field) is None else k.write(getattr(self, k.field)))
                for k in KEYS if k.write and k.name in reads]


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def config_hash(config: ExperimentConfig) -> str:
    text = "\n".join(f"{k} = {v}" for k, v in config.canonical_items())
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Config file grammar
# ---------------------------------------------------------------------------


def parse_t_grid(text: str) -> tuple[float, ...]:
    """Time grids: ``a:b:n`` (log-spaced), ``lin:a:b:n``, or a comma list."""
    text = text.strip()
    if ":" not in text:
        return tuple(float(x) for x in text.split(",") if x.strip())
    parts = text.split(":")
    linear = parts[0] == "lin"
    if len(parts) != 3 + linear:
        raise ConfigError(f"bad t_grid {text!r}: expected a:b:n or lin:a:b:n")
    a, b, n = float(parts[-3]), float(parts[-2]), int(parts[-1])
    if n < 1:
        raise ConfigError("t_grid needs at least one point")
    if linear:
        return tuple(float(x) for x in np.linspace(a, b, n))
    if a <= 0:
        raise ConfigError("log-spaced t_grid needs a > 0 (use lin:a:b:n)")
    return tuple(float(x) for x in np.geomspace(a, b, n))


def parse_sites(text: str) -> tuple[tuple[int, ...], ...]:
    """Semicolon-separated distinct sites, each a comma-separated integer tuple."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            out.append(tuple(int(c) for c in chunk.split(",")))
    if not out:
        raise ConfigError(f"no sites in {text!r}")
    if len(set(out)) != len(out):
        raise ConfigError(f"repeated site in {text!r}")
    return tuple(out)


def check_window(window) -> tuple[float, float]:
    """A fit window (a, b) as floats, once finite with a < b."""
    a, b = map(float, window)
    if not -math.inf < a < b < math.inf:   # false for nan too
        raise ConfigError(f"fit window must be finite with a < b, got {a!r}:{b!r}")
    return a, b


def parse_window(text: str) -> tuple[float, float]:
    """A fit window ``a:b``, by ``check_window``."""
    a, sep, b = text.strip().partition(":")
    if not sep:
        raise ConfigError(f"expected a fit window a:b, got {text!r}")
    return check_window((a, b))


def _parse_observable(text: str) -> LocalFunction:
    text = text.strip()
    if text.startswith("site "):
        return site_indicator(tuple(int(c) for c in text[5:].split(",")))
    if text.startswith("file "):
        with open(text[5:].strip()) as fh:
            return parse_localfn_text(fh.read())
    if "|" in text:   # the CSV header's form, as _observable_text writes it
        sites, _, entries = text.partition("|")
        values = [entry.strip().partition(":") for entry in entries.split(",") if entry.strip()]
        return _from_masks(parse_sites(sites) if sites.strip() else (),
                           [(f"entry {m}:{v}", int(m), float(v)) for m, _, v in values])
    raise ConfigError(f"observable must be 'site <coords>' or 'file <path>', got {text!r}")


def _parse_atoms(text: str) -> tuple[tuple[float, float], ...]:
    atoms = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk:
            b, _, p = chunk.partition(":")
            atoms.append((float(b), float(p)))
    return tuple(atoms)


# Each law kind: the keys it reads, all of them needed, and its builder.
_LAW_KINDS = {
    "bernoulli": (("q", "b"), bernoulli_law),
    "deterministic": (("b",), deterministic_law),
    "table": (("atoms",), DisorderLaw),
}


def _make_law(law: dict, origins: dict) -> DisorderLaw:
    """The law from its keys; an error names the line or flag of each key it is about."""
    kind = law.pop("disorder", None)
    reads, build = _LAW_KINDS.get(kind, ((), None))
    for key in law:
        if build and key not in reads:
            raise ConfigError(f"{origins[key]}: {kind} disorder does not read {key!r}")
    try:
        if build is None:
            raise ConfigError(f"disorder must be one of {', '.join(_LAW_KINDS)}, got {kind!r}")
        if len(law) < len(reads):
            raise ConfigError(f"{kind} disorder needs {' and '.join(reads)}")
        return build(**law)
    except ValueError as exc:     # the law is bad: name every line it reads
        raise ConfigError(f"{', '.join(origins.values())}: {exc}") from exc


def _float(value) -> str:
    return repr(float(value))


def _floats(values, sep=",") -> str:
    return sep.join(map(_float, values))


def _sites_text(sites) -> str:
    return ";".join(",".join(str(c) for c in s) for s in sites)


def _observable_text(f: LocalFunction) -> str:
    """``support|mask:value,...``: the nonzero truth-table entries, bit i the i-th site."""
    entries = ",".join(f"{mask}:{_float(f.table[mask])}" for mask in np.flatnonzero(f.table))
    return f"{_sites_text(f.support)}|{entries}"


class ConfigKey(NamedTuple):
    name: str                         # the config key
    field: str                        # the ExperimentConfig field it sets
    read: Callable[[str], object]     # config text -> value
    write: Callable[[object], str] | None   # field value -> header text; None: no header line
    modes: tuple[str, ...]            # the modes that read it


_LAW = ("forward", "dual-quenched", "dual-annealed", "sandwich")
_POWER_KEYS = ("alpha", "cutoff")    # read with the power kernel only

# Every config key, in header order. The four law keys set one field, which
# the header writes as a table law; ``observable`` and ``sites`` set one
# field, which the header writes in the form of ``_observable_text``.
KEYS = (
    ConfigKey("mode", "mode", str, str, MODES),
    ConfigKey("dim", "dim", int, str, MODES),
    ConfigKey("L", "side", int, str, ("forward",)),
    ConfigKey("kernel", "kernel_name", str, str, MODES),
    ConfigKey("alpha", "alpha", float, _float, MODES),
    ConfigKey("cutoff", "cutoff", int, str, MODES),
    ConfigKey("t_grid", "t_grid", parse_t_grid, _floats, MODES),
    ConfigKey("replicas", "replicas", int, str, MODES),
    ConfigKey("seed", "seed", int, str, MODES),
    ConfigKey("threads", "threads", int, None, MODES),   # no part of the result
    ConfigKey("nu", "nu", float, _float, ("range",)),
    ConfigKey("fit_window", "fit_window", parse_window, lambda v: _floats(v, ":"), ("sandwich",)),
    ConfigKey("disorder_seed", "disorder_seed", int, str, ("dual-quenched",)),
    ConfigKey("disorder", "law", str, lambda law: "table", _LAW),
    ConfigKey("q", "law", float, None, _LAW),
    ConfigKey("b", "law", float, None, _LAW),
    ConfigKey("atoms", "law", _parse_atoms,
              lambda law: ", ".join(f"{b!r}:{p!r}" for b, p in law.atoms), _LAW),
    ConfigKey("observable", "observable", _parse_observable, _observable_text, _LAW),
    ConfigKey("sites", "observable", lambda text: product_indicator(parse_sites(text)), None,
              _LAW),
)
CONFIG_KEYS = tuple(k.name for k in KEYS)
_KEY = {k.name: k for k in KEYS}


def read_keys(mode: str, kernel_name: str = "power") -> tuple[str, ...]:
    """The keys a run of ``mode`` with ``kernel_name`` reads, in header order."""
    return tuple(k.name for k in KEYS if mode in k.modes
                 and (kernel_name == "power" or k.name not in _POWER_KEYS))


def read_config_items(text: str, name: str = "<config>") -> dict[str, tuple[str, str]]:
    """Read the ``key = value`` lines into key -> (value, origin ``name:line``)."""
    items: dict[str, tuple[str, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        origin = f"{name}:{lineno}"
        if "=" not in stripped:
            raise ConfigError(f"{origin}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{origin}: unknown key {key!r}")
        if key in items:
            raise ConfigError(f"{origin}: duplicate key {key!r}")
        items[key] = (value.strip(), origin)
    return items


def build_config(items: dict[str, tuple[str, str]], name: str = "<config>") -> ExperimentConfig:
    """Cast and validate config items, each a key -> (text value, origin).

    A bad value fails with its origin (``file:line`` or the flag); a config
    whose values read but that is invalid as a whole fails with ``name``.
    An empty value leaves its key unset, as the CSV header writes unset keys.
    """
    items = {key: item for key, item in items.items() if item[0]}
    for key in ("mode", "t_grid", "replicas"):
        if key not in items:
            raise ConfigError(f"{name}: missing required key {key!r}")
    mode, kernel = items["mode"][0], items.get("kernel", ("nn",))[0]
    if mode in MODES and kernel in KERNELS:   # else validate names the bad one
        reads = read_keys(mode, kernel)
        for key, (text, origin) in items.items():
            if key not in reads:
                raise ConfigError(f"{origin}: a {mode} run with the {kernel} kernel "
                                  f"does not read {key!r}")
    if "sites" in items and "observable" in items:
        raise ConfigError(f"{items['sites'][1]}, {items['observable'][1]}: 'sites' and "
                          "'observable' both set the observable; give one")
    values = {}
    for key, (text, origin) in items.items():
        try:
            values[key] = _KEY[key].read(text)
        except ConfigError as exc:
            raise ConfigError(f"{origin}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{origin}: bad value for {key!r}: {exc}") from exc
    law = {k: values.pop(k) for k in ("disorder", "q", "b", "atoms") if k in values}
    if law:
        values["disorder"] = _make_law(law, {k: items[k][1] for k in law})
    config = ExperimentConfig(**{_KEY[k].field: v for k, v in values.items()})
    try:
        config.validate()
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    return config


def parse_config_text(text: str, name: str = "<config>") -> ExperimentConfig:
    """Parse the ``key = value`` grammar; errors carry the offending line."""
    return build_config(read_config_items(text, name), name)


# ---------------------------------------------------------------------------
# The measurement pipelines
# ---------------------------------------------------------------------------


def _run_forward(config: ExperimentConfig) -> tuple[dict, None]:
    mean, stderr = forward_relaxation(config.observable, config.law,
                                      config.kernel(), config.t_grid,
                                      config.replicas, config.seed, config.threads)
    return (dict(t=config.t_grid, mean=mean, stderr=stderr,
                 replicas=[config.replicas] * len(config.t_grid)), None)


def _expansion(config: ExperimentConfig) -> dict:
    """The observable's expansion: every nonempty A with fhat(A) != 0, as sorted
    site tuples; that of a start set A is A alone."""
    return {tuple(sorted(A)): c for A, c in hat_coeffs(config.observable).items() if A}


def _quenched_box(config: ExperimentConfig, field) -> QuenchedBox | None:
    """The box a quenched run goes on with once one rider is left, or None.

    Only the nn kernel on Z has one. The box is centred between the lowest
    and the highest start and solved up to t_max; its half-width is the
    first of 16, 32, ..., BOX_WIDTH_CEILING that certifies u(t_max, z) at
    every site z from the lowest start to the highest (u falls with time,
    so that certifies every earlier time too). A box too large for
    ``walks.BOX_ENTRIES`` ends the ladder.
    The ladder starts at four standard deviations sqrt(t_max) of one walk's
    displacement: a narrower box lets out about e^-8 of the unkilled walk,
    so only strong killing could certify it. A point a batch meets that
    the box does not certify keeps its plain sample (``QuenchedBox.log_value``).
    """
    if config.dim != 1 or config.kernel_name != "nn":
        return None
    sites = [x for A in _expansion(config) for (x,) in A]
    span, t_max = np.arange(min(sites), max(sites) + 1), config.t_grid[-1]
    width = 16
    while width < 4.0 * math.sqrt(t_max):
        width *= 2
    while width <= BOX_WIDTH_CEILING:
        box = QuenchedBox.solve(field, int(span[0] + span[-1]) // 2, width, t_max)
        if box is None:   # too large to hold, and so is every wider one
            return None
        if not np.isnan(box.log_value(np.full(span.size, t_max), span)).any():
            return box
        width *= 2
    return None


def _dual_walk(config: ExperimentConfig, exponents=(), control=None):
    """One walk over the observable's expansion: one lazy field, or the law.

    Returns the walk's stats and the box a quenched run went on with (None: plain).
    """
    box = None
    if config.mode == "dual-quenched":
        dseed = config.seed if config.disorder_seed is None else config.disorder_seed
        field = LazyBiasField(config.law, dseed)
        box = _quenched_box(config, field)
        disorder = {"bias": field, "box": box}
    else:
        disorder = {"law": config.law}
    return walk_curve(config.kernel(), config.t_grid, config.replicas, config.seed,
                      exponents=exponents, threads=config.threads, starts=_expansion(config),
                      control=control, **disorder), box


def _run_range(config: ExperimentConfig) -> tuple[dict, dict]:
    stats = mc_range_functional(config.kernel(), config.nu, config.t_grid,
                                config.replicas, config.seed, threads=config.threads)
    mean = stats.exp_means[config.nu]
    return (dict(t=config.t_grid, mean=mean, stderr=stats.exp_stderrs[config.nu],
                 mean_range=stats.range_mean,
                 local_exponent=local_exponent_column(config.t_grid, mean)),
            {"max_walk_displacement": stats.max_abs_position})


def run(config: ExperimentConfig) -> tuple[dict, dict | None]:
    """Execute one experiment; see the module docstring for the pipelines.

    Returns the mode's CSV columns, name -> per-time values in CSV order,
    and the notes ``write_records_csv`` puts in the header (None for a
    forward run): the largest walk coordinate seen and, for a quenched run,
    the half-width of its box (None: the plain estimate).
    """
    config.validate()
    if config.mode == "sandwich":
        raise ConfigError("a sandwich config runs through sandwich_report")
    if config.mode == "forward":
        return _run_forward(config)
    if config.mode == "range":
        return _run_range(config)
    stats, box = _dual_walk(config)
    notes = {"max_walk_displacement": stats.max_abs_position}
    if config.mode == "dual-quenched":
        notes["quenched_box"] = None if box is None else box.width
    return (dict(t=config.t_grid, mean=stats.weight_mean, stderr=stats.weight_stderr,
                 mean_range=stats.range_mean, mean_particles=stats.particles_mean), notes)


# ---------------------------------------------------------------------------
# Exponent fits and the two-sided bound report
# ---------------------------------------------------------------------------


def stdtrit(dof: int, p: float) -> float:
    """Student t quantile; scipy is imported here, so only a fit loads it."""
    from scipy import special
    return special.stdtrit(dof, p)


def fit_stretch_exponent(curve, window: tuple[float, float] | None = None
                         ) -> tuple[float, float]:
    """Least-squares slope of log(-log m) against log t.

    ``curve`` is a sequence of (t, m) pairs with m strictly inside (0, 1).
    ``window`` restricts to window[0] <= t <= window[1]; the default is the
    last decade of the grid (the prediction is asymptotic, early times are
    transient). Returns the slope and the half-width of its two-sided 99%
    confidence interval computed from the residual variance.
    """
    pts = sorted((float(t), float(m)) for t, m in curve)
    if not pts:
        raise ValueError("empty curve")
    if window is None:
        tmax = pts[-1][0]
        window = (tmax / 10.0, tmax)
    sel = [(t, m) for t, m in pts if window[0] <= t <= window[1]]
    if len(sel) < 5:
        raise ValueError(f"need at least 5 points in the fit window, got {len(sel)}")
    if any(not 0.0 < m < 1.0 for _, m in sel):
        raise ValueError("curve values must lie strictly inside (0, 1)")
    x = np.log([t for t, _ in sel])
    y = np.log(-np.log([m for _, m in sel]))
    xbar, ybar = x.mean(), y.mean()
    sxx = float(((x - xbar) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("degenerate fit window: identical times")
    slope = float(((x - xbar) * (y - ybar)).sum() / sxx)
    resid = y - (ybar + slope * (x - xbar))
    dof = len(sel) - 2
    s2 = float((resid ** 2).sum()) / dof
    half = float(stdtrit(dof, 0.5 + CI_LEVEL / 2.0) * math.sqrt(s2 / sxx))
    return slope, half


@dataclass
class SandwichReport:
    """Two-sided bound audit plus exponent fits for one sandwich config."""

    config: ExperimentConfig
    columns: dict                   # the sandwich CSV's columns, name -> per-time values
    hypothesis_upper_ok: bool       # some mass off zero bias
    hypothesis_lower_ok: bool       # some mass at zero bias
    gamma_target: float
    gamma_estimate: tuple[float, float] | None
    gamma_lower: tuple[float, float] | None
    gamma_upper: tuple[float, float] | None
    ordering_ok: bool
    gamma_bracket_ok: bool | None
    constants: dict = field(default_factory=dict)
    control_width_cap: int | None = None   # the exact control's series cap; None: plain estimate

    @property
    def hypotheses_ok(self) -> bool:
        return self.hypothesis_upper_ok and self.hypothesis_lower_ok


def _try_fit(ts, values, window):
    try:
        return fit_stretch_exponent(zip(ts, values), window)
    except ValueError:
        return None


def _exact_control(config: ExperimentConfig, nu: float):
    """(width cap, c E exp(-nu |R_t|) on the grid) for the sandwich's control variate, or None.

    The control needs E exp(-nu |R_t|) exactly: d = 1, the nn kernel, an
    expansion c H(., {x}) of one site and 0 < nu < inf. The cap is the
    first of 64, 128, ..., CONTROL_CAP_CEILING whose series remainder bound
    ``exact_range_functional_curve_1d`` certifies on the whole grid. That
    check asks the bound to be at most 1e-12 of the sum, which is at most
    q = e^-nu (|R_t| >= 1), so a cap whose bound exceeds 2e-12 q somewhere
    is passed over before its series is summed.
    """
    terms = _expansion(config)
    if (config.dim != 1 or config.kernel_name != "nn" or len(terms) != 1
            or len(next(iter(terms))) != 1 or not 0.0 < nu < math.inf):
        return None
    # scipy loads with the sandwich only
    from .exact import _range_truncation_bound, exact_range_functional_curve_1d
    (coeff,) = terms.values()
    q, ts = math.exp(-nu), np.asarray(config.t_grid)
    cap = 64
    while cap <= CONTROL_CAP_CEILING:
        if np.all(_range_truncation_bound(q, ts, cap) <= 2e-12 * q):
            try:
                return cap, coeff * exact_range_functional_curve_1d(nu, config.t_grid, cap)
            except ValueError:
                pass
        cap *= 2
    return None


def sandwich_report(config: ExperimentConfig) -> SandwichReport:
    """Run the annealed walk with the two bound curves and audit them.

    The per-time audit requires lower <= estimate <= upper within the
    combined error band; the exponent audit fits all three curves on the
    window and checks that the estimate's interval overlaps the interval
    spanned by the two bound exponents. ``validate`` holds the bounds'
    needs: a monotone observable that is not constant, so gap(f) > 0.
    Hypothesis failures (a law with no mass at zero, or none off zero) are
    reported, not raised.

    Where E exp(-nu2 |R_t|) is known exactly (``_exact_control``), the
    estimate takes it as a control variate: with W the annealed weight and
    Y = exp(-nu2 |R_t|) <= W on every path, it is c E Y + mean(c (W - Y))
    over the same walks, unbiased and never below c E Y; the stderr is that
    of c (W - Y).
    """
    if config.mode != "sandwich":
        raise ConfigError(f"sandwich_report takes a sandwich config, not {config.mode!r}")
    config.validate()
    f, law = config.observable, config.law
    n1, n2 = nu1(law), nu2(law)
    hyp_upper = law.mass_at_zero < 1.0   # bias present with positive probability
    hyp_lower = law.mass_at_zero > 0.0
    cap, exact_part = _exact_control(config, n2) or (None, 0.0)
    stats, _ = _dual_walk(config, exponents=(n1, n2), control=None if cap is None else n2)

    # with no mass at zero bias, nu2 = inf and the lower curve is 0
    sigma, support = sigma_and_support(f)
    gap_f, size = gap(f), len(support)
    est, est_se = exact_part + stats.weight_mean, stats.weight_stderr
    base, base_se = stats.exp_means[n2], stats.exp_stderrs[n2]
    upper, upper_se = sigma * size * stats.exp_means[n1], sigma * size * stats.exp_stderrs[n1]
    lower = gap_f * base ** size
    lower_se = gap_f * size * base ** max(size - 1, 0) * base_se
    ok = ((lower - est <= SIGMA_BAND * np.sqrt(est_se ** 2 + lower_se ** 2))
          & (est - upper <= SIGMA_BAND * np.sqrt(est_se ** 2 + upper_se ** 2)))
    columns = dict(t=config.t_grid, estimate=est, stderr=est_se, lower=lower,
                   lower_stderr=lower_se, upper=upper, upper_stderr=upper_se,
                   sandwich_ok=ok.tolist())

    window = config.fit_window     # None: the fit's own default, the last decade
    g_est = _try_fit(config.t_grid, est, window)
    g_up = _try_fit(config.t_grid, upper, window) if hyp_upper else None
    g_low = _try_fit(config.t_grid, lower, window) if hyp_lower else None

    bracket = None
    if g_est and g_up and g_low:
        lo_g, hi_g = sorted((g_low, g_up), key=lambda g: g[0])
        bracket = (g_est[0] + g_est[1] >= lo_g[0] - lo_g[1]) and \
                  (g_est[0] - g_est[1] <= hi_g[0] + hi_g[1])

    kernel = config.kernel()
    alpha, lam = kernel.alpha, dirichlet_eigenvalue(kernel)
    constants = {
        "nu1": n1, "nu2": n2, "m1": math.exp(-n1),
        "sigma_f": sigma,
        "gap_f": gap_f,
        "support_size": size,
        "lambda": lam,
        "c_upper": dv_constant(config.dim, alpha, lam, n1),
        "c_lower": dv_constant(config.dim, alpha, lam, n2) if math.isfinite(n2) else None,
    }
    return SandwichReport(
        config=config, columns=columns,
        hypothesis_upper_ok=hyp_upper, hypothesis_lower_ok=hyp_lower,
        gamma_target=config.dim / (config.dim + alpha),
        gamma_estimate=g_est, gamma_lower=g_low, gamma_upper=g_up,
        ordering_ok=all(ok),
        gamma_bracket_ok=bracket,
        constants=constants,
        control_width_cap=cap)


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(float(value))
    return str(value)


def _header_lines(config: ExperimentConfig, extra: list[str] = ()) -> list[str]:
    """The config as ``# key = value`` lines; the other lines take ``# name: value``.

    So the ``key = value`` lines of any output's header read back as its config.
    """
    lines = [f"# biased-voter {config.mode}",
             f"# config-hash: {config_hash(config)}"]
    for k, v in config.canonical_items():
        lines.append(f"# {k} = {v}")
    lines.extend(extra)
    return lines


def write_records_csv(path, columns: dict, config: ExperimentConfig, notes: dict | None = None):
    """Write ``run``'s columns under a header embedding the config hash.

    Dual and range runs also pass ``run``'s notes, one ``# name: value`` line
    each: the largest walk coordinate seen, which is what a forward
    cross-check needs to pick a torus side with negligible wrap
    probability, and a quenched run's box half-width.
    """
    extra = [f"# {name}: {_fmt(value)}" for name, value in (notes or {}).items()]
    write_table(path, columns, zip(*columns.values()), _header_lines(config, extra))


def write_sandwich_csv(path, report: SandwichReport):
    """Write the audit under a header embedding the config the report ran."""
    extra = [f"# gamma_target: {_fmt(report.gamma_target)}"]
    for name, g in (("estimate", report.gamma_estimate), ("lower", report.gamma_lower),
                    ("upper", report.gamma_upper)):
        value, ci = g or (None, None)
        extra.append(f"# gamma_{name}: {_fmt(value)} ci: {_fmt(ci)}")
    for name in ("hypothesis_upper_ok", "hypothesis_lower_ok", "ordering_ok",
                 "gamma_bracket_ok", "control_width_cap"):
        extra.append(f"# {name}: {_fmt(getattr(report, name))}")
    for k, v in sorted(report.constants.items()):
        extra.append(f"# constant {k}: {_fmt(v)}")
    write_table(path, report.columns, zip(*report.columns.values()),
                _header_lines(report.config, extra))


def write_table(path, columns, rows, header=()):
    """Write ``header`` lines, the column names, then one CSV line per row.

    ``path`` is a file path, an open text stream, or None (or empty) for
    stdout. Cells are formatted alike in every output: floats by ``repr``,
    None and NaN empty, booleans 1 and 0.
    """
    lines = [*header, ",".join(columns), *(",".join(_fmt(v) for v in row) for row in rows)]
    text = "\n".join(lines) + "\n"
    if not path:
        sys.stdout.write(text)
    elif hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def read_curve_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read (t, mean-or-estimate) columns back from any output CSV."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    rows = [ln for ln in lines if not ln.startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no CSV header row")
    header = rows[0].split(",")
    value = next((c for c in ("mean", "estimate", "value") if c in header), None)
    if "t" not in header or value is None:
        raise ValueError(f"{path}: a curve CSV needs a 't' column and a 'mean', "
                         "'estimate' or 'value' column")
    t_idx, m_idx = header.index("t"), header.index(value)
    ts, ms = [], []
    for row in rows[1:]:
        cells = row.split(",")
        try:
            ts.append(float(cells[t_idx]))
            ms.append(float(cells[m_idx]))
        except (IndexError, ValueError):
            raise ValueError(f"{path}: row {row!r} needs a number in its 't' and "
                             f"{value!r} cells") from None
    return np.asarray(ts), np.asarray(ms)
