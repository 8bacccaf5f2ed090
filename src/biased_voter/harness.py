"""Experiment orchestration: relaxation curves, bounds, fits, persistence.

An experiment is described by a plain-text ``key = value`` config (or an
``ExperimentConfig`` built in code) and produces one curve record per grid
time. Both dual modes estimate an observable with expansion
f = sum_A fhat(A) H(., A) as sum over nonempty A of fhat(A) times the dual
expectation started from A, annealed (the law integrated out) or quenched
(one lazy field): one walk run over one draw, in which the walkers of each A
coalesce among themselves. Given ``sites`` or no observable, the start set
is the one term. An annealed run with an observable also gets two bound
curves,

    upper(t) = Sigma(f) * |support(f)| * E[ exp(-nu1 |R_t|) ]
    lower(t) = gap(f) * E[ exp(-nu2 |R_t|) ] ** |support(f)|

with |R_t| the visited-site count of the first support site's own walk in
the same draw, which removes most of the relative noise between the three
curves. The upper bound is an asymptotic-regime curve: at times
of order one it can dip below the estimate (its derivation replaces
occupation times by visit counts), so audits are meaningful on the grids
actually used here, t >= O(10).

Replicas are split into fixed-size batches with per-batch seed streams and
merged in batch order, so a rerun with a different thread count writes a
byte-identical CSV.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import stdtrit

from .disorder import DisorderLaw, LazyBiasField, nu1, nu2
from .forward import forward_relaxation
from .kernel import Kernel, TorusKernel, fold_to_torus, make_nn_kernel, make_power_kernel
from .localfn import (LocalFunction, gap, hat_coeffs, is_monotone,
                      parse_localfn_text, sigma_and_support, site_indicator)
from .rangestats import dv_constant, effective_exponent, lambda_nn, mc_range_functional
from .walks import walk_curve

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "CurveRecord",
    "SandwichReport",
    "CONFIG_KEYS",
    "read_config_items",
    "build_config",
    "parse_config_text",
    "parse_t_grid",
    "parse_sites",
    "parse_window",
    "make_kernel",
    "config_hash",
    "run",
    "fit_stretch_exponent",
    "sandwich_report",
    "write_records_csv",
    "write_sandwich_csv",
    "write_table",
    "read_curve_csv",
]

MODES = ("forward", "dual-quenched", "dual-annealed", "range")
SIGMA_BAND = 4.0        # audit tolerance in combined standard errors
CI_LEVEL = 0.99         # two-sided confidence level of exponent fits


class ConfigError(ValueError):
    """Invalid experiment description; message carries the config line."""


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
    sites: tuple[tuple[int, ...], ...] | None = None
    nu: float | None = None
    lam: float | None = None          # user-supplied eigenvalue for alpha < 2
    threads: int = 1
    fit_window: tuple[float, float] | None = None
    disorder_seed: int | None = None

    def __post_init__(self):
        if self.sites:   # the start set is a set: one order, so one config hash
            object.__setattr__(self, "sites", tuple(sorted(self.sites)))

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.replicas < 2:
            raise ConfigError("replicas must be at least 2")
        if len(self.t_grid) == 0:
            raise ConfigError("t_grid must not be empty")
        if any(b <= a for a, b in zip(self.t_grid, self.t_grid[1:])):
            raise ConfigError("t_grid must be strictly increasing")
        if any(t < 0 for t in self.t_grid):
            raise ConfigError("t_grid times must be nonnegative")
        if not 0 <= self.seed < 2 ** 63:
            raise ConfigError("seed must be a nonnegative 63-bit integer")
        _check_kernel(self.kernel_name, self.dim, self.alpha)
        if self.mode == "range":
            if self.nu is None or self.nu < 0:
                raise ConfigError("range mode needs nu >= 0")
        else:
            if self.law is None:
                raise ConfigError(f"mode {self.mode!r} needs a disorder law")
        if self.mode == "dual-annealed" and self.observable is not None:
            if self.sites:
                raise ConfigError("the bound pipeline starts from the observable's "
                                  "support; give sites or an observable, not both")
            if not is_monotone(self.observable):
                raise ConfigError("the bound pipeline needs a monotone observable")
            if gap(self.observable) <= 0:
                raise ConfigError("the bound pipeline needs a non-constant observable")
        if (self.mode == "dual-quenched" and not self.sites
                and not self.observable_or_default().support):
            raise ConfigError("a constant observable has no dual to start")
        if self.mode == "forward":
            for s in self.observable_or_default().support:
                if len(s) != self.dim:
                    raise ConfigError(f"observable site {s} has wrong dimension")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")

    def build_kernel(self) -> Kernel:
        return make_kernel(self.kernel_name, self.dim, self.alpha, self.cutoff)

    def build_torus(self) -> TorusKernel:
        return make_kernel(self.kernel_name, self.dim, self.alpha, self.cutoff, self.side)

    @property
    def alpha_effective(self) -> float:
        return 2.0 if self.kernel_name == "nn" else float(self.alpha)

    @property
    def target_exponent(self) -> float:
        return self.dim / (self.dim + self.alpha_effective)

    def observable_or_default(self) -> LocalFunction:
        """Explicit observable, or the origin-site indicator."""
        if self.observable is not None:
            return self.observable
        return site_indicator((0,) * self.dim)

    def canonical_items(self) -> list[tuple[str, str]]:
        items = [
            ("mode", self.mode),
            ("dim", str(self.dim)),
            ("L", str(self.side)),
            ("kernel", self.kernel_name),
            ("alpha", repr(self.alpha) if self.alpha is not None else ""),
            ("cutoff", str(self.cutoff)),
            ("t_grid", ",".join(repr(t) for t in self.t_grid)),
            ("replicas", str(self.replicas)),
            ("seed", str(self.seed)),
            ("nu", repr(self.nu) if self.nu is not None else ""),
            ("lam", repr(self.lam) if self.lam is not None else ""),
            ("fit_window", ",".join(repr(x) for x in self.fit_window) if self.fit_window else ""),
            ("disorder_seed", str(self.disorder_seed) if self.disorder_seed is not None else ""),
        ]
        if self.law is not None:
            items.append(("disorder", " ".join(f"{b!r}:{p!r}" for b, p in self.law.atoms)))
        if self.observable is not None:
            f = self.observable
            sites = ";".join(",".join(str(c) for c in s) for s in f.support)
            table = ",".join(repr(float(v)) for v in f.table)
            items.append(("observable", f"{sites}|{table}"))
        if self.sites:
            items.append(("sites", ";".join(",".join(str(c) for c in s) for s in self.sites)))
        return items


def _check_kernel(name: str, dim: int, alpha: float | None):
    if name not in ("nn", "power"):
        raise ConfigError(f"kernel must be 'nn' or 'power', got {name!r}")
    if name == "power":
        if dim != 1:
            raise ConfigError("power-law kernels are one-dimensional")
        if alpha is None:
            raise ConfigError("power kernel needs alpha in (0, 2)")


def make_kernel(name: str, dim: int, alpha: float | None, cutoff: int,
                side: int | None = None) -> Kernel | TorusKernel:
    """The kernel rule of experiments and exact oracles alike.

    ``nn`` is the nearest-neighbor walk in ``dim`` dimensions, ``power`` the
    one-dimensional power law of index ``alpha`` truncated at ``cutoff``.
    With ``side`` the kernel comes folded onto that torus.
    """
    _check_kernel(name, dim, alpha)
    kern = make_nn_kernel(dim) if name == "nn" else make_power_kernel(alpha, cutoff)
    return kern if side is None else fold_to_torus(kern, side)


def config_hash(config: ExperimentConfig) -> str:
    text = "\n".join(f"{k} = {v}" for k, v in config.canonical_items())
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Config file grammar
# ---------------------------------------------------------------------------


def parse_t_grid(text: str) -> tuple[float, ...]:
    """Time grids: ``a:b:n`` (log-spaced), ``lin:a:b:n``, or a comma list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        linear = False
        if parts[0] == "lin":
            linear = True
            parts = parts[1:]
        elif parts[0] == "log":
            parts = parts[1:]
        if len(parts) != 3:
            raise ConfigError(f"bad t_grid {text!r}: expected a:b:n")
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 1:
            raise ConfigError("t_grid needs at least one point")
        if linear:
            return tuple(float(x) for x in np.linspace(a, b, n))
        if a <= 0:
            raise ConfigError("log-spaced t_grid needs a > 0 (use lin:a:b:n)")
        return tuple(float(x) for x in np.geomspace(a, b, n))
    return tuple(float(x) for x in text.split(",") if x.strip())


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


def parse_window(text: str) -> tuple[float, float]:
    """A fit window ``a:b``, or ``a,b`` as the CSV header writes it."""
    a, sep, b = text.strip().partition(":")
    if not sep:
        a, sep, b = text.strip().partition(",")
    if not sep:
        raise ConfigError(f"expected a fit window a:b, got {text!r}")
    return float(a), float(b)


def _parse_observable(text: str) -> LocalFunction:
    text = text.strip()
    if text.startswith("site "):
        return site_indicator(tuple(int(c) for c in text[5:].split(",")))
    if text.startswith("file "):
        with open(text[5:].strip()) as fh:
            return parse_localfn_text(fh.read())
    if "|" in text:   # the CSV header's form: sorted support sites | table
        sites, _, table = text.partition("|")
        return LocalFunction(parse_sites(sites) if sites.strip() else (),
                             [float(v) for v in table.split(",")])
    raise ConfigError(f"observable must be 'site <coords>' or 'file <path>', got {text!r}")


def _parse_atoms(text: str) -> tuple[tuple[float, float], ...]:
    atoms = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk:
            b, _, p = chunk.partition(":")
            atoms.append((float(b), float(p)))
    return tuple(atoms)


def _make_law(kind: str, q, b, atoms) -> DisorderLaw:
    if kind == "bernoulli":
        if q is None or b is None:
            raise ConfigError("bernoulli disorder needs q and b")
        return DisorderLaw(atoms=((0.0, q), (b, 1.0 - q)))
    if kind == "deterministic":
        if b is None:
            raise ConfigError("deterministic disorder needs b")
        return DisorderLaw(atoms=((b, 1.0),))
    if kind == "table":
        if atoms is None:
            raise ConfigError("table disorder needs atoms = b:p, b:p, ...")
        return DisorderLaw(atoms=atoms)
    raise ConfigError(f"disorder must be bernoulli, deterministic or table, got {kind!r}")


CONFIG_KEYS = (
    "mode", "dim", "L", "kernel", "alpha", "cutoff", "disorder", "q", "b",
    "atoms", "observable", "sites", "t_grid", "replicas", "seed", "nu",
    "lam", "threads", "fit_window", "disorder_seed",
)


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

    def get(key, cast, default=None):
        if key not in items:
            return default
        value, origin = items[key]
        try:
            return cast(value)
        except ConfigError as exc:
            raise ConfigError(f"{origin}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{origin}: bad value for {key!r}: {exc}") from exc

    for key in ("mode", "t_grid", "replicas"):
        if key not in items:
            raise ConfigError(f"{name}: missing required key {key!r}")
    q, b, atoms = get("q", float), get("b", float), get("atoms", _parse_atoms)
    law = None
    if "disorder" in items:
        kind = items["disorder"][0]
        if ":" in kind:   # the CSV header's form: the atoms b:p b:p themselves
            if atoms is not None:
                raise ConfigError(f"{items['disorder'][1]}, {items['atoms'][1]}: "
                                  "give the atoms once")
            kind, atoms = "table", get("disorder", lambda v: _parse_atoms(v.replace(" ", ",")))
        try:
            law = _make_law(kind, q, b, atoms)
        except ValueError as exc:     # the law is bad: name every line it reads
            origins = ", ".join(items[k][1] for k in ("disorder", "q", "b", "atoms")
                                if k in items)
            raise ConfigError(f"{origins}: {exc}") from exc
    config = ExperimentConfig(
        mode=items["mode"][0],
        t_grid=get("t_grid", parse_t_grid),
        replicas=get("replicas", int),
        seed=get("seed", int, 0),
        dim=get("dim", int, 1),
        side=get("L", int, 16),
        kernel_name=get("kernel", str, "nn"),
        alpha=get("alpha", float),
        cutoff=get("cutoff", int, 100),
        law=law,
        observable=get("observable", _parse_observable),
        sites=get("sites", parse_sites),
        nu=get("nu", float),
        lam=get("lam", float),
        threads=get("threads", int, 1),
        fit_window=get("fit_window", parse_window),
        disorder_seed=get("disorder_seed", int),
    )
    try:
        config.validate()
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    return config


def parse_config_text(text: str, name: str = "<config>") -> ExperimentConfig:
    """Parse the ``key = value`` grammar; errors carry the offending line."""
    return build_config(read_config_items(text, name), name)


# ---------------------------------------------------------------------------
# Curve records and the measurement pipelines
# ---------------------------------------------------------------------------


@dataclass
class CurveRecord:
    """One grid time of an experiment, with optional bound curves."""

    t: float
    estimate: float
    stderr: float
    lower_bound: float | None = None
    lower_stderr: float | None = None
    upper_bound: float | None = None
    upper_stderr: float | None = None
    sandwich_ok: bool | None = None
    mean_range: float | None = None
    mean_particles: float | None = None
    local_exponent: float | None = None


def _sandwich_ok(r: CurveRecord) -> bool:
    def band(se):
        return SIGMA_BAND * math.sqrt(r.stderr ** 2 + se ** 2)
    return (r.lower_bound - r.estimate <= band(r.lower_stderr)
            and r.estimate - r.upper_bound <= band(r.upper_stderr))


def _records(t_grid, mean, stderr, **columns) -> list[CurveRecord]:
    """One record per grid time; ``columns`` are per-time optional fields."""
    def cell(v):
        return None if v is None else float(v)
    return [CurveRecord(t=float(t), estimate=float(mean[j]), stderr=float(stderr[j]),
                        **{k: cell(v[j]) for k, v in columns.items()})
            for j, t in enumerate(t_grid)]


def _run_forward(config: ExperimentConfig) -> tuple[list[CurveRecord], None]:
    mean, stderr = forward_relaxation(config.observable_or_default(), config.law,
                                      config.build_torus(), config.t_grid,
                                      config.replicas, config.seed, config.threads)
    return _records(config.t_grid, mean, stderr), None


def _run_dual(config: ExperimentConfig) -> tuple[list[CurveRecord], int]:
    """One walk over the observable's expansion: one lazy field, or the law.

    The expansion is the start set with coefficient 1 when ``sites`` is
    given or there is no observable, else every nonempty A with fhat(A) != 0.
    An annealed run with an observable also gets the two bound curves.
    """
    law, f = config.law, config.observable
    if config.sites or f is None:
        starts = {config.sites or ((0,) * config.dim,): 1.0}
    else:
        starts = {tuple(sorted(A)): c for A, c in hat_coeffs(f).items() if A and c != 0.0}
    dseed = config.seed if config.disorder_seed is None else config.disorder_seed
    disorder = ({"bias": LazyBiasField(law, dseed)} if config.mode == "dual-quenched"
                else {"law": law})
    bounds = config.mode == "dual-annealed" and f is not None
    n1, n2 = nu1(law), nu2(law)
    stats = walk_curve(config.build_kernel(), config.t_grid, config.replicas, config.seed,
                       exponents=(n1, n2) if bounds else (), threads=config.threads,
                       starts=starts, **disorder)
    columns = dict(mean_range=stats.range_mean, mean_particles=stats.particles_mean)
    if bounds:   # with no mass at zero bias, nu2 = inf and the lower curve is 0
        sigma, support = sigma_and_support(f)
        gap_f, lam_size = gap(f), len(support)
        base, base_se = stats.exp_means[n2], stats.exp_stderrs[n2]
        columns.update(upper_bound=sigma * lam_size * stats.exp_means[n1],
                       upper_stderr=sigma * lam_size * stats.exp_stderrs[n1],
                       lower_bound=gap_f * base ** lam_size,
                       lower_stderr=gap_f * lam_size * base ** max(lam_size - 1, 0) * base_se)
    records = _records(config.t_grid, stats.weight_mean, stats.weight_stderr, **columns)
    if bounds:
        for r in records:
            r.sandwich_ok = _sandwich_ok(r)
    return records, stats.max_abs_position


def _run_range(config: ExperimentConfig) -> tuple[list[CurveRecord], int]:
    kern = config.build_kernel()
    curve = mc_range_functional(kern, config.nu, config.t_grid,
                                config.replicas, config.seed,
                                threads=config.threads)
    slopes = {}
    if np.all((curve.mean > 0.0) & (curve.mean < 1.0)) and len(curve.t_grid) >= 3:
        slopes = dict(effective_exponent(list(zip(curve.t_grid, curve.mean))))
    return (_records(curve.t_grid, curve.mean, curve.stderr, mean_range=curve.mean_range,
                     local_exponent=[slopes.get(float(t)) for t in curve.t_grid]),
            curve.max_abs_position)


def run(config: ExperimentConfig) -> tuple[list[CurveRecord], int | None]:
    """Execute one experiment; see the module docstring for the pipelines.

    Returns the records and the largest walk coordinate seen (None for a
    forward run), which ``write_records_csv`` puts in the header.
    """
    config.validate()
    if config.mode == "forward":
        return _run_forward(config)
    if config.mode == "range":
        return _run_range(config)
    return _run_dual(config)


# ---------------------------------------------------------------------------
# Exponent fits and the two-sided bound report
# ---------------------------------------------------------------------------


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
    """Two-sided bound audit plus exponent fits for one annealed experiment."""

    config: ExperimentConfig        # as run: annealed mode, default observable filled in
    records: list[CurveRecord]
    hypothesis_upper_ok: bool       # some mass off zero bias
    hypothesis_lower_ok: bool       # some mass at zero bias
    gamma_target: float
    gamma_estimate: tuple[float, float] | None
    gamma_lower: tuple[float, float] | None
    gamma_upper: tuple[float, float] | None
    ordering_ok: bool
    gamma_bracket_ok: bool | None
    constants: dict = field(default_factory=dict)

    @property
    def hypotheses_ok(self) -> bool:
        return self.hypothesis_upper_ok and self.hypothesis_lower_ok


def _try_fit(ts, values, window):
    try:
        return fit_stretch_exponent(zip(ts, values), window)
    except ValueError:
        return None


def sandwich_report(config: ExperimentConfig) -> SandwichReport:
    """Run the annealed pipeline and audit the two-sided bounds.

    The per-time audit requires lower <= estimate <= upper within the
    combined error band; the exponent audit fits all three curves on the
    window and checks that the estimate's interval overlaps the interval
    spanned by the two bound exponents. Hypothesis failures (a law with no
    mass at zero, or none off zero) are reported, not raised.
    """
    config = replace(config, mode="dual-annealed")
    if config.observable is None:
        config = replace(config, observable=site_indicator((0,) * config.dim))
    config.validate()
    law = config.law
    n1, n2 = nu1(law), nu2(law)
    hyp_upper = law.mass_at_zero < 1.0   # bias present with positive probability
    hyp_lower = law.mass_at_zero > 0.0
    records, _ = run(config)

    window = config.fit_window     # None: the fit's own default, the last decade
    ts = [r.t for r in records]
    g_est = _try_fit(ts, [r.estimate for r in records], window)
    g_up = _try_fit(ts, [r.upper_bound for r in records], window) if hyp_upper else None
    g_low = _try_fit(ts, [r.lower_bound for r in records], window) if hyp_lower else None

    bracket = None
    if g_est and g_up and g_low:
        lo_g, hi_g = sorted((g_low, g_up), key=lambda g: g[0])
        bracket = (g_est[0] + g_est[1] >= lo_g[0] - lo_g[1]) and \
                  (g_est[0] - g_est[1] <= hi_g[0] + hi_g[1])

    lam = config.lam
    if lam is None and config.kernel_name == "nn" and 1 <= config.dim <= 3:
        lam = lambda_nn(config.dim)
    sigma, support = sigma_and_support(config.observable)
    constants = {
        "nu1": n1, "nu2": n2, "m1": math.exp(-n1),
        "sigma_f": sigma,
        "gap_f": gap(config.observable),
        "support_size": len(support),
        "lambda": lam,
        "c_upper": dv_constant(config.dim, config.alpha_effective, lam, n1) if lam else None,
        "c_lower": (dv_constant(config.dim, config.alpha_effective, lam, n2)
                    if lam and math.isfinite(n2) else None),
    }
    return SandwichReport(
        config=config, records=records,
        hypothesis_upper_ok=hyp_upper, hypothesis_lower_ok=hyp_lower,
        gamma_target=config.target_exponent,
        gamma_estimate=g_est, gamma_lower=g_low, gamma_upper=g_up,
        ordering_ok=all(r.sandwich_ok is not False for r in records),
        gamma_bracket_ok=bracket,
        constants=constants)


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


_MODE_COLUMNS = {
    "forward": ("t", "mean", "stderr", "replicas"),
    "dual-quenched": ("t", "mean", "stderr", "mean_range", "mean_particles"),
    "dual-annealed": ("t", "mean", "stderr", "mean_range", "mean_particles"),
    "range": ("t", "mean", "stderr", "mean_range", "local_exponent"),
}


def _record_row(record: CurveRecord, columns, replicas) -> list:
    mapping = {
        "t": record.t, "mean": record.estimate, "stderr": record.stderr,
        "replicas": replicas, "mean_range": record.mean_range,
        "mean_particles": record.mean_particles,
        "local_exponent": record.local_exponent,
    }
    return [mapping[c] for c in columns]


def write_records_csv(path, records: list[CurveRecord], config: ExperimentConfig,
                      max_abs_position: int | None = None):
    """Write per-mode CSV columns under a header embedding the config hash.

    Dual and range runs also pass the largest walk coordinate seen, which
    is what a forward cross-check needs to pick a torus side with
    negligible wrap probability.
    """
    columns = _MODE_COLUMNS[config.mode]
    extra = []
    if max_abs_position is not None:
        extra.append(f"# max_walk_displacement: {max_abs_position}")
    write_table(path, columns, (_record_row(r, columns, config.replicas) for r in records),
                _header_lines(config, extra))


def write_sandwich_csv(path, report: SandwichReport):
    """Write the audit under a header embedding the config the report ran."""
    extra = [f"# gamma_target: {_fmt(report.gamma_target)}"]
    for name, g in (("estimate", report.gamma_estimate), ("lower", report.gamma_lower),
                    ("upper", report.gamma_upper)):
        value, ci = g or (None, None)
        extra.append(f"# gamma_{name}: {_fmt(value)} ci: {_fmt(ci)}")
    for name in ("hypothesis_upper_ok", "hypothesis_lower_ok", "ordering_ok",
                 "gamma_bracket_ok"):
        extra.append(f"# {name}: {_fmt(getattr(report, name))}")
    for k, v in sorted(report.constants.items()):
        extra.append(f"# constant {k}: {_fmt(v)}")
    columns = ("t", "estimate", "stderr", "lower", "lower_stderr",
               "upper", "upper_stderr", "sandwich_ok")
    rows = ((r.t, r.estimate, r.stderr, r.lower_bound, r.lower_stderr,
             r.upper_bound, r.upper_stderr, r.sandwich_ok) for r in report.records)
    write_table(path, columns, rows, _header_lines(report.config, extra))


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
    header = rows[0].split(",")
    t_idx = header.index("t")
    m_idx = next(header.index(c) for c in ("mean", "estimate", "value")
                 if c in header)
    ts, ms = [], []
    for row in rows[1:]:
        cells = row.split(",")
        ts.append(float(cells[t_idx]))
        ms.append(float(cells[m_idx]))
    return np.asarray(ts), np.asarray(ms)
