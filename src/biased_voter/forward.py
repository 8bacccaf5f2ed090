"""Event-driven simulation of the biased voter dynamics on a finite torus.

Every site carries a rate-1 resampling clock (copy the opinion of a partner
drawn from the folded kernel) and a rate-beta(x) reset clock (opinion set to
0). The superposition of all clocks is a Poisson stream whose rate does not
depend on the configuration, so events can be drawn directly in time order
and one stream can drive several coupled copies. This realizes the exact
flip rates: a 1-site flips at rate beta(x) plus the kernel mass on 0-valued
partners, a 0-site at the kernel mass on 1-valued partners.

Because the stream ignores the configuration, R replicas advance together
as one (R, n_sites) opinion array: each step draws and applies the next
event of every replica whose clock has not passed the target time, as one
gather and one scatter. The single-trajectory classes are the R = 1 case of
the same step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .disorder import DisorderLaw, _draw_values
from .kernel import TorusKernel, bias_array
from .localfn import LocalFunction
from .stats import InvariantError, Moments, map_batches

__all__ = [
    "Configuration",
    "Event",
    "EventLog",
    "ForwardSimulation",
    "CoupledForwardSimulation",
    "all_ones",
    "all_zeros",
    "evolve",
    "coupled_evolve",
    "forward_relaxation",
    "first_flip_site",
]

RESAMPLE = "resample"
KILL = "kill"
CHUNK = 2048        # replicas per seed stream; fixed, so results ignore threads


@dataclass
class Configuration:
    """Opinions on a d-dimensional torus, one bit per site.

    ``opinions`` is a flat uint8 array in row-major site order: the site
    (c_0, ..., c_{d-1}) has flat index ((c_0 * L + c_1) * L + ...), i.e.
    axis 0 varies slowest.
    """

    side: int
    dim: int
    opinions: np.ndarray

    def __post_init__(self):
        self.opinions = np.asarray(self.opinions, dtype=np.uint8).reshape(-1)
        if self.opinions.shape[0] != self.side ** self.dim:
            raise ValueError("opinion array does not match torus size")
        if np.any(self.opinions > 1):
            raise ValueError("opinions must be 0 or 1")

    @property
    def n_sites(self) -> int:
        return self.side ** self.dim

    def copy(self) -> "Configuration":
        return Configuration(self.side, self.dim, self.opinions.copy())

    def site_index(self, site) -> int:
        coords = tuple(int(c) % self.side for c in site)
        return int(np.ravel_multi_index(coords, (self.side,) * self.dim))

    def get(self, site) -> int:
        return int(self.opinions[self.site_index(site)])

    def as_mask(self) -> int:
        """Configuration as a bit mask (bit i = opinion of flat site i)."""
        return int(np.dot(self.opinions.astype(object), 1 << np.arange(self.n_sites, dtype=object)))


def all_ones(side: int, dim: int) -> Configuration:
    return Configuration(side, dim, np.ones(side ** dim, dtype=np.uint8))


def all_zeros(side: int, dim: int) -> Configuration:
    return Configuration(side, dim, np.zeros(side ** dim, dtype=np.uint8))


@dataclass(frozen=True)
class Event:
    time: float
    site: int
    kind: str                 # RESAMPLE or KILL
    partner: int | None = None  # flat partner index, resample events only


@dataclass
class EventLog:
    """Time-ordered record of the graphical construction."""

    events: list[Event] = field(default_factory=list)

    def append(self, event: Event):
        if self.events and event.time <= self.events[-1].time:
            raise ValueError("event times must be strictly increasing")
        if (event.kind == RESAMPLE) != (event.partner is not None):
            raise ValueError("partner must be present exactly for resample events")
        self.events.append(event)

    def __len__(self):
        return len(self.events)


class _Step(NamedTuple):
    """The events of one step, one per replica whose clock was due."""

    time: np.ndarray
    site: np.ndarray
    source: np.ndarray    # flat cell copied; the own cell for a kill or no-op
    kill: np.ndarray
    changed: np.ndarray   # whether the event changed the first opinion array


class _EventStream:
    """The configuration-independent event streams of R tori, applied in place.

    Uniformization: the events of each replica come at rate
    n_sites * (1 + beta_max), beta_max the largest bias in ``beta``. An event
    picks a uniform site x and a uniform v in [0, 1 + beta_max). If
    v < beta_r(x), x is set to 0; if v - beta_max falls below the mass of the
    real kernel moves, x copies the partner whose cumulative-weight bracket
    holds it; otherwise nothing happens. Each kill then has rate beta_r(x) and
    each resample the weight of its move, at O(1) cost per event.

    ``layers`` are flat (R * n_sites) uint8 arrays, updated in place; all of
    them see the same events, which is the monotone coupling. ``beta`` is one
    field for every replica, shape (n_sites,), or one row per replica, shape
    (R, n_sites).
    """

    def __init__(self, layers, beta, tk: TorusKernel, rng: np.random.Generator):
        n = tk.n_sites
        partners, weights = tk.partner_table
        beta = np.asarray(beta, dtype=np.float64)
        beta_max = float(beta.max(initial=0.0))
        # bracket 0 is the kill zone, bracket j + 1 move j, the last the no-op
        # zone; offsets[x, bracket] is the partner's flat index minus x
        self.edges = beta_max + np.concatenate([[0.0], np.cumsum(weights)])
        own = np.zeros((n, 1), dtype=np.int64)
        self.offsets = np.hstack([own, partners - np.arange(n)[:, None], own]).reshape(-1)
        self.width = weights.size + 2
        self.beta = beta.reshape(-1)
        self.per_replica = beta.ndim == 2
        self.scale = 1.0 + beta_max
        self.total_rate = n * self.scale
        self.n_sites = n
        replicas = layers[0].shape[0] // n
        self.layers = layers
        self.ones = [a.reshape(replicas, n).sum(axis=1, dtype=np.int64) for a in layers]
        self.rng = rng
        self.clock = rng.exponential(1.0 / self.total_rate, replicas)

    def step(self, t: float) -> _Step | None:
        """Apply the next event of every replica whose clock is at most t."""
        rows = (self.clock <= t).nonzero()[0]
        k = rows.size
        if k == 0:
            return None
        u = self.rng.random((2, k))
        site = (u[0] * self.n_sites).astype(np.intp)
        v = u[1] * self.scale
        cell = rows * self.n_sites + site
        kill = v < self.beta[cell if self.per_replica else site]
        source = cell + self.offsets[site * self.width + self.edges.searchsorted(v, side="right")]
        news, flips = [], []
        for layer, ones in zip(self.layers, self.ones):
            old = layer[cell]
            new = layer[source]
            new[kill] = 0
            flip = new != old
            before = ones[rows]
            # the all-zeros configuration is a trap for these dynamics
            if (flip & (before == 0)).any():
                raise InvariantError("absorbing state was left")
            layer[cell] = new
            ones[rows] = before + new - old
            news.append(new)
            flips.append(flip)
        for low, high in zip(news, news[1:]):
            if (low > high).any():
                raise InvariantError("monotone coupling violated the sitewise order")
        time = self.clock[rows]
        self.clock[rows] = time + self.rng.exponential(1.0 / self.total_rate, k)
        return _Step(time, site, source, kill, flips[0])

    def advance(self, t: float):
        while self.step(t) is not None:
            pass


class ForwardSimulation:
    """One trajectory of the dynamics, advanced event by event.

    Snapshots at increasing times reuse the same trajectory (the pending
    event is held across calls), which is what the relaxation estimator
    needs to evaluate a whole time grid on one replica.
    """

    def __init__(self, config: Configuration, bias, tk: TorusKernel,
                 rng: np.random.Generator, log: EventLog | None = None):
        if config.n_sites != tk.n_sites or config.dim != tk.dim:
            raise ValueError("configuration does not match the torus kernel")
        self.config = config.copy()
        self.stream = _EventStream([self.config.opinions], bias_array(bias, tk), tk, rng)
        self.log = log
        self.time = 0.0

    def advance_to(self, t: float):
        if t < self.time:
            raise ValueError("cannot advance backwards")
        while (step := self.stream.step(t)) is not None:
            site, partner = int(step.site[0]), int(step.source[0])  # one replica: cell = site
            if self.log is None or not (step.kill[0] or partner != site):
                continue     # nothing to record, or a no-op of the uniformized stream
            kind, partner = (KILL, None) if step.kill[0] else (RESAMPLE, partner)
            self.log.append(Event(float(step.time[0]), site, kind, partner))
        self.time = t


class CoupledForwardSimulation:
    """Two ordered trajectories driven by the identical event stream.

    Both copies see the same clocks and the same partner draws; each event
    preserves the sitewise order, which is checked after every event.
    """

    def __init__(self, low: Configuration, high: Configuration, bias,
                 tk: TorusKernel, rng: np.random.Generator):
        if np.any(low.opinions > high.opinions):
            raise ValueError("initial configurations must satisfy low <= high")
        self.low = low.copy()
        self.high = high.copy()
        self.stream = _EventStream([self.low.opinions, self.high.opinions],
                                   bias_array(bias, tk), tk, rng)
        self.time = 0.0

    def advance_to(self, t: float):
        self.stream.advance(t)
        self.time = t


def evolve(config: Configuration, bias, tk: TorusKernel, t: float,
           rng: np.random.Generator, log: EventLog | None = None) -> Configuration:
    """Sample the configuration at time t from the given start."""
    sim = ForwardSimulation(config, bias, tk, rng, log=log)
    sim.advance_to(t)
    return sim.config


def coupled_evolve(low: Configuration, high: Configuration, bias,
                   tk: TorusKernel, t: float,
                   rng: np.random.Generator) -> tuple[Configuration, Configuration]:
    """Evolve an ordered pair under the common event stream."""
    sim = CoupledForwardSimulation(low, high, bias, tk, rng)
    sim.advance_to(t)
    return sim.low, sim.high


def first_flip_site(config: Configuration, bias, tk: TorusKernel,
                    rng: np.random.Generator, t_max: float = np.inf) -> int | None:
    """Flat index of the site whose opinion changes first, for rate audits.

    None when nothing flips by ``t_max``, at once when no event can change
    the configuration: no 1-site has positive bias and no partner pair
    disagrees.
    """
    beta = bias_array(bias, tk)
    ones = config.opinions.astype(bool)
    if not np.any(beta[ones] > 0) and np.all(ones[tk.partner_table[0]] == ones[:, None]):
        return None
    stream = _EventStream([config.opinions.copy()], beta, tk, rng)
    while (step := stream.step(t_max)) is not None:
        if step.changed[0]:
            return int(step.site[0])
    return None


def _support_indices(f: LocalFunction, side: int, dim: int) -> list[int]:
    shape = (side,) * dim
    idx = []
    for s in f.support:
        if len(s) != dim:
            raise ValueError(f"support site {s} has wrong dimension")
        idx.append(int(np.ravel_multi_index(tuple(c % side for c in s), shape)))
    if len(set(idx)) != len(idx):
        raise ValueError("observable support does not fit in the torus "
                         "(distinct sites collide after wrapping)")
    return idx


def _relaxation_chunk(args):
    table, idx, bias, tk, t_grid, start, stop, seed = args
    count, n = stop - start, tk.n_sites
    rng = np.random.default_rng(np.random.SeedSequence([seed, start]))
    if isinstance(bias, DisorderLaw):
        bias = _draw_values(bias, count * n, rng).reshape(count, n)
    opinions = np.ones(count * n, dtype=np.uint8)
    stream = _EventStream([opinions], bias, tk, rng)
    bits = 1 << np.arange(len(idx), dtype=np.int64)
    values = np.empty((count, len(t_grid)))
    for j, t in enumerate(t_grid):
        stream.advance(t)
        values[:, j] = table[opinions.reshape(count, n)[:, idx] @ bits]
    return Moments.of(values)


def forward_relaxation(f: LocalFunction, bias, tk: TorusKernel, t_grid,
                       replicas: int, seed: int,
                       threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimate of E[f(eta_t)] - f(all zeros) from all ones.

    ``bias`` is either one field (a ``BiasField`` or per-site array) that
    every replica sees, the quenched case, or a ``DisorderLaw``, from which
    each replica draws its own i.i.d. field, the annealed case.

    Returns (means, standard errors) over the time grid. Each replica is
    one trajectory evaluated at every grid time. Replicas run in chunks of
    ``CHUNK``; the chunk starting at replica b uses the seed stream
    (seed, b), so results do not depend on the thread count.

    For monotone f the all-ones start realizes the worst case over initial
    configurations (attractiveness); for non-monotone f the measured curve
    is only a lower bound on that worst case.
    """
    if replicas < 2:
        raise ValueError("at least 2 replicas are required")
    t_grid = [float(t) for t in t_grid]
    if sorted(t_grid) != t_grid:
        raise ValueError("t_grid must be nondecreasing")
    idx = _support_indices(f, tk.side, tk.dim)
    if not isinstance(bias, DisorderLaw):
        bias = bias_array(bias, tk)
    jobs = [(f.table, idx, bias, tk, t_grid, b, min(b + CHUNK, replicas), seed)
            for b in range(0, replicas, CHUNK)]
    moments = Moments.zeros(len(t_grid))
    for p in map_batches(_relaxation_chunk, jobs, threads):
        moments = moments.merge(p)
    return moments.mean - f.value_all_zeros(), moments.stderr
