"""Coalescing dual process with multiplicative path weighting.

Finitely many particles random-walk on Z^d (or on a torus); each particle
jumps at rate 1 and two particles landing on the same site merge. Along the
way the simulation accumulates per-site occupation times and, when a bias
field is supplied, the time integral of the total bias carried by the
occupied sites. The two derived estimators are

* quenched: mean of exp(-accumulated bias integral) for a fixed field, and
* annealed: mean of prod_x laplace(law, l_t(x)), which integrates an i.i.d.
  bias law out analytically, so the disorder is never sampled.

Both run on the batched walk engine of ``walks``, one walker per start site
carrying a dual particle; ``DualSimulation`` is the event-by-event reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .disorder import BiasField, DisorderLaw, nu2
from .kernel import TorusKernel
from .localfn import Site, _normalize_site
from .stats import InvariantError
from .walks import _death_times, _draw, _site_keys, _start_array, walk_curve

__all__ = [
    "DualState",
    "RangeTracker",
    "DualSimulation",
    "DualCurve",
    "dual_evolve",
    "dual_curve",
    "quenched_dual_expectation",
    "annealed_dual_expectation",
    "independent_walkers_range",
    "coupled_dual_walker_ranges",
]

_OCCUPATION_TOL = 1e-9


@dataclass
class DualState:
    """Snapshot of the dual process at a fixed time."""

    particles: frozenset
    fk_integral: float
    local_times: dict
    clock: float
    visited: frozenset

    def occupation_total(self) -> float:
        return float(sum(self.local_times.values()))


@dataclass
class RangeTracker:
    """Set of distinct sites visited by a family of walks."""

    visited: set = field(default_factory=set)

    @property
    def count(self) -> int:
        return len(self.visited)

    def add(self, site: Site):
        self.visited.add(site)


class DualSimulation:
    """Event-driven dual trajectory supporting snapshots at increasing times."""

    def __init__(self, start, kernel, rng: np.random.Generator, bias: BiasField | None = None):
        sites = sorted({_normalize_site(s) for s in start})
        if not sites:
            raise ValueError("dual process needs a nonempty start set")
        self.disp, self.cum = kernel.sampling_arrays()
        self.side = kernel.side if isinstance(kernel, TorusKernel) else None
        self.dim = self.disp.shape[1]
        if any(len(s) != self.dim for s in sites):
            raise ValueError("start sites have the wrong dimension")
        self.rng = rng
        self.bias = bias
        self.particles: list[Site] = list(sites)
        self.occupied: set[Site] = set(sites)
        self.visited: set[Site] = set(sites)
        self.local_times: dict[Site, float] = {}
        self.fk_integral = 0.0
        self.occupation_integral = 0.0
        self.start_count = len(sites)
        self.kill_rate = sum(self._beta(s) for s in sites)
        self.jumps = 0
        self.time = 0.0
        self.next_time = rng.exponential(1.0 / len(self.particles))

    def _beta(self, site: Site) -> float:
        return self.bias.value(site) if self.bias is not None else 0.0

    def _wrap(self, site: Site, move: np.ndarray) -> Site:
        if self.side is None:
            return tuple(int(c) + int(m) for c, m in zip(site, move))
        return tuple((int(c) + int(m)) % self.side for c, m in zip(site, move))

    def _accrue(self, dt: float):
        if dt <= 0.0:
            return
        for x in self.particles:
            self.local_times[x] = self.local_times.get(x, 0.0) + dt
        self.occupation_integral += len(self.particles) * dt
        self.fk_integral += self.kill_rate * dt

    def advance_to(self, t: float):
        if t < self.time:
            raise ValueError("cannot advance backwards")
        while self.next_time <= t:
            self._accrue(self.next_time - self.time)
            self.time = self.next_time
            self._jump_one()
            self.next_time = self.time + self.rng.exponential(1.0 / len(self.particles))
        self._accrue(t - self.time)
        self.time = t
        total = sum(self.local_times.values())
        if not (abs(total - self.occupation_integral) <= _OCCUPATION_TOL * max(1.0, total)
                and self.occupation_integral <= t * self.start_count + _OCCUPATION_TOL):
            raise InvariantError("dual occupation times do not add up to the elapsed time")

    def _jump_one(self):
        self.jumps += 1
        i = int(self.rng.random() * len(self.particles))
        x = self.particles[i]
        move = self.disp[int(np.searchsorted(self.cum, self.rng.random()))]
        y = self._wrap(x, move)
        if y == x:  # folded no-op mass on small tori
            return
        if y in self.occupied:
            last = len(self.particles) - 1
            self.particles[i] = self.particles[last]
            self.particles.pop()
            self.occupied.discard(x)
            self.kill_rate -= self._beta(x)
        else:
            self.particles[i] = y
            self.occupied.discard(x)
            self.occupied.add(y)
            self.visited.add(y)
            self.kill_rate += self._beta(y) - self._beta(x)

    def state(self) -> DualState:
        return DualState(
            particles=frozenset(self.particles),
            fk_integral=self.fk_integral,
            local_times=dict(self.local_times),
            clock=self.time,
            visited=frozenset(self.visited))


def dual_evolve(start, kernel, t: float, rng: np.random.Generator,
                bias: BiasField | None = None) -> DualState:
    """Exact simulation of the dual process up to time t."""
    sim = DualSimulation(start, kernel, rng, bias=bias)
    sim.advance_to(t)
    return sim.state()


@dataclass
class DualCurve:
    """Per-time estimator output of a batch of dual replicas."""

    t_grid: np.ndarray
    replicas: int
    mean: np.ndarray
    stderr: np.ndarray
    mean_range: np.ndarray
    mean_particles: np.ndarray
    max_abs_position: int


def dual_curve(start, kernel, t_grid, replicas: int, seed: int, mode: str,
               law: DisorderLaw | None = None, bias: BiasField | None = None,
               threads: int = 1) -> DualCurve:
    """Quenched or annealed dual estimator evaluated on a whole time grid.

    ``mode='quenched'`` weights each path by exp(-accumulated bias
    integral) for the supplied field; ``mode='annealed'`` weights it by the
    product of per-site Laplace transforms of the occupation times. Runs on
    the walk engine with one rider per start site, Z^d or torus alike.
    """
    if mode not in ("quenched", "annealed"):
        raise ValueError("mode must be 'quenched' or 'annealed'")
    if mode == "quenched" and bias is None:
        raise ValueError("quenched mode requires a bias field")
    if mode == "annealed" and law is None:
        raise ValueError("annealed mode requires a disorder law")
    quenched = mode == "quenched"
    stats = walk_curve(kernel, t_grid, replicas, seed,
                       law=None if quenched else law, bias=bias if quenched else None,
                       floor_nu=None if quenched else nu2(law), threads=threads,
                       starts=sorted({_normalize_site(s) for s in start}))
    return DualCurve(
        t_grid=stats.t_grid, replicas=replicas,
        mean=stats.weight_mean, stderr=stats.weight_stderr,
        mean_range=stats.range_mean, mean_particles=stats.particles_mean,
        max_abs_position=stats.max_abs_position)


def quenched_dual_expectation(A, bias: BiasField, kernel, t: float,
                              replicas: int, seed: int,
                              threads: int = 1) -> tuple[float, float]:
    """Monte Carlo mean and stderr of the quenched path weight at time t."""
    curve = dual_curve(A, kernel, [t], replicas, seed, "quenched",
                       bias=bias, threads=threads)
    return float(curve.mean[0]), float(curve.stderr[0])


def annealed_dual_expectation(A, law: DisorderLaw, kernel, t: float,
                              replicas: int, seed: int,
                              threads: int = 1) -> tuple[float, float]:
    """Monte Carlo mean and stderr of the annealed path weight at time t."""
    curve = dual_curve(A, kernel, [t], replicas, seed, "annealed",
                       law=law, threads=threads)
    return float(curve.mean[0]), float(curve.stderr[0])


def _walker_paths(starts, kernel, t: float, count: int, rng: np.random.Generator):
    """``count`` replicas of the walk engine: positions and arrival times, (count * k, m + 1)."""
    starts = _start_array(kernel, [_normalize_site(s) for s in starts])
    pos, cum_t = _draw(kernel, starts, t, count, rng)
    return pos, np.concatenate([np.zeros((len(pos), 1)), cum_t], axis=1)


def independent_walkers_range(starts, kernel, t: float,
                              rng: np.random.Generator) -> RangeTracker:
    """Union of the visited sets of independent walks from distinct starts."""
    pos, arrivals = _walker_paths(starts, kernel, t, 1, rng)
    return RangeTracker(set(map(tuple, pos[arrivals <= t].tolist())))


def coupled_dual_walker_ranges(starts, kernel, t: float, replicas: int,
                               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Dual range and independent-walker range of each replica on shared randomness.

    Each dual particle rides one walker; when a carried particle lands on a
    site already holding another one, the rider is dropped (coalescence).
    The dual visited set is then a subset of the walkers' visited set on
    every path, which is checked replica by replica.
    """
    pos, arrivals = _walker_paths(starts, kernel, t, replicas, rng)
    k = len(pos) // replicas
    skey, _, spans = _site_keys(pos)
    death = _death_times(arrivals[:, 1:], skey, k, t)
    n_keys = math.prod(int(s) for s in spans)
    keys = skey + (np.arange(len(pos)) // k * n_keys)[:, None]   # replica-major (replica, site)
    seen = arrivals <= t
    walker = np.unique(keys[seen])
    dual = np.unique(keys[seen & (arrivals < death[:, None])])
    outside = dual[~np.isin(dual, walker)]
    if outside.size:
        raise InvariantError(f"dual range left the walker range in replica {outside[0] // n_keys}")
    return (np.bincount(dual // n_keys, minlength=replicas),
            np.bincount(walker // n_keys, minlength=replicas))
