"""Coalescing dual process with multiplicative path weighting.

Finitely many particles random-walk on Z^d (or on a torus); each particle
jumps at rate 1 and two particles landing on the same site merge. Along the
way each site accumulates the time particles spent on it, and a path is
weighted by

* quenched: exp(-sum_x bias(x) l_t(x)) for a fixed field, or
* annealed: prod_x laplace(law, l_t(x)), which integrates an i.i.d. bias law
  out analytically, so the disorder is never sampled.

``dual_curve`` estimates the mean weight on the batched walk engine of
``walks``, one walker per start site carrying a dual particle;
``DualSimulation`` is the event-by-event reference the tests compare against.
"""

from __future__ import annotations

import numpy as np

from .disorder import BiasField, DisorderLaw
from .kernel import TorusKernel, site_array
from .localfn import Site
from .stats import InvariantError, check_time
from .walks import WalkCurveStats, walk_curve

__all__ = ["DualSimulation", "dual_curve"]

_OCCUPATION_TOL = 1e-9


class DualSimulation:
    """Event-driven dual trajectory supporting snapshots at increasing times."""

    def __init__(self, start, kernel, rng: np.random.Generator):
        sites = list(map(tuple, site_array(kernel, start).tolist()))
        if not sites:
            raise ValueError("dual process needs a nonempty start set")
        self.disp, self.cum = kernel.sampling_arrays()
        self.side = kernel.side if isinstance(kernel, TorusKernel) else None
        self.rng = rng
        self.particles: list[Site] = list(sites)
        self.occupied: set[Site] = set(sites)
        self.visited: set[Site] = set(sites)
        self.local_times: dict[Site, float] = {}
        self.occupation_integral = 0.0
        self.start_count = len(sites)
        self.jumps = 0
        self.time = 0.0
        self.next_time = rng.exponential(1.0 / len(self.particles))

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

    def advance_to(self, t: float):
        t = check_time(t, self.time)
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
        else:
            self.particles[i] = y
            self.occupied.discard(x)
            self.occupied.add(y)
            self.visited.add(y)


def dual_curve(start, kernel, t_grid, replicas: int, seed: int,
               law: DisorderLaw | None = None, bias: BiasField | None = None,
               threads: int = 1) -> WalkCurveStats:
    """Annealed (given ``law``) or quenched (given ``bias``) dual estimator on a time grid.

    The quenched weight of a path is exp(-accumulated bias integral) for the
    supplied field; the annealed one is the product of per-site Laplace
    transforms of the occupation times. Exactly one of the two is given.
    Runs on the walk engine with one rider per start site, Z^d or torus
    alike; the start sites must be distinct. Returns the engine's moments,
    the estimate being ``weight_mean``.
    """
    if (law is None) == (bias is None):
        raise ValueError("give exactly one of a disorder law (annealed) and a bias field")
    return walk_curve(kernel, t_grid, replicas, seed, law=law, bias=bias, threads=threads,
                      starts=start)
