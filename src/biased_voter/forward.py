"""Event-driven simulation of the biased voter dynamics on a finite torus.

Every site carries a rate-1 resampling clock (copy the opinion of a partner
drawn from the folded kernel) and a rate-beta(x) reset clock (opinion set to
0). The superposition of all clocks is a Poisson stream whose rate does not
depend on the configuration, so events can be drawn ahead of the state and
one stream can drive several coupled copies. This realizes the exact flip
rates: a 1-site flips at rate beta(x) plus the kernel mass on 0-valued
partners, a 0-site at the kernel mass on 1-valued partners.

Because the stream ignores the configuration, R replicas advance together
as one (R, n_sites) opinion array. Only the order of a replica's events in
(s, t] acts on its state at t, not their times, so advancing to t draws one
Poisson event count per replica, then the events themselves in blocks of
(step, replica) slots, decoded by whole-array operations; each step then
applies one event of every replica as one gather and one scatter. Sites are
in the row-major order of ``TorusKernel``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .disorder import DisorderLaw, _draw_values
from .kernel import TorusKernel, bias_array, site_array
from .localfn import LocalFunction
from .stats import InvariantError, Moments, check_t_grid, check_time, map_batches

__all__ = ["ForwardSimulation", "forward_relaxation"]

CHUNK = 2048        # replicas per seed stream; fixed, so results ignore threads
BLOCK = 1 << 13      # (step, replica) slots drawn and decoded at once; bounds memory


class _Block(NamedTuple):
    """Decoded events of consecutive steps: one (steps, R) array per field.

    A slot past its replica's event count is padding, decoded as a no-op.
    """

    cell: np.ndarray      # flat cell acted on
    source: np.ndarray    # flat cell copied; the cell itself for a kill or no-op
    keep: np.ndarray      # uint8, 0 for a kill: the new opinion is the source's times keep
    live: np.ndarray      # whether the slot holds an event rather than padding


class _EventStream:
    """The configuration-independent event streams of R tori, applied in place.

    Uniformization: the events of each replica come at rate
    n_sites * (1 + beta_max), beta_max the largest bias in ``beta``. An event
    picks a uniform site x and a uniform v in [0, 1 + beta_max). If
    v < beta_r(x), x is set to 0; if v - beta_max falls below the mass of the
    real kernel moves, x copies the partner whose cumulative-weight bracket
    holds it; otherwise nothing happens. Each kill then has rate beta_r(x) and
    each resample the weight of its move, at O(1) cost per event.

    Advancing from ``time`` to t draws each replica's event count, Poisson
    with mean total_rate * (t - time); its events then come in blocks
    (``_Block``) of at most ``BLOCK`` slots, steps by replicas, and each
    step applies one slot of every replica.

    ``layers`` are flat (R * n_sites) uint8 arrays, updated in place; all of
    them see the same events, which is the monotone coupling. ``ones`` holds
    each layer's count of 1-sites per replica. ``beta`` is one field for
    every replica, shape (n_sites,), or one row per replica, shape
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
        self.base = np.arange(replicas) * n     # flat index of each replica's site 0
        self.layers = layers
        self.ones = [a.reshape(replicas, n).sum(axis=1, dtype=np.int64) for a in layers]
        self.rng = rng
        self.time = 0.0

    def _blocks(self, t: float):
        """Draw the events of every replica in (time, t] and decode them, block by block."""
        counts = self.rng.poisson(self.total_rate * (t - self.time), self.base.size)
        self.time = t
        steps = int(counts.max(initial=0))
        size = max(1, BLOCK // max(1, self.base.size))
        for first in range(0, steps, size):
            live = np.arange(first, min(first + size, steps))[:, None] < counts
            # in place where it can be, so a block holds few temporaries
            site = (self.rng.random(live.shape) * self.n_sites).astype(np.intp)
            cell = site + self.base
            v = self.rng.random(live.shape)
            v *= self.scale
            v[~live] = np.inf       # past the last edge: the no-op zone
            kill = v < self.beta[cell if self.per_replica else site]
            site *= self.width      # now the row of site's brackets in offsets
            site += self.edges.searchsorted(v, side="right")
            source = self.offsets[site]
            source += cell
            yield _Block(cell, source, (~kill).view(np.uint8), live)

    def steps(self, t: float):
        """Apply the events in (time, t] in order, one step of every replica at a time.

        Yields (block, step, change) after each step, ``change`` the first
        layer's new opinion minus its old one, per replica, as int8.
        """
        for block in self._blocks(t):
            for step in range(len(block.cell)):
                cell, source, keep = block.cell[step], block.source[step], block.keep[step]
                news, changes = [], []
                for layer, ones in zip(self.layers, self.ones):
                    new = layer[source]
                    new &= keep
                    change = np.subtract(new, layer[cell], dtype=np.int8)
                    # the all-zeros configuration is a trap for these dynamics
                    if np.count_nonzero(change[ones == 0]):
                        raise InvariantError("absorbing state was left")
                    layer[cell] = new
                    ones += change
                    news.append(new)
                    changes.append(change)
                for low, high in zip(news, news[1:]):
                    if (low > high).any():
                        raise InvariantError("monotone coupling violated the sitewise order")
                yield block, step, changes[0]

    def advance(self, t: float):
        for _ in self.steps(t):
            pass


class ForwardSimulation:
    """R replicas of the dynamics on one torus, advanced together on one stream.

    ``start`` is an (R, n_sites) 0/1 array, one replica per row, or a
    sequence of such arrays ordered sitewise low <= high; every layer sees
    the same events (the monotone coupling), and the order is checked after
    every event. ``bias`` is one field for every replica or one row per
    replica, shape (R, n_sites). ``layers`` holds the opinions, shape
    (layers, R, n_sites), updated in place; advancing to increasing times
    continues the same trajectories. Each advance draws its own events, so
    the hops taken change the draws (advancing to 1 then 3 and straight to
    3 give different trajectories) but not their law.
    """

    def __init__(self, start, bias, tk: TorusKernel, rng: np.random.Generator):
        start = np.asarray(start)
        if start.ndim == 2:
            start = start[None]
        if start.ndim != 3 or start.shape[2] != tk.n_sites:
            raise ValueError(f"start rows must hold one opinion per site, {tk.n_sites} in all")
        if not np.isin(start, (0, 1)).all():
            raise ValueError("opinions must be 0 or 1")
        if (start[:-1] > start[1:]).any():
            raise ValueError("start layers must be ordered sitewise low <= high")
        self.layers = start.astype(np.uint8)
        beta = bias_array(bias, tk, replicas=start.shape[1])
        self.stream = _EventStream(list(self.layers.reshape(len(start), -1)), beta, tk, rng)
        self.time = 0.0

    def advance_to(self, t: float):
        t = check_time(t, self.time)
        self.stream.advance(t)
        self.time = t


def _relaxation_chunk(args):
    table, shifts, bias, tk, t_grid, start, stop, seed = args
    count, n = stop - start, tk.n_sites
    rng = np.random.default_rng(np.random.SeedSequence([seed, start]))
    if isinstance(bias, DisorderLaw):
        bias = _draw_values(bias, count * n, rng).reshape(count, n)
    sim = ForwardSimulation(np.ones((count, n), dtype=np.uint8), bias, tk, rng)
    # the narrowest dtype of every key, so the (count, n_shifts, k) cells
    # gathered per grid time are not widened to int64
    k = shifts.shape[1]
    bits = (1 << np.arange(k)).astype(np.min_scalar_type((1 << k) - 1))
    values = np.empty((count, len(t_grid)))
    for j, t in enumerate(t_grid):
        sim.advance_to(t)
        values[:, j] = table[np.take(sim.layers[0], shifts, axis=1) @ bits].mean(axis=1)
    return Moments.of(values)


def forward_relaxation(f: LocalFunction, bias, tk: TorusKernel, t_grid,
                       replicas: int, seed: int,
                       threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimate of E[f(eta_t)] - f(all zeros) from all ones.

    ``bias`` is either one field (a ``BiasField`` or per-site array) that
    every replica sees, the quenched case, or a ``DisorderLaw``, from which
    each replica draws its own i.i.d. field, the annealed case.

    Returns (means, standard errors) over the time grid, which must pass
    ``stats.check_t_grid``. Each replica is one trajectory, and its sample
    at a grid time is f averaged over the translates of its support. An
    annealed run averages over every translate of the torus, (1/n) sum_x
    f(tau_x eta_t): the field is i.i.d. over sites, the folded kernel and
    the all-ones start are shift invariant, so tau_x eta_t has the law of
    eta_t and the average has the mean of f(eta_t), with less variance. A
    quenched run's one field is not shift invariant, so it reads the
    support itself only, f(eta_t). Replicas run in chunks of ``CHUNK``; the
    chunk starting at replica b uses the seed stream (seed, b), so results
    do not depend on the thread count.

    For monotone f the all-ones start realizes the worst case over initial
    configurations (attractiveness); for non-monotone f the measured curve
    is only a lower bound on that worst case.
    """
    if replicas < 2:
        raise ValueError("at least 2 replicas are required")
    t_grid = check_t_grid(t_grid)
    sites = site_array(tk, f.support)
    if isinstance(bias, DisorderLaw):
        shifts = tk.translates(sites)
    else:
        bias = bias_array(bias, tk)
        shifts = tk.flat_index(sites)[None]
    jobs = [(f.table, shifts, bias, tk, t_grid, b, min(b + CHUNK, replicas), seed)
            for b in range(0, replicas, CHUNK)]
    moments = Moments.zeros(len(t_grid))
    for p in map_batches(_relaxation_chunk, jobs, threads):
        moments = moments.merge(p)
    return moments.mean - f.value_all_zeros(), moments.stderr
