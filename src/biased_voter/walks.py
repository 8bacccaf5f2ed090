"""Vectorized continuous-time random walks and the coalescing dual they carry.

Each replica runs k independent rate-1 walkers from k distinct start sites,
with displacements drawn from a kernel on Z^d (or from its folding onto a
torus, positions taken mod the side). For k > 1 every walker carries one
particle of the coalescing dual: a rider dies when its walker jumps onto a
site held by another live rider, so the live riders move as the coalescing
dual does. At every grid time a batch is reduced, per replica, to the range
(distinct sites visited by live riders), the number of live riders and,
optionally, the log of a path weight, with l_t(x) the time live riders spent
at site x:

* annealed: sum_x log E[exp(-bias * l_t(x))], an i.i.d. bias law integrated
  out site by site;
* quenched: -sum_x bias(x) l_t(x) for one fixed field.

An observable sum_A c_A H(., A) over subsets A of the start set takes one
draw: each A's riders coalesce among themselves only, a replica's weight is
sum_A c_A w_A, and the stderr of that sum counts the terms' covariances.

A quenched walk of the nearest-neighbor kernel on Z may carry a
``QuenchedBox``: once a term's last-but-one rider dies, at tau, its one
survivor at z walks on alone, so the rest of the weight is the one-walk
Feynman-Kac semigroup u(t - tau, z), which the box gives to 1e-10. Such a
replica's sample at t > tau is then exp(L_tau) u(t - tau, z), L_tau the log
weight up to tau: E[W_t | F_tau] by the strong Markov property, so the
estimate stays unbiased and each replica is still one sample.

Replicas are processed in batches of BATCH_SIZE // k with per-batch seed
streams, so results are bitwise independent of the worker count. Replicas
share nothing, so a batch is cut into chunks of whole replicas, each drawn
from time 0 to the last grid time in one piece and reduced on its own, and
the chunks' per-replica results are concatenated. A chunk expects at most
CHUNK_JUMPS jumps unless it is one replica, so a batch's peak memory does
not grow with t_max up to t_max = CHUNK_JUMPS / k; a batch that expects no
more is one chunk.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderLaw, laplace
from .kernel import TorusKernel, bias_array, bias_values, box_keys, box_sites, site_array
from .stats import InvariantError, Moments, check_t_grid, map_batches

__all__ = ["QuenchedBox", "WalkCurveStats", "walk_curve"]

BATCH_SIZE = 2048   # walkers per batch: BATCH_SIZE // k replicas of k walkers
CHUNK_JUMPS = 1 << 19   # most expected jumps of a chunk of a batch's replicas, unless it is one
BOX_TOL = 1e-10     # a box's value is used where its error bound is at most this share of it
BOX_ENTRIES = 1 << 21   # most (box site, Poisson term) entries a box holds: 16 MB
_FLOOR_TOL = 1e-9
_SWEEP_CHUNK = 64    # events in the first chunk of the coalescence sweep; later chunks double
_BOX_BLOCK = 1 << 16  # entries of one (points, Poisson terms) block of a box evaluation: 512 kB
_GATHER_BLOCK = 1 << 16   # positions of one block of the draw's displacement gather
_EPS = np.finfo(float).eps


def _poisson_tail(mu: float, m: int) -> float:
    """Chernoff's bound e^-mu (e mu / m)^m on P(N >= m), N ~ Poisson(mu), m > mu."""
    return math.exp(m - mu - m * math.log(m / mu)) if mu > 0.0 else 0.0


def _uniformize(step, v, mu: float) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """log n! for n < terms, the fewest Poisson(mu) terms whose tail bound
    ``_poisson_tail(mu, terms - 1)`` is at most eps, and an iterator over the
    powers P^n v, n < terms, of a nonnegative ``step`` v -> Pv."""
    terms = math.floor(mu) + 2
    while _poisson_tail(mu, terms - 1) > _EPS:
        terms += 1
    log_factorials = np.array([math.lgamma(k + 1.0) for k in range(terms)])
    return log_factorials, itertools.accumulate(range(1, terms), lambda p, _: step(p), initial=v)


@dataclass(frozen=True)
class QuenchedBox:
    """u(s, z) = E_z exp(-int_0^s beta(X_r) dr), 0 <= s <= horizon, of one
    rate-1 nearest-neighbor walk on Z in a fixed field, from the walk killed
    outside the box [center - width, center + width].

    The box's generator Q = (shift_+ + shift_-) / 2 - I - diag(beta) is
    nonnegative off the diagonal, so with rate c = 1 + max beta the matrix
    P = I + Q / c is nonnegative with row sums at most 1, and uniformization
    gives u_box(s, .) = e^(sQ) 1 = sum_n Poisson(n; cs) P^n 1. Every term is
    nonnegative, so rounding and the neglected Poisson tail are small next
    to each entry, however small the entry is. The paths that leave the box,
    at rate b = 1/2 from each end site, weigh
    g = int_0^horizon e^(rQ) b dr = sum_n P(N_(c horizon) > n) P^n b / c by
    the horizon, and u_box <= u <= u_box + g at every s up to it.
    """

    center: int
    width: int
    horizon: float
    rate: float           # c
    powers: np.ndarray    # (P^n 1)_z, one row per box site z, one column per n < terms
    exits: np.ndarray     # g, one entry per box site, rounding and the tail included
    log_factorials: np.ndarray   # log n! for n < terms
    tail: float           # a bound on P(N_(c horizon) >= terms - 1)

    @classmethod
    def solve(cls, bias, center: int, width: int, horizon: float) -> "QuenchedBox | None":
        """The box of ``bias`` (a ``value(site)`` field) around ``center`` up to
        ``horizon``, or None if it would hold more than BOX_ENTRIES entries."""
        beta = bias_values(bias, [(x,) for x in range(center - width, center + width + 1)])
        rate = 1.0 + float(beta.max())
        mu = rate * horizon
        n = beta.size
        stay, jump = np.zeros((n + 2, 2)), 0.5 / rate   # P's entries, a zero row at each end
        stay[1:-1] = (1.0 - (1.0 + beta) / rate)[:, None]

        def step(last):
            out = stay * last
            out[1:-1] += (last[:-2] + last[2:]) * jump
            return out

        start = np.zeros((n + 2, 2))   # 1 and b
        start[1:-1, 0] = 1.0
        start[[1, -2], 1] = 0.5
        log_factorials, powers = _uniformize(step, start, mu)
        terms = log_factorials.size
        if terms * n > BOX_ENTRIES:
            return None
        # P^n 1 and P^n b
        table = np.fromiter(powers, np.dtype((np.float64, start.shape)), terms)[:, 1:-1]
        tail = _poisson_tail(mu, terms - 1)
        # P(N > k) = sum of the weights past k, plus the mass past the table
        weights = _poisson_weights(mu, log_factorials)
        survival = np.append(np.cumsum(weights[:0:-1])[::-1], 0.0) + tail
        exits = survival @ table[:, :, 1] / rate
        # P^n b <= P^n 1 / 2 falls with n, so the terms past the table add at most
        # (P^(terms-1) 1) E (N - terms + 1)^+ / 2c <= (P^(terms-1) 1) (horizon / 2) tail
        exits = (exits * (1.0 + _relative_error(rate, horizon, terms))
                 + 0.5 * horizon * tail * table[-1, :, 0])
        return cls(center, width, float(horizon), rate,
                   np.ascontiguousarray(table[:, :, 0].T), exits, log_factorials, tail)

    def log_value(self, s: np.ndarray, z: np.ndarray) -> np.ndarray:
        """log u_box(s, z) at the points (s, z), nan where the box does not
        certify it: z outside the box, s outside [0, horizon], or g(z) plus
        the bound on the computed u_box's error (``_relative_error``, and the
        Poisson tail twice) more than BOX_TOL of u_box.
        """
        s, row = np.asarray(s, dtype=np.float64), np.asarray(z) - (self.center - self.width)
        inside = (row >= 0) & (row < self.exits.size) & (s >= 0.0) & (s <= self.horizon)
        # each distinct point once, so that equal points get equal values;
        # row + i s holds a point in one sortable number
        points, back = np.unique(row[inside] + 1j * s[inside], return_inverse=True)
        rows, times = points.real.astype(np.intp), points.imag
        u = np.empty(points.size)
        step = max(1, _BOX_BLOCK // self.log_factorials.size)
        for lo in range(0, points.size, step):
            at = slice(lo, lo + step)
            u[at] = np.einsum("mn,mn->m", _poisson_weights(self.rate * times[at],
                                                           self.log_factorials),
                              self.powers[rows[at]])
        terms = self.log_factorials.size
        # underflow past the normal range adds at most 2 terms tiny over all
        error = ((_relative_error(self.rate, times, terms) + 2.0 * self.tail) * u
                 + 2.0 * terms * np.finfo(float).tiny)
        value = np.where((u > 0.0) & (self.exits[rows] + error <= BOX_TOL * u),
                         np.log(np.where(u > 0.0, u, 1.0)), np.nan)
        out = np.full(s.shape, np.nan)
        out[inside] = value[back]
        return out


def _poisson_weights(mu, log_factorials: np.ndarray) -> np.ndarray:
    """P(N = n), N ~ Poisson(mu), for n < len(log_factorials); one row per mu."""
    mu = np.asarray(mu, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.log(mu)[..., None] * np.arange(log_factorials.size)
    logp[..., 0] = 0.0   # n log mu at n = 0, also for mu = 0
    logp -= mu[..., None]
    logp -= log_factorials
    return np.exp(logp, out=logp)


def _relative_error(rate: float, s, terms: int):
    """A bound on the relative error of the computed sum of Poisson(n; rate s) P^n v, v >= 0.

    P's rounded entries are those of a walk whose kill rates are off by at
    most 1.5 eps rate and jump rates by eps / 4, which moves e^(sQ) v by a
    factor within e^(+-2 eps s (rate + 1)); each product with P rounds by at most
    3 eps and the final sum by terms eps; a Poisson weight's logarithm,
    n log mu - mu - log n!, is off by at most 4 eps (n + its terms' sizes).
    """
    mu = rate * np.asarray(s, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_size = np.where(mu > 0.0, np.abs(np.log(mu)), 0.0)
    return _EPS * (2.0 * s * (rate + 1.0) + 8.0 * terms
                   + 4.0 * (terms * log_size + mu + math.lgamma(terms + 1.0)))


@dataclass
class WalkCurveStats:
    """Per-time moments of walk functionals over all replicas, in the caller's grid order."""

    range_mean: np.ndarray
    range_stderr: np.ndarray
    weight_mean: np.ndarray | None      # path weight, when a law or a field was given
    weight_stderr: np.ndarray | None
    exp_means: dict[float, np.ndarray]  # nu -> mean of exp(-nu * |R_t|)
    exp_stderrs: dict[float, np.ndarray]
    max_abs_position: int               # largest coordinate magnitude seen
    particles_mean: np.ndarray          # live riders per replica


def _start_array(kernel, starts) -> np.ndarray:
    """The k start sites as a (k, d) array; the origin when ``starts`` is None."""
    if starts is None:
        return np.zeros((1, kernel.dim), dtype=np.int64)
    arr = site_array(kernel, starts)
    if not len(arr):
        raise ValueError("walks need a nonempty start set")
    return arr


def _expansion(kernel, starts) -> tuple[np.ndarray, list[tuple[tuple[int, ...], float]]]:
    """The (k, d) start array and the terms (walker indices, coefficient):
    for a site list its whole set with 1, for a mapping one term per subset
    over the sorted union of the subsets."""
    if not isinstance(starts, Mapping):
        arr = _start_array(kernel, starts)
        return arr, [(tuple(range(len(arr))), 1.0)]
    subsets = [(_start_array(kernel, sub).tolist(), float(c)) for sub, c in starts.items()]
    union = sorted({tuple(s) for sub, _ in subsets for s in sub})
    index = {s: i for i, s in enumerate(union)}
    return (_start_array(kernel, union),
            [(tuple(sorted(index[tuple(s)] for s in sub)), c) for sub, c in subsets])


def _chunk_size(t_max: float, k: int, count: int) -> int:
    """Replicas per chunk of a batch of ``count`` replicas of k walkers to
    t_max: all of them when they expect at most CHUNK_JUMPS jumps, count k
    t_max, else as many as expect at most that many, and at least one."""
    if count * k * t_max <= CHUNK_JUMPS:
        return count
    return max(1, int(CHUNK_JUMPS / t_max) // k)


def _draw(kernel, starts: np.ndarray, t_max: float, count: int,
          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Positions (rows, m + 1, d) and jump times (rows, m) of ``count``
    replicas of walkers from ``starts`` (k, d), row r being walker r % k of
    replica r // k; every row jumps past t_max.

    Column 0 holds the starts, column c the position after the c-th jump.
    Jump times are float64, the clock summed in place (its draws are those
    of ``rng.exponential``, whose scale of 1 multiplies exactly). Positions
    are int32, or int64 when m * max|displacement| + max|start| could reach
    2 ** 31. A kernel whose weights are all equal draws its displacement
    indices as uniform integers; any other searches its cumulative weights
    with uniforms.
    """
    disp, cum = kernel.sampling_arrays()
    n, rows = len(disp), count * len(starts)
    m0 = max(4, int(t_max + 6.0 * math.sqrt(t_max + 1.0) + 16.0))
    cum_t = rng.standard_exponential((rows, m0))
    np.cumsum(cum_t, axis=1, out=cum_t)
    while cum_t[:, -1].min() <= t_max:
        extra = np.cumsum(rng.exponential(size=(rows, 64)), axis=1)
        cum_t = np.hstack([cum_t, cum_t[:, -1:] + extra])
    m = cum_t.shape[1]

    # one index per step into the displacements, gathered after the starts in
    # column 0; an in-place cumsum then gives the positions
    if np.all(kernel.weights == kernel.weights[0]):
        index = rng.integers(0, n, size=(rows, m), dtype=np.min_scalar_type(n - 1))
    else:
        index = np.searchsorted(cum, rng.random((rows, m)))
    wide = m * int(np.abs(disp).max()) + int(np.abs(starts).max()) >= 1 << 31
    table = disp.astype(np.int64 if wide else np.int32)
    pos = np.empty((rows, m + 1) + table.shape[1:], dtype=table.dtype)
    pos[:, 0] = np.tile(starts, (count, 1))
    step = max(1, _GATHER_BLOCK // m)   # take widens a block's indices to intp
    for lo in range(0, rows, step):
        np.take(table, index[lo:lo + step], axis=0, out=pos[lo:lo + step, 1:])
    del index
    np.cumsum(pos, axis=1, dtype=pos.dtype, out=pos)
    if isinstance(kernel, TorusKernel):
        pos %= kernel.side
    return pos, cum_t


def _coalesce(cum_t: np.ndarray, skey: np.ndarray, k: int, t_max: float) -> np.ndarray:
    """Coalescence time of every rider; inf while it lives through t_max.

    A live rider whose walker jumps onto a site held by another live rider
    dies at that jump. So only the first meeting of each pair of riders
    matters: if both live then, the jumper dies, and the pair never meets
    again while both are alive. Each replica's jumps are taken in time
    order, in chunks of _SWEEP_CHUNK events doubling from there, over the
    replicas that still hold two live riders and a jump by t_max. Every
    walker's row is sorted, so a replica's first n jumps lie in the first n
    columns of its walkers' rows: a chunk ending at event n < m sorts only
    those columns of the replicas left, and once the chunks reach m the
    replicas left are sorted whole, once. Within a chunk every walker's
    site after every event is one gather; a pair of riders live at the
    chunk's start meets at the first event that puts their walkers on one
    site, and the meetings are applied in time order.
    """
    rows, m = cum_t.shape
    death = np.full(rows, np.inf)
    if k == 1:   # a lone rider never dies
        return death
    count = rows // k
    times = cum_t.reshape(count, k, m)
    due = np.count_nonzero(times <= t_max, axis=(1, 2))   # jumps of each replica by t_max
    flat_keys, width = skey.ravel(), skey.shape[1]
    alive = np.ones((count, k), dtype=bool)
    jumps = np.zeros((count, k), dtype=np.int64)     # jumps of each walker so far
    first, second = np.triu_indices(k, 1)
    active = np.flatnonzero(due > 0)
    order, order_row, cols = None, np.zeros(count, dtype=np.intp), 0
    start, length = 0, _SWEEP_CHUNK
    while active.size:
        # a chunk's arrays, about k + 4 of (replicas, events), together hold at
        # most half as many entries as cum_t: the sweep stays below the
        # reduction's peak memory
        length = min(length, max(1, rows * m // (2 * active.size * (k + 4))))
        stop = min(start + length, int(due[active].max()))
        if cols < min(stop, m):   # sort the replicas left as far as the chunk reaches
            cols, order = min(stop, m), None   # the last sort is freed first
            order = np.argsort(times[active, :, :cols].reshape(active.size, k * cols), axis=1)
            order_row[active] = np.arange(active.size)
        walker, column = np.divmod(order[order_row[active], start:stop], cols)
        in_time = np.arange(start, stop) < due[active, None]
        sites = []
        for v in range(k):
            moved = np.cumsum(walker == v, axis=1)
            base = (active * k + v) * width + jumps[active, v]
            sites.append(flat_keys[base[:, None] + moved])
            jumps[active, v] += moved[:, -1]

        # each pair's meeting as an event index into the chunk; stop - start if none
        span = stop - start
        meet = np.full((active.size, first.size), span)
        for p in range(first.size):
            both = alive[active, first[p]] & alive[active, second[p]]
            if both.any():
                same = (sites[first[p]] == sites[second[p]]) & in_time
                at = same.argmax(axis=1)
                found = both & same[np.arange(active.size), at]
                meet[found, p] = at[found]
        del sites
        # in time order; meetings at one event share their jumper, so ties are in any order
        for p in np.argsort(meet, axis=1).T:
            at = meet[np.arange(active.size), p]
            met = at < span
            if not met.any():
                break
            hit = met & alive[active, first[p]] & alive[active, second[p]]
            replica, at = active[hit], at[hit]
            jumper = walker[hit, at]
            alive[replica, jumper] = False
            death[replica * k + jumper] = times[replica, jumper, column[hit, at]]

        start = stop
        length *= 2
        active = active[(alive[active].sum(axis=1) > 1) & (due[active] > start)]
    return death


def _pair_ids(keys: np.ndarray, key_space: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for keys in [0, key_space).

    A dense table over the key space when it holds no more entries than
    ``keys``, a sort otherwise (wide boxes: 2-d and power-kernel walks).
    """
    if key_space <= keys.size:
        keys = keys.astype(np.intp)   # numpy indexes about twice as fast with intp
        present = np.zeros(key_space, dtype=bool)
        present[keys] = True
        uniq = np.flatnonzero(present)
        del present
        ids = np.empty(key_space, dtype=np.intp)
        ids[uniq] = np.arange(uniq.size)
        return uniq, ids[keys]
    uniq, inverse = np.unique(keys, return_inverse=True)
    return uniq, inverse.ravel()


def _simulate_batch(kernel, t_grid: np.ndarray, starts: np.ndarray, count: int,
                    rng: np.random.Generator, law: DisorderLaw | None, bias, subsets: dict,
                    box: QuenchedBox | None = None):
    """One draw of k walkers per replica, reduced once per subset of them.

    ``subsets`` maps tuples of walker indices, whose riders coalesce among
    themselves only, to whether their path weight is wanted; a wanted
    quenched weight goes on through ``box`` once one rider is left. Returns
    ``_reduce``'s output per subset and the largest coordinate magnitude.
    The batch is drawn and reduced one chunk of ``_chunk_size`` replicas at
    a time, each to the last grid time, and the chunks' per-replica results
    are concatenated; the whole start set goes last and is handed the
    chunk's draw itself, so that its reduction frees it as it goes.
    """
    k, whole = len(starts), tuple(range(len(starts)))
    t_max = float(t_grid[-1])
    size = _chunk_size(t_max, k, count)
    parts = {walkers: [] for walkers in subsets}
    max_abs = 0
    for lo in range(0, count, size):
        n = min(size, count - lo)
        pos, cum_t = _draw(kernel, starts, t_max, n, rng)
        skey, mins, spans = box_keys(pos, n)
        del pos
        max_abs = max(max_abs, abs(int(mins.min())), abs(int((mins + spans - 1).max())))
        for walkers, weighted in sorted(subsets.items(), key=lambda item: item[0] == whole):
            if walkers == whole:
                draw = [cum_t, skey, mins, spans]
                del cum_t, skey
            else:
                rows = (np.arange(n)[:, None] * k + walkers).ravel()
                draw = [cum_t[rows], skey[rows], mins, spans]
            parts[walkers].append(_reduce(kernel, t_grid, draw, len(walkers),
                                          *((law, bias, box) if weighted else (None, None, None))))
    return {walkers: tuple(None if out[0] is None else np.concatenate(out) for out in zip(*chunks))
            for walkers, chunks in parts.items()}, max_abs


def _jumps_before(cum_t: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Per row of ``cum_t``, the count of its jumps, the last drawn one
    excluded, strictly before each of ``times``: ``np.searchsorted(row[:-1],
    times, side="left")`` row by row, ``times`` being (q,) for every row or
    (rows, q). One branchless lower bound over all rows at once, log2(m)
    gathers of a (rows, q) array."""
    rows, m = cum_t.shape
    flat = cum_t.ravel()
    times = np.broadcast_to(times, (rows, np.shape(times)[-1]))
    row_at = np.arange(0, rows * m, m)[:, None]
    at = np.repeat(row_at, times.shape[1], axis=1)
    n = m - 1
    while n > 1:   # the count lies in [at, at + n]
        half = n // 2
        at += half * (flat[at + half] < times)
        n -= half
    at += flat[at] < times
    at -= row_at
    return at


def _reduce(kernel, t_grid: np.ndarray, draw: list, k: int, law: DisorderLaw | None, bias,
            box: QuenchedBox | None = None):
    """Per-replica range counts, live riders and log path weights at every grid time.

    ``draw`` is [jump times, site keys, box corner, box spans] of k walkers
    per replica, row r being walker r % k of replica r // k, its keys those
    of ``kernel.box_keys``; it is emptied, so the arrays are freed as the
    reduction goes. ``bias`` is a field, or on a torus the checked per-site
    array; live riders are None for a single walker and the weights None
    without a law or a field. An annealed weight of a law with mass at zero
    is checked to be at least mass_at_zero ** |R_t|, and every weight to be
    at most 1. With a ``box``, a quenched weight at a grid time past tau,
    the death of the last-but-one rider (0 for one walker), is
    L_tau + log u(t - tau, z) wherever the box certifies u there, z the
    survivor's site at tau and L_tau the log weight of every rider up to tau.

    Interval c of a walker row is its stay at position c, from the c-th
    jump (time 0 for the start) to the next one. One search per row finds
    a[r, j], row r's jumps before grid time t_j, so that interval a[r, j]
    runs across t_j, and intervals 0..a[r, j] arrive before it. Each held
    interval is reduced once: a (replica, site) pair is in the range from
    the first grid index past any of its arrivals (starts count at index
    0), and its local time gets each interval's hold up to that index there,
    plus one increment per grid time an interval runs across; a cumulative
    sum over grid indices then gives l_t at every grid time.
    """
    cum_t, skey, mins, spans = draw
    draw.clear()
    n_grid, t_max = t_grid.size, float(t_grid[-1])
    rows, m = cum_t.shape
    count = rows // k

    a = _jumps_before(cum_t, t_grid)
    # cut every rider at its death, one of its own walker's jump times
    death = _coalesce(cum_t, skey, k, t_max)
    n_held = 1 + _jumps_before(cum_t, np.minimum(death, t_max)[:, None])[:, 0]
    if box is not None:
        alive = np.isinf(death).reshape(count, k)
        tau = np.where(alive.sum(axis=1) == 1,
                       np.where(alive, 0.0, death.reshape(count, k)).max(axis=1), np.inf)
        survivor = np.arange(count) * k + alive.argmax(axis=1)
        jumped = _jumps_before(cum_t[survivor], np.minimum(tau, t_max)[:, None])[:, 0]
        z = skey[survivor, jumped] + mins[0]
    # held intervals are a prefix of every row: those that arrive before t_max
    # and, for k > 1, before the rider's death
    held = np.arange(m) < n_held[:, None]
    # pair keys, replica * width + key - (the replica's least key), span only
    # the sites each replica's walks reach, so that the pair ids' table is as
    # narrow as the widest replica whatever the box
    least = skey.min(axis=1).reshape(count, k).min(axis=1)
    width = int((skey.max(axis=1).reshape(count, k).max(axis=1) - least).max()) + 1
    skey += np.repeat(np.arange(count, dtype=skey.dtype) * width - least, k)[:, None]
    uniq, inverse = _pair_ids(skey[:, :m][held], count * width)
    del skey
    n_pairs = uniq.size
    replica = np.floor_divide(uniq, width, dtype=np.intp)
    # first grid index past each held interval's arrival: a[r, j] + 1 of the
    # row's intervals arrive before t_j, so j is first for the difference
    first_held = np.repeat(
        np.tile(np.arange(n_grid, dtype=np.min_scalar_type(n_grid)), rows),
        np.diff(np.minimum(a + 1, n_held[:, None]), axis=1, prepend=0).ravel())
    first = np.full(n_pairs, n_grid - 1, dtype=first_held.dtype)
    if n_grid > 1:
        np.minimum.at(first, inverse, first_held)
    range_counts = np.bincount(replica * n_grid + first, minlength=count * n_grid)
    range_counts = range_counts.reshape(count, n_grid).cumsum(axis=1)
    del first
    particles = None
    if k > 1:
        particles = (death[:, None] > t_grid).reshape(count, k, n_grid).sum(axis=1)
    if law is None and bias is None:
        return range_counts, particles, None

    if bias is not None:   # the field once per distinct site
        sites, site_of = np.unique(uniq - replica * width + least[replica], return_inverse=True)
        coords = box_sites(sites, mins, spans)
        if isinstance(kernel, TorusKernel):
            beta = bias[kernel.flat_index(coords)]
        else:
            beta = bias_values(bias, map(tuple, coords.tolist()))
        beta = beta[site_of.ravel()]

    # hold of every held interval up to its first grid time, deposited there,
    # then one increment per grid time t_j, j < G - 1, an interval runs across:
    # its hold from t_j up to t_(j + 1). Flattened, each held interval arrives
    # when the one before it ends, or at time 0 at the start of a row, so a
    # hold is a difference of consecutive held jump times, except where an
    # interval runs across a grid time and ends there instead
    n_held_all = first_held.size
    row_start = np.cumsum(n_held) - n_held
    crossing = a < n_held[:, None]          # held intervals that run across a grid time
    cross_at = (row_start[:, None] + a)[crossing]
    kept = crossing[:, :-1]
    across_at = (row_start[:, None] + a[:, :-1])[kept]
    to_index = np.broadcast_to(np.arange(1, n_grid), kept.shape)[kept]
    nexts = cum_t[held]
    del cum_t, held
    deposit = np.empty(n_held_all + across_at.size)
    hold = deposit[:n_held_all]
    np.subtract(nexts[1:], nexts[:-1], out=hold[1:])
    hold[row_start] = nexts[row_start]
    arrival = np.where(a[crossing] == 0, 0.0, nexts[cross_at - 1])
    hold[cross_at] = np.minimum(nexts[cross_at], t_grid[first_held[cross_at]]) - arrival
    deposit[n_held_all:] = np.minimum(nexts[across_at], t_grid[to_index]) - t_grid[to_index - 1]
    if box is not None:   # every held interval's stay up to its replica's tau
        since = np.concatenate(([0.0], nexts[:-1]))
        since[row_start] = 0.0
        cut = np.repeat(np.repeat(tau, k), n_held)
        stay = np.maximum(np.minimum(nexts, cut) - since, 0.0)
        log_tau = -np.bincount(np.repeat(np.arange(rows) // k, n_held),
                               weights=beta[inverse] * stay, minlength=count)
        del since, cut, stay
    del nexts, hold, arrival
    # each deposit's entry of the (grid index, pair) table
    deposit_key = np.empty(deposit.size, dtype=np.intp)
    head = deposit_key[:n_held_all]
    np.multiply(first_held, n_pairs, out=head, dtype=np.intp)
    head += inverse
    deposit_key[n_held_all:] = to_index * n_pairs + inverse[across_at]
    del first_held, inverse, head

    # l_t table over (grid index, pair), a block of grid indices at a time so
    # that a block holds no more entries than there are held intervals
    logw = np.empty((count, n_grid))
    lt = np.zeros(n_pairs)
    block = max(1, deposit.size // n_pairs)
    for lo in range(0, n_grid, block):
        hi = min(n_grid, lo + block)
        if block >= n_grid:   # the only block: the deposits go with its table
            index, weights = deposit_key, deposit
            del deposit_key, deposit
        else:
            sel = (deposit_key >= lo * n_pairs) & (deposit_key < hi * n_pairs)
            index, weights = deposit_key[sel] - lo * n_pairs, deposit[sel]
        table = np.bincount(index, weights=weights, minlength=(hi - lo) * n_pairs)
        del index, weights
        table = table.reshape(hi - lo, n_pairs)
        table[0] += lt
        np.cumsum(table, axis=0, out=table)
        lt = table[-1].copy()
        if law is not None:
            terms = laplace(law, table)
            np.log(terms, out=terms)
        else:
            terms = -beta * table
        for j in range(lo, hi):
            logw[:, j] = np.bincount(replica, weights=terms[j - lo], minlength=count)
    if box is not None:
        late = np.flatnonzero(t_grid > tau[:, None])
        log_u = box.log_value((t_grid - tau[:, None]).ravel()[late], z[late // n_grid])
        exact = ~np.isnan(log_u)
        logw.ravel()[late[exact]] = log_tau[late[exact] // n_grid] + log_u[exact]
    if law is not None and law.mass_at_zero > 0.0:
        # laplace(law, l) >= mass_at_zero at every visited site
        if not np.all(logw >= math.log(law.mass_at_zero) * range_counts - _FLOOR_TOL):
            raise InvariantError("annealed path weight fell below the mass-at-zero floor")
    if not np.all(logw <= 1e-12):
        raise InvariantError("path weight left (0, 1]")
    return range_counts, particles, logw


def _batch_moments(args):
    (kernel, t_grid, starts, terms, seed, batch_index, count, law, bias, exponents, control,
     box) = args
    rng = np.random.default_rng(np.random.SeedSequence([seed, batch_index]))
    whole = tuple(range(len(starts)))
    subsets = dict.fromkeys((walkers for walkers, _ in terms), True)
    if exponents:   # the bound curves read the first start's own walk
        subsets.setdefault((0,), False)
    subsets.setdefault(whole, False)
    reduced, max_abs = _simulate_batch(kernel, t_grid, starts, count, rng, law, bias, subsets,
                                       box)
    range_counts, particles, _ = reduced[whole]
    moments = {"range": Moments.of(range_counts)}
    if particles is not None:
        moments["particles"] = Moments.of(particles)
    if control is not None:   # one term c H(., {x}): c (W - exp(-nu |R_t|)) on one walk
        (_, coeff), = terms
        moments["weight"] = Moments.of(
            coeff * (np.exp(reduced[whole][2]) - np.exp(-control * range_counts)))
    elif law is not None or bias is not None:
        moments["weight"] = Moments.of(
            sum(coeff * np.exp(reduced[walkers][2]) for walkers, coeff in terms))
    for nu in exponents:
        moments[("exp", nu)] = Moments.of(np.exp(-nu * reduced[(0,)][0]))
    return moments, max_abs


def walk_curve(kernel, t_grid, replicas: int, seed: int,
               law: DisorderLaw | None = None, exponents=(), threads: int = 1,
               starts=None, bias=None, control: float | None = None,
               box: QuenchedBox | None = None) -> WalkCurveStats:
    """Moments of range functionals and path weights over `replicas` replicas.

    ``kernel`` is a ``Kernel`` on Z^d or a ``TorusKernel``. ``starts`` lists
    the distinct start sites of a replica's walkers (default: the origin);
    with more than one, the walkers carry the coalescing dual (see the
    module docstring). Or ``starts`` maps subsets A of sites to c_A: one
    walker starts from each site of their union, and the weight is the
    per-replica sum of c_A w_A, w_A that of the dual from A on the same
    draw; range and live riders are those of the union. ``exponents`` lists
    nu values for which mean/stderr of exp(-nu |R_t|) are wanted, |R_t| the
    range of the first start's own walk. ``law`` switches on the annealed
    weight and ``bias`` (a field, or on a torus a per-site array) the
    quenched one. Every annealed weight of a law with mass at zero is
    checked, path by path, to be at least mass_at_zero ** |R_t|.
    ``control`` is a nu > 0 for an annealed observable c H(., {x}) of one
    site: each replica's weight sample becomes c (W - exp(-nu |R_t|)), so
    the weight moments are those of the difference and the caller adds
    c E exp(-nu |R_t|), known exactly, to the mean.
    ``box`` is a ``QuenchedBox`` of the quenched field, for the nearest-neighbor
    kernel on Z: each term's weight goes on exactly once one of its riders is
    left (see the module docstring).
    ``t_grid`` must pass ``stats.check_t_grid``; results keep its order.
    """
    if replicas < 2:
        raise ValueError("at least 2 replicas are required")
    if law is not None and bias is not None:
        raise ValueError("pass a disorder law or a bias field, not both")
    starts, terms = _expansion(kernel, starts)
    if control is not None and (law is None or len(starts) != 1 or len(terms) != 1):
        raise ValueError("a control variate needs a disorder law and a one-site observable")
    if box is not None and (bias is None or isinstance(kernel, TorusKernel) or kernel.dim != 1
                            or sorted(kernel.displacements[:, 0].tolist()) != [-1, 1]):
        raise ValueError("a quenched box needs a bias field and the nearest-neighbor kernel on Z")
    if bias is not None and isinstance(kernel, TorusKernel):
        bias = bias_array(bias, kernel)
    t_arr = np.asarray(check_t_grid(t_grid))
    exponents = tuple(float(x) for x in exponents)
    per_batch = max(1, BATCH_SIZE // len(starts))
    jobs = [(kernel, t_arr, starts, terms, seed, b, min(per_batch, replicas - b * per_batch),
             law, bias, exponents, control, box)
            for b in range((replicas + per_batch - 1) // per_batch)]

    totals: dict = {}
    max_abs = 0
    for moments, batch_max in map_batches(_batch_moments, jobs, threads):
        max_abs = max(max_abs, batch_max)
        for key, m in moments.items():
            totals[key] = totals[key].merge(m) if key in totals else m

    weight = totals.get("weight")
    return WalkCurveStats(
        range_mean=totals["range"].mean, range_stderr=totals["range"].stderr,
        weight_mean=None if weight is None else weight.mean,
        weight_stderr=None if weight is None else weight.stderr,
        exp_means={nu: totals[("exp", nu)].mean for nu in exponents},
        exp_stderrs={nu: totals[("exp", nu)].stderr for nu in exponents},
        max_abs_position=max_abs,
        particles_mean=(totals["particles"].mean if "particles" in totals
                        else np.ones_like(totals["range"].mean)))
