"""Vectorized statistics of single continuous-time random walks on Z^d.

A walk jumps at rate 1 with displacements drawn from a kernel. For a batch
of independent walks this module accumulates, at every grid time, the number
of distinct visited sites and (optionally) the log of the annealed weight
prod_x E[exp(-bias * l_t(x))], where l_t(x) is the occupation time of site x
and the expectation integrates an i.i.d. bias law out site by site.

Walks are processed in fixed-size batches with per-batch seed streams, so
results are bitwise independent of the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderLaw, laplace
from .kernel import Kernel
from .stats import InvariantError, Moments

__all__ = ["WalkCurveStats", "walk_curve"]

BATCH_SIZE = 2048
_FLOOR_TOL = 1e-9


@dataclass
class WalkCurveStats:
    """Per-time moments of walk functionals over all replicas."""

    t_grid: np.ndarray
    replicas: int
    range_mean: np.ndarray
    range_stderr: np.ndarray
    weight_mean: np.ndarray | None      # annealed weight, when a law was given
    weight_stderr: np.ndarray | None
    exp_means: dict[float, np.ndarray]  # nu -> mean of exp(-nu * |R_t|)
    exp_stderrs: dict[float, np.ndarray]
    max_abs_position: int               # largest coordinate magnitude seen


def _sampling_arrays(kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    cum = np.cumsum(kernel.weights)
    cum[-1] = 1.0
    return kernel.displacements, cum


def _simulate_batch(kernel: Kernel, t_grid: np.ndarray, count: int,
                    rng: np.random.Generator, law: DisorderLaw | None):
    """Per-walker range counts and log annealed weights at every grid time."""
    t_max = float(t_grid[-1])
    disp, cum = _sampling_arrays(kernel)
    d = kernel.dim

    m0 = max(4, int(t_max + 6.0 * math.sqrt(t_max + 1.0) + 16.0))
    cum_t = np.cumsum(rng.exponential(size=(count, m0)), axis=1)
    while cum_t[:, -1].min() <= t_max:
        extra = np.cumsum(rng.exponential(size=(count, 64)), axis=1)
        cum_t = np.hstack([cum_t, cum_t[:, -1:] + extra])
    m = cum_t.shape[1]

    idx = np.searchsorted(cum, rng.random((count, m)))
    pos = np.concatenate(
        [np.zeros((count, 1, d), dtype=np.int64), np.cumsum(disp[idx], axis=1)], axis=1)
    arrivals = np.concatenate([np.zeros((count, 1)), cum_t], axis=1).ravel()
    nexts = np.concatenate([cum_t, np.full((count, 1), np.inf)], axis=1).ravel()

    mins = pos.min(axis=(0, 1))
    maxs = pos.max(axis=(0, 1))
    max_abs = int(max(abs(int(mins.min())), abs(int(maxs.max()))))
    spans = (maxs - mins + 1).astype(np.int64)
    n_keys = 1
    for s in spans:
        n_keys *= int(s)
    if count * n_keys >= 1 << 62:
        raise RuntimeError("site key space overflow; reduce batch size")
    rel = pos - mins
    skey = rel[..., 0].astype(np.int64)
    for a in range(1, d):
        skey = skey * spans[a] + rel[..., a]
    keys = (np.arange(count, dtype=np.int64)[:, None] * n_keys + skey).ravel()

    uniq, inverse = np.unique(keys, return_inverse=True)
    inverse = inverse.ravel()
    n_pairs = uniq.size
    walker_of = (uniq // n_keys).astype(np.int64)
    started = arrivals == 0.0

    nt = t_grid.size
    range_counts = np.empty((count, nt), dtype=np.int64)
    logw = np.empty((count, nt)) if law is not None else None
    for j, tj in enumerate(t_grid):
        hold = np.minimum(nexts, tj) - arrivals
        np.clip(hold, 0.0, None, out=hold)
        visited_pairs = np.zeros(n_pairs, dtype=bool)
        visited_pairs[inverse[started | (arrivals < tj)]] = True
        range_counts[:, j] = np.bincount(
            walker_of[visited_pairs], minlength=count)
        if law is not None:
            lt = np.bincount(inverse, weights=hold, minlength=n_pairs)
            logw[:, j] = np.bincount(
                walker_of, weights=np.log(laplace(law, lt)), minlength=count)
    return range_counts, logw, max_abs


def _batch_moments(args):
    kernel, t_grid, seed, batch_index, count, law, exponents, floor_nu = args
    rng = np.random.default_rng(np.random.SeedSequence([seed, batch_index]))
    range_counts, logw, max_abs = _simulate_batch(kernel, t_grid, count, rng, law)
    if logw is not None and floor_nu is not None and math.isfinite(floor_nu):
        floor = -floor_nu * range_counts - _FLOOR_TOL
        if not np.all(logw >= floor):
            raise InvariantError(
                "annealed path weight fell below the mass-at-zero floor")
    moments = {"range": Moments.of(range_counts)}
    if logw is not None:
        assert np.all(logw <= 1e-12), "annealed path weight left (0, 1]"
        moments["weight"] = Moments.of(np.exp(logw))
    for nu in exponents:
        moments[("exp", nu)] = Moments.of(np.exp(-nu * range_counts))
    return moments, max_abs


def walk_curve(kernel: Kernel, t_grid, replicas: int, seed: int,
               law: DisorderLaw | None = None, exponents=(),
               floor_nu: float | None = None, threads: int = 1) -> WalkCurveStats:
    """Moments of range functionals of `replicas` independent walks.

    ``exponents`` lists nu values for which mean/stderr of exp(-nu |R_t|)
    are wanted; ``law`` switches on the annealed weight; ``floor_nu`` (the
    mass-at-zero rate of the law) enables the pathwise check that every
    annealed weight is at least exp(-floor_nu |R_t|).
    """
    if replicas < 2:
        raise ValueError("at least 2 replicas are required")
    t_arr = np.asarray(sorted(float(t) for t in t_grid))
    exponents = tuple(float(x) for x in exponents)
    n_batches = (replicas + BATCH_SIZE - 1) // BATCH_SIZE
    jobs = []
    for b in range(n_batches):
        count = min(BATCH_SIZE, replicas - b * BATCH_SIZE)
        jobs.append((kernel, t_arr, seed, b, count, law, exponents, floor_nu))
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_batch_moments, jobs))
    else:
        parts = [_batch_moments(job) for job in jobs]

    nt = t_arr.size
    totals: dict = {}
    max_abs = 0
    for moments, batch_max in parts:
        max_abs = max(max_abs, batch_max)
        for key, m in moments.items():
            totals[key] = totals[key].merge(m) if key in totals else m
    del nt

    range_mean, range_stderr = totals["range"].mean, totals["range"].stderr
    weight_mean = weight_stderr = None
    if law is not None:
        weight_mean, weight_stderr = totals["weight"].mean, totals["weight"].stderr
    exp_means, exp_stderrs = {}, {}
    for nu in exponents:
        exp_means[nu] = totals[("exp", nu)].mean
        exp_stderrs[nu] = totals[("exp", nu)].stderr
    return WalkCurveStats(
        t_grid=t_arr, replicas=replicas,
        range_mean=range_mean, range_stderr=range_stderr,
        weight_mean=weight_mean, weight_stderr=weight_stderr,
        exp_means=exp_means, exp_stderrs=exp_stderrs,
        max_abs_position=max_abs)
