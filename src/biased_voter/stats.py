"""Order-insensitive moment accumulation for replica-parallel estimators.

Batches contribute (count, mean, sum of squared deviations) per grid time
and are merged with the pairwise update, which avoids the catastrophic
cancellation of naive sum-of-squares accumulation: estimators whose path
weight is deterministic really do report a vanishing standard error.
Merging in a fixed batch order keeps results bitwise reproducible for any
worker count; ``map_batches`` runs the batch jobs of every engine in that
order. ``check_t_grid``, ``check_nu`` and ``check_seed`` are the one rule
for the time grid, the range weight nu and a seed of every engine and
oracle; they raise ``ConfigError`` (exit code 2), and an estimator whose
audited pathwise identity fails raises ``InvariantError`` (exit code 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ConfigError", "InvariantError", "Moments"]


class ConfigError(ValueError):
    """Invalid experiment description; message carries the config line."""


class InvariantError(RuntimeError):
    """An audited invariant of a simulation engine failed (a bug, not bad input).

    Raised explicitly rather than by ``assert``, so ``python -O`` keeps the
    check; the command line maps it to exit code 3.
    """


def check_t_grid(times) -> tuple[float, ...]:
    """``times`` as floats, once they are nonempty, finite, strictly increasing and nonnegative."""
    times = tuple(float(t) for t in times)
    if len(times) == 0:
        raise ConfigError("t_grid must not be empty")
    if not all(math.isfinite(t) for t in times):
        raise ConfigError("t_grid times must be finite")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("t_grid must be strictly increasing")
    if any(t < 0 for t in times):
        raise ConfigError("t_grid times must be nonnegative")
    return times


def check_nu(nu, positive: bool = False) -> float:
    """``nu`` as a float, once given, finite and nonnegative (positive if ``positive``)."""
    if nu is None or not (math.isfinite(nu) and (nu > 0 if positive else nu >= 0)):
        sign = "positive" if positive else "nonnegative"
        raise ConfigError(f"nu must be finite and {sign}, got {nu}")
    return float(nu)


def check_seed(seed, key: str = "seed") -> int:
    """``seed``, once a nonnegative 63-bit integer; the error names ``key``."""
    if not 0 <= seed < 2 ** 63:
        raise ConfigError(f"{key} must be a nonnegative 63-bit integer, got {seed}")
    return seed


def check_time(t, since: float = 0.0) -> float:
    """A time to advance to or run for, as a float, once finite and not before ``since``."""
    t = float(t)
    if not since <= t < math.inf:   # false for nan too
        raise ValueError(f"time {t!r} must be finite and not before {since!r}: "
                         "cannot advance backwards or forever")
    return t


@dataclass
class Moments:
    """Per-time running moments: count, mean, and sum of squared deviations."""

    n: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray) -> "Moments":
        """Moments of a (replicas, n_times) batch of samples."""
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        mean = values.mean(axis=0)
        m2 = ((values - mean) ** 2).sum(axis=0)
        return cls(n=values.shape[0], mean=mean, m2=m2)

    @classmethod
    def zeros(cls, n_times: int) -> "Moments":
        return cls(n=0, mean=np.zeros(n_times), m2=np.zeros(n_times))

    def merge(self, other: "Moments") -> "Moments":
        if self.n == 0:
            return other
        if other.n == 0:
            return self
        n = self.n + other.n
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.n / n)
        m2 = self.m2 + other.m2 + delta ** 2 * (self.n * other.n / n)
        return Moments(n=n, mean=mean, m2=m2)

    @property
    def variance(self) -> np.ndarray:
        if self.n < 2:
            return np.full_like(self.mean, np.nan)
        return self.m2 / (self.n - 1)

    @property
    def stderr(self) -> np.ndarray:
        return np.sqrt(self.variance / self.n)


def map_batches(fn, jobs, threads: int = 1) -> list:
    """``[fn(job) for job in jobs]``, in up to ``threads`` worker processes when > 1.

    No more workers start than there are jobs. Results come back in job
    order whatever the worker count, so merging them in that order is
    reproducible.
    """
    if threads > 1:
        from concurrent import futures   # a single-process run never loads it
        with futures.ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]
