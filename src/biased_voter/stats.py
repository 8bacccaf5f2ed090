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

import ctypes
import functools
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


_NO_EXPONENT = -4096   # the scale exponent of an all-zero time: any other wins a merge
_MIN_EXPONENT = -1021  # the smallest scale exponent of a nonzero time


@dataclass
class Moments:
    """Per-time running moments: count, mean, and sum of squared deviations.

    Each time's mean and sum are held over a power of two, 2 ** ``exponent``,
    the exponent of the largest |value| in the batch, and a merge rescales
    to the larger exponent. Scaling by a power of two is exact, so samples
    in normal range give the same bits as unscaled sums, and samples far
    below it (path weights of 1e-170, say) keep a stderr whose square would
    underflow. A time whose samples are all equal has that value as its
    mean and no spread.
    """

    n: int
    scaled_mean: np.ndarray
    scaled_m2: np.ndarray
    exponent: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray) -> "Moments":
        """Moments of a (replicas, n_times) batch of samples."""
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        by_time = np.ascontiguousarray(values.T)   # min and max run fastest along rows
        low, high = by_time.min(axis=1), by_time.max(axis=1)
        top = np.maximum(high, -low)
        # 2 ** -exponent stays finite: the scale of the smallest subnormals is capped
        exponent = np.where(top == 0, _NO_EXPONENT, np.maximum(np.frexp(top)[1], _MIN_EXPONENT))
        scale = np.ldexp(1.0, -np.maximum(exponent, _MIN_EXPONENT))
        mean = values.mean(axis=0)
        deviations = values - mean
        deviations *= scale   # before squaring, so that no square underflows
        m2 = np.square(deviations, out=deviations).sum(axis=0)
        constant = low == high
        return cls(n=values.shape[0], scaled_mean=np.where(constant, low, mean) * scale,
                   scaled_m2=np.where(constant, 0.0, m2), exponent=exponent)

    @classmethod
    def zeros(cls, n_times: int) -> "Moments":
        return cls(n=0, scaled_mean=np.zeros(n_times), scaled_m2=np.zeros(n_times),
                   exponent=np.full(n_times, _NO_EXPONENT))

    def merge(self, other: "Moments") -> "Moments":
        if self.n == 0:
            return other
        if other.n == 0:
            return self
        n = self.n + other.n
        exponent = np.maximum(self.exponent, other.exponent)
        a_mean, a_m2 = self._at(exponent)
        b_mean, b_m2 = other._at(exponent)
        delta = b_mean - a_mean
        mean = a_mean + delta * (other.n / n)
        m2 = a_m2 + b_m2 + delta ** 2 * (self.n * other.n / n)
        return Moments(n=n, scaled_mean=mean, scaled_m2=m2, exponent=exponent)

    def _at(self, exponent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The scaled mean and sum over 2 ** ``exponent`` instead of 2 ** self.exponent."""
        shift = self.exponent - exponent
        return np.ldexp(self.scaled_mean, shift), np.ldexp(self.scaled_m2, 2 * shift)

    @property
    def mean(self) -> np.ndarray:
        return np.ldexp(self.scaled_mean, self.exponent)

    @property
    def stderr(self) -> np.ndarray:
        if self.n < 2:
            return np.full_like(self.scaled_mean, np.nan)
        return np.ldexp(np.sqrt(self.scaled_m2 / (self.n - 1) / self.n), self.exponent)


@functools.cache
def keep_freed_pages() -> None:
    """Pin glibc's malloc thresholds at the ceiling of its own dynamic rule.

    Arrays below 32 MiB (glibc's largest dynamic mmap threshold on 64-bit)
    come from the heap, and up to 64 MiB of freed heap top (twice that, as
    the dynamic rule sets it) stays mapped, so a walk chunk reuses the pages
    of the one before instead of faulting them in again. Results do not
    change. Once per process; a no-op where libc has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


def map_batches(fn, jobs, threads: int = 1) -> list:
    """``[fn(job) for job in jobs]``, in up to ``threads`` worker processes when > 1.

    No more workers start than there are jobs, each under ``keep_freed_pages``.
    Results come back in job order whatever the worker count, so merging them
    in that order is reproducible.
    """
    if threads > 1:
        from concurrent import futures   # a single-process run never loads it
        with futures.ProcessPoolExecutor(max_workers=min(threads, len(jobs)),
                                         initializer=keep_freed_pages) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]
