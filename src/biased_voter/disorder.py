"""Site-independent random bias laws and the constants they induce.

The bias of a site is a nonnegative number drawn i.i.d. from an atomic law.
All disorder averages used by the estimators reduce to two ingredients of the
law: the decay constants ``nu1`` (minus the log of the mean of 1/(1+bias))
and ``nu2`` (minus the log of the mass at bias zero), and the Laplace
transform of a single atom evaluated at a local time.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DisorderLaw",
    "BiasField",
    "LazyBiasField",
    "nu1",
    "nu2",
    "laplace",
    "sample_field",
    "bernoulli_law",
    "deterministic_law",
]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class DisorderLaw:
    """Finitely supported law of the per-site bias: pairs (bias, probability)."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((float(b), float(p)) for b, p in self.atoms)
        for b, p in atoms:
            if not (b >= 0.0 and math.isfinite(b)):
                raise ValueError(f"bias values must be finite and >= 0, got {b}")
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"atom probabilities must lie in [0, 1], got {p}")
        total = sum(p for _, p in atoms)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"atom probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "atoms", atoms)

    @property
    def bias_values(self) -> np.ndarray:
        return np.array([b for b, _ in self.atoms])

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms])

    @property
    def mean_bias(self) -> float:
        return float(sum(b * p for b, p in self.atoms))

    @property
    def mass_at_zero(self) -> float:
        return float(sum(p for b, p in self.atoms if b == 0.0))


def bernoulli_law(q: float, b: float) -> DisorderLaw:
    """Bias 0 with probability q, bias b with probability 1 - q."""
    return DisorderLaw(atoms=((0.0, q), (b, 1.0 - q)))


def deterministic_law(b: float) -> DisorderLaw:
    return DisorderLaw(atoms=((b, 1.0),))


def nu1(law: DisorderLaw) -> float:
    """-log of the mean of 1/(1+bias); rate constant of the upper bound.

    Nonnegative, zero exactly when all mass sits at bias 0.
    """
    return -math.log(sum(p / (1.0 + b) for b, p in law.atoms))


def nu2(law: DisorderLaw) -> float:
    """-log of the mass at bias 0; rate constant of the lower bound.

    Returns ``math.inf`` when the law has no mass at 0. Callers relying on
    the lower bound must check for the infinite sentinel.
    """
    mass0 = law.mass_at_zero
    if mass0 == 0.0:
        return math.inf
    return -math.log(mass0)


def laplace(law: DisorderLaw, u):
    """Laplace transform E[exp(-bias * u)] of a single atom; u may be an array.

    Decreasing in u, equal to 1 at u = 0, with limit mass_at_zero as u grows.
    The atoms are summed in order; a bias-0 atom adds its p, which is
    p * exp(-0 * u) exactly for finite u.
    """
    u_arr = np.asarray(u, dtype=np.float64)
    if np.any(u_arr < 0):
        raise ValueError("laplace transform argument must be >= 0")
    out = np.zeros_like(u_arr, dtype=np.float64)
    for b, p in law.atoms:
        if b == 0.0:
            out += p
            continue
        term = np.multiply(u_arr, -b, out=np.empty_like(u_arr))
        np.exp(term, out=term)
        term *= p
        out += term
    if np.isscalar(u) or u_arr.ndim == 0:
        return float(out)
    return out


def _draw_values(law: DisorderLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    cum = np.cumsum(law.probabilities)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, rng.random(n), side="right")
    return law.bias_values[idx]


class BiasField:
    """One realization of the bias: a nonnegative value per site.

    Sites are tuples of ints.
    """

    def __init__(self, values: dict[tuple[int, ...], float]):
        self.values = dict(values)

    def value(self, site: tuple[int, ...]) -> float:
        return self.values[site]


class LazyBiasField(BiasField):
    """Bias field on all of Z^d, materialized site by site on first access.

    The value at a site depends only on (disorder_seed, site), so replicas
    sharing a disorder seed see the same field regardless of query order.
    It is the value ``_draw_values`` gives from
    ``default_rng(SeedSequence([disorder_seed, d, *zig-zag coordinates]))``:
    that generator's first ``random()`` is the top 53 bits of its PCG64's
    first raw output over 2 ** 53, found in the law's cumulative list.
    """

    def __init__(self, law: DisorderLaw, disorder_seed: int):
        super().__init__({})
        self.law = law
        self.disorder_seed = int(disorder_seed)
        cum = np.cumsum(law.probabilities)
        cum[-1] = 1.0
        self._cum = cum.tolist()
        self._biases = law.bias_values.tolist()

    def value(self, site: tuple[int, ...]) -> float:
        site = tuple(int(c) for c in site)
        cached = self.values.get(site)
        if cached is not None:
            return cached
        # zig-zag map coordinates to nonnegative ints for SeedSequence entropy
        coded = [2 * c if c >= 0 else -2 * c - 1 for c in site]
        raw = np.random.PCG64(
            np.random.SeedSequence([self.disorder_seed, len(coded), *coded])).random_raw()
        val = self._biases[bisect.bisect_right(self._cum, (raw >> 11) * 2.0 ** -53)]
        self.values[site] = val
        return val


def sample_field(law: DisorderLaw, sites, rng: np.random.Generator) -> BiasField:
    """Draw an i.i.d. bias value for each listed site."""
    site_list = [tuple(int(c) for c in s) for s in sites]
    vals = _draw_values(law, len(site_list), rng)
    return BiasField(dict(zip(site_list, vals.tolist())))
