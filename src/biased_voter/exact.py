"""Brute-force oracles on tiny state spaces.

Three exact computations back the Monte Carlo machinery:

* the full flip-rate generator of the forward dynamics on tori with at most
  12 sites, exponentiated by uniformization;
* the coalescing dual chain on subsets of such a torus, killed at the rate
  given by the total bias carried by the occupied sites;
* the distinct-sites functional E^0 exp(-nu |R_t|) of the one-dimensional
  nearest-neighbor walk, computed from the lumped (offset, width) chain.

The lumping in the third item works because the law of the visited set of a
1-d nearest-neighbor walk depends on the path only through the walker's
position relative to the visited interval.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.stats import norm, poisson

from .kernel import TorusKernel, bias_array
from .localfn import _subset_sums
from .stats import InvariantError

__all__ = [
    "MAX_EXACT_SITES",
    "build_forward_generator",
    "build_dual_matrix",
    "semigroup_apply",
    "exact_dual_value",
    "exact_dual_values_all",
    "exact_forward_values_all",
    "duality_gap",
    "product_indicator_vector",
    "exact_range_functional_1d",
    "exact_range_functional_curve_1d",
]

MAX_EXACT_SITES = 12


def build_forward_generator(bias, tk: TorusKernel) -> sparse.csr_matrix:
    """Rate matrix of the biased voter dynamics on a torus of <= 12 sites.

    States are configurations (bit masks). Off-diagonal entry (s, s^x) is the
    flip rate of site x in s: beta(x) when s(x) = 1 plus the folded kernel
    mass on disagreeing partners. Rows sum to zero.
    """
    n = tk.n_sites
    if n > MAX_EXACT_SITES:
        raise ValueError(f"exact generator limited to {MAX_EXACT_SITES} sites, got {n}")
    beta = bias_array(bias, tk)
    partners, weights = tk.partner_table
    states = np.arange(1 << n, dtype=np.int64)
    data, rows, cols = [], [], []
    for x in range(n):
        bit_x = (states >> x) & 1
        rate = beta[x] * bit_x.astype(float)
        for j in range(partners.shape[1]):
            y = partners[x, j]
            bit_y = (states >> y) & 1
            rate = rate + weights[j] * (bit_x ^ bit_y)
        rows.append(states)
        cols.append(states ^ (1 << x))
        data.append(rate)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.concatenate(data)
    mat = sparse.coo_matrix((data, (rows, cols)), shape=(1 << n, 1 << n)).tocsr()
    diag = -np.asarray(mat.sum(axis=1)).ravel()
    mat = (mat + sparse.diags(diag)).tocsr()
    row_sums = np.abs(np.asarray(mat.sum(axis=1)).ravel())
    if row_sums.max() > 1e-12 * max(1.0, np.abs(mat.data).max()):
        raise InvariantError("forward generator rows must sum to zero")
    return mat


def build_dual_matrix(bias, tk: TorusKernel) -> sparse.csr_matrix:
    """Coalescing-dual generator minus the diagonal kill rates.

    States are subsets of the torus (bit masks). Each occupied site jumps at
    total rate 1 through the folded kernel; landing on an occupied site
    merges the two particles. The diagonal carries both the jump-out rate
    and the total bias of the occupied sites, so rows sum to -V(state).
    """
    n = tk.n_sites
    if n > MAX_EXACT_SITES:
        raise ValueError(f"exact dual limited to {MAX_EXACT_SITES} sites, got {n}")
    beta = bias_array(bias, tk)
    partners, weights = tk.partner_table
    move_total = weights.sum()
    states = np.arange(1 << n, dtype=np.int64)
    data, rows, cols = [], [], []
    for x in range(n):
        bit_x = (states >> x) & 1
        occupied = states[bit_x == 1]
        for j in range(partners.shape[1]):
            y = partners[x, j]
            without_x = occupied & ~(1 << x)
            target = without_x | (1 << y)  # equals without_x when y occupied
            rows.append(occupied)
            cols.append(target)
            data.append(np.full(occupied.shape[0], weights[j]))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.concatenate(data)
    mat = sparse.coo_matrix((data, (rows, cols)), shape=(1 << n, 1 << n)).tocsr()
    bits = ((states[:, None] >> np.arange(n)) & 1).astype(np.float64)
    diag = -bits.sum(axis=1) * move_total - bits @ beta
    return (mat + sparse.diags(diag)).tocsr()


def semigroup_apply(generator, g, t: float, tol: float = 1e-12) -> np.ndarray:
    """Apply exp(t * M) to a vector by uniformization.

    M must have nonnegative off-diagonal entries and nonpositive row sums
    (a generator, possibly killed). With rate L = max |diag|, the matrix
    P = I + M/L is substochastic, so ||P^k g||_inf <= ||g||_inf and the
    neglected Poisson tail mass bounds the truncation error by
    tail * ||g||_inf < tol.

    The transpose of a generator also qualifies: P^T contracts in l1 rather
    than sup norm, and for a point mass ||g||_1 = ||g||_inf = 1, so the same
    stopping rule bounds the l1 error of the evolved law.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    g = np.asarray(g, dtype=np.float64).copy()
    diag = generator.diagonal()
    lam = float(np.max(-diag)) if diag.size else 0.0
    if t == 0.0 or lam <= 0.0:
        return g
    p = (sparse.identity(generator.shape[0], format="csr")
         + generator.multiply(1.0 / lam))
    mu = lam * t
    n_max = int(mu + 12.0 * np.sqrt(mu + 1.0) + 60.0)
    pmf = poisson.pmf(np.arange(n_max + 1), mu)
    gnorm = float(np.max(np.abs(g))) or 1.0
    acc = pmf[0] * g
    v = g
    covered = pmf[0]
    for k in range(1, n_max + 1):
        v = p @ v
        acc += pmf[k] * v
        covered += pmf[k]
        if (1.0 - covered) * gnorm < tol:
            break
    else:
        if (1.0 - covered) * gnorm >= tol:
            raise RuntimeError("uniformization truncation did not reach tolerance")
    return acc


def sites_to_mask(sites, tk: TorusKernel) -> int:
    """Bit mask of a collection of torus sites (tuples or flat indices)."""
    shape = (tk.side,) * tk.dim
    mask = 0
    for s in sites:
        if isinstance(s, (int, np.integer)):
            flat = int(s)
        else:
            flat = int(np.ravel_multi_index(tuple(int(c) % tk.side for c in s), shape))
        mask |= 1 << flat
    return mask


def exact_dual_values_all(bias, tk: TorusKernel, t: float) -> np.ndarray:
    """E^A[exp(-integral of the kill rate)] for every subset A, as a vector."""
    mat = build_dual_matrix(bias, tk)
    ones = np.ones(mat.shape[0])
    return semigroup_apply(mat, ones, t)


def exact_dual_value(A, bias, tk: TorusKernel, t: float) -> float:
    """Exact killed-dual expectation started from the subset A."""
    return float(exact_dual_values_all(bias, tk, t)[sites_to_mask(A, tk)])


def product_indicator_vector(n_sites: int, subset_mask: int) -> np.ndarray:
    """Vector of H(s, A) = 1 iff configuration s is 1 on all of A."""
    states = np.arange(1 << n_sites, dtype=np.int64)
    return ((states & subset_mask) == subset_mask).astype(np.float64)


def exact_forward_values_all(bias, tk: TorusKernel, t: float) -> np.ndarray:
    """E[H(eta_t, A)] from the all-ones start for every subset A, as a vector.

    One adjoint uniformization evolves the all-ones point mass to the law of
    eta_t; superset sums of that law give every product-indicator
    expectation at once.
    """
    n = tk.n_sites
    gen = build_forward_generator(bias, tk)
    start = np.zeros(1 << n)
    start[-1] = 1.0
    law = semigroup_apply(gen.T.tocsr(), start, t)
    return _subset_sums(law[::-1], n)[::-1]


def duality_gap(bias, tk: TorusKernel, t: float) -> float:
    """Max over nonempty A of |forward - killed dual| at time t."""
    diff = exact_forward_values_all(bias, tk, t) - exact_dual_values_all(bias, tk, t)
    return float(np.max(np.abs(diff[1:])))


# ---------------------------------------------------------------------------
# Exact 1-d range functional
# ---------------------------------------------------------------------------


def _check_width_cap(t: float, width_cap: int):
    """Gaussian surrogate for P(width at time t > cap) < 1e-12.

    Uses the Brownian asymptotics for the visited-interval width (mean
    sqrt(8t/pi), variance (4 log 2 - 8/pi) t). Heuristic rather than a
    large-deviation bound, but paths that do exceed the cap carry weight at
    most exp(-nu*(cap+1)), so the discarded mass is doubly negligible for
    the nu used in practice.
    """
    mean = np.sqrt(8.0 * t / np.pi)
    sd = np.sqrt((4.0 * np.log(2.0) - 8.0 / np.pi) * t)
    if sd == 0.0:
        return
    if norm.sf((width_cap - mean) / sd) >= 1e-12:
        raise ValueError(
            f"width_cap={width_cap} too small for t={t}: widen the cap "
            f"(visited width is about {mean:.1f} +- {sd:.1f})")


def _width_mass_series(nu: float, width_cap: int, n_steps: int) -> np.ndarray:
    """Total weighted mass S_k = E[exp(-nu * width) after k jumps].

    Evolves the weighted occupation panel phi[w, j] of the lumped chain one
    embedded jump at a time; width increments multiply the weight by
    exp(-nu). Mass beyond the cap is discarded.
    """
    decay = np.exp(-nu)
    cap = width_cap
    phi = np.zeros((cap + 1, cap + 1))
    phi[1, 0] = decay  # the start site is already visited
    interior_right = np.zeros((cap + 1, cap + 1), dtype=bool)
    for w in range(1, cap + 1):
        interior_right[w, : max(w - 1, 0)] = True
    diag_rows = np.arange(1, cap)
    series = np.empty(n_steps + 1)
    series[0] = phi.sum()
    for k in range(1, n_steps + 1):
        new = np.zeros_like(phi)
        new[:, :-1] += 0.5 * phi[:, 1:]
        new[:, 1:] += 0.5 * np.where(interior_right, phi, 0.0)[:, :-1]
        new[2:, 0] += 0.5 * decay * phi[1:-1, 0]
        new[diag_rows + 1, diag_rows] += 0.5 * decay * phi[diag_rows, diag_rows - 1]
        phi = new
        series[k] = phi.sum()
    return series


def exact_range_functional_curve_1d(nu: float, t_grid, width_cap: int) -> np.ndarray:
    """E^0 exp(-nu |R_t|) for the 1-d nearest-neighbor walk on a time grid.

    Exact up to the documented truncations: the Poisson tail of the jump
    count (below 1e-12 of the value) and the width cap (checked against the
    largest grid time). F(0) = exp(-nu) since the start site counts.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    t_arr = np.asarray(t_grid, dtype=np.float64)
    if np.any(t_arr < 0):
        raise ValueError("times must be nonnegative")
    t_max = float(t_arr.max()) if t_arr.size else 0.0
    _check_width_cap(t_max, width_cap)
    n_steps = int(t_max + 12.0 * np.sqrt(t_max + 1.0) + 60.0)
    series = _width_mass_series(nu, width_cap, n_steps)
    ks = np.arange(n_steps + 1)
    out = np.empty(t_arr.shape)
    for i, t in enumerate(t_arr.ravel()):
        out.ravel()[i] = float(np.dot(poisson.pmf(ks, t), series))
    return out


def exact_range_functional_1d(nu: float, t: float, width_cap: int) -> float:
    """Single-time version of the exact 1-d range functional."""
    return float(exact_range_functional_curve_1d(nu, [t], width_cap)[0])
