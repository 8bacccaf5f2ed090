"""Brute-force oracles on tiny state spaces.

Three exact computations back the Monte Carlo machinery:

* the full flip-rate generator of the forward dynamics on tori with at most
  12 sites, exponentiated by uniformization;
* the coalescing dual chain on subsets of such a torus, killed at the rate
  given by the total bias carried by the occupied sites; from one start set
  A, on the sets of at most |A| sites of a torus of any size;
* the distinct-sites functional E^0 exp(-nu |R_t|) of the one-dimensional
  nearest-neighbor walk, in closed form.

The closed form in the third item works because the visited set of a 1-d
nearest-neighbor walk is an interval: summing over the intervals that hold
it turns the functional into survival probabilities of the walk killed
outside an interval, which a sine series gives exactly.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import sparse
from scipy.special import gammaln, ive, pdtrc, xlogy

from .kernel import TorusKernel, bias_array, site_array
from .localfn import _subset_sums
from .stats import InvariantError, check_nu, check_t_grid, check_time

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
    "exact_range_functional_curve_1d",
]

MAX_EXACT_SITES = 12
SEMIGROUP_TOL = 1e-12   # bound on the uniformization truncation error


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


def semigroup_apply(generator, g, t: float) -> np.ndarray:
    """Apply exp(t * M) to a vector by uniformization.

    M must have nonnegative off-diagonal entries and nonpositive row sums
    (a generator, possibly killed). With rate L = max |diag|, the matrix
    P = I + M/L is substochastic, so ||P^k g||_inf <= ||g||_inf and the
    neglected Poisson tail mass bounds the truncation error by
    tail * ||g||_inf < SEMIGROUP_TOL.

    The transpose of a generator also qualifies: P^T contracts in l1 rather
    than sup norm, and for a point mass ||g||_1 = ||g||_inf = 1, so the same
    stopping rule bounds the l1 error of the evolved law.
    """
    t = check_time(t)
    g = np.asarray(g, dtype=np.float64).copy()
    diag = generator.diagonal()
    lam = float(np.max(-diag)) if diag.size else 0.0
    if t == 0.0 or lam <= 0.0:
        return g
    p = (sparse.identity(generator.shape[0], format="csr")
         + generator.multiply(1.0 / lam))
    mu = lam * t
    n_max = int(mu + 12.0 * np.sqrt(mu + 1.0) + 60.0)
    ks = np.arange(n_max + 1)
    pmf = np.exp(xlogy(ks, mu) - gammaln(ks + 1) - mu)   # Poisson(mu) weights
    gnorm = float(np.max(np.abs(g))) or 1.0
    acc = pmf[0] * g
    v = g
    covered = pmf[0]
    for k in range(1, n_max + 1):
        v = p @ v
        acc += pmf[k] * v
        covered += pmf[k]
        if (1.0 - covered) * gnorm < SEMIGROUP_TOL:
            break
    else:
        raise RuntimeError("uniformization truncation did not reach tolerance")
    return acc


def sites_to_mask(sites, tk: TorusKernel) -> int:
    """Bit mask of a torus site set (see ``kernel.site_array``), bit i the flat index i."""
    return sum(1 << i for i in tk.flat_index(site_array(tk, sites)).tolist())


def exact_dual_values_all(bias, tk: TorusKernel, t: float) -> np.ndarray:
    """E^A[exp(-integral of the kill rate)] for every subset A, as a vector."""
    mat = build_dual_matrix(bias, tk)
    ones = np.ones(mat.shape[0])
    return semigroup_apply(mat, ones, t)


def _dual_matrix_from(mask: int, bias, tk: TorusKernel) -> tuple[sparse.csr_matrix, int]:
    """``build_dual_matrix`` on the sets of at most |A| sites, A the set of ``mask``; A's row.

    The coalescing dual from A never holds more than |A| particles, so these
    sets are closed under its moves. The states are their bit masks in
    increasing order, at most 2 ** MAX_EXACT_SITES of them. A state is held
    as its sites in increasing order, the empty slots padded with n, and its
    row is its rank (``_set_rank``), so every move of every state is ranked
    at once.
    """
    n, size = tk.n_sites, mask.bit_count()
    count = sum(math.comb(n, j) for j in range(size + 1))
    if count > 1 << MAX_EXACT_SITES:
        raise ValueError(f"exact dual limited to {1 << MAX_EXACT_SITES} states, "
                         f"a set of {size} sites on {n} sites has {count}")
    # table[x, r]: the sets of at most r sites among sites 0..x-1, for x < n and
    # r <= size; 0 in the padding's row n and in the columns past size
    table = np.zeros((n + 1, 2 * size + 1), dtype=np.int64)
    table[:n, :size + 1] = np.cumsum(
        [[math.comb(x, j) for j in range(size + 1)] for x in range(n)], axis=1)
    dtype = np.min_scalar_type(n)
    sets = np.full((count, size), n, dtype=dtype)
    first = 1   # the empty set first
    for j in range(1, size + 1):
        combos = np.array(list(itertools.combinations(range(n), j)), dtype=dtype)
        sets[first:first + len(combos), :j] = combos
        first += len(combos)
    states = np.empty_like(sets)
    states[_set_rank(sets, table)] = sets

    beta = bias_array(bias, tk)
    partners, weights = tk.partner_table
    state, slot = np.nonzero(states < n)
    x = states[state, slot]
    state, slot = np.repeat(state, partners.shape[1]), np.repeat(slot, partners.shape[1])
    y = partners[x].ravel().astype(dtype)
    moved = states[state]
    merged = (moved == y[:, None]).any(axis=1)   # y occupied; partner tables hold no y == x
    moved[np.arange(len(state)), slot] = np.where(merged, n, y)
    moved.sort(axis=1)
    mat = sparse.coo_matrix((np.tile(weights, len(x)), (state, _set_rank(moved, table))),
                            shape=(count, count)).tocsr()
    diag = (-np.count_nonzero(states < n, axis=1) * weights.sum()
            - np.append(beta, 0.0)[states].sum(axis=1))
    start = np.array([[i for i in range(n) if mask >> i & 1]], dtype=dtype)
    return (mat + sparse.diags(diag)).tocsr(), int(_set_rank(start, table)[0])


def _set_rank(sets: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Rank of each set among the sets of at most r sites, in increasing bit-mask order.

    ``sets`` is (N, r), each row its sites increasing, then padded with n;
    ``table`` is ``_dual_matrix_from``'s. A set T comes before
    S = {s_1 < ... < s_j} when the largest site where they differ, s_i, is
    in S; such T agree with S above s_i and hold at most r - (j - i) sites
    below it, so the rank is the sum over i of table[s_i, r - j + i]. A
    padding slot reads 0 from the table's row n.
    """
    n, r = table.shape[0] - 1, sets.shape[1]
    j = np.count_nonzero(sets < n, axis=1)
    index = sets.astype(np.intp) * table.shape[1] + ((r - j)[:, None] + np.arange(1, r + 1))
    return table.ravel()[index].sum(axis=1)


def exact_dual_value(A, bias, tk: TorusKernel, t: float) -> float:
    """Exact killed-dual expectation started from the subset A.

    The dual runs over the sets of at most |A| sites only, on a torus of any
    size; more than 2 ** MAX_EXACT_SITES such sets raise ``ValueError``.
    """
    mat, row = _dual_matrix_from(sites_to_mask(A, tk), bias, tk)
    return float(semigroup_apply(mat, np.ones(mat.shape[0]), t)[row])


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


def _mean_range_1d(t: np.ndarray) -> np.ndarray:
    """E|R_t| of the rate-1 nearest-neighbor walk: e^-t [(1+2t) I0(t) + 2t I1(t)]."""
    return (1.0 + 2.0 * t) * ive(0, t) + 2.0 * t * ive(1, t)


def _range_truncation_bound(q: float, ts: np.ndarray, cap: int) -> np.ndarray:
    """(1-q) q^(cap+1) E(J-cap)^+, J ~ Poisson(t): the bound on what
    ``exact_range_functional_curve_1d`` neglects past ``cap`` at each time."""
    # E(J-cap)^+ = t P(J >= cap) - cap P(J > cap), since k P(J=k) = t P(J=k-1)
    excess = np.maximum(ts * pdtrc(cap - 1, ts) - cap * pdtrc(cap, ts), 0.0)
    return (1.0 - q) * q ** (cap + 1) * excess


def exact_range_functional_curve_1d(nu: float, t_grid, width_cap: int) -> np.ndarray:
    """E^0 exp(-nu |R_t|) for the 1-d nearest-neighbor walk on a time grid.

    With q = e^-nu and W = |R_t|, summation by parts gives
    F(t) = (1-q)^2 sum_{n>=1} q^n N_n(t), where N_n = E(n+1-W)^+ counts the
    length-n intervals holding the range. The sine series of the walk killed
    outside an interval gives N_n exactly for n <= width_cap; beyond it
    N_n = (n+1-E W) + E(W-n-1)^+ is summed in closed form from E W. The
    neglected remainder r obeys 0 <= r <= (1-q) q^(cap+1) E(J-cap)^+ with
    J ~ Poisson(t) the jump count, since W - 1 <= J; a ValueError is raised
    when that bound exceeds 1e-12 of F at some grid time. ``t_grid`` must
    pass ``stats.check_t_grid``.
    """
    check_nu(nu, positive=True)
    if width_cap < 1:
        raise ValueError("width_cap must be at least 1")
    ts = np.asarray(check_t_grid(t_grid))
    q = np.exp(-nu)
    cap = int(width_cap)
    # one term per interval length n <= cap and odd mode j <= n
    n, j = np.meshgrid(np.arange(1, cap + 1), np.arange(1, cap + 1, 2), indexing="ij")
    keep = j <= n
    n, j = n[keep], j[keep]
    theta = np.pi * j / (2.0 * n + 2.0)
    coef = (1.0 - q) ** 2 * q ** n * 2.0 / (n + 1.0) / np.tan(theta) ** 2
    rate = 2.0 * np.sin(theta) ** 2
    head = np.array([coef @ np.exp(-t * rate) for t in ts])
    tail = (1.0 - q) * q ** (cap + 1) * (cap + 2.0 + q / (1.0 - q) - _mean_range_1d(ts))
    out = head + tail
    bound = _range_truncation_bound(q, ts, cap)
    bad = np.flatnonzero(bound > 1e-12 * out)
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"width_cap={cap} too small for t={ts[i]}: the truncation bound "
            f"{bound[i]:.3g} exceeds 1e-12 of the sum {out[i]:.3g}")
    return out
