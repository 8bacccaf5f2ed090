"""Brute-force oracles on tiny state spaces.

Three exact computations back the Monte Carlo machinery:

* the full flip-rate generator of the forward dynamics on tori with at most
  12 sites, exponentiated by uniformization;
* the coalescing dual chain on the sets of at most k sites of a torus of any
  size, killed at the rate given by the total bias carried by the occupied
  sites: every subset, or k = |A| from a start set A; at most 4096 states;
* the distinct-sites functional E^0 exp(-nu |R_t|) of the one-dimensional
  nearest-neighbor walk, in closed form.

The closed form in the third item works because the visited set of a 1-d
nearest-neighbor walk is an interval: summing over the intervals that hold
it turns the functional into survival probabilities of the walk killed
outside an interval, which a sine series gives exactly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.special import ive, pdtrc

from .kernel import TorusKernel, bias_array, site_array
from .localfn import _subset_sums
from .stats import InvariantError, check_nu, check_t_grid, check_time
from .walks import _poisson_weights, _uniformize

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
    sites = np.arange(n)[:, None]
    bits = (states >> sites) & 1   # bits[x, s] = s(x)
    rate = beta[:, None] * bits
    for j in range(partners.shape[1]):
        rate = rate + weights[j] * (bits ^ bits[partners[:, j]])
    # a CSR row: the state's n flips, then its diagonal
    data = np.vstack([rate, -rate.sum(axis=0)]).T.ravel()
    cols = np.vstack([states ^ (1 << sites), states]).T.ravel()
    mat = sparse.csr_matrix((data, cols, np.arange(0, data.size + 1, n + 1)),
                            shape=(1 << n, 1 << n))
    row_sums = np.abs(np.asarray(mat.sum(axis=1)).ravel())
    if row_sums.max() > 1e-12 * max(1.0, np.abs(mat.data).max()):
        raise InvariantError("forward generator rows must sum to zero")
    return mat


def build_dual_matrix(bias, tk: TorusKernel, size: int | None = None) -> sparse.csr_matrix:
    """Coalescing-dual generator minus the diagonal kill rates, on the sets of <= ``size`` sites.

    Each occupied site jumps at total rate 1 through the folded kernel;
    landing on an occupied site merges the two particles. The diagonal carries
    both the jump-out rate and the total bias of the occupied sites, so rows
    sum to -V(state). A dual from k sites stays on the sets of at most k sites:
    the states, in increasing bit-mask order (by default every subset, row i
    the set of mask i), at most 2 ** MAX_EXACT_SITES of them.

    A state is its sites by slot, highest first, -1 past its end; its row is
    its rank (``_set_rank``). Dropping x raises the rank terms of the sites
    below x; adding y to that smaller state adds y's term and lowers the terms
    below y. Prefix sums over the slots rank every move at once, none sorted.
    """
    n = tk.n_sites
    k = n if size is None else size
    count = sum(math.comb(n, j) for j in range(k + 1))
    if count > 1 << MAX_EXACT_SITES:
        raise ValueError(f"exact dual limited to {1 << MAX_EXACT_SITES} states, "
                         f"the sets of at most {k} of {n} sites number {count}")
    beta = bias_array(bias, tk)
    partners, weights = tk.partner_table
    # binom[c, x] = C(x, c); table[c, x]: the sets of <= c sites among 0..x-1; -1 reads 0
    binom = np.array([[math.comb(x, c) for x in range(n)] + [0] for c in range(k + 2)])
    table = binom.cumsum(axis=0)
    # sets[i, r]: the site of state r with i sites above it, unranked greedily; term[i, r]: its
    # share of r; rise[i], fall[i]: the rises C(s, k - i + 1) and falls C(s, k - i) above slot i
    sets, term = np.empty((2, k, count), dtype=np.intp)
    rise, fall = np.zeros((2, k + 1, count), dtype=np.intp)
    rest = np.arange(count)
    for i in range(k):
        site = np.searchsorted(table[k - i, :n], rest, side="right") - 1
        sets[i], term[i] = site, table[k - i].take(site)
        rest -= term[i]
        np.add(rise[i], binom[k + 1 - i].take(site), out=rise[i + 1])
        np.add(fall[i], binom[k - i].take(site), out=fall[i + 1])
    # moves by state, then slot (x decreasing), then partner; m: the state less x
    state, slot = np.nonzero(sets.T >= 0)
    flat = slot * count + state
    x = sets.take(flat)
    m = state - (term - rise[k] + rise[1:]).take(flat)
    held = np.zeros((count, n + 1), dtype=np.int8)   # [r, s]: the sites of state r at s or above
    np.put(held, state * (n + 1) + x, 1)
    np.cumsum(held[:, ::-1], axis=1, out=held[:, ::-1])
    y = partners.take(x, axis=0)
    at = (state * (n + 1))[:, None] + y
    above = held.take(at + 1).astype(np.intp)
    merged = held.take(at) > above
    q = above - (y < x[:, None])   # the sites above y in state m
    target = np.where(merged, m[:, None], (m - fall[k].take(m))[:, None]
                      + fall.take(q * count + m[:, None]) + table.take((k - q) * (n + 1) + y))
    sizes = np.bincount(state, minlength=count)
    diag = -(sizes * weights.sum()) - np.append(beta, 0.0).take(sets[::-1]).sum(axis=0)
    ends = np.cumsum(sizes * len(weights))   # a CSR row: the state's moves, then its diagonal
    mat = sparse.csr_matrix((np.insert(np.tile(weights, len(state)), ends, diag),
                             np.insert(target.ravel(), ends, np.arange(count)),
                             np.append(0, ends + np.arange(1, count + 1))),
                            shape=(count, count))
    mat.sum_duplicates()
    return mat


def semigroup_apply(generator, g, t) -> np.ndarray:
    """exp(s M) g by uniformization: a vector at one time s = t, or one row
    per time of a sequence t, each time passing ``stats.check_time``.

    M must have nonnegative off-diagonal entries and nonpositive row sums
    (a generator, possibly killed). With rate L = max |diag|, P = I + M/L is
    substochastic, so ||P^n g||_inf <= ||g||_inf, and the Poisson(L s) tail
    past the terms ``walks._uniformize`` takes for the largest s, at most
    eps, bounds the truncation error at every time by eps ||g||_inf. Each
    power is added to every time's sum as it comes; none is kept. The
    transpose of a generator also qualifies: P^T contracts in l1, and a
    point mass has ||g||_1 = ||g||_inf = 1.
    """
    times = np.array([check_time(s) for s in np.atleast_1d(t)])
    g = np.asarray(g, dtype=np.float64)
    rate = float(np.max(-generator.diagonal(), initial=0.0))
    # rate 0 leaves M = 0: P = I, and every weight but the first is 0. A
    # csr_matrix's * is its matrix product, without the scalar check of @
    p = sparse.csr_matrix(sparse.identity(generator.shape[0])
                          + generator.multiply(1.0 / rate if rate > 0.0 else 0.0))
    log_factorials, powers = _uniformize(p.__mul__, g, rate * float(times.max(initial=0.0)))
    weights = _poisson_weights(rate * times, log_factorials)
    out = np.zeros((times.size, g.size))
    for weight, power in zip(weights.T[:, :, None], powers):   # weight: one row per time
        out += weight * power
    return out if np.ndim(t) else out[0]


def exact_dual_values_all(bias, tk: TorusKernel, t) -> np.ndarray:
    """E^A[exp(-integral of the kill rate)] for every subset A, as a vector,
    or one row per time for a grid ``t``."""
    mat = build_dual_matrix(bias, tk)
    return semigroup_apply(mat, np.ones(mat.shape[0]), t)


def _set_rank(sites) -> int:
    """The row of a set of k flat sites in ``build_dual_matrix(..., size=k)``.

    A set T precedes S = {s_0 > s_1 > ...} in bit-mask order when the largest
    site where they differ, s_i, is in S; T then agrees with S above s_i and
    has table[k - i, s_i] = sum_{c <= k - i} C(s_i, c) choices below it.
    """
    k = len(sites)
    return sum(math.comb(s, c) for i, s in enumerate(sorted(sites, reverse=True))
               for c in range(k - i + 1))


def exact_dual_value(A, bias, tk: TorusKernel, t):
    """Exact killed-dual expectation started from the subset A, a float, or
    one value per time for a grid ``t``.

    The dual runs over the sets of at most |A| sites only, on a torus of any
    size; more than 2 ** MAX_EXACT_SITES such sets raise ``ValueError``.
    """
    sites = tk.flat_index(site_array(tk, A)).tolist()
    mat = build_dual_matrix(bias, tk, len(sites))
    values = semigroup_apply(mat, np.ones(mat.shape[0]), t)[..., _set_rank(sites)]
    return values if np.ndim(t) else float(values)


def product_indicator_vector(n_sites: int, subset_mask: int) -> np.ndarray:
    """Vector of H(s, A) = 1 iff configuration s is 1 on all of A."""
    states = np.arange(1 << n_sites, dtype=np.int64)
    return ((states & subset_mask) == subset_mask).astype(np.float64)


def exact_forward_values_all(bias, tk: TorusKernel, t) -> np.ndarray:
    """E[H(eta_t, A)] from the all-ones start for every subset A, as a vector,
    or one row per time for a grid ``t``.

    One adjoint uniformization evolves the all-ones point mass to the law of
    eta_t; superset sums of that law give every product-indicator
    expectation at once.
    """
    start = np.zeros(1 << tk.n_sites)
    start[-1] = 1.0
    law = semigroup_apply(build_forward_generator(bias, tk).T.tocsr(), start, t)
    return _subset_sums(law[..., ::-1], tk.n_sites)[..., ::-1]


def duality_gap(bias, tk: TorusKernel, t):
    """Max over nonempty A of |forward - killed dual| at time t.

    ``t`` is one time or a sequence of times; the gap comes back as a float,
    or as an array with one gap per time. The forward generator's transpose
    and the killed dual are built once, and each runs in one pass over all
    the times.
    """
    gaps = np.max(np.abs(exact_forward_values_all(bias, tk, t)[..., 1:]
                         - exact_dual_values_all(bias, tk, t)[..., 1:]), axis=-1)
    return gaps if np.ndim(t) else float(gaps)


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
