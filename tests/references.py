"""Checkers that only the tests call, kept out of the package.

``lemma2_verify`` checks the product-weight inequalities behind the lower
bound on explicit instances; criterion 9 and ``test_localfn`` run it.
``dual_matrix_reference`` builds the killed dual over every subset by bit
operations on the masks, the judge of ``exact.build_dual_matrix``'s ranks;
``sites_to_mask`` reads a site set as such a mask. ``verify_assumption``
checks a kernel's small-k expansion of its characteristic function
``char_fn`` against the constants the kernel computes from its weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from biased_voter.kernel import Kernel, TorusKernel, bias_array, site_array
from biased_voter.localfn import _normalize_site, _subset_sums


@dataclass(frozen=True)
class Lemma2Report:
    ineq1_ok: bool | None  # None when the instance has < 2 sites (vacuous)
    ineq2_ok: bool


def lemma2_verify(x: dict, y_singletons: dict, tol: float = 1e-9) -> Lemma2Report:
    """Check the two product-weight inequalities on an explicit instance.

    ``x`` maps site subsets (iterables of sites) to reals with x[empty] = 0
    and all subset sums nonnegative (rejected as an invalid instance
    otherwise); ``y_singletons`` maps each site to a value in [0, 1] and
    extends multiplicatively to sets. Checked, with ``tol`` slack:

      sum_A x_A y_A (1 - y_{L-A}) >= sum_a x_a y_a prod_{b != a} (1 - y_b) >= 0
      sum_A x_A y_A >= (sum_A x_A) * y_L

    The second inequality is also checked for single-site instances.
    """
    y_norm = {_normalize_site(s): float(v) for s, v in y_singletons.items()}
    sites = sorted(y_norm)
    n = len(sites)
    idx = {s: i for i, s in enumerate(sites)}
    yv = np.array([y_norm[s] for s in sites])
    if np.any((yv < 0) | (yv > 1)):
        raise ValueError("singleton y values must lie in [0, 1]")
    xv = np.zeros(1 << n)
    for subset, val in x.items():
        mask = 0
        for s in subset:
            mask |= 1 << idx[_normalize_site(s)]
        xv[mask] = float(val)
    if xv[0] != 0.0:
        raise ValueError("invalid instance: x at the empty set must be 0")
    z = _subset_sums(xv, n)
    scale = float(np.max(np.abs(xv))) + 1.0
    if np.any(z < -tol * scale):
        raise ValueError("invalid instance: some subset sum of x is negative")

    y_of = np.ones(1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        y_of[mask] = y_of[mask ^ low] * yv[low.bit_length() - 1]
    full = (1 << n) - 1

    ineq2_ok = bool(np.dot(xv, y_of) >= xv.sum() * y_of[full] - tol * scale)

    if n < 2:
        return Lemma2Report(ineq1_ok=None, ineq2_ok=ineq2_ok)

    lhs = sum(xv[m] * y_of[m] * (1.0 - y_of[full ^ m]) for m in range(1 << n))
    mid = 0.0
    for i in range(n):
        prod = 1.0
        for j in range(n):
            if j != i:
                prod *= 1.0 - yv[j]
        mid += xv[1 << i] * yv[i] * prod
    ineq1_ok = (lhs >= mid - tol * scale) and (mid >= -tol * scale)
    return Lemma2Report(ineq1_ok=ineq1_ok, ineq2_ok=ineq2_ok)


_APERIODIC_TOL = 1e-9   # margin of the strict inequality p_hat(k) < 1 off the lattice 2*pi*Z^d


@dataclass(frozen=True)
class AssumptionReport:
    """Result of the small-k stability check for a kernel."""

    max_residual: float
    aperiodic_ok: bool


def char_fn(kernel: Kernel, k) -> float:
    """Characteristic function p_hat(k) = sum_x p(x) cos(<k, x>).

    Real-valued by symmetry, equal to 1 at k = 0 and bounded in [-1, 1].
    """
    k = np.asarray(k, dtype=np.float64).reshape(kernel.dim)
    return float(np.dot(kernel.weights, np.cos(kernel.displacements @ k)))


def verify_assumption(kernel: Kernel, kgrid) -> AssumptionReport:
    """Check the small-k expansion p_hat(k) = 1 - D(k) + o(|k|^alpha).

    D(k) is k^T D k for alpha = 2 and c |k|^alpha below, with the kernel's
    ``dmatrix`` D and ``tail_constant`` c. ``max_residual`` is
    max_k |p_hat(k) - 1 + D(k)| / |k|^alpha over the grid.
    ``aperiodic_ok`` requires p_hat(k) < 1 - ``_APERIODIC_TOL`` at every grid
    point that is not congruent to 0 mod 2*pi.
    """
    max_res = 0.0
    aperiodic = True
    for k in kgrid:
        k = np.asarray(k, dtype=np.float64).reshape(kernel.dim)
        norm = np.linalg.norm(k)
        phat = char_fn(kernel, k)
        if norm > 0:
            if kernel.alpha == 2.0:
                d_k = float(k @ kernel.dmatrix @ k)
            else:
                d_k = float(kernel.tail_constant * norm ** kernel.alpha)
            res = abs(phat - 1.0 + d_k) / norm ** kernel.alpha
            max_res = max(max_res, res)
        frac = k / (2 * np.pi) - np.round(k / (2 * np.pi))
        on_lattice = np.all(np.abs(frac) < 1e-12)
        if not on_lattice and phat >= 1.0 - _APERIODIC_TOL:
            aperiodic = False
    return AssumptionReport(max_residual=max_res, aperiodic_ok=aperiodic)


def sites_to_mask(sites, tk: TorusKernel) -> int:
    """Bit mask of a torus site set (see ``kernel.site_array``), bit i the flat index i."""
    return sum(1 << i for i in tk.flat_index(site_array(tk, sites)).tolist())


def dual_matrix_reference(bias, tk: TorusKernel) -> sparse.csr_matrix:
    """The killed coalescing dual over every subset of a torus, row i the set of bit mask i.

    Each (site, move) pair is one pass of bit operations over the masks that
    hold the site. A row lists its moves by decreasing site, then move, then
    its diagonal, as ``exact.build_dual_matrix`` does, so the entries that a
    particle reaches by merging through several moves sum in the same order.
    """
    n = tk.n_sites
    beta = bias_array(bias, tk)
    partners, weights = tk.partner_table
    states = np.arange(1 << n, dtype=np.int64)
    data, rows, cols = [], [], []
    for x in reversed(range(n)):
        occupied = states[(states >> x) & 1 == 1]
        for j in range(partners.shape[1]):
            rows.append(occupied)
            cols.append(occupied & ~(1 << x) | (1 << partners[x, j]))  # merges when occupied
            data.append(np.full(occupied.shape[0], weights[j]))
    bits = ((states[:, None] >> np.arange(n)) & 1).astype(np.float64)
    rows.append(states)
    cols.append(states)
    data.append(-bits.sum(axis=1) * weights.sum() - bits @ beta)
    return sparse.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(1 << n, 1 << n)).tocsr()
