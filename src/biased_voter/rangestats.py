"""Visited-site statistics and the stretched-exponential rate constant.

The asymptotic decay rate of E^0 exp(-nu |R_t|) in units of t^(d/(d+alpha))
is c(nu) = (d+alpha) * ((lam/d)^d (nu/alpha)^alpha)^(1/(d+alpha)), where lam
is the smallest Dirichlet eigenvalue of the negated scaling-limit generator
over unit-volume domains; ``dirichlet_eigenvalue`` computes it from the
kernel. For the isotropic nearest-neighbor kernels the generator is
Laplacian/(2d) and the optimal domain is the unit-volume ball, so lam has a
closed form in d = 1..3. For a power kernel with 1 - p_hat(k) ~ c |k|^alpha
the generator is c (-Laplacian)^(alpha/2) and the domain an interval of
length 1, so lam = c 2^alpha mu(alpha), with mu(alpha) the eigenvalue on
(-1, 1) (mu(1) = 1.15777..., Kwasnicki 2012), solved by Galerkin.

Plain Monte Carlo for E exp(-nu |R_t|) is reliable only at moderate times
(the mean is carried by rare small-range paths); the exact 1-d solver is
the instrument for large t.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import Kernel
from .stats import check_nu
from .walks import WalkCurveStats, walk_curve

__all__ = [
    "lambda_nn",
    "dv_constant",
    "mc_range_functional",
    "effective_exponent",
]


def lambda_nn(d: int) -> float:
    """Unit-volume Dirichlet principal eigenvalue of -(Laplacian)/(2d).

    The minimizing domain is the unit-volume ball, so the value is the
    ball eigenvalue of the negated Laplacian divided by 2d:
    d=1: pi^2 / 2;  d=2: pi * j01^2 / 4;  d=3: pi^2 (4 pi / 3)^(2/3) / 6.
    """
    if d == 1:
        return math.pi ** 2 / 2.0
    if d == 2:
        j01 = 2.4048255576957724   # first zero of J0, scipy.special.jn_zeros(0, 1)[0]
        return math.pi * j01 ** 2 / 4.0
    if d == 3:
        return math.pi ** 2 * (4.0 * math.pi / 3.0) ** (2.0 / 3.0) / 6.0
    raise ValueError("closed-form eigenvalue available only for d in 1..3 "
                     "nearest-neighbor kernels")


_MODES = 32   # even Jacobi modes of the Galerkin solve for mu(alpha)


def _fractional_eigenvalue(alpha: float) -> float:
    """Principal Dirichlet eigenvalue mu(alpha) of (-Laplacian)^(alpha/2) on (-1, 1).

    Galerkin on (1-x^2)^(alpha/2) P_n, n = 0, 2, .., 2 _MODES - 2, with P_n the
    Jacobi polynomial (alpha/2, alpha/2), which the operator maps to
    Gamma(alpha+n+1)/n! P_n (Dyda 2012): the stiffness K is diagonal, and
    Gauss-Jacobi gives the mass M exactly. A Rayleigh-Ritz bound: above mu,
    falling as modes are added.
    """
    from scipy import linalg, special
    n = np.arange(0, 2 * _MODES, 2)
    stiff = 2.0 ** (alpha + 1) / (2 * n + alpha + 1) * np.exp(
        2 * (special.gammaln(n + alpha / 2 + 1) - special.gammaln(n + 1)))
    x, w = special.roots_jacobi(2 * _MODES + 4, alpha, alpha)
    p = special.eval_jacobi(n[:, None], alpha / 2, alpha / 2, x) / np.sqrt(stiff)[:, None]
    # 1 / the top eigenvalue of K^-1/2 M K^-1/2: exact to rounding, where the
    # lowest of the pencil (K, M) loses about 1e-11 to its conditioning
    return 1.0 / float(linalg.eigvalsh((p * w) @ p.T)[-1])


def dirichlet_eigenvalue(kernel: Kernel) -> float:
    """The kernel's unit-volume Dirichlet eigenvalue lam; see the module docstring."""
    if kernel.alpha == 2.0:
        return lambda_nn(kernel.dim)
    return kernel.tail_constant * 2.0 ** kernel.alpha * _fractional_eigenvalue(kernel.alpha)


def dv_constant(d: int, alpha: float, lam: float, nu: float) -> float:
    """Asymptotic rate constant c(nu); increasing in nu with c(0) = 0."""
    if lam <= 0:
        raise ValueError("the eigenvalue must be positive")
    check_nu(nu)
    return (d + alpha) * ((lam / d) ** d * (nu / alpha) ** alpha) ** (1.0 / (d + alpha))


def mc_range_functional(kernel: Kernel, nu: float, t_grid, replicas: int,
                        seed: int, threads: int = 1) -> WalkCurveStats:
    """Plain Monte Carlo of exp(-nu |R_t|) along single-walk paths.

    Returns the walk engine's moments: ``exp_means[nu]`` is E exp(-nu |R_t|)
    and ``range_mean`` is E |R_t|. Unbiased at any t, but the relative error
    grows quickly with t; keep the grid at moderate times and use the exact
    1-d solver beyond.
    """
    check_nu(nu)
    return walk_curve(kernel, t_grid, replicas, seed, exponents=(nu,), threads=threads)


def effective_exponent(series) -> list[tuple[float, float]]:
    """Local slope of log(-log F) against log t, by centered differences.

    ``series`` is a sequence of (t, F(t)) pairs with F strictly inside
    (0, 1) and t positive increasing; the endpoints carry no slope. For a
    pure stretched exponential exp(-c t^gamma) every slope equals gamma.
    """
    pts = [(float(t), float(fv)) for t, fv in series]
    if any(not (0.0 < fv < 1.0) for _, fv in pts):
        raise ValueError("F values must lie strictly inside (0, 1)")
    if any(t <= 0.0 for t, _ in pts):
        raise ValueError("times must be positive")
    x = np.log([t for t, _ in pts])
    y = np.log(-np.log([fv for _, fv in pts]))
    out = []
    for i in range(1, len(pts) - 1):
        slope = (y[i + 1] - y[i - 1]) / (x[i + 1] - x[i - 1])
        out.append((pts[i][0], float(slope)))
    return out


def local_exponent_column(t_grid, values) -> list[float | None]:
    """``effective_exponent`` over the grid points in its domain; None where it gives none."""
    slopes = dict(effective_exponent([(t, v) for t, v in zip(t_grid, values)
                                      if t > 0.0 and 0.0 < v < 1.0]))
    return [slopes.get(t) for t in t_grid]
