"""Displacement kernels for the voter dynamics and their dual walks.

A kernel is a symmetric probability distribution p on Z^d with p(0) = 0.
It drives both the forward resampling dynamics and the dual random walks.
Two families are provided: nearest-neighbor kernels in d = 1..3 (Gaussian
attraction, index alpha = 2) and truncated power-law kernels in d = 1
(stable attraction of index alpha < 2). ``make_kernel`` builds either from
its name, the one rule of every subcommand. A kernel on Z^d and one folded
onto a torus hold the same form: ``displacements`` and ``weights`` arrays.
Every row-major order of sites, on a torus or in a walk's bounding box, is
computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Kernel",
    "TorusKernel",
    "KERNELS",
    "make_kernel",
    "make_nn_kernel",
    "make_power_kernel",
    "fold_to_torus",
    "bias_array",
    "bias_values",
]

KERNELS = ("nn", "power")
_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class Kernel:
    """Symmetric displacement distribution on Z^d with no mass at the origin.

    The small-k constants of 1 - p_hat(k) come from the weights. For
    ``alpha == 2``, ``dmatrix`` is D = (1/2) sum_x p(x) x x^T, the quadratic
    coefficient. For ``alpha < 2`` the kernel is one-dimensional and
    ``tail_constant`` is c in 1 - p_hat(k) ~ c |k|^alpha, fitted by least
    squares on k in [0.01, 0.1]; for a small support the fit is recorded but
    not meaningful. The other constant is None.
    """

    dim: int
    displacements: np.ndarray  # (n, dim) int64
    weights: np.ndarray        # (n,) float64, sums to 1
    alpha: float
    dmatrix: np.ndarray | None = field(init=False, default=None)
    tail_constant: float | None = field(init=False, default=None)

    def __post_init__(self):
        disp = np.asarray(self.displacements, dtype=np.int64).reshape(-1, self.dim)
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if disp.shape[0] != w.shape[0]:
            raise ValueError("displacements and weights must have equal length")
        if np.any(np.all(disp == 0, axis=1)):
            raise ValueError("kernel must not place mass at displacement 0")
        if np.any(w < 0):
            raise ValueError("kernel weights must be nonnegative")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"kernel weights sum to {w.sum()!r}, not 1")
        table = {tuple(x): wt for x, wt in zip(disp, w)}
        for x, wt in table.items():
            mirror = tuple(-c for c in x)
            if abs(table.get(mirror, 0.0) - wt) > _WEIGHT_TOL:
                raise ValueError(f"kernel not symmetric at displacement {x}")
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError("alpha must lie in (0, 2]")
        if self.alpha == 2.0:
            dm = 0.5 * (disp.T * w) @ disp
            dm.setflags(write=False)
            object.__setattr__(self, "dmatrix", dm)
        elif self.dim != 1:
            raise ValueError("kernels with alpha < 2 must be one-dimensional")
        else:
            pos = disp[:, 0] > 0
            x, w_half = disp[pos, 0], w[pos]
            kgrid = np.linspace(0.01, 0.1, 40)
            one_minus = np.array([2.0 * np.sum(w_half * (1.0 - np.cos(k * x))) for k in kgrid])
            c = np.sum(one_minus * kgrid ** self.alpha) / np.sum(kgrid ** (2 * self.alpha))
            object.__setattr__(self, "tail_constant", float(c))
        disp.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "displacements", disp)
        object.__setattr__(self, "weights", w)

    def sampling_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Displacements and cumulative weights, for ``searchsorted`` draws."""
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        return self.displacements, cum


@dataclass(frozen=True)
class TorusKernel:
    """A kernel folded onto a periodic box of side ``side`` per axis.

    ``displacements`` are the torus displacements (rows of ints in [0, side),
    sorted) and ``weights`` the total base probability of the displacements
    congruent to each mod side. Folding can create mass at displacement 0
    (a no-op move); it is kept so that the weights still sum to 1.

    Sites are in row-major order, axis 0 varying slowest: ``flat_index`` maps
    the site (c_0, ..., c_{d-1}) to ((c_0 * L + c_1) * L + ...).
    """

    side: int
    displacements: np.ndarray  # (n, dim) int64
    weights: np.ndarray        # (n,) float64, sums to 1

    def __post_init__(self):
        total = float(self.weights.sum())
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"folded weights sum to {total!r}, not 1")
        self.displacements.setflags(write=False)
        self.weights.setflags(write=False)

    sampling_arrays = Kernel.sampling_arrays

    @property
    def dim(self) -> int:
        return self.displacements.shape[1]

    @property
    def n_sites(self) -> int:
        return self.side ** self.dim

    def flat_index(self, sites) -> np.ndarray:
        """Row-major flat index of each row of a (k, d) array of sites, taken mod the side."""
        return np.ravel_multi_index(np.asarray(sites).T, (self.side,) * self.dim, mode="wrap")

    @property
    def coords(self) -> np.ndarray:
        """(n_sites, d) coordinates of every site, in row-major order."""
        return np.stack(np.unravel_index(np.arange(self.n_sites), (self.side,) * self.dim),
                        axis=1)

    def translates(self, sites) -> np.ndarray:
        """(n_sites, k) flat indices of a (k, d) site array shifted by every torus site.

        Row y is the site array shifted by the site of flat index y, so row 0
        is ``flat_index(sites)``.
        """
        sites = np.asarray(sites).reshape(-1, self.dim)
        shifted = self.coords[:, None, :] + sites
        return self.flat_index(shifted.reshape(-1, self.dim)).reshape(self.n_sites, len(sites))

    @cached_property
    def partner_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(n_sites, n_moves) flat partner indices and the move weights.

        The moves are the displacements other than the no-op at 0, in their
        sorted order; ``partners[x, j]`` is the flat index of site x shifted
        by move j. Computed once per torus, read-only.
        """
        moves = self.displacements.any(axis=1) & (self.weights > 0)
        if not moves.any():
            raise ValueError("folded kernel has no real moves on this torus")
        coords = self.coords
        partners = np.stack([self.flat_index(coords + d) for d in self.displacements[moves]],
                            axis=1)
        weights = self.weights[moves]
        partners.setflags(write=False)
        weights.setflags(write=False)
        return partners, weights


def make_nn_kernel(d: int) -> Kernel:
    """Uniform nearest-neighbor kernel in d = 1, 2 or 3.

    p_hat(k) = (1/d) sum_i cos(k_i) = 1 - |k|^2/(2d) + O(|k|^4), so the
    Gaussian coefficient matrix is I/(2d).
    """
    if not 1 <= d <= 3:
        raise ValueError("nearest-neighbor kernels are supported for d in 1..3")
    eye = np.eye(d, dtype=np.int64)
    disp = np.vstack([eye, -eye])
    w = np.full(2 * d, 1.0 / (2 * d))
    return Kernel(dim=d, displacements=disp, weights=w, alpha=2.0)


def make_power_kernel(alpha: float, cutoff: int) -> Kernel:
    """One-dimensional kernel with p(x) proportional to |x|^-(1+alpha).

    The support is truncated at |x| <= cutoff.
    """
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2) for power-law kernels")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    x = np.arange(1, cutoff + 1, dtype=np.int64)
    raw = x.astype(float) ** (-(1.0 + alpha))
    w_half = raw / (2.0 * raw.sum())
    disp = np.concatenate([x, -x]).reshape(-1, 1)
    w = np.concatenate([w_half, w_half])
    return Kernel(dim=1, displacements=disp, weights=w, alpha=alpha)


def fold_to_torus(kernel: Kernel, side: int) -> TorusKernel:
    """Fold a kernel onto the torus (Z / side Z)^d by summing congruent mass.

    The folded displacements come out sorted; each weight is summed in the
    order of the kernel's displacements.
    """
    if side < 2:
        raise ValueError("torus side must be at least 2")
    disp, inverse = np.unique(kernel.displacements % side, axis=0, return_inverse=True)
    weights = np.bincount(inverse.reshape(-1), weights=kernel.weights, minlength=len(disp))
    return TorusKernel(side=side, displacements=disp, weights=weights)


def make_kernel(name: str, dim: int, alpha: float | None, cutoff: int,
                side: int | None = None) -> Kernel | TorusKernel:
    """The kernel rule of every subcommand, experiments and exact oracles alike.

    ``nn`` is the nearest-neighbor walk in ``dim`` dimensions, ``power`` the
    one-dimensional power law of index ``alpha`` truncated at ``cutoff``.
    With ``side`` the kernel comes folded onto that torus. A name, dimension,
    index, cutoff or side that no kernel takes raises ``ValueError``.
    """
    if name not in KERNELS:
        raise ValueError(f"kernel must be 'nn' or 'power', got {name!r}")
    if name == "power" and dim != 1:
        raise ValueError("power-law kernels are one-dimensional")
    if name == "power" and alpha is None:
        raise ValueError("power kernel needs alpha in (0, 2)")
    kern = make_nn_kernel(dim) if name == "nn" else make_power_kernel(alpha, cutoff)
    return kern if side is None else fold_to_torus(kern, side)


def site_array(kernel, sites) -> np.ndarray:
    """A site set as a (k, d) int64 array in the given order, the rule of every engine and oracle.

    A site is ``kernel.dim`` ints, or an int in one dimension, wrapped mod the
    side on a torus; another dimension or two equal sites raise ``ValueError``.
    """
    rows = [(s,) if isinstance(s, (int, np.integer)) else tuple(s) for s in sites]
    if any(len(s) != kernel.dim for s in rows):
        raise ValueError(f"sites must have dimension {kernel.dim}")
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), kernel.dim)
    if isinstance(kernel, TorusKernel):
        arr %= kernel.side
    if len(np.unique(arr, axis=0)) < len(arr):
        raise ValueError("sites must be distinct: no two may be equal or collide "
                         "after wrapping onto the torus")
    return arr


def box_keys(pos: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major key of every position in the bounding box; its corner and spans.

    ``pos`` holds the (rows, m, d) walk positions of ``count`` replicas, the
    site keys of the walk engine. Each axis's least and largest coordinates
    are found one axis at a time, a reduction over a strided view that runs
    many times faster than one over two axes of ``pos``. Keys are int32 when
    count times the box's key count is below 2 ** 31, so that a row offset
    of the reduction fits too; int64 otherwise.
    """
    axes = [pos[..., a] for a in range(pos.shape[-1])]
    mins = np.array([x.min() for x in axes], dtype=pos.dtype)
    maxs = np.array([x.max() for x in axes], dtype=np.int64)
    spans = maxs - mins + 1
    key_space = count * math.prod(int(s) for s in spans)
    if key_space >= 1 << 62:
        raise RuntimeError("site key space overflow; reduce batch size")
    # int32 sums may wrap on the way, but every key fits, so each ends exact
    skey = np.subtract(pos[..., 0], mins[0], dtype=np.int32 if key_space < 1 << 31 else np.int64)
    for a in range(1, pos.shape[-1]):
        skey *= int(spans[a])
        skey += pos[..., a]
        skey -= mins[a]
    return skey, mins, spans


def box_sites(keys, mins, spans) -> np.ndarray:
    """The (k, d) sites of row-major box keys: the inverse of ``box_keys``."""
    return np.stack(np.unravel_index(keys, spans), axis=-1) + mins


def bias_values(bias, sites) -> np.ndarray:
    """Values of a field (a ``value(site)`` method) at ``sites``, checked.

    Every value must be finite and nonnegative, and the field must cover
    every site; anything else raises ``ValueError``.
    """
    try:
        beta = np.array([bias.value(s) for s in sites], dtype=np.float64)
    except KeyError as exc:
        raise ValueError(f"bias field does not cover site {exc}") from exc
    return _checked(beta)


def _checked(beta: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(beta) & (beta >= 0)):
        raise ValueError("bias values must be finite and nonnegative")
    return beta


def bias_array(bias, tk: TorusKernel, replicas: int | None = None) -> np.ndarray:
    """Per-site bias values of a torus in row-major site order.

    ``bias`` is an array or list with one entry per site, or a field with a
    ``value(site)`` method (a ``BiasField``). With ``replicas`` given, an
    array of shape (replicas, n_sites) is one field per replica and keeps
    that shape. Every value must be finite and nonnegative, whichever form
    it comes in.
    """
    if not isinstance(bias, (np.ndarray, list, tuple)):
        return bias_values(bias, np.ndindex((tk.side,) * tk.dim))
    beta = np.asarray(bias, dtype=np.float64)
    if beta.shape == (replicas, tk.n_sites):
        return _checked(beta)
    beta = beta.reshape(-1)
    if beta.shape[0] != tk.n_sites:
        raise ValueError(f"bias array has {beta.shape[0]} entries, torus has {tk.n_sites}")
    return _checked(beta)
