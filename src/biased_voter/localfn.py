"""Algebra of local observables on {0,1}-configurations.

A local function is stored as a truth table over the restrictions of its
(minimal) finite support. The product-indicator basis H(eta, A) =
prod_{x in A} eta(x) gives every local function a unique expansion
f = sum_A fhat(A) H(., A); the expansion coefficients drive both the
relaxation estimators and the monotonicity machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LocalFunction",
    "Lemma2Report",
    "eval_H",
    "hat_coeffs",
    "sigma_and_support",
    "is_monotone",
    "lemma1_check",
    "lemma2_verify",
    "gap",
    "site_indicator",
    "parse_localfn_text",
    "format_localfn_text",
]

MAX_SUPPORT = 20

Site = tuple[int, ...]


def _normalize_site(site) -> Site:
    if isinstance(site, (int, np.integer)):
        return (int(site),)
    return tuple(int(c) for c in site)


def _subset_sums(values: np.ndarray, nbits: int, inverse: bool = False) -> np.ndarray:
    """Zeta transform out[A] = sum over subsets B of A of values[B].

    With ``inverse`` it is the Mobius inversion, the signed sum
    sum_B (-1)^{|A - B|} values[B]. Bit i of a mask is axis nbits-1-i of
    the (2,)*nbits cube, so each bit is one vectorized half-cube update.
    """
    out = values.copy()
    cube = out.reshape((2,) * nbits)
    for i in range(nbits):
        halves = np.moveaxis(cube, nbits - 1 - i, 0)
        if inverse:
            halves[1] -= halves[0]
        else:
            halves[1] += halves[0]
    return out


class LocalFunction:
    """Observable depending on finitely many sites, stored as a truth table.

    ``support`` is the tuple of sites (each a tuple of ints), sorted;
    ``table[mask]`` is the value on the configuration that is 1 exactly on
    the support sites whose bit is set in ``mask``. The constructor reduces
    the support to the minimal one: a site is dropped when flipping it never
    changes the value.
    """

    def __init__(self, support, table):
        sites = [_normalize_site(s) for s in support]
        if len(set(sites)) != len(sites):
            raise ValueError("support contains repeated sites")
        n = len(sites)
        if n > MAX_SUPPORT:
            raise ValueError(f"support larger than {MAX_SUPPORT} sites")
        tab = np.asarray(table, dtype=np.float64).reshape(-1)
        if tab.shape[0] != 1 << n:
            raise ValueError(f"table must have 2**{n} entries")
        order = sorted(range(n), key=lambda i: sites[i])
        if order != list(range(n)):
            # bit i lives on axis n-1-i of the reshaped cube; permute so the
            # table matches the sorted site order
            cube = tab.reshape((2,) * n)
            perm = [n - 1 - order[n - 1 - ax] for ax in range(n)]
            tab = np.ascontiguousarray(np.transpose(cube, perm)).reshape(-1)
            sites = [sites[i] for i in order]
        sites, tab = self._reduce(sites, tab)
        self.support: tuple[Site, ...] = tuple(sites)
        self.table = tab
        self.table.setflags(write=False)

    @staticmethod
    def _reduce(sites: list[Site], tab: np.ndarray) -> tuple[list[Site], np.ndarray]:
        n = len(sites)
        if n == 0:
            return sites, tab.copy()
        cube = tab.reshape((2,) * n)
        keep = []
        for i in range(n):
            ax = n - 1 - i
            if np.any(np.take(cube, 0, axis=ax) != np.take(cube, 1, axis=ax)):
                keep.append(i)
        if len(keep) == n:
            return sites, tab.copy()
        kept_axes = {n - 1 - i for i in keep}
        slicer = tuple(slice(None) if ax in kept_axes else 0 for ax in range(n))
        new_tab = np.ascontiguousarray(cube[slicer]).reshape(-1)
        return [sites[i] for i in keep], new_tab

    @property
    def n_sites(self) -> int:
        return len(self.support)

    def value_on_mask(self, mask: int) -> float:
        return float(self.table[mask])

    def value(self, opinions) -> float:
        """Evaluate on a site -> {0,1} mapping (dict, callable, or set of 1-sites)."""
        mask = 0
        for i, s in enumerate(self.support):
            if _lookup_bit(opinions, s):
                mask |= 1 << i
        return float(self.table[mask])

    def value_all_ones(self) -> float:
        return float(self.table[-1])

    def value_all_zeros(self) -> float:
        return float(self.table[0])


def _lookup_bit(opinions, site: Site) -> int:
    if isinstance(opinions, (set, frozenset)):
        return 1 if site in opinions else 0
    if callable(opinions):
        return int(opinions(site))
    return int(opinions[site])


def site_indicator(site) -> LocalFunction:
    """The observable eta(x) for a single site x."""
    return LocalFunction([_normalize_site(site)], [0.0, 1.0])


def eval_H(opinions, sites) -> int:
    """Product indicator: 1 iff the configuration is 1 on every listed site.

    ``opinions`` may be a dict, a callable, or a set of 1-sites; the empty
    product is 1.
    """
    for s in sites:
        if not _lookup_bit(opinions, _normalize_site(s)):
            return 0
    return 1


def hat_coeffs(f: LocalFunction) -> dict[frozenset, float]:
    """Expansion coefficients of f over the product indicators.

    fhat(A) = sum_{B subset A} (-1)^{|A - B|} f(1_B), obtained by Mobius
    inversion over the subset lattice of the support; the reconstruction
    sum_A fhat(A) H(eta, A) = f(eta) is exact for every restriction.
    """
    n = f.n_sites
    coeffs = _subset_sums(f.table, n, inverse=True)
    out = {}
    for mask in range(1 << n):
        sites = frozenset(f.support[i] for i in range(n) if mask & (1 << i))
        out[sites] = float(coeffs[mask])
    return out


def sigma_and_support(f: LocalFunction) -> tuple[float, frozenset]:
    """Sum of |fhat(A)| over nonempty A, and the minimal support (the constructor's)."""
    coeffs = _subset_sums(f.table, f.n_sites, inverse=True)
    return float(np.sum(np.abs(coeffs[1:]))), frozenset(f.support)


def is_monotone(f: LocalFunction) -> bool:
    """True iff raising any single site never lowers the value.

    Single-site raises suffice by transitivity of the coordinatewise order.
    """
    n = f.n_sites
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if not mask & bit and f.table[mask | bit] < f.table[mask]:
                return False
    return True


def lemma1_check(f: LocalFunction) -> bool:
    """Monotonicity via the expansion-coefficient criterion.

    Requires the sum of fhat(A) over subsets A of B2 that meet B2 - B1 to be
    nonnegative for every pair B1 subset B2 of the support. For A inside B2,
    "A meets B2 - B1" is exactly "A not inside B1", so each sum equals
    Z(B2) - Z(B1) with Z the subset sums of fhat. All 3^n pairs are checked.
    """
    n = f.n_sites
    if n > 12:
        raise ValueError("criterion enumeration limited to supports of <= 12 sites")
    coeffs = _subset_sums(f.table, n, inverse=True)
    z = _subset_sums(coeffs, n)
    for b2 in range(1 << n):
        b1 = b2
        while True:
            if z[b2] - z[b1] < 0:
                return False
            if b1 == 0:
                break
            b1 = (b1 - 1) & b2
    return True


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


def gap(f: LocalFunction) -> float:
    """Sum of fhat(A) over nonempty A; equals f(all ones) - f(all zeros)."""
    return float(f.table[-1] - f.table[0])


def parse_localfn_text(text: str) -> LocalFunction:
    """Parse the plain-text observable format.

    One ``sites = ...`` line with semicolon-separated sites (each a comma
    separated integer tuple, or a bare integer in one dimension), then one
    ``<bitmask> <value>`` pair per line. Bit i of the mask refers to the
    i-th listed site. Missing masks default to 0.
    """
    sites = None
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            if key.strip() != "sites":
                raise ValueError(f"line {lineno}: unknown key {key.strip()!r}")
            sites = [_normalize_site([int(c) for c in chunk.split(",")])
                     for chunk in value.split(";") if chunk.strip()]
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<bitmask> <value>'")
        pairs[int(parts[0])] = float(parts[1])
    if sites is None:
        raise ValueError("missing 'sites = ...' line")
    table = np.zeros(1 << len(sites))
    for mask, val in pairs.items():
        if not 0 <= mask < len(table):
            raise ValueError(f"bitmask {mask} out of range for {len(sites)} sites")
        table[mask] = val
    return LocalFunction(sites, table)


def format_localfn_text(f: LocalFunction) -> str:
    sites_str = "; ".join(",".join(str(c) for c in s) for s in f.support)
    lines = [f"sites = {sites_str}"]
    for mask, val in enumerate(f.table):
        lines.append(f"{mask} {float(val)!r}")
    return "\n".join(lines) + "\n"
