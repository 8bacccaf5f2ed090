"""Algebra of local observables on {0,1}-configurations.

A local function is stored as a truth table over the restrictions of its
(minimal) finite support. The product-indicator basis H(eta, A) =
prod_{x in A} eta(x) gives every local function a unique expansion
f = sum_A fhat(A) H(., A); the expansion coefficients drive both the
relaxation estimators and the monotonicity machinery.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LocalFunction",
    "hat_coeffs",
    "sigma_and_support",
    "is_monotone",
    "lemma1_check",
    "gap",
    "site_indicator",
    "product_indicator",
    "parse_localfn_text",
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
    Leading axes, if any, are transformed each on its own.
    """
    out = values.copy()
    cube = out.reshape(values.shape[:-1] + (2,) * nbits)
    for i in range(nbits):
        halves = np.moveaxis(cube, -1 - i, 0)
        if inverse:
            halves[1] -= halves[0]
        else:
            halves[1] += halves[0]
    return out


class LocalFunction:
    """Observable depending on finitely many sites, stored as a truth table.

    ``support`` is the tuple of sites (tuples of ints of one length), sorted;
    ``table[mask]`` is the value on the configuration that is 1 exactly on
    the support sites whose bit is set in ``mask``. The constructor reduces
    the support to the minimal one: a site is dropped when flipping it never
    changes the value.
    """

    def __init__(self, support, table):
        sites = [_normalize_site(s) for s in support]
        if len(set(sites)) != len(sites):
            raise ValueError("support contains repeated sites")
        if len({len(s) for s in sites}) > 1:
            raise ValueError(f"support sites must have one dimension, got {sites}")
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

    def value_all_zeros(self) -> float:
        return float(self.table[0])


def site_indicator(site) -> LocalFunction:
    """The observable eta(x) for a single site x."""
    return LocalFunction([_normalize_site(site)], [0.0, 1.0])


def product_indicator(sites) -> LocalFunction:
    """The observable H(., A) for a start set A of distinct sites, in any order."""
    sites = sorted(_normalize_site(s) for s in sites)
    return _from_masks(sites, [("the whole set", (1 << len(sites)) - 1, 1.0)])


def _from_masks(sites, entries) -> LocalFunction:
    """The observable on ``sites`` worth ``value`` on each ``(origin, mask, value)`` entry, else 0.

    Bit i of a mask is the i-th site; a mask outside the table or given twice is an
    error naming its origin. The size cap is checked before the table is built.
    """
    if len(sites) > MAX_SUPPORT:
        raise ValueError(f"support larger than {MAX_SUPPORT} sites")
    table = np.zeros(1 << len(sites))
    given = set()
    for origin, mask, val in entries:
        if not 0 <= mask < len(table):
            raise ValueError(f"bitmask {mask} out of range for {len(sites)} sites ({origin})")
        if mask in given:
            raise ValueError(f"bitmask {mask} given twice ({origin})")
        given.add(mask)
        table[mask] = val
    return LocalFunction(sites, table)


def hat_coeffs(f: LocalFunction) -> dict[frozenset, float]:
    """The nonzero expansion coefficients of f over the product indicators.

    fhat(A) = sum_{B subset A} (-1)^{|A - B|} f(1_B), obtained by Mobius
    inversion over the subset lattice of the support; the reconstruction
    sum_A fhat(A) H(eta, A) = f(eta) is exact for every restriction. A set
    A missing from the result has fhat(A) = 0, so H(., A) is one term.
    """
    n = f.n_sites
    coeffs = _subset_sums(f.table, n, inverse=True)
    return {frozenset(f.support[i] for i in range(n) if mask >> i & 1): float(coeffs[mask])
            for mask in np.flatnonzero(coeffs).tolist()}


def sigma_and_support(f: LocalFunction) -> tuple[float, frozenset]:
    """Sum of |fhat(A)| over nonempty A, and the minimal support (the constructor's)."""
    coeffs = _subset_sums(f.table, f.n_sites, inverse=True)
    return float(np.sum(np.abs(coeffs[1:]))), frozenset(f.support)


def is_monotone(f: LocalFunction) -> bool:
    """True iff raising any single site never lowers the value.

    Single-site raises suffice by transitivity of the coordinatewise order;
    each site is one axis of the (2,)*n cube of the table.
    """
    cube = f.table.reshape((2,) * f.n_sites)
    return not any(np.any(np.take(cube, 1, axis=ax) < np.take(cube, 0, axis=ax))
                   for ax in range(f.n_sites))


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


def gap(f: LocalFunction) -> float:
    """Sum of fhat(A) over nonempty A; equals f(all ones) - f(all zeros)."""
    return float(f.table[-1] - f.table[0])


def parse_localfn_text(text: str) -> LocalFunction:
    """Parse the plain-text observable format.

    One ``sites = ...`` line with semicolon-separated sites (each a comma
    separated integer tuple, or a bare integer in one dimension), then one
    ``<bitmask> <value>`` pair per line. Bit i of the mask refers to the
    i-th listed site. Missing masks default to 0; a repeated mask is an error.
    """
    sites = None
    entries = []
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
        entries.append((f"line {lineno}", int(parts[0]), float(parts[1])))
    if sites is None:
        raise ValueError("missing 'sites = ...' line")
    return _from_masks(sites, entries)

