"""Property tests of the exact oracles, the subset-lattice transform, the
moment merge and the CSV header's config, over randomly drawn inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from biased_voter.disorder import DisorderLaw
from biased_voter.exact import (build_forward_generator, duality_gap,
                                exact_forward_values_all,
                                product_indicator_vector, semigroup_apply)
from biased_voter.harness import (ExperimentConfig, _header_lines, config_hash,
                                  parse_config_text)
from biased_voter.kernel import fold_to_torus, make_nn_kernel, make_power_kernel
from biased_voter.localfn import LocalFunction, _subset_sums, hat_coeffs
from biased_voter.stats import Moments

times = st.floats(0.0, 10.0)


@st.composite
def tori(draw):
    """Nearest-neighbor tori in d = 1..3 and 1-d power tori, at most 12 sites."""
    kind = draw(st.sampled_from(["nn1", "nn2", "nn3", "power"]))
    if kind == "power":
        alpha = draw(st.floats(0.2, 1.8))
        return fold_to_torus(make_power_kernel(alpha, 20), draw(st.integers(2, 8)))
    dim = int(kind[-1])
    side = draw(st.integers(2, {1: 12, 2: 3, 3: 2}[dim]))
    return fold_to_torus(make_nn_kernel(dim), side)


def biases(n):
    return st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n).map(np.array)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), tk=tori(), t=times)
def test_duality_gap_vanishes(data, tk, t):
    beta = data.draw(biases(tk.n_sites))
    assert duality_gap(beta, tk, t) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(data=st.data(), side=st.integers(2, 6), t=times)
def test_forward_values_match_per_subset_semigroup(data, side, t):
    tk = fold_to_torus(make_nn_kernel(1), side)
    beta = data.draw(biases(side))
    masks = data.draw(st.lists(st.integers(1, (1 << side) - 1), min_size=1, max_size=4))
    gen = build_forward_generator(beta, tk)
    values = exact_forward_values_all(beta, tk, t)
    for mask in masks:
        direct = semigroup_apply(gen, product_indicator_vector(side, mask), t)[-1]
        assert abs(values[mask] - direct) <= 1e-10


@st.composite
def integer_tables(draw, max_bits=8):
    n = draw(st.integers(0, max_bits))
    values = draw(st.lists(st.integers(-1000, 1000), min_size=1 << n, max_size=1 << n))
    return n, np.array(values, dtype=np.float64)


@settings(max_examples=60, deadline=None)
@given(table=integer_tables())
def test_mobius_inverts_subset_sums_exactly(table):
    n, values = table
    zeta = _subset_sums(values, n)
    assert np.array_equal(_subset_sums(zeta, n, inverse=True), values)
    assert np.array_equal(_subset_sums(_subset_sums(values, n, inverse=True), n), values)
    for mask in range(1 << n):
        assert zeta[mask] == sum(values[b] for b in range(1 << n) if b & ~mask == 0)


@settings(max_examples=40, deadline=None)
@given(table=integer_tables(max_bits=5), data=st.data())
def test_local_function_on_permuted_support(table, data):
    n, values = table
    sites = [(s,) for s in data.draw(st.lists(st.integers(-20, 20), min_size=n,
                                              max_size=n, unique=True))]
    perm = data.draw(st.permutations(range(n)))
    # bit j of a permuted mask is bit perm[j] of the original mask
    permuted = np.empty_like(values)
    for mask in range(1 << n):
        pmask = sum(1 << j for j in range(n) if mask >> perm[j] & 1)
        permuted[pmask] = values[mask]
    f = LocalFunction(sites, values)
    g = LocalFunction([sites[i] for i in perm], permuted)
    assert g.support == f.support
    assert np.array_equal(g.table, f.table)
    hats = hat_coeffs(g)
    assert hats == hat_coeffs(f)
    for mask in range(1 << g.n_sites):
        ones = {g.support[i] for i in range(g.n_sites) if mask >> i & 1}
        assert sum(c for a, c in hats.items() if a <= ones) == g.table[mask]


@st.composite
def batches(draw):
    rows = draw(st.integers(0, 6))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=2 * rows, max_size=2 * rows))
    return np.array(values).reshape(rows, 2)


def moments(batch):
    return Moments.of(batch) if len(batch) else Moments.zeros(2)


def assert_same(a, b):
    assert a.n == b.n
    np.testing.assert_allclose(a.mean, b.mean, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(a.m2, b.m2, rtol=1e-9, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(batches(), min_size=3, max_size=3), order=st.permutations(range(3)))
def test_moments_merge_associative_and_order_free(parts, order):
    a, b, c = (moments(p) for p in parts)
    left = a.merge(b).merge(c)
    assert_same(left, a.merge(b.merge(c)))
    x, y, z = (moments(parts[i]) for i in order)
    assert_same(left, x.merge(y).merge(z))
    pooled = np.concatenate(parts)
    if len(pooled):
        assert_same(left, Moments.of(pooled))


positive = st.floats(0.01, 1e4)


@st.composite
def configs(draw):
    """Valid experiment configs with every optional key set or unset."""
    mode = draw(st.sampled_from(["forward", "dual-quenched", "dual-annealed", "range"]))
    kernel_name = draw(st.sampled_from(["nn", "power"]))
    dim = 1 if kernel_name == "power" else draw(st.integers(1, 3))
    alpha = draw(st.floats(0.1, 1.9) if kernel_name == "power" else st.none() | st.floats(0.1, 1.9))
    site = st.tuples(*[st.integers(-5, 5)] * dim)
    law = None
    if mode != "range" or draw(st.booleans()):
        probs = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3)))
        biases = draw(st.lists(st.floats(0.0, 4.0), min_size=probs.size, max_size=probs.size))
        law = DisorderLaw(atoms=tuple(zip(biases, (probs / probs.sum()).tolist())))
    observable = sites = None
    if mode != "range" and draw(st.booleans()):
        support = draw(st.lists(site, min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.floats(0.1, 2.0), min_size=len(support), max_size=len(support)))
        table = [sum(w for i, w in enumerate(weights) if mask >> i & 1)
                 for mask in range(1 << len(support))]
        observable = LocalFunction(support, table)   # monotone and not constant
    if mode.startswith("dual") and not observable:
        sites = draw(st.none() | st.lists(site, min_size=1, max_size=3, unique=True).map(tuple))
    grid = sorted(draw(st.lists(positive, min_size=1, max_size=4, unique=True)))
    window = draw(st.none() | st.tuples(positive, positive))
    return ExperimentConfig(
        mode=mode, t_grid=tuple(grid), replicas=draw(st.integers(2, 10 ** 6)),
        seed=draw(st.integers(0, 2 ** 63 - 1)), dim=dim, side=draw(st.integers(2, 40)),
        kernel_name=kernel_name, alpha=alpha, cutoff=draw(st.integers(1, 500)), law=law,
        observable=observable, sites=sites,
        nu=draw(st.floats(0.0, 5.0) if mode == "range" else st.none() | st.floats(0.0, 5.0)),
        lam=draw(st.none() | st.floats(0.01, 5.0)), threads=draw(st.integers(1, 4)),
        fit_window=window, disorder_seed=draw(st.none() | st.integers(0, 2 ** 32)))


@settings(max_examples=150, deadline=None)
@given(config=configs())
def test_csv_header_reads_back_as_its_config(config):
    config.validate()
    header = [line[2:] for line in _header_lines(config) if " = " in line]
    assert config_hash(parse_config_text("\n".join(header), "header")) == config_hash(config)
