"""Property tests of the exact oracles, the subset-lattice transform, the
moment merge and the CSV header's config, over randomly drawn inputs."""

import math
from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from biased_voter.disorder import DisorderLaw
from biased_voter.exact import (build_forward_generator, duality_gap,
                                exact_forward_values_all,
                                product_indicator_vector, semigroup_apply)
from biased_voter.harness import (MODES, ExperimentConfig, _header_lines, config_hash,
                                  parse_config_text, read_keys)
from biased_voter.kernel import fold_to_torus, make_nn_kernel, make_power_kernel
from biased_voter.localfn import (LocalFunction, _subset_sums, hat_coeffs, product_indicator,
                                  site_indicator)
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
    # the sums of squared deviations, unscaled
    np.testing.assert_allclose(np.ldexp(a.scaled_m2, 2 * a.exponent),
                               np.ldexp(b.scaled_m2, 2 * b.exponent), rtol=1e-9, atol=1e-6)


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


def unscaled_moments(values):
    """The pairwise update on unscaled sums, as ``Moments`` ran before its scale."""
    mean = values.mean(axis=0)
    return mean, np.sqrt(((values - mean) ** 2).sum(axis=0) / (len(values) - 1) / len(values))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.integers(-140, 140),
       sizes=st.lists(st.integers(2, 40), min_size=1, max_size=4))
def test_scaled_moments_give_the_unscaled_bits(seed, exponent, sizes):
    # samples whose squares stay normal: the power-of-two scale changes no bit
    rng = np.random.default_rng(seed)
    parts = [rng.exponential(size=(n, 3)) * 10.0 ** exponent for n in sizes]
    merged = Moments.zeros(3)
    for part in parts:
        merged = merged.merge(Moments.of(part))
    pooled = np.concatenate(parts)
    if len(parts) == 1:
        mean, stderr = unscaled_moments(pooled)
        assert np.array_equal(merged.mean, mean) and np.array_equal(merged.stderr, stderr)
    np.testing.assert_allclose(merged.mean, pooled.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(merged.stderr, unscaled_moments(pooled)[1], rtol=1e-9)


def test_tiny_samples_keep_their_stderr():
    # squares of 1e-170 underflow to 0: unscaled sums report no spread at all
    rng = np.random.default_rng(3)
    values = 1e-170 * (1.0 + rng.standard_normal((1000, 3)))
    merged = Moments.of(values[:400]).merge(Moments.of(values[400:]))
    want = 1e-170 * unscaled_moments(values * 1e170)[1]
    assert np.all(unscaled_moments(values)[1] == 0.0)
    np.testing.assert_allclose(merged.stderr, want, rtol=1e-12)
    np.testing.assert_allclose(merged.mean, values.mean(axis=0), rtol=1e-12)


def test_a_constant_column_has_its_value_and_no_spread():
    value = 0.1 + 0.2   # n copies of it do not sum to n times it exactly
    values = np.full((1000, 2), value)
    values[:, 1] = np.arange(1000)
    merged = Moments.of(values[:300]).merge(Moments.of(values[300:]))
    assert merged.mean[0] == value and merged.stderr[0] == 0.0
    assert merged.stderr[1] > 0.0


def reals(lo, hi):
    """Floats in [lo, hi], drawn also as numpy floats and as ints."""
    return (st.floats(lo, hi) | st.floats(lo, hi).map(np.float64)
            | st.integers(math.ceil(lo), math.floor(hi)))


positive = reals(0.01, 1e4)


@st.composite
def configs(draw):
    """Valid experiment configs with every optional key its mode reads set or unset.

    A mode that reads an observable gets none (the default), a monotone
    weighted sum, or a start set's product indicator, the value of ``sites``.
    """
    mode = draw(st.sampled_from(MODES))
    kernel_name = draw(st.sampled_from(["nn", "power"]))
    dim = 1 if kernel_name == "power" else draw(st.integers(1, 3))
    site = st.tuples(*[st.integers(-5, 5)] * dim)
    keys = dict(mode=mode, kernel_name=kernel_name, dim=dim,
                t_grid=tuple(sorted(draw(st.lists(positive, min_size=1, max_size=4,
                                                  unique=True)))),
                replicas=draw(st.integers(2, 10 ** 6)), seed=draw(st.integers(0, 2 ** 63 - 1)),
                threads=draw(st.integers(1, 4)))
    if kernel_name == "power":
        keys.update(alpha=draw(reals(0.1, 1.9)), cutoff=draw(st.integers(1, 500)))
    if mode == "forward":
        keys["side"] = draw(st.integers(2, 40))
    if mode == "range":
        keys["nu"] = draw(reals(0.0, 5.0))
    else:
        probs = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3)))
        biases = draw(st.lists(st.floats(0.0, 4.0), min_size=probs.size, max_size=probs.size))
        keys["law"] = DisorderLaw(atoms=tuple(zip(biases, (probs / probs.sum()).tolist())))
        kind = draw(st.sampled_from([None, "weighted", "sites"]))
        if kind:
            # distinct after wrapping too: a forward run reads its sites on its torus
            side = keys.get("side")
            support = draw(st.lists(site, min_size=1, max_size=3, unique_by=lambda s: (
                s if side is None else tuple(c % side for c in s))))
        if kind == "weighted":
            weights = draw(st.lists(st.floats(0.1, 2.0), min_size=len(support),
                                    max_size=len(support)))
            table = [sum(w for i, w in enumerate(weights) if mask >> i & 1)
                     for mask in range(1 << len(support))]
            keys["observable"] = LocalFunction(support, table)   # monotone and not constant
        elif kind == "sites":
            keys["observable"] = product_indicator(support)
    if mode == "sandwich":
        window = st.lists(positive, min_size=2, max_size=2, unique=True).map(sorted)
        keys["fit_window"] = draw(st.none() | window.map(tuple))
    if mode == "dual-quenched":
        keys["disorder_seed"] = draw(st.none() | st.integers(0, 2 ** 32))
    return ExperimentConfig(**keys)


@settings(max_examples=150, deadline=None)
@given(config=configs())
def test_csv_header_reads_back_as_its_config(config):
    config.validate()
    header = [line[2:] for line in _header_lines(config) if " = " in line]
    assert config_hash(parse_config_text("\n".join(header), "header")) == config_hash(config)


@settings(max_examples=60, deadline=None)
@given(config=configs())
def test_csv_header_lists_the_keys_its_mode_reads(config):
    # threads is no part of the result, the header writes every law as atoms
    # and a start set as its observable
    header = [line[2:].split(" = ")[0] for line in _header_lines(config) if " = " in line]
    reads = read_keys(config.mode, config.kernel_name)
    assert header == [key for key in reads if key not in ("threads", "q", "b", "sites")]


@settings(max_examples=100, deadline=None)
@given(config=configs())
def test_default_observable_given_explicitly_keeps_hash(config):
    # one computation, one hash: the origin-site indicator is the default
    assume("observable" in read_keys(config.mode))
    implicit = replace(config, observable=None)
    explicit = replace(config, observable=site_indicator((0,) * config.dim))
    assert config_hash(implicit) == config_hash(explicit)


def test_sandwich_and_annealed_configs_hash_apart():
    keys = dict(t_grid=(10.0, 100.0), replicas=200, seed=3,
                law=DisorderLaw(atoms=((0.0, 0.5), (1.0, 0.5))), observable=site_indicator(0))
    sandwich, annealed = (ExperimentConfig(mode=m, **keys) for m in ("sandwich", "dual-annealed"))
    sandwich.validate()
    annealed.validate()
    assert config_hash(sandwich) != config_hash(annealed)
