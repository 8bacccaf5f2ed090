"""End-to-end acceptance gate.

One test per criterion, each at its stated scale and tolerance; every test
prints a PASS line (visible with ``pytest -s``) once its assertions hold.
The heavy statistical criteria also assert their runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from biased_voter.disorder import (BiasField, _draw_values, bernoulli_law,
                                 deterministic_law, nu1, nu2)
from biased_voter.dual import dual_curve
from biased_voter.exact import duality_gap, exact_dual_value
from biased_voter.forward import ForwardSimulation, forward_relaxation
from biased_voter.harness import (ExperimentConfig, config_hash, run,
                                  sandwich_report, write_records_csv)
from biased_voter.kernel import fold_to_torus, make_nn_kernel
from biased_voter.localfn import LocalFunction, is_monotone, lemma1_check, lemma2_verify
from biased_voter.localfn import hat_coeffs
from biased_voter.rangestats import dv_constant, lambda_nn, mc_range_functional
from biased_voter.localfn import site_indicator

pytestmark = pytest.mark.acceptance

NN1 = make_nn_kernel(1)
NN2 = make_nn_kernel(2)


def report(number: int, message: str):
    print(f"ACCEPTANCE {number}: PASS  {message}")


def rng_for(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def test_criterion_01_exact_duality_identity():
    """Forward product-indicator expectations equal killed-dual values to 1e-10."""
    start = time.monotonic()
    # (dim, side): 2, 3, 4, 4 sites, then the documented limits of 12, 9, 8
    cases = [(1, 2), (1, 3), (1, 4), (2, 2), (1, 12), (2, 3), (3, 2)]
    worst = 0.0
    rng = rng_for(101)
    for dim, side in cases:
        tk = fold_to_torus(make_nn_kernel(dim), side)
        for _ in range(20):
            beta = rng.uniform(0.0, 2.0, tk.n_sites)
            for t in (0.1, 1.0, 10.0):
                worst = max(worst, duality_gap(beta, tk, t))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < 60.0
    report(1, f"worst |forward - dual| = {worst:.2e} over {len(cases)} tori, "
              f"20 fields, 3 times ({elapsed:.1f}s)")


def test_criterion_02_monte_carlo_vs_exact():
    """Forward and quenched-dual Monte Carlo agree with the exact oracle."""
    start = time.monotonic()
    side = 3
    tk = fold_to_torus(NN1, side)
    beta = rng_for(202).uniform(0.0, 2.0, side)
    field = BiasField({(i,): float(beta[i]) for i in range(side)})
    times = (0.5, 2.0)
    replicas = 100_000

    fwd_mean, fwd_se = forward_relaxation(site_indicator(0), field, tk,
                                          list(times), replicas, seed=203)
    for j, t in enumerate(times):
        target = exact_dual_value([(0,)], beta, tk, t)
        assert abs(fwd_mean[j] - target) < 4 * fwd_se[j], f"forward at t={t}"

    for t in times:
        target = exact_dual_value([(0,)], beta, tk, t)
        curve = dual_curve([(0,)], tk, [t], replicas, 204, bias=field)
        assert abs(curve.mean[0] - target) < 4 * curve.stderr[0], f"dual at t={t}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(2, f"forward and dual within 4 stderr of the exact semigroup at "
              f"t in {times} with 1e5 replicas ({elapsed:.1f}s)")


def test_criterion_03_constant_bias_closed_form():
    """With constant bias the dual weight is deterministic exp(-bt)."""
    b = 1.3

    class Constant(BiasField):
        def __init__(self):
            super().__init__({}, seed_info="constant")

        def value(self, site):
            return b

    for t in (0.8, 2.5):
        target = math.exp(-b * t)
        for curve in (dual_curve([(0,)], NN1, [t], 500, 301, bias=Constant()),
                      dual_curve([(0,)], NN1, [t], 500, 302, law=deterministic_law(b))):
            assert abs(curve.mean[0] - target) <= 1e-12
            assert curve.stderr[0] <= 1e-12
    report(3, "quenched and annealed estimators return exp(-bt) with zero "
              "sample variance for constant bias")


def test_criterion_04_constants_grid():
    """nu1, nu2, the Jensen bound, and strict ordering on a (q, b) grid."""
    for q in np.linspace(0.05, 0.95, 10):
        for b in np.linspace(0.1, 5.0, 10):
            law = bernoulli_law(float(q), float(b))
            assert nu2(law) == -math.log(q)
            assert nu1(law) == -math.log(q + (1 - q) / (1 + b))
            mean_bias = (1 - q) * b
            assert nu1(law) <= math.log(1 + mean_bias) + 1e-15
            assert nu1(law) < nu2(law)
    report(4, "nu1/nu2 closed forms exact, Jensen bound and strict ordering "
              "hold on the full 10x10 grid")


def test_criterion_05_range_exact_vs_monte_carlo():
    """1-d range functional: 1e6-replica Monte Carlo vs the exact solver."""
    start = time.monotonic()
    times = (5.0, 20.0, 50.0)
    from biased_voter.exact import exact_range_functional_curve_1d
    for nu, seed in ((0.5, 501), (1.0, 502)):
        curve = mc_range_functional(NN1, nu, times, 1_000_000, seed=seed)
        exact_vals = exact_range_functional_curve_1d(nu, times, 120)
        for j, t in enumerate(times):
            gap_j = abs(curve.mean[j] - exact_vals[j])
            assert gap_j < 4 * curve.stderr[j], (nu, t)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(5, f"Monte Carlo matches the exact range functional within 4 sigma "
              f"for nu in (0.5, 1.0), t <= 50 ({elapsed:.1f}s)")


def test_criterion_06_donsker_varadhan_trend(exact_series_nu1):
    """Approach to the t^(1/3) regime on the exact series up to t = 2000."""
    ts, values = exact_series_nu1
    x = np.log(ts)
    y = np.log(-np.log(values))
    centered = (y[2:] - y[:-2]) / (x[2:] - x[:-2])
    assert np.all(np.diff(centered) < 0), "local exponent must decrease"
    final_slope = (y[-1] - y[-2]) / (x[-1] - x[-2])
    assert 0.30 <= final_slope <= 0.42
    c_ref = dv_constant(1, 2.0, lambda_nn(1), 1.0)
    ratio = -math.log(values[-1]) / ts[-1] ** (1.0 / 3.0)
    assert c_ref / 2.0 <= ratio <= 2.0 * c_ref
    report(6, f"exponent decreasing, {final_slope:.3f} at t=2000 in [0.30, 0.42]; "
              f"-log F / t^(1/3) = {ratio:.3f} within factor 2 of {c_ref:.3f}")


def test_criterion_07_sandwich_at_scale():
    """Two-sided bounds with shared range samples at one million replicas."""
    start = time.monotonic()
    config = ExperimentConfig(
        mode="dual-annealed",
        t_grid=tuple(float(t) for t in np.geomspace(10.0, 1000.0, 12)),
        replicas=1_000_000,
        seed=707,
        dim=1,
        law=bernoulli_law(0.5, 1.0),
        observable=site_indicator(0))
    rep = sandwich_report(config)
    assert rep.hypotheses_ok
    for t, ok in zip(rep.columns["t"], rep.columns["sandwich_ok"]):
        assert ok, f"ordering failed at t={t}"
    for name, g in (("estimate", rep.gamma_estimate),
                    ("lower", rep.gamma_lower), ("upper", rep.gamma_upper)):
        assert g is not None and 0.28 <= g[0] <= 0.50, (name, g)
    lo = min(rep.gamma_lower[0], rep.gamma_upper[0])
    hi = max(rep.gamma_lower[0], rep.gamma_upper[0])
    ge, ce = rep.gamma_estimate
    assert ge + ce >= lo and ge - ce <= hi, "estimate CI misses the bound interval"
    assert rep.gamma_bracket_ok
    elapsed = time.monotonic() - start
    assert elapsed < 900.0
    report(7, f"ordering holds at all 12 times; exponents "
              f"est={ge:.3f}+-{ce:.3f}, lower={rep.gamma_lower[0]:.3f}, "
              f"upper={rep.gamma_upper[0]:.3f} in [0.28, 0.50] ({elapsed:.0f}s)")


def test_criterion_08_attractiveness():
    """Order preservation at every internal event for 1000 coupled pairs."""
    side, pairs = 8, 1000
    tk = fold_to_torus(NN1, side)
    rng = rng_for(808)
    # one two-layer stream, one replica and one field per pair
    high = (rng.random((pairs, side)) < 0.7).astype(np.uint8)
    low = high & (rng.random((pairs, side)) < 0.6)
    beta = _draw_values(bernoulli_law(0.5, 1.0), pairs * side, rng).reshape(pairs, side)
    sim = ForwardSimulation([low, high], beta, tk, rng)
    sim.advance_to(10.0)  # order asserted after every event
    assert np.all(sim.layers[0] <= sim.layers[1])
    report(8, "sitewise order preserved at every event for 1000 ordered "
              "pairs on L=8 to t=10")


def test_criterion_09_lemma_suite():
    """Expansion-coefficient machinery at the stated sampling sizes."""
    rng = np.random.default_rng(909)

    # product-weight inequalities on 10^4 random valid instances
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        z = rng.uniform(0.0, 3.0, size=1 << n)
        z[0] = 0.0
        x = z.copy()
        for i in range(n):
            bit = 1 << i
            for mask in range(1 << n):
                if mask & bit:
                    x[mask] -= x[mask ^ bit]
        sites = [(i,) for i in range(n)]
        xs = {frozenset(sites[i] for i in range(n) if m >> i & 1): x[m]
              for m in range(1 << n)}
        ys = {sites[i]: rng.uniform(0.0, 1.0) for i in range(n)}
        rep = lemma2_verify(xs, ys)
        assert rep.ineq2_ok
        assert rep.ineq1_ok in (None, True)

    # the two monotonicity characterizations agree on 10^4 random functions
    for _ in range(10_000):
        n = int(rng.integers(0, 5))
        f = LocalFunction([(i,) for i in range(n)], rng.normal(size=1 << n))
        assert lemma1_check(f) == is_monotone(f)

    # expansion roundtrip is exact for supports up to 6 sites
    for n in range(7):
        sites = [(i,) for i in range(n)]
        f = LocalFunction(sites, rng.integers(-9, 10, size=1 << n).astype(float))
        coeffs = hat_coeffs(f)
        for mask in range(1 << f.n_sites):
            ones = {f.support[i] for i in range(f.n_sites) if mask >> i & 1}
            recon = sum(v for subset, v in coeffs.items() if subset <= ones)
            assert recon == f.table[mask]
    report(9, "lemma inequalities on 1e4 instances, criterion equivalence on "
              "1e4 functions, exact roundtrip to 6 sites")


def test_criterion_10_determinism(tmp_path):
    """Identical config and seed give byte-identical CSV at any thread count."""
    base = dict(
        mode="dual-annealed",
        t_grid=tuple(float(t) for t in np.geomspace(5.0, 200.0, 6)),
        replicas=4200,  # spans several batches plus a ragged tail
        seed=1010,
        dim=1,
        law=bernoulli_law(0.5, 1.0),
        observable=site_indicator(0))
    outputs = []
    for threads in (1, 3, 1):
        config = ExperimentConfig(**base, threads=threads)
        path = tmp_path / f"t{threads}_{len(outputs)}.csv"
        columns, max_pos = run(config)
        write_records_csv(path, columns, config, max_pos)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    # thread count is not part of the result identity
    hashes = {config_hash(ExperimentConfig(**base, threads=k)) for k in (1, 3)}
    assert len(hashes) == 1
    report(10, "byte-identical CSV across thread counts 1 and 3 and on rerun")
