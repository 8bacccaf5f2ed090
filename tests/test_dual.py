import itertools
import math

import numpy as np
import pytest
from scipy.special import ive

from biased_voter.disorder import (BiasField, LazyBiasField, bernoulli_law,
                                   deterministic_law, laplace, sample_field)
from biased_voter.dual import DualSimulation, dual_curve
from biased_voter.exact import exact_dual_value
from biased_voter.forward import forward_relaxation
from biased_voter.kernel import fold_to_torus, make_nn_kernel, make_power_kernel
from biased_voter.localfn import LocalFunction
from biased_voter.walks import walk_curve

NN1 = make_nn_kernel(1)
NN2 = make_nn_kernel(2)


def rng_for(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def dual_at(start, kernel, t, replicas, seed, **disorder):
    """Mean and stderr of the dual weight at one time."""
    curve = dual_curve(start, kernel, [t], replicas, seed, **disorder)
    return float(curve.weight_mean[0]), float(curve.weight_stderr[0])


def advanced(start, kernel, t, rng):
    """The event-by-event reference dual at time t."""
    sim = DualSimulation(start, kernel, rng)
    sim.advance_to(t)
    return sim


def coalescence_probability(t):
    """P(two adjacent 1-d walkers have met by t): reflection principle for
    the rate-2 difference walk gives 1 - e^{-2t}(I0(2t) + I1(2t))."""
    return 1.0 - (ive(0, 2 * t) + ive(1, 2 * t))


class TestDualEvolve:
    def test_single_particle_never_coalesces(self):
        sim = advanced([(0,)], NN1, 7.0, rng_for(1))
        assert len(sim.particles) == 1
        assert sum(sim.local_times.values()) == pytest.approx(7.0, abs=1e-9)

    def test_time_zero(self):
        sim = advanced([(0,), (3,)], NN1, 0.0, rng_for(2))
        assert set(sim.particles) == sim.visited == {(0,), (3,)}
        assert sum(sim.local_times.values()) == 0.0
        assert sim.jumps == 0

    def test_empty_start_rejected(self):
        with pytest.raises(ValueError):
            DualSimulation([], NN1, rng_for(3))

    def test_repeated_start_rejected(self):
        # as on the walk engine: a repeated site is an error, not one particle
        with pytest.raises(ValueError, match="distinct"):
            DualSimulation([(0,), (0,)], NN1, rng_for(3))

    def test_particle_count_nonincreasing(self):
        sim = DualSimulation([(0,), (1,), (5,)], NN1, rng_for(4))
        last = 3
        for t in np.linspace(0.5, 30.0, 20):
            sim.advance_to(t)
            assert len(sim.particles) <= last
            last = len(sim.particles)

    def test_occupation_bounded_by_start_count(self):
        sim = advanced([(0,), (1,), (2,)], NN1, 11.0, rng_for(5))
        assert sum(sim.local_times.values()) <= 3 * 11.0 + 1e-9

    def test_range_bounded_by_jump_count(self):
        sim = DualSimulation([(0,)], NN1, rng_for(6))
        sim.advance_to(200.0)
        assert len(sim.visited) <= sim.jumps + 1

    def test_coalescence_fraction_matches_first_passage(self):
        t, n = 10.0, 4000
        hits = sum(len(advanced([(0,), (1,)], NN1, t, rng_for(7, r)).particles) == 1
                   for r in range(n))
        p = hits / n
        exact = coalescence_probability(t)
        se = math.sqrt(exact * (1 - exact) / n)
        assert abs(p - exact) < 4 * se

    @pytest.mark.slow
    def test_coalescence_at_large_time(self):
        # adjacent walkers in one dimension almost surely meet
        # (the batched riders of dual_curve: the event loop is too slow here)
        t, n = 1000.0, 10_000
        curve = dual_curve([(0,), (1,)], NN1, [t], n, 8, law=deterministic_law(0.0))
        p = 2.0 - float(curve.particles_mean[0])
        exact = coalescence_probability(t)
        se = math.sqrt(exact * (1 - exact) / n)
        assert p > 0.9
        assert abs(p - exact) < 4 * se


class ConstantField(BiasField):
    def __init__(self, b):
        super().__init__({})
        self.b = b

    def value(self, site):
        return self.b


class TestQuenched:
    def test_constant_bias_zero_variance(self):
        b, t = 0.9, 2.5
        mean, stderr = dual_at([(0,)], NN1, t, 300, 9, bias=ConstantField(b))
        assert abs(mean - math.exp(-b * t)) < 1e-12
        assert stderr < 1e-12

    def test_zero_bias_weight_is_one(self):
        mean, stderr = dual_at([(0,), (2,)], NN1, 4.0, 200, 10, bias=ConstantField(0.0))
        assert mean == 1.0
        assert stderr == 0.0

    def test_torus_quenched_matches_exact_semigroup(self):
        side, t, n = 3, 1.0, 20_000
        tk = fold_to_torus(NN1, side)
        rng = rng_for(11)
        beta = rng.uniform(0.0, 2.0, side)
        field = BiasField({(i,): float(beta[i]) for i in range(side)})
        mean, stderr = dual_at([(0,)], tk, t, n, 12, bias=field)
        target = exact_dual_value([(0,)], beta, tk, t)
        assert abs(mean - target) < 4 * stderr

    def test_quenched_matches_forward_under_same_field(self):
        # the two Monte Carlo routes estimate the same number
        side, t = 4, 1.0
        tk = fold_to_torus(NN1, side)
        field = sample_field(bernoulli_law(0.5, 1.0), [(i,) for i in range(side)],
                             rng_for(13))
        f = LocalFunction([(0,), (1,)], [0, 0, 0, 1])
        fwd_mean, fwd_se = forward_relaxation(f, field, tk, [t], 20_000, seed=14)
        dual_mean, dual_se = dual_at([(0,), (1,)], tk, t, 20_000, 15, bias=field)
        z = abs(fwd_mean[0] - dual_mean) / math.sqrt(fwd_se[0] ** 2 + dual_se ** 2)
        assert z < 4


class TestAnnealed:
    def test_all_mass_at_zero_is_exactly_one(self):
        mean, stderr = dual_at([(0,), (1,)], NN1, 5.0, 200, 16, law=deterministic_law(0.0))
        assert mean == 1.0
        assert stderr == 0.0

    def test_deterministic_law_is_pathwise_exact(self):
        b, t = 1.1, 3.0
        mean, stderr = dual_at([(0,)], NN1, t, 300, 17, law=deterministic_law(b))
        assert abs(mean - math.exp(-b * t)) < 1e-12
        assert stderr < 1e-12

    def test_multi_particle_deterministic_law(self):
        # slow path (two particles): weight is exp(-b * total occupation)
        b, t = 0.6, 2.0
        curve = dual_curve([(0,), (4,)], NN1, [t], 500, 18, law=deterministic_law(b))
        assert curve.particles_mean[0] <= 2.0
        assert 0.0 < curve.weight_mean[0] < 1.0

    @pytest.mark.slow
    def test_annealed_equals_average_of_quenched(self):
        # integrate the disorder analytically vs sampling 200 explicit fields
        law = bernoulli_law(0.5, 1.0)
        t = 20.0
        ann_mean, ann_se = dual_at([(0,)], NN1, t, 100_000, 19, law=law)
        n_fields, n_rep = 200, 500
        field_means = []
        for i in range(n_fields):
            bias = LazyBiasField(law, disorder_seed=1000 + i)
            m, _ = dual_at([(0,)], NN1, t, n_rep, 20_000 + i, bias=bias)
            field_means.append(m)
        q_mean = float(np.mean(field_means))
        q_se = float(np.std(field_means, ddof=1) / math.sqrt(n_fields))
        z = abs(ann_mean - q_mean) / math.sqrt(ann_se ** 2 + q_se ** 2)
        assert z < 4

    def test_fast_path_agrees_with_simulation_path(self):
        # singleton start goes through the vectorized engine; force the
        # event-driven path with a two-particle start far apart and compare
        # against the same functional computed from raw dual states
        law = bernoulli_law(0.4, 1.5)
        t = 3.0
        fast_mean, fast_se = dual_at([(0,)], NN1, t, 40_000, 21, law=law)
        n = 20_000
        weights = np.empty(n)
        for r in range(n):
            sim = advanced([(0,)], NN1, t, rng_for(22, r))
            weights[r] = np.prod([laplace(law, lt) for lt in sim.local_times.values()])
        slow_mean = weights.mean()
        slow_se = weights.std(ddof=1) / math.sqrt(n)
        z = abs(fast_mean - slow_mean) / math.sqrt(fast_se ** 2 + slow_se ** 2)
        assert z < 4


class TestWalkersAndCoupling:
    def test_duplicate_starts_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            dual_curve([(0,), (0,)], NN1, [1.0], 10, 23, law=deterministic_law(0.0))
        with pytest.raises(ValueError, match="distinct"):
            walk_curve(NN1, [1.0], 10, 23, starts=[(0,), (0,)])

    def test_time_zero_counts_starts(self):
        curve = dual_curve([(0,), (5,), (9,)], NN1, [0.0], 10, 24, law=deterministic_law(0.0))
        assert curve.range_mean[0] == 3.0

    def test_single_walker_range_reasonable(self):
        stats = walk_curve(NN1, [50.0], 10, 25)
        assert 1 <= stats.range_mean[0] <= 200

    def test_two_dimensional_walkers(self):
        stats = walk_curve(NN2, [0.0, 10.0], 10, 27, starts=[(0, 0), (2, 2)])
        assert stats.range_mean[0] == 2.0
        assert stats.range_mean[1] >= 2.0


class TestDualCurve:
    def test_curve_shapes_and_particle_means(self):
        law = bernoulli_law(0.5, 1.0)
        curve = dual_curve([(0,), (1,)], NN1, [0.5, 2.0, 8.0], 400, 28, law=law)
        assert curve.weight_mean.shape == (3,)
        assert np.all(np.diff(curve.range_mean) >= 0)
        assert np.all(curve.particles_mean <= 2.0)
        assert np.all(curve.particles_mean >= 1.0)
        assert curve.max_abs_position >= 1

    def test_quenched_requires_bias(self):
        # the mode follows from the disorder given: neither is an error
        with pytest.raises(ValueError, match="exactly one"):
            dual_curve([(0,)], NN1, [1.0], 10, 0)

    def test_annealed_requires_law(self):
        # and a law with a field is an error, not a silent choice
        with pytest.raises(ValueError, match="exactly one"):
            dual_curve([(0,)], NN1, [1.0], 10, 0, law=deterministic_law(0.0),
                       bias=ConstantField(0.0))

    def test_range_and_particles_match_event_reference(self):
        # the riders' range and live count against the event-by-event dual
        start, ts, n, batched = [(0,), (1,), (3,)], [1.0, 5.0], 4000, 20_000
        curve = dual_curve(start, NN1, ts, batched, 36, law=deterministic_law(0.0))
        ranges, particles = np.empty((n, 2)), np.empty((n, 2))
        for r in range(n):
            sim = DualSimulation(start, NN1, rng_for(37, r))
            for j, t in enumerate(ts):
                sim.advance_to(t)
                ranges[r, j], particles[r, j] = len(sim.visited), len(sim.particles)
        for ref, got in ((ranges, curve.range_mean), (particles, curve.particles_mean)):
            # the batched run has n / batched times the reference's variance
            se = ref.std(axis=0, ddof=1) * math.sqrt(1 / n + 1 / batched)
            assert np.all(np.abs(ref.mean(axis=0) - got) < 4 * se)

    def test_threads_do_not_change_results(self):
        law = bernoulli_law(0.5, 1.0)
        a = dual_curve([(0,), (2,)], NN1, [1.0, 4.0], 600, 29, law=law)
        b = dual_curve([(0,), (2,)], NN1, [1.0, 4.0], 600, 29, law=law, threads=3)
        assert np.array_equal(a.weight_mean, b.weight_mean)
        assert np.array_equal(a.weight_stderr, b.weight_stderr)
        assert np.array_equal(a.range_mean, b.range_mean)


class TestRidersAgainstExact:
    """Multi-site dual runs on a 4-site torus against the killed-dual semigroup."""

    SIDE = 4
    TIMES = (0.5, 2.0)

    @pytest.mark.parametrize("kernel, start", [
        (NN1, [(0,), (1,)]),
        (NN1, [(0,), (2,)]),
        (NN1, [(0,), (1,), (3,)]),
        # folded onto the torus, this kernel puts mass on displacement 0: such
        # a jump leaves the rider where it is and must not kill it
        (make_power_kernel(1.0, 4), [(0,), (1,), (3,)]),
    ], ids=["nn-01", "nn-02", "nn-013", "no-op-013"])
    def test_quenched_matches_exact(self, kernel, start):
        tk = fold_to_torus(kernel, self.SIDE)
        beta = rng_for(30).uniform(0.0, 2.0, self.SIDE)
        field = BiasField({(i,): float(beta[i]) for i in range(self.SIDE)})
        curve = dual_curve(start, tk, self.TIMES, 40_000, 31, bias=field)
        targets = exact_dual_value(start, beta, tk, self.TIMES)
        for j, (t, target) in enumerate(zip(self.TIMES, targets)):
            assert abs(curve.weight_mean[j] - target) < 4 * curve.weight_stderr[j], f"t={t}"

    def test_annealed_matches_exact_field_average(self):
        tk = fold_to_torus(NN1, self.SIDE)
        law = bernoulli_law(0.5, 1.0)
        start = [(0,), (1,)]
        curve = dual_curve(start, tk, self.TIMES, 40_000, 32, law=law)
        targets = 0.0
        for bits in itertools.product(range(len(law.atoms)), repeat=self.SIDE):
            beta = np.array([law.atoms[i][0] for i in bits])
            weight = np.prod([law.atoms[i][1] for i in bits])
            targets += weight * exact_dual_value(start, beta, tk, self.TIMES)
        for j, (t, target) in enumerate(zip(self.TIMES, targets)):
            assert abs(curve.weight_mean[j] - target) < 4 * curve.weight_stderr[j], f"t={t}"

    def test_particles_coalesce_on_the_torus(self):
        tk = fold_to_torus(NN1, self.SIDE)
        curve = dual_curve([(0,), (1,), (3,)], tk, [0.0, 1.0, 50.0], 500, 33,
                           law=deterministic_law(0.0))
        assert curve.particles_mean[0] == 3.0
        assert curve.particles_mean[1] < 3.0
        assert curve.particles_mean[2] == 1.0
        assert np.array_equal(curve.weight_mean, np.ones(3))

    def test_starts_colliding_on_the_torus_rejected(self):
        tk = fold_to_torus(NN1, self.SIDE)
        with pytest.raises(ValueError, match="distinct"):
            dual_curve([(0,), (4,)], tk, [1.0], 10, 0, law=deterministic_law(0.0))


class TestQuenchedBiasChecks:
    """The engine reads each bias value once per batch and checks it."""

    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_bad_values_rejected_on_z(self, value):
        with pytest.raises(ValueError, match="nonnegative"):
            dual_at([(0,), (2,)], NN1, 1.0, 10, 0, bias=ConstantField(value))

    def test_missing_site_rejected_on_z(self):
        with pytest.raises(ValueError, match="does not cover"):
            dual_at([(0,)], NN1, 5.0, 10, 0, bias=BiasField({(0,): 1.0}))

    @pytest.mark.parametrize("values", [{(0,): -1.0, (1,): 0.0, (2,): 0.0},
                                        {(0,): math.nan, (1,): 0.0, (2,): 0.0},
                                        {(0,): 1.0, (1,): 0.0}])
    def test_bad_fields_rejected_on_torus(self, values):
        tk = fold_to_torus(NN1, 3)
        with pytest.raises(ValueError):
            dual_at([(0,)], tk, 1.0, 10, 0, bias=BiasField(values))
