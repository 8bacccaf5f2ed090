import math

import numpy as np
import pytest

from biased_voter.disorder import (DisorderLaw, LazyBiasField, _draw_values, bernoulli_law,
                                   deterministic_law, laplace, nu1, nu2,
                                   sample_field)


def random_law(rng, max_atoms=4):
    n = rng.integers(1, max_atoms + 1)
    biases = np.sort(rng.uniform(0.0, 5.0, size=n))
    if rng.random() < 0.5:
        biases[0] = 0.0
    probs = rng.dirichlet(np.ones(n))
    return DisorderLaw(atoms=tuple(zip(biases.tolist(), probs.tolist())))


class TestConstants:
    def test_nu1_deterministic(self):
        for b in (0.3, 1.0, 4.2):
            assert nu1(deterministic_law(b)) == pytest.approx(math.log(1 + b), rel=1e-14)

    def test_nu1_all_mass_at_zero(self):
        assert nu1(deterministic_law(0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_nu1_bernoulli(self):
        q, b = 0.3, 2.0
        expected = -math.log(q + (1 - q) / (1 + b))
        assert nu1(bernoulli_law(q, b)) == pytest.approx(expected, rel=1e-14)

    def test_nu2_bernoulli(self):
        assert nu2(bernoulli_law(0.25, 1.0)) == pytest.approx(-math.log(0.25), rel=1e-14)

    def test_nu2_degenerate_cases(self):
        assert nu2(deterministic_law(0.0)) == 0.0
        assert nu2(deterministic_law(1.5)) == math.inf

    def test_jensen_bound_on_random_laws(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            law = random_law(rng)
            assert nu1(law) <= math.log(1 + law.mean_bias) + 1e-12

    def test_ordering_nu1_below_nu2(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            law = random_law(rng)
            assert nu1(law) <= nu2(law) + 1e-12
        # strict when the law mixes a zero atom with a positive one
        law = bernoulli_law(0.4, 2.0)
        assert nu1(law) < nu2(law)


class TestLaplace:
    def test_at_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            assert laplace(random_law(rng), 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_limit_is_mass_at_zero(self):
        law = bernoulli_law(0.35, 1.2)
        assert laplace(law, 1e6) == pytest.approx(0.35, abs=1e-12)

    def test_bernoulli_value(self):
        val = laplace(bernoulli_law(0.5, 1.0), 1.0)
        assert val == pytest.approx(0.5 + 0.5 * math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("law", [bernoulli_law(0.3, 1.7), deterministic_law(0.0),
                                     DisorderLaw(atoms=((0.5, 0.25), (2.0, 0.75))),
                                     DisorderLaw(atoms=((0.1, 0.2), (0.7, 0.3), (0.0, 0.5)))],
                             ids=["bernoulli", "all-at-zero", "no-zero-atom", "zero-atom-last"])
    def test_bit_equal_to_the_atom_sum(self, law):
        # skipping the exp of a bias-0 atom changes no bit: p * exp(-0 * u) = p
        u = np.array([0.0, 1e-300, 0.37, 1.0, 25.0, 800.0, 1e6, 1e300])
        want = np.zeros_like(u)
        for b, p in law.atoms:
            want = want + p * np.exp(-b * u)
        got = laplace(law, u)
        assert got.dtype == np.float64 and got.shape == u.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        for x, w in zip(u, want):
            assert laplace(law, float(x)) == w

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            laplace(bernoulli_law(0.5, 1.0), -0.1)

    def test_complete_monotonicity_orders(self):
        rng = np.random.default_rng(14)
        u = np.linspace(0.0, 6.0, 40)
        for _ in range(50):
            vals = laplace(random_law(rng), u)
            first = np.diff(vals)
            second = np.diff(first)
            assert np.all(first <= 1e-15)
            assert np.all(second >= -1e-15)

    def test_pathwise_mass_at_zero_floor(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            law = random_law(rng)
            n2 = nu2(law)
            lt = rng.exponential(2.0, size=rng.integers(1, 20))
            weight = float(np.prod(laplace(law, lt)))
            floor = 0.0 if math.isinf(n2) else math.exp(-n2 * np.count_nonzero(lt))
            assert weight >= floor - 1e-12


class TestLawValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DisorderLaw(atoms=((0.0, 0.5), (1.0, 0.6)))

    def test_negative_bias_rejected(self):
        with pytest.raises(ValueError):
            DisorderLaw(atoms=((-0.5, 1.0),))

    def test_infinite_bias_rejected(self):
        with pytest.raises(ValueError):
            DisorderLaw(atoms=((math.inf, 1.0),))


class TestSampling:
    def test_all_mass_at_zero(self):
        field = sample_field(deterministic_law(0.0), [(0,), (1,)], np.random.default_rng(0))
        assert all(field.value(s) == 0.0 for s in field.values)

    def test_deterministic_constant(self):
        field = sample_field(deterministic_law(1.3), [(i,) for i in range(10)],
                             np.random.default_rng(0))
        assert all(field.value((i,)) == 1.3 for i in range(10))

    def test_bernoulli_fraction(self):
        sites = [(i,) for i in range(100_000)]
        field = sample_field(bernoulli_law(0.5, 1.0), sites, np.random.default_rng(77))
        frac = sum(field.value(s) == 0.0 for s in sites) / len(sites)
        # 0.01 is 6.3 binomial standard deviations at this size
        assert abs(frac - 0.5) < 0.01

    def test_lazy_field_is_query_order_independent(self):
        law = bernoulli_law(0.5, 2.0)
        f1 = LazyBiasField(law, 123)
        f2 = LazyBiasField(law, 123)
        sites = [(i,) for i in range(-5, 6)]
        a = [f1.value(s) for s in sites]
        b = [f2.value(s) for s in reversed(sites)][::-1]
        assert a == b
        assert any(v != a[0] for v in a)  # actually random across sites

    def test_lazy_field_values_come_from_atoms(self):
        law = bernoulli_law(0.3, 1.7)
        f = LazyBiasField(law, 5)
        for i in range(-20, 20):
            assert f.value((i, i)) in (0.0, 1.7)


def generator_value(law, seed, site):
    """A lazy field's site value through SeedSequence, Generator and ``_draw_values``."""
    coded = [2 * c if c >= 0 else -2 * c - 1 for c in site]
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(coded), *coded]))
    return float(_draw_values(law, 1, rng)[0])


class TestLazyFieldStream:
    LAWS = (bernoulli_law(0.5, 1.0), DisorderLaw(((0.0, 0.3), (0.5, 0.2), (2.0, 0.5))))

    @pytest.mark.parametrize("seed", [11, 2 ** 40 + 3])   # one and two entropy words
    @pytest.mark.parametrize("dim", [1, 2])
    def test_values_equal_the_generator_path(self, seed, dim):
        # 10^4 sites a dimension, for two laws
        if dim == 1:
            sites = [(x,) for x in range(-5000, 5000)]
        else:
            sites = [(x, y) for x in range(-50, 50) for y in range(-50, 50)]
        for law in self.LAWS:
            want = [generator_value(law, seed, s) for s in sites]
            assert [LazyBiasField(law, seed).value(s) for s in sites] == want
