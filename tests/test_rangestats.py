import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from biased_voter import rangestats
from biased_voter.exact import exact_range_functional_curve_1d
from biased_voter.kernel import make_nn_kernel, make_power_kernel
from biased_voter.rangestats import (_fractional_eigenvalue, dirichlet_eigenvalue, dv_constant,
                                     effective_exponent, lambda_nn, mc_range_functional)

NN1 = make_nn_kernel(1)
NN2 = make_nn_kernel(2)

# reference for E|R_100| of the 2-d nearest-neighbor walk: 400k replicas,
# seed 20260811; per-replica standard deviation about 9.32
PINNED_D2_MEAN_RANGE = 49.47871
PINNED_D2_STDERR = 0.0148


def interval_eigenvalue(length, n):
    """Smallest Dirichlet eigenvalue of -u'' on (0, length), 3-point stencil."""
    h = length / n
    d = np.full(n - 1, 2.0 / h ** 2)
    e = np.full(n - 2, -1.0 / h ** 2)
    return eigh_tridiagonal(d, e, select="i", select_range=(0, 0))[0][0]


def disk_eigenvalue(radius, n):
    """Smallest Dirichlet eigenvalue of the radial 2-d Laplacian on a disk.

    Conservative finite volumes on nodes r = i h with the boundary exactly
    on a node; the generalized problem is symmetrized by the cell volumes.
    """
    h = radius / n
    i = np.arange(n)
    rp = (i + 0.5) * h
    rm = np.maximum(i - 0.5, 0.0) * h
    vol = np.where(i == 0, h * h / 8.0, i * h * h)
    d = (rp + rm) / h / vol
    e = (-rp[:-1] / h) / np.sqrt(vol[:-1] * vol[1:])
    return eigh_tridiagonal(d, e, select="i", select_range=(0, 0))[0][0]


def richardson(coarse, fine):
    return (4.0 * fine - coarse) / 3.0


class TestLambda:
    def test_d1_against_interval_eigensolve(self):
        mu = richardson(interval_eigenvalue(1.0, 1000), interval_eigenvalue(1.0, 2000))
        assert lambda_nn(1) == pytest.approx(mu / 2.0, abs=1e-6)
        assert lambda_nn(1) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-14)

    def test_d2_against_radial_eigensolve(self):
        radius = 1.0 / math.sqrt(math.pi)  # unit-volume disk
        mu = richardson(disk_eigenvalue(radius, 2000), disk_eigenvalue(radius, 4000))
        assert lambda_nn(2) == pytest.approx(mu / 4.0, abs=1e-6)

    def test_d2_j01_literal_is_scipys_zero(self):
        from scipy.special import jn_zeros
        assert lambda_nn(2) == math.pi * float(jn_zeros(0, 1)[0]) ** 2 / 4

    def test_d3_against_radial_eigensolve(self):
        # substituting w = r u turns the radial 3-d problem into an interval one
        radius = (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
        mu = richardson(interval_eigenvalue(radius, 1000), interval_eigenvalue(radius, 2000))
        assert lambda_nn(3) == pytest.approx(mu / 6.0, abs=1e-6)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            lambda_nn(4)


class TestKernelEigenvalue:
    """lam from the kernel: nn's closed form, or c 2^alpha mu(alpha) for a power kernel."""

    def test_mu_at_alpha_1_is_kwasnickis_value(self):
        # Kwasnicki, J. Funct. Anal. 262, 2379 (2012)
        assert _fractional_eigenvalue(1.0) == pytest.approx(1.1577738836977, rel=1e-9)

    def test_mu_at_alpha_2_is_the_laplacian_value(self):
        assert _fractional_eigenvalue(2.0) == pytest.approx(math.pi ** 2 / 4.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5])
    def test_mu_is_converged_and_above_a_64_mode_solve(self, monkeypatch, alpha):
        mu = _fractional_eigenvalue(alpha)
        monkeypatch.setattr(rangestats, "_MODES", 64)
        reference = _fractional_eigenvalue(alpha)
        assert mu == pytest.approx(reference, rel=1e-6)
        assert mu >= reference   # Rayleigh-Ritz: more modes never raise the bound

    def test_power_kernel_value(self):
        # the continuum value c_tail * 2 * mu(1) for alpha = 1, cutoff 1000
        assert dirichlet_eigenvalue(make_power_kernel(1.0, 1000)) == pytest.approx(
            2.165, abs=1e-3)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_nn_kernel_keeps_its_closed_form(self, dim):
        assert dirichlet_eigenvalue(make_nn_kernel(dim)) == lambda_nn(dim)

    def test_nn_value_is_the_power_rule_at_alpha_2(self):
        # 1 - p_hat(k) ~ k^2 / 2 for the 1-d nn walk: c = 1/2
        assert 0.5 * 4.0 * _fractional_eigenvalue(2.0) == pytest.approx(lambda_nn(1), rel=1e-12)


class TestDVConstant:
    def test_zero_at_nu_zero(self):
        for d in (1, 2, 3):
            assert dv_constant(d, 2.0, lambda_nn(d), 0.0) == 0.0

    def test_d1_reference_value(self):
        val = dv_constant(1, 2.0, lambda_nn(1), 1.0)
        assert val == pytest.approx(3.0 * (math.pi ** 2 / 8.0) ** (1.0 / 3.0), rel=1e-12)

    def test_increasing_in_nu_and_lambda(self):
        lam = lambda_nn(1)
        nus = np.linspace(0.1, 5.0, 17)
        vals = [dv_constant(1, 2.0, lam, nu) for nu in nus]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        lams = np.linspace(0.5, 8.0, 17)
        vals = [dv_constant(2, 2.0, lv, 1.0) for lv in lams]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            dv_constant(1, 2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            dv_constant(1, 2.0, 1.0, -0.5)


class TestMCRangeFunctional:
    def test_time_zero(self):
        curve = mc_range_functional(NN1, 1.0, [0.0], 100, seed=1)
        assert curve.exp_means[1.0][0] == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert curve.exp_stderrs[1.0][0] < 1e-15  # identical weights up to rounding
        assert curve.range_mean[0] == 1.0

    def test_weight_bounded_by_single_site_value(self):
        curve = mc_range_functional(NN1, 0.8, [2.0, 10.0], 2000, seed=2)
        assert np.all(curve.exp_means[0.8] > 0.0)
        assert np.all(curve.exp_means[0.8] <= math.exp(-0.8) + 1e-12)

    def test_d1_matches_exact_solver(self):
        for nu in (0.5, 1.0):
            curve = mc_range_functional(NN1, nu, [10.0, 50.0], 100_000, seed=3)
            for j, t in enumerate((10.0, 50.0)):
                target = exact_range_functional_curve_1d(nu, [t], 120)[0]
                assert abs(curve.exp_means[nu][j] - target) < 4 * curve.exp_stderrs[nu][j], (nu, t)

    def test_d2_mean_range_against_pinned_reference(self):
        curve = mc_range_functional(NN2, 1.0, [100.0], 20_000, seed=4)
        run_se = 9.33 / math.sqrt(20_000)
        combined = math.sqrt(run_se ** 2 + PINNED_D2_STDERR ** 2)
        assert abs(curve.range_mean[0] - PINNED_D2_MEAN_RANGE) < 4 * combined

    def test_negative_nu_rejected(self):
        with pytest.raises(ValueError):
            mc_range_functional(NN1, -1.0, [1.0], 10, seed=5)


class TestEffectiveExponent:
    def test_pure_stretched_exponential(self):
        ts = np.geomspace(1.0, 100.0, 12)
        series = [(t, math.exp(-0.2 * t ** (1.0 / 3.0))) for t in ts]
        slopes = effective_exponent(series)
        assert len(slopes) == 10
        for _, s in slopes:
            assert s == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_pure_exponential(self):
        ts = np.geomspace(0.5, 5.0, 9)
        series = [(t, math.exp(-0.4 * t)) for t in ts]
        for _, s in effective_exponent(series):
            assert s == pytest.approx(1.0, abs=1e-10)

    def test_exact_series_trend(self, exact_series_nu1):
        ts, values = exact_series_nu1
        slopes = [s for _, s in effective_exponent(list(zip(ts, values)))]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))
        assert 0.30 <= slopes[-1] <= 0.42

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            effective_exponent([(1.0, 1.0), (2.0, 0.5), (3.0, 0.2)])
        with pytest.raises(ValueError):
            effective_exponent([(0.0, 0.5), (2.0, 0.4), (3.0, 0.3)])
