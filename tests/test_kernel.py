import numpy as np
import pytest

from biased_voter.disorder import BiasField
from biased_voter.dual import dual_curve
from biased_voter.exact import build_dual_matrix, build_forward_generator
from biased_voter.forward import ForwardSimulation
from biased_voter.kernel import Kernel, bias_array, fold_to_torus, make_nn_kernel, make_power_kernel
from references import char_fn, verify_assumption


def weight_of(kernel, disp):
    for x, w in zip(kernel.displacements.tolist(), kernel.weights):
        if tuple(x) == disp:
            return w
    return 0.0


def dict_fold(kernel, side):
    """The sampling arrays of a fold accumulated in a dict, congruent mass in the kernel's order."""
    folded = {}
    for x, w in zip(kernel.displacements, kernel.weights):
        key = tuple(int(c) % side for c in x)
        folded[key] = folded.get(key, 0.0) + float(w)
    items = sorted(folded.items())
    disp = np.array([x for x, _ in items], dtype=np.int64).reshape(len(items), kernel.dim)
    cum = np.cumsum([w for _, w in items])
    cum[-1] = 1.0
    return disp, cum


class TestNearestNeighbor:
    def test_d1(self):
        k = make_nn_kernel(1)
        assert weight_of(k, (1,)) == 0.5
        assert weight_of(k, (-1,)) == 0.5
        assert np.allclose(k.dmatrix, [[0.5]])

    def test_d2(self):
        k = make_nn_kernel(2)
        for disp in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert weight_of(k, disp) == 0.25
        assert np.allclose(k.dmatrix, np.eye(2) / 4)

    def test_d3(self):
        k = make_nn_kernel(3)
        assert len(k.weights) == 6
        assert np.allclose(k.weights, 1 / 6)
        assert np.allclose(k.dmatrix, np.eye(3) / 6)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            make_nn_kernel(4)
        with pytest.raises(ValueError):
            make_nn_kernel(0)


class TestPowerKernel:
    def test_single_shell_degenerates(self):
        k = make_power_kernel(1.0, 1)
        assert weight_of(k, (1,)) == pytest.approx(0.5, abs=1e-15)
        assert weight_of(k, (-1,)) == pytest.approx(0.5, abs=1e-15)

    def test_weights_decay_and_normalize(self):
        k = make_power_kernel(1.5, 10)
        assert abs(k.weights.sum() - 1.0) < 1e-12
        w1 = weight_of(k, (1,))
        w2 = weight_of(k, (2,))
        assert w2 == pytest.approx(w1 * 2.0 ** -2.5, rel=1e-12)

    def test_tail_fit_residual(self):
        # oracle: direct summation of 1 - sum p(x) cos(kx) on a fresh grid,
        # then compare against the fitted c |k|^alpha pointwise
        alpha, cutoff = 1.0, 1000
        k = make_power_kernel(alpha, cutoff)
        x = np.arange(1, cutoff + 1)
        w = x.astype(float) ** (-(1 + alpha))
        w = w / (2 * w.sum())
        for kk in np.linspace(0.01, 0.1, 23):
            one_minus = 2 * np.sum(w * (1 - np.cos(kk * x)))
            fit = k.tail_constant * kk ** alpha
            assert abs(fit - one_minus) / one_minus < 0.05

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            make_power_kernel(2.0, 10)
        with pytest.raises(ValueError):
            make_power_kernel(0.0, 10)


class TestCharFn:
    def test_at_zero(self):
        for k in (make_nn_kernel(1), make_nn_kernel(2), make_power_kernel(1.2, 7)):
            assert char_fn(k, np.zeros(k.dim)) == pytest.approx(1.0, abs=1e-15)

    def test_nn_d1_at_pi(self):
        # pi is not a multiple of 2*pi, so the value must differ from 1;
        # the explicit formula gives cos(pi) = -1
        assert char_fn(make_nn_kernel(1), [np.pi]) == pytest.approx(-1.0, abs=1e-12)

    def test_nn_d2_cancellation(self):
        assert char_fn(make_nn_kernel(2), [np.pi / 2, np.pi / 2]) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_on_grid(self):
        k = make_power_kernel(0.8, 50)
        for kk in np.linspace(-3, 3, 61):
            assert -1.0 - 1e-12 <= char_fn(k, [kk]) <= 1.0 + 1e-12


class TestVerifyAssumption:
    def test_nn_d1_small_k_residual(self):
        k = make_nn_kernel(1)
        report = verify_assumption(k, [[0.1]])
        assert report.max_residual < 1e-2
        assert report.aperiodic_ok

    def test_nn_residual_vanishes_quadratically(self):
        k = make_nn_kernel(1)
        residuals = [verify_assumption(k, [[eps]]).max_residual for eps in (0.2, 0.1, 0.05)]
        assert residuals[0] > residuals[1] > residuals[2]

    def test_nn_d2_aperiodic(self):
        k = make_nn_kernel(2)
        grid = [[a, b] for a in (0.3, 1.0, np.pi) for b in (0.2, 2.0, np.pi)]
        assert verify_assumption(k, grid).aperiodic_ok

    def test_period_two_kernel_flagged(self):
        k = Kernel(dim=1, displacements=[[2], [-2]], weights=[0.5, 0.5], alpha=2.0)
        assert k.dmatrix.tolist() == [[2.0]]
        report = verify_assumption(k, [[np.pi]])
        assert not report.aperiodic_ok


class TestFolding:
    def test_side_two_merges_neighbors(self):
        tk = fold_to_torus(make_nn_kernel(1), 2)
        assert tk.displacements.tolist() == [[1]]
        assert tk.weights.tolist() == [pytest.approx(1.0)]

    def test_side_four_splits(self):
        tk = fold_to_torus(make_nn_kernel(1), 4)
        assert weight_of(tk, (1,)) == pytest.approx(0.5)
        assert weight_of(tk, (3,)) == pytest.approx(0.5)

    def test_power_kernel_mass_conserved(self):
        tk = fold_to_torus(make_power_kernel(1.0, 5), 4)
        assert abs(tk.weights.sum() - 1.0) < 1e-12

    def test_symmetry_on_even_torus(self):
        tk = fold_to_torus(make_power_kernel(1.3, 7), 6)
        for (x,), w in zip(tk.displacements.tolist(), tk.weights):
            assert weight_of(tk, ((-x) % 6,)) == pytest.approx(w)

    @pytest.mark.parametrize("kernel", [
        make_nn_kernel(1), make_nn_kernel(2), make_nn_kernel(3),
        make_power_kernel(0.8, 30), make_power_kernel(1.0, 100), make_power_kernel(1.5, 1000),
    ], ids=["nn1", "nn2", "nn3", "power-0.8-30", "power-1-100", "power-1.5-1000"])
    def test_sampling_arrays_match_a_dict_fold_bit_for_bit(self, kernel):
        for side in (2, 3, 4, 5, 7, 8, 16, 32):
            disp, cum = fold_to_torus(kernel, side).sampling_arrays()
            ref_disp, ref_cum = dict_fold(kernel, side)
            assert disp.dtype == ref_disp.dtype and np.array_equal(disp, ref_disp), side
            assert cum.dtype == ref_cum.dtype and cum.tobytes() == ref_cum.tobytes(), side

    def test_small_side_rejected(self):
        with pytest.raises(ValueError):
            fold_to_torus(make_nn_kernel(1), 1)

    def test_translates_shift_the_sites_by_every_torus_site(self):
        tk = fold_to_torus(make_nn_kernel(2), 3)
        sites = [(0, 0), (2, 1)]
        table = tk.translates(sites)
        for y, shift in enumerate(np.ndindex(3, 3)):
            moved = [((a + shift[0]) % 3, (b + shift[1]) % 3) for a, b in sites]
            assert table[y].tolist() == [3 * a + b for a, b in moved]

    @pytest.mark.parametrize("kernel", [make_power_kernel(1.3, 7),
                                        fold_to_torus(make_power_kernel(1.3, 7), 6)],
                             ids=["z", "torus"])
    def test_sampling_arrays_are_cumulative_weights(self, kernel):
        disp, cum = kernel.sampling_arrays()
        assert disp.shape == (cum.size, 1)
        assert cum[-1] == 1.0
        assert np.all(np.diff(cum) >= 0)


class TestKernelInvariants:
    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            Kernel(dim=1, displacements=[[0], [1], [-1]],
                   weights=[0.2, 0.4, 0.4], alpha=2.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            Kernel(dim=1, displacements=[[1], [-1]], weights=[0.7, 0.3], alpha=2.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            Kernel(dim=1, displacements=[[1], [-1]], weights=[0.5, 0.6], alpha=2.0)

    @pytest.mark.parametrize("constant", ["dmatrix", "tail_constant"])
    def test_small_k_constants_are_not_arguments(self, constant):
        with pytest.raises(TypeError):
            Kernel(dim=1, displacements=[[1], [-1]], weights=[0.5, 0.5], alpha=2.0,
                   **{constant: 0.5})

    def test_heavy_tail_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            Kernel(dim=2, displacements=[[1, 0], [-1, 0], [0, 1], [0, -1]],
                   weights=[0.25] * 4, alpha=1.5)


class TestSmallKConstants:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_nn_dmatrix_is_half_the_covariance(self, d):
        k = make_nn_kernel(d)
        assert k.dmatrix.tobytes() == (np.eye(d) / (2 * d)).tobytes()
        assert k.tail_constant is None

    # recorded values of the fit: they pin its k grid, summation order and form bit for bit
    @pytest.mark.parametrize("alpha, cutoff, c", [
        (1.0, 1000, 0.9350169583981841), (0.8, 30, 0.5048366269833325),
        (1.5, 100, 1.067077393997238), (1.0, 1, 0.03792900614897297),
    ])
    def test_power_tail_constant_is_the_fit(self, alpha, cutoff, c):
        k = make_power_kernel(alpha, cutoff)
        assert k.tail_constant == c and k.dmatrix is None
        again = Kernel(dim=1, displacements=k.displacements, weights=k.weights, alpha=alpha)
        assert again.tail_constant == c


class TestBiasArray:
    @pytest.mark.parametrize("form", ["array", "list", "field"])
    @pytest.mark.parametrize("consumer", ["generator", "dual", "forward", "mc_dual"])
    def test_negative_bias_rejected_on_every_path(self, form, consumer):
        tk = fold_to_torus(make_nn_kernel(1), 3)
        values = [-1.0, 0.0, 0.0]
        bias = {"array": np.array(values), "list": values,
                "field": BiasField({(i,): v for i, v in enumerate(values)})}[form]
        build = {"generator": lambda: build_forward_generator(bias, tk),
                 "dual": lambda: build_dual_matrix(bias, tk),
                 "forward": lambda: ForwardSimulation(np.ones((1, 3)), bias, tk,
                                                      np.random.default_rng(0)),
                 "mc_dual": lambda: dual_curve([(0,)], tk, [1.0], 10, 0, bias=bias)}[consumer]
        with pytest.raises(ValueError, match="nonnegative"):
            build()
        if consumer == "forward":   # per-replica rows go through the same check
            rows = np.array([[0.0, 0.0, 0.0], values])
            with pytest.raises(ValueError, match="nonnegative"):
                ForwardSimulation(np.ones((2, 3)), rows, tk, np.random.default_rng(0))

    def test_field_values_in_row_major_order(self):
        tk = fold_to_torus(make_nn_kernel(2), 2)
        field = BiasField({(i, j): 2.0 * i + j for i in range(2) for j in range(2)})
        assert bias_array(field, tk).tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_field_must_cover_torus(self):
        tk = fold_to_torus(make_nn_kernel(1), 3)
        with pytest.raises(ValueError, match="does not cover"):
            bias_array(BiasField({(0,): 1.0}), tk)
