import numpy as np
import pytest

from basinscope.errors import DomainError, SizeError
from basinscope.model import TINY4, ArchDescriptor, init_random
from basinscope.rng import RngStream, gaussian
from basinscope.spectrum import (
    SpectrumReport,
    conv_singular_values,
    dense_singular_values,
    network_spectrum,
    norm_ratio_term,
)
from basinscope.trainer import Checkpoint


def materialize_circular_conv(kernel, n):
    """Doubly-block-circulant matrix of the stride-1 circular conv (oracle)."""
    k, _, cin, cout = kernel.shape
    off = (k - 1) // 2
    mat = np.zeros((cout * n * n, cin * n * n))
    for co in range(cout):
        for oy in range(n):
            for ox in range(n):
                row = co * n * n + oy * n + ox
                for ci in range(cin):
                    for ky in range(k):
                        for kx in range(k):
                            y = (oy + ky - off) % n
                            x = (ox + kx - off) % n
                            mat[row, ci * n * n + y * n + x] += kernel[ky, kx, ci, co]
    return mat


def power_iteration_top_sv(mat, iters=500):
    """Largest singular value of mat by power iteration on mat^T mat."""
    rng = RngStream(123, 77)
    v = gaussian(rng, mat.shape[1], 1.0)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = mat.T @ (mat @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.sqrt(np.linalg.norm(mat.T @ (mat @ v))))


def rand_kernel(k, cin, cout, seed):
    rng = RngStream(seed, 50)
    return gaussian(rng, k * k * cin * cout, 1.0).reshape(k, k, cin, cout)


class TestConvSingularValues:
    def test_scalar_1x1_kernel(self):
        kernel = np.full((1, 1, 1, 1), 2.0)
        values = conv_singular_values(kernel, 4)
        assert values.shape == (16,)
        assert np.allclose(values, 2.0)

    def test_identity_convolution(self):
        # delta at the center tap with identity channel mixing
        kernel = np.zeros((3, 3, 2, 2))
        kernel[1, 1] = np.eye(2)
        values = conv_singular_values(kernel, 4)
        assert values.shape == (32,)
        assert np.allclose(values, 1.0)

    def test_matches_materialized_operator(self):
        # the 32x16 doubly-block-circulant operator has n^2*min(cin,cout)=16 values
        kernel = rand_kernel(3, 1, 2, 1)
        got = conv_singular_values(kernel, 4)
        mat = materialize_circular_conv(kernel, 4)
        assert mat.shape == (32, 16)
        want = np.linalg.svd(mat, compute_uv=False)
        assert got.shape == want.shape == (16,)
        assert np.allclose(got, np.sort(want)[::-1], atol=1e-5 * max(1.0, want.max()))

    @pytest.mark.parametrize("k,cin,cout,n", [(1, 2, 3, 4), (3, 3, 2, 8), (3, 2, 2, 4)])
    def test_materialized_oracle_sweep(self, k, cin, cout, n):
        kernel = rand_kernel(k, cin, cout, 10 * k + cin + cout + n)
        got = conv_singular_values(kernel, n)
        want = np.sort(np.linalg.svd(materialize_circular_conv(kernel, n), compute_uv=False))[::-1]
        want = want[: got.size]  # oracle returns max(cin,cout)*n^2 values; extras are 0
        assert np.allclose(got, want, atol=1e-5 * max(1.0, want.max()))

    def test_energy_identity(self):
        kernel = rand_kernel(3, 2, 3, 2)
        n = 8
        values = conv_singular_values(kernel, n)
        assert np.sum(values**2) == pytest.approx(n * n * np.sum(kernel**2), rel=1e-4)

    def test_scaling_linearity(self):
        kernel = rand_kernel(3, 1, 1, 3)
        base = conv_singular_values(kernel, 4)
        scaled = conv_singular_values(-2.5 * kernel, 4)
        assert np.allclose(scaled, 2.5 * base, atol=1e-10)

    def test_single_channel_equals_dft_magnitudes(self):
        kernel = rand_kernel(3, 1, 1, 4)
        n = 8
        padded = np.zeros((n, n))
        padded[:3, :3] = kernel[:, :, 0, 0]
        mags = np.sort(np.abs(np.fft.fft2(padded)).ravel())[::-1]
        assert np.allclose(conv_singular_values(kernel, n), mags, atol=1e-10)

    def test_spectral_norm_matches_power_iteration(self):
        kernel = rand_kernel(3, 2, 2, 5)
        n = 4
        fft_top = conv_singular_values(kernel, n)[0]
        pi_top = power_iteration_top_sv(materialize_circular_conv(kernel, n))
        assert fft_top >= pi_top - 1e-8  # FFT value upper-bounds the estimate
        assert fft_top == pytest.approx(pi_top, rel=1e-4)

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(DomainError):
            conv_singular_values(rand_kernel(3, 1, 1, 6), 2)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(SizeError):
            conv_singular_values(rand_kernel(3, 1, 1, 7), 6)

    @pytest.mark.parametrize(
        "shape, message", [((3, 3, 2), "must be \\(k, k, Cin, Cout\\)"), ((3, 1, 2, 2), "spatial dims must be square")], ids=["3-D", "3x1"]
    )
    def test_kernel_not_square_4d_rejected(self, shape, message):
        with pytest.raises(SizeError, match=message):
            conv_singular_values(np.ones(shape), 8)


class TestNormRatio:
    def test_single_module_3_4(self):
        report = SpectrumReport(
            per_module={"m": np.array([4.0, 3.0])},
            norms={"m": {"frobenius": 5.0, "spectral": 4.0}},
            conv_input_sizes={},
        )
        ratio_sum, log_prod = norm_ratio_term(report)
        assert ratio_sum == pytest.approx(1.25)
        assert log_prod == pytest.approx(np.log(4.0))

    def test_identity_modules(self):
        report = SpectrumReport(
            per_module={"a": np.ones(4), "b": np.ones(9)},
            norms={
                "a": {"frobenius": 2.0, "spectral": 1.0},
                "b": {"frobenius": 3.0, "spectral": 1.0},
            },
            conv_input_sizes={},
        )
        ratio_sum, log_prod = norm_ratio_term(report)
        assert ratio_sum == pytest.approx(2.0 + 3.0)  # sum of sqrt(rank)
        assert log_prod == pytest.approx(0.0)

    def test_zero_module_rejected(self):
        report = SpectrumReport(
            per_module={"m": np.zeros(3)},
            norms={"m": {"frobenius": 0.0, "spectral": 0.0}},
            conv_input_sizes={},
        )
        with pytest.raises(DomainError):
            norm_ratio_term(report)


class TestNetworkSpectrum:
    def test_tiny4_report(self):
        ckpt = Checkpoint(TINY4, init_random(TINY4, RngStream(31)), 0, {}, "", "")
        report = network_spectrum(ckpt)
        assert set(report.per_module) == set(TINY4.module_names())
        # conv operators live on their input grids
        assert report.conv_input_sizes == {"conv1": 16, "conv2": 16, "conv3": 8}
        assert report.per_module["conv1"].shape == (16 * 16 * 3,)
        assert report.per_module["conv2"].shape == (16 * 16 * 8,)
        assert report.per_module["conv3"].shape == (8 * 8 * 16,)
        assert report.per_module["fc1"].shape == (32,)
        assert report.per_module["classifier"].shape == (10,)
        # ratio_sum recomputation oracle: independent second pass
        ratio_sum, _ = norm_ratio_term(report)
        recomputed = sum(
            float(np.sqrt(np.sum(v**2)) / v[0]) for v in report.per_module.values()
        )
        assert ratio_sum == pytest.approx(recomputed, abs=1e-6)

    def test_energy_identity_per_conv_module(self):
        ckpt = Checkpoint(TINY4, init_random(TINY4, RngStream(32)), 0, {}, "", "")
        report = network_spectrum(ckpt)
        for name, n in report.conv_input_sizes.items():
            kernel = ckpt.params.get(f"{name}.weight").astype(np.float64)
            assert np.sum(report.per_module[name] ** 2) == pytest.approx(
                n * n * np.sum(kernel**2), rel=1e-4
            )

    def test_non_square_conv_input_rejected(self):
        # a 16x8 input trains, but its conv1 operator lives on a 16x8 grid,
        # not the 16x16 one the DFT spectrum would use
        arch = ArchDescriptor((16, 8, 3), ((4, 3, 1),), (8,), 2)
        ckpt = Checkpoint(arch, init_random(arch, RngStream(33)), 0, {}, "", "")
        with pytest.raises(DomainError, match="conv1"):
            network_spectrum(ckpt)

    def test_params_reassigned_to_another_arch_rejected(self):
        # a Checkpoint checks its params when built; fields reassigned later
        # must not make the spectrum of the other network
        ckpt = Checkpoint(TINY4, init_random(TINY4, RngStream(34)), 0, {}, "", "")
        narrow = ArchDescriptor(TINY4.input_shape, TINY4.conv_blocks, (16,), TINY4.num_classes)
        ckpt.params = init_random(narrow, RngStream(35))
        with pytest.raises(DomainError, match="index table"):
            network_spectrum(ckpt)
