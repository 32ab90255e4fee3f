import numpy as np
import pytest

from basinscope.basin import BallSet, check_basin, fit_basin
from basinscope.criticality import CriticalityConfig
from basinscope.errors import DomainError
from basinscope.landscape import lambda_grid
from basinscope.numerics import svd_values
from basinscope.rng import RngStream, gaussian, gaussian_rows, lane_permutations, lane_uniforms
from basinscope.spectrum import spectrum_histogram


def jacobi_eigenvalues(s):
    """Two-sided Jacobi eigensolver for a symmetric matrix (SVD oracle)."""
    a = np.array(s, dtype=np.float64)
    n = a.shape[0]
    for _ in range(100):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-14:
                    continue
                off = max(off, abs(a[p, q]))
                phi = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, t = np.cos(phi), np.sin(phi)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = t
                rot[q, p] = -t
                a = rot.T @ a @ rot
        if off < 1e-14:
            break
    return np.sort(np.diag(a))[::-1]


def rand_matrix(shape, seed):
    rng = RngStream(seed, 100)
    return gaussian(rng, int(np.prod(shape)), 1.0).reshape(shape)


class TestSvdValues:
    def test_identity(self):
        assert np.allclose(svd_values(np.eye(3)), [1, 1, 1])

    def test_rect_diag(self):
        m = np.zeros((2, 3))
        m[0, 0] = 3.0
        m[1, 1] = 2.0
        assert np.allclose(svd_values(m), [3, 2])

    def test_matches_jacobi_eigensolver_oracle(self):
        m = rand_matrix((5, 4), 3)
        want = np.sqrt(np.clip(jacobi_eigenvalues(m.T @ m), 0, None))
        got = svd_values(m)
        assert np.allclose(got, want, atol=1e-8)

    def test_energy_identity(self):
        m = rand_matrix((7, 5), 4)
        values = svd_values(m)
        assert abs(np.sum(values**2) - np.linalg.norm(m) ** 2) <= 1e-4 * np.linalg.norm(m) ** 2

    def test_transpose_invariance(self):
        m = rand_matrix((6, 3), 5)
        assert np.allclose(svd_values(m), svd_values(m.T), atol=1e-6)

    def test_complex_matrix(self):
        re = rand_matrix((4, 3), 6)
        im = rand_matrix((4, 3), 7)
        m = re + 1j * im
        got = svd_values(m)
        want = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(got, want, atol=1e-8)
        assert got.dtype == np.float64

    def test_zero_matrix(self):
        assert np.allclose(svd_values(np.zeros((3, 2))), [0, 0])

    def test_non_finite_rejected(self):
        m = np.ones((2, 2))
        m[0, 1] = np.nan
        with pytest.raises(DomainError):
            svd_values(m)

    def test_descending_order(self):
        m = rand_matrix((8, 8), 8)
        values = svd_values(m)
        assert np.all(np.diff(values) <= 1e-12)


# Count arguments that are not integers, each as a call that must raise DomainError.
NON_INTEGER_COUNTS = {
    "randint_below(2.5)": lambda: RngStream(1).randint_below(2.5),
    "permutation(True)": lambda: RngStream(1).permutation(True),
    "uniform(2.5)": lambda: RngStream(1).uniform(2.5),
    "restore(position=2.5)": lambda: RngStream.restore(1, 0, 2.5),
    "gaussian(n=2.5)": lambda: gaussian(RngStream(1), 2.5, 1.0),
    "gaussian_rows(rows=1.5)": lambda: gaussian_rows(RngStream(1), 1.5, 4, 1.0),
    "lane_uniforms(n=2.5)": lambda: lane_uniforms(1, [1, 2], 2.5),
    "lane_uniforms(one lane, n=2.5)": lambda: lane_uniforms(1, [1], 2.5),
    "lane_permutations(n=True)": lambda: lane_permutations(1, [1, 2], True),
    "lambda_grid(points=2.5)": lambda: lambda_grid(points=2.5),
    "spectrum_histogram(bins=True)": lambda: spectrum_histogram([1.0, 2.0], bins=True),
    "spectrum_histogram(bins=2.5)": lambda: spectrum_histogram([1.0, 2.0], bins=2.5),
    "CriticalityConfig(noise_samples=True)": lambda: CriticalityConfig("conv1", 0.1, noise_samples=True),
    "CriticalityConfig(noise_samples=2.5)": lambda: CriticalityConfig("conv1", 0.1, noise_samples=2.5),
    "check_basin(samples=100.5)": lambda: check_basin(BallSet(np.zeros(2), 1.0), lambda p: 0.0, 0.1, 0.1, 100.5, RngStream(1)),
    "fit_basin(samples=100.5)": lambda: fit_basin(np.zeros(2), np.ones(2), lambda p: 0.0, 0.1, RngStream(1), samples=100.5),
}


@pytest.mark.parametrize("call", NON_INTEGER_COUNTS.values(), ids=NON_INTEGER_COUNTS.keys())
def test_non_integer_count_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_numpy_integer_counts_act_as_ints():
    assert type(CriticalityConfig("conv1", 0.1, noise_samples=np.int64(3)).noise_samples) is int
    assert RngStream(1).randint_below(np.uint8(7)) == RngStream(1).randint_below(7)
    assert np.array_equal(RngStream(1).permutation(np.int32(9)), RngStream(1).permutation(9))
    assert np.array_equal(gaussian_rows(RngStream(1), np.int64(2), 3, 1.0), gaussian_rows(RngStream(1), 2, 3, 1.0))
    assert np.array_equal(spectrum_histogram([1.0, 2.0], bins=np.int16(4))[1], spectrum_histogram([1.0, 2.0], bins=4)[1])
