import numpy as np
import pytest

from basinscope.errors import DomainError
from basinscope.numerics import svd_values
from basinscope.rng import RngStream, gaussian


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
