import numpy as np
import pytest

from competing_chain import (kron, max_norm, permutation_operator, r_matrix,
                             k_minus, k_plus, yang_baxter_residual,
                             reflection_residual)
from competing_chain.algebra import SIGMA_X
from competing_chain.cli import _identity_samples
from competing_chain.errors import SizeError


def test_kron_identity():
    assert max_norm(kron(np.eye(2), np.eye(2)) - np.eye(4)) == 0.0


def test_kron_diagonal():
    out = kron(np.diag([1.0, 2.0]), np.eye(2))
    assert max_norm(out - np.diag([1.0, 1.0, 2.0, 2.0])) == 0.0


def test_kron_square_oracle():
    # (sx ⊗ sx)(sx ⊗ sx) must match kron of squares = identity
    m = kron(SIGMA_X, SIGMA_X)
    assert max_norm(m @ m - kron(SIGMA_X @ SIGMA_X, SIGMA_X @ SIGMA_X)) < 1e-15
    assert max_norm(m @ m - np.eye(4)) < 1e-15


def test_kron_size_cap():
    with pytest.raises(SizeError):
        kron(np.eye(128), np.eye(128))


def test_permutation_swaps_basis():
    p = permutation_operator()
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert max_norm(p @ np.kron(e1, e2) - np.kron(e2, e1)) < 1e-15


def test_permutation_involution_hermitian_trace():
    p = permutation_operator()
    assert max_norm(p @ p - np.eye(4)) < 1e-15
    assert max_norm(p - p.conj().T) == 0.0
    assert abs(np.trace(p) - 2.0) < 1e-15


def test_r_matrix_at_zero_is_permutation():
    assert max_norm(r_matrix(0.0) - permutation_operator()) == 0.0


def test_r_matrix_entry():
    # |up,up> diagonal element of R(1) is 1 + P_upup = 2
    assert abs(r_matrix(1.0)[0, 0] - 2.0) < 1e-15


@pytest.mark.parametrize("u", [0.37, -1.2, 0.5 + 0.25j, -0.1 - 2.0j])
def test_r_unitarity(u):
    prod = r_matrix(u) @ r_matrix(-u)
    assert max_norm(prod - (1.0 - u ** 2) * np.eye(4)) < 1e-12


def test_k_minus_values():
    assert max_norm(k_minus(0.0, 1.7) - 1.7 * np.eye(2)) == 0.0
    assert max_norm(k_minus(0.3, 0.0) - np.diag([0.3, -0.3])) == 0.0
    assert max_norm(k_minus(1.0, 2.0) - np.diag([3.0, 1.0])) == 0.0


def test_k_plus_values():
    assert max_norm(k_plus(-1.0, 0.8, 1.5) - 0.8 * np.eye(2)) == 0.0
    assert max_norm(k_plus(0.0, 1.0, 0.0) - np.diag([2.0, 0.0])) == 0.0
    assert abs(k_plus(0.0, 0.0, 1.0)[0, 1] - 1.0) == 0.0


def test_yang_baxter_examples():
    assert yang_baxter_residual(0.3, -1.2, 0.7) <= 1e-12
    assert yang_baxter_residual(0.0, 0.0, 0.0) <= 1e-14
    assert yang_baxter_residual(0.83, 0.83, 0.83) <= 1e-13


def test_reflection_examples():
    assert reflection_residual(0.4, -0.9, p=1.3) <= 1e-12
    assert reflection_residual(0.7, 0.7, p=-2.1) <= 1e-13
    assert reflection_residual(0.2, 0.8, dual=True, q=0.5, xi=1.2) <= 1e-12


def test_random_residual_properties(rng):
    # 100 sampled spectral points with |u| <= 5 and boundary params in [-3, 3]
    for _ in range(100):
        u = rng.uniform(-5, 5, 3) + 1j * rng.uniform(-5, 5, 3)
        assert yang_baxter_residual(*u) <= 1e-12
        lam, v = rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
        p, q, xi = rng.uniform(-3, 3, 3)
        assert reflection_residual(lam, v, p=p) <= 1e-12
        assert reflection_residual(lam, v, dual=True, q=q, xi=xi) <= 1e-12


def test_stacked_residuals_equal_the_per_sample_loop():
    # verify's seeded samples, evaluated as (K, 8, 8) stacks, give each
    # sample's residual bit for bit
    yb, (lam, u), (p, q, xi) = _identity_samples()
    assert np.array_equal(yang_baxter_residual(*yb),
                          [yang_baxter_residual(*point) for point in yb.T])
    assert np.array_equal(reflection_residual(lam, u, p=p),
                          [reflection_residual(*s) for s in zip(lam, u, p)])
    assert np.array_equal(
        reflection_residual(lam, u, dual=True, q=q, xi=xi),
        [reflection_residual(a, b, dual=True, q=c, xi=d) for a, b, c, d in zip(lam, u, q, xi)])
    assert isinstance(yang_baxter_residual(*yb[:, 0]), float)
    assert isinstance(reflection_residual(lam[0], u[0], p=p[0]), float)
