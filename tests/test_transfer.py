import numpy as np
import pytest

from competing_chain import (ModelParams, c2_constant, hamiltonian_direct,
                             hamiltonian_from_transfer, monodromy,
                             transfer_matrix, transfer_and_derivative,
                             transfer_commutator_residual, crossing_residual,
                             transfer_identity_residual, apply_transfer,
                             a_bare, d_bare, max_norm, k_minus, k_plus)
from competing_chain import transfer
from competing_chain.errors import ParameterError, SizeError


def test_monodromy_degree_and_leading_coefficient(params_small):
    # product of 2N affine factors: leading u^{2N} coefficient is the identity
    u = 1e8
    t0 = monodromy(u, params_small)
    lead = t0 / u ** params_small.two_n
    assert max_norm(lead - np.eye(t0.shape[0])) < 1e-6


def test_monodromy_reflected_is_transpose_at_zero_shifts():
    # at a = theta = 0 both monodromies multiply the same symmetric factors
    # in opposite order, so the reflected one is the plain transpose
    pr = ModelParams(two_n=4, a_bar=0.0, p=1.0, q=1.0, xi=0.0)
    u = 0.73
    t0 = monodromy(u, pr)
    th = monodromy(u, pr, reflected=True)
    assert max_norm(th - t0.T) < 1e-13


def test_monodromy_derivative_matches_finite_difference(params_small):
    u, h = 0.31, 1e-6
    _, dm = monodromy(u, params_small, derivative=True)
    fd = (monodromy(u + h, params_small) - monodromy(u - h, params_small)) / (2 * h)
    assert max_norm(dm - fd) < 1e-6


def test_monodromy_size_cap():
    # dim 2^15 > MAX_DIM; the cap is checked before anything is allocated
    pr = ModelParams(two_n=14, a_bar=0.1, p=1.0, q=1.0)
    with pytest.raises(SizeError):
        monodromy(0.1, pr)


def test_transfer_commutativity():
    # moderate spectral points: the entries grow like u^{4N+2}, so the
    # absolute max-norm threshold is meaningful for |u| of order one
    pr = ModelParams(two_n=6, a_bar=0.66, p=1.2, q=0.7, xi=1.2)
    assert transfer_commutator_residual(0.31, -0.77, pr) <= 1e-10
    assert transfer_commutator_residual(0.6, 0.05, pr) <= 1e-10
    assert transfer_commutator_residual(-0.4, 0.55, pr) <= 1e-10


def test_transfer_crossing():
    pr = ModelParams(two_n=6, a_bar=0.66, p=1.2, q=0.7, xi=1.2)
    assert crossing_residual(-0.5, pr) < 1e-12   # fixed point of u -> -u-1
    assert crossing_residual(0.123, pr) <= 1e-10
    assert crossing_residual(0.0, pr) <= 1e-10


def test_transfer_derivative_matches_finite_difference(params_small):
    u, h = -0.27, 1e-6
    _, dt = transfer_and_derivative(u, params_small)
    fd = (transfer_matrix(u + h, params_small)
          - transfer_matrix(u - h, params_small)) / (2 * h)
    assert max_norm(dt - fd) < 1e-5


def test_hamiltonian_equivalence_core_oracle(params_small):
    hd = hamiltonian_direct(params_small)
    ht = hamiltonian_from_transfer(params_small)
    assert max_norm(hd - ht) <= 1e-9


def test_hamiltonian_equivalence_heisenberg_2n6():
    pr = ModelParams(two_n=6, a_bar=0.0, p=1.3, q=0.8, xi=0.4)
    assert max_norm(hamiltonian_direct(pr) - hamiltonian_from_transfer(pr)) <= 1e-9


def test_hamiltonian_equivalence_random_draws(rng):
    for _ in range(3):
        pr = ModelParams(two_n=4,
                         a_bar=float(rng.uniform(0.1, 0.9)),
                         p=float(rng.uniform(0.5, 2.0)),
                         q=float(rng.uniform(0.5, 2.0)),
                         xi=float(rng.uniform(0.0, 2.0)))
        assert max_norm(hamiltonian_direct(pr) - hamiltonian_from_transfer(pr)) <= 1e-9


def test_hamiltonian_from_transfer_requires_homogeneous(params_small):
    pr = params_small.with_theta_bar([0.1, -0.1, 0.2, -0.2])
    with pytest.raises(ParameterError):
        hamiltonian_from_transfer(pr)


def test_broken_c2_breaks_equivalence(params_small, monkeypatch):
    # hamiltonian_from_transfer looks c2_constant up at call time
    monkeypatch.setattr(transfer, "c2_constant", lambda pr: -c2_constant(pr))
    ht = hamiltonian_from_transfer(params_small)
    assert max_norm(hamiltonian_direct(params_small) - ht) > 1.0


def test_fusion_identity_homogeneous(params_small):
    for j in range(1, params_small.two_n + 1):
        assert transfer_identity_residual(j, params_small) <= 1e-8


def test_fusion_identity_inhomogeneous():
    prof = [0.1 * (j - 2 - 0.5) for j in range(1, 5)]
    pr = ModelParams(two_n=4, a_bar=0.6, p=1.0, q=0.5, xi=1.2, theta_bar=prof)
    residuals = [transfer_identity_residual(j, pr) for j in range(1, 5)]
    assert max(residuals) <= 1e-8


def test_fusion_identity_j_independent_at_equal_theta(params_small):
    res = [transfer_identity_residual(j, params_small)
           for j in range(1, params_small.two_n + 1)]
    assert np.ptp(res) < 1e-12  # identical equations at identical thetas


def test_scalar_function_symmetry(params_small):
    for u in (0.37, -1.2 + 0.4j, 2.2j):
        assert abs(d_bare(u, params_small) - a_bare(-u - 1.0, params_small)) == 0.0


def test_apply_transfer_matches_dense(params_small, rng):
    u = 0.29 - 0.11j
    t = transfer_matrix(u, params_small)
    v = rng.normal(size=t.shape[0]) + 1j * rng.normal(size=t.shape[0])
    assert np.max(np.abs(t @ v - apply_transfer([u], params_small, [v])[0])) < 1e-11


def test_apply_transfer_batch_matches_dense():
    # inhomogeneous chain; random points in the window around the crossing
    # point -1/2 where the entries of t(u) stay O(10^3), as in the scalar test
    pr = ModelParams(two_n=6, a_bar=0.6, p=1.0, q=0.5, xi=1.2,
                     theta_bar=[0.1, -0.2, 0.05, 0.3, -0.1, 0.0])
    gen = np.random.default_rng(31)
    us = gen.uniform(-1.0, 0.5, 5) + 1j * gen.uniform(-0.5, 0.5, 5)
    vecs = gen.normal(size=(5, 64)) + 1j * gen.normal(size=(5, 64))
    rows = apply_transfer(us, pr, vecs)
    assert rows.shape == (5, 64)
    for u, v, row in zip(us, vecs, rows):
        assert np.max(np.abs(transfer_matrix(u, pr) @ v - row)) < 1e-11
    with pytest.raises(ValueError):
        apply_transfer(us, pr, vecs[:4])
    with pytest.raises(ValueError):   # a scalar point is not a batch
        apply_transfer(us[2], pr, vecs[2])


def _swap_copy_factor(m, v, j, two_n, carry=None):
    # reference R-factor: P_{0,j} m as an axis-swapped copy, added after v·m
    shape = m.shape
    swapped = np.swapaxes(m.reshape((2,) * (two_n + 1) + (-1,)), 0, j).reshape(shape)
    return (v * m if carry is None else carry + v * m) + swapped


BIT_IDENTITY_CHAINS = {
    "2N=4": ModelParams(two_n=4, a_bar=0.6, p=1.0, q=0.5, xi=1.2),
    "2N=6-inhomogeneous": ModelParams(two_n=6, a_bar=0.6, p=1.0, q=0.5, xi=1.2,
                                      theta_bar=[0.1, -0.2, 0.05, 0.3, -0.1, 0.0]),
    "2N=8": ModelParams.from_q_bar(8, 0.66, 1.2, 0.7, 1.2),
}


def _transfer_outputs(pr, u, vecs, us):
    out = [monodromy(u, pr, reflected=r) for r in (False, True)]
    out += [d for r in (False, True) for d in monodromy(u, pr, reflected=r, derivative=True)]
    out += [transfer_matrix(u, pr), *transfer_and_derivative(u, pr)]
    return out + [apply_transfer(us, pr, vecs)]


@pytest.mark.parametrize("u", [0.31, -0.77 + 0.4j], ids=["real", "complex"])
@pytest.mark.parametrize("chain", list(BIT_IDENTITY_CHAINS))
def test_strided_factor_is_bit_identical_to_the_swap_copy(chain, u, monkeypatch):
    # the in-place strided-view accumulation must reproduce v·m + (P m copy)
    # bit for bit in every monodromy, transfer and matrix-free product
    pr = BIT_IDENTITY_CHAINS[chain]
    gen = np.random.default_rng(pr.two_n)
    us = np.array([u, 0.0, -0.5, 1.7 - 0.2j, -2.9])
    vecs = gen.normal(size=(5, 2 ** pr.two_n)) + 1j * gen.normal(size=(5, 2 ** pr.two_n))
    got = _transfer_outputs(pr, u, vecs, us)
    monkeypatch.setattr(transfer, "_apply_factor", _swap_copy_factor)
    want = _transfer_outputs(pr, u, vecs, us)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _dense_transfer(u, pr):
    """Reference (t, t') contracted from the dense monodromies.

    t = tr_0 K+ T0 K- T̂0 over the auxiliary blocks, and t' by the product
    rule over its four u-dependent factors.
    """
    q = 2 ** pr.two_n
    t0, dt0 = (m.reshape(2, q, 2, q) for m in monodromy(u, pr, derivative=True))
    th, dth = (m.reshape(2, q, 2, q) for m in monodromy(u, pr, reflected=True, derivative=True))
    kp, km = k_plus(u, pr.q, pr.xi), k_minus(u, pr.p)
    dkp = np.array([[1.0, pr.xi], [pr.xi, -1.0]])
    dkm = np.diag([1.0, -1.0])

    def contract(a, b, c, d):
        return np.einsum("ab,bicj,cd,djak->ik", a, b, c, d, optimize=True)

    t = contract(kp, t0, km, th)
    dt = (contract(dkp, t0, km, th) + contract(kp, dt0, km, th)
          + contract(kp, t0, dkm, th) + contract(kp, t0, km, dth))
    return t, dt


@pytest.mark.parametrize("u", [0.31, -0.77 + 0.4j], ids=["real", "complex"])
@pytest.mark.parametrize("chain", list(BIT_IDENTITY_CHAINS))
def test_transfer_kernel_matches_the_dense_contraction(chain, u):
    pr = BIT_IDENTITY_CHAINS[chain]
    t_ref, dt_ref = _dense_transfer(u, pr)
    t, dt = transfer_and_derivative(u, pr)
    for got, want in ((transfer_matrix(u, pr), t_ref), (t, t_ref), (dt, dt_ref)):
        assert max_norm(got - want) <= 1e-13 * max_norm(want)


def test_transfer_matrix_size_cap():
    pr = ModelParams(two_n=14, a_bar=0.1, p=1.0, q=1.0)
    with pytest.raises(SizeError):
        transfer_matrix(0.1, pr)
    with pytest.raises(SizeError):
        transfer_and_derivative(0.1, pr)


def test_transfer_matrix_is_hermitian_at_real_u():
    # imaginary shifts a + iθ̄_j make T0(u)^† = T̂0(u) at real u, and K± are
    # real symmetric, so t(u) is hermitian: the premise of eigh in spectrum
    gen = np.random.default_rng(60)
    for two_n in (4, 6, 8):
        for inhomogeneous in (False, True):
            theta = gen.uniform(-0.4, 0.4, two_n) if inhomogeneous else ()
            pr = ModelParams(two_n=two_n, a_bar=float(gen.uniform(0.0, 1.2)),
                             p=float(gen.uniform(-2.0, 2.0)), q=float(gen.uniform(-2.0, 2.0)),
                             xi=float(gen.uniform(0.0, 2.0)), theta_bar=theta)
            u = float(gen.uniform(-2.0, 1.0))
            t = transfer_matrix(u, pr)
            assert max_norm(t - t.conj().T) <= 1e-14 * max_norm(t)


@pytest.mark.parametrize("chain", list(BIT_IDENTITY_CHAINS))
def test_column_chunks_do_not_change_the_kernel(chain, monkeypatch):
    # every column is computed on its own, so one column per chunk gives
    # the same bits as the default chunking (one chunk below 2N=8)
    pr = BIT_IDENTITY_CHAINS[chain]
    gen = np.random.default_rng(pr.two_n)
    us = gen.uniform(-1.0, 0.5, 7) + 1j * gen.uniform(-0.5, 0.5, 7)
    vecs = gen.normal(size=(7, 2 ** pr.two_n)) + 1j * gen.normal(size=(7, 2 ** pr.two_n))
    want = [transfer_matrix(0.31, pr), *transfer_and_derivative(-0.77 + 0.4j, pr),
            apply_transfer(us, pr, vecs)]
    monkeypatch.setattr(transfer, "CACHE_BYTES", 1)
    got = [transfer_matrix(0.31, pr), *transfer_and_derivative(-0.77 + 0.4j, pr),
           apply_transfer(us, pr, vecs)]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
