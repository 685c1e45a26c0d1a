"""Monodromy and transfer matrices of the open chain.

The monodromy T0(u) multiplies two-site R-matrices R_{0,j} across the chain
with alternating spectral shifts ±(a + θ_j); the reflected partner uses the
opposite alternation and site order.  The transfer matrix is the partial
trace over the auxiliary space of K+ T0 K- T̂0 and forms a commuting family
with t(u) = t(-u-1).

All R-factors are affine in u with unit slope, so d/du of a monodromy is
propagated exactly alongside the product (dM -> M + F dM per factor); no
finite differences appear anywhere in the Hamiltonian generation.

Operators on auxiliary ⊗ quantum space are dense (dim 2^{2N+1}) with the
auxiliary bit slowest.  Factors are applied by an axis swap rather than by
matrix products, which keeps the construction O(2N · dim^2).
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import k_minus, k_plus, max_norm
from .errors import EvaluationError, ParameterError, SizeError
from .params import ModelParams, c0_constant, c2_constant

MAX_DIM = 2 ** 13


def _swap_rows_aux_site(m: np.ndarray, j: int, two_n: int) -> np.ndarray:
    """Row-index action of the permutation P_{0,j} on a (dim x k) block."""
    shape = m.shape
    t = m.reshape((2,) * (two_n + 1) + (-1,))
    return np.swapaxes(t, 0, j).reshape(shape)


def _site_shift_sign(j: int, reflected: bool) -> int:
    sgn = 1 if j % 2 == 0 else -1
    return -sgn if reflected else sgn


def monodromy(u, params: ModelParams, reflected: bool = False,
              derivative: bool = False, max_dim: int = MAX_DIM):
    """Dense monodromy matrix on auxiliary ⊗ quantum space.

    With derivative=True, returns (T, dT/du) computed by the exact product
    rule along the factor sequence.
    """
    two_n = params.two_n
    dim = 2 ** (two_n + 1)
    if dim > max_dim:
        raise SizeError(f"monodromy dimension {dim} exceeds cap {max_dim}")
    shifts = params.a + params.thetas  # a + theta_j
    sites = range(two_n, 0, -1) if reflected else range(1, two_n + 1)

    m = np.eye(dim, dtype=complex)
    dm = np.zeros((dim, dim), dtype=complex) if derivative else None
    for j in sites:
        v = u + _site_shift_sign(j, reflected) * shifts[j - 1]
        if derivative:
            dm = m + v * dm + _swap_rows_aux_site(dm, j, two_n)
        m = v * m + _swap_rows_aux_site(m, j, two_n)
    return (m, dm) if derivative else m


def _k_plus_slope(params: ModelParams) -> np.ndarray:
    return np.array([[1.0, params.xi], [params.xi, -1.0]], dtype=complex)


_K_MINUS_SLOPE = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _aux_contract(a4: np.ndarray, b4: np.ndarray) -> np.ndarray:
    """tr_0 of the product of two aux ⊗ quantum operators given as 4-blocks."""
    q = a4.shape[1]
    out = np.zeros((q, q), dtype=complex)
    for alpha in range(2):
        for beta in range(2):
            out += a4[alpha, :, beta, :] @ b4[beta, :, alpha, :]
    return out


def _as_blocks(m: np.ndarray) -> np.ndarray:
    q = m.shape[0] // 2
    return m.reshape(2, q, 2, q)


def _apply_aux(k2: np.ndarray, m4: np.ndarray) -> np.ndarray:
    return np.einsum("ac,cibj->aibj", k2, m4)


def transfer_matrix(u, params: ModelParams, max_dim: int = MAX_DIM) -> np.ndarray:
    """Dense transfer matrix t(u) on the 2^{2N}-dimensional quantum space."""
    t0 = _as_blocks(monodromy(u, params, max_dim=max_dim))
    th = _as_blocks(monodromy(u, params, reflected=True, max_dim=max_dim))
    a4 = _apply_aux(k_plus(u, params.q, params.xi), t0)
    b4 = _apply_aux(k_minus(u, params.p), th)
    return _aux_contract(a4, b4)


def transfer_and_derivative(u, params: ModelParams, max_dim: int = MAX_DIM):
    """(t(u), t'(u)) with the derivative taken by the exact product rule."""
    m0, dm0 = monodromy(u, params, derivative=True, max_dim=max_dim)
    mh, dmh = monodromy(u, params, reflected=True, derivative=True, max_dim=max_dim)
    t0, dt0 = _as_blocks(m0), _as_blocks(dm0)
    th, dth = _as_blocks(mh), _as_blocks(dmh)
    kp = k_plus(u, params.q, params.xi)
    km = k_minus(u, params.p)
    a4 = _apply_aux(kp, t0)
    da4 = _apply_aux(_k_plus_slope(params), t0) + _apply_aux(kp, dt0)
    b4 = _apply_aux(km, th)
    db4 = _apply_aux(_K_MINUS_SLOPE, th) + _apply_aux(km, dth)
    t = _aux_contract(a4, b4)
    dt = _aux_contract(da4, b4) + _aux_contract(a4, db4)
    return t, dt


def crossing_residual(u, params: ModelParams) -> float:
    """Max-norm defect of t(u) = t(-u-1)."""
    return max_norm(transfer_matrix(u, params) - transfer_matrix(-u - 1.0, params))


def transfer_commutator_residual(u, v, params: ModelParams) -> float:
    """Max-norm of [t(u), t(v)]; vanishes on the commuting family."""
    tu = transfer_matrix(u, params)
    tv = transfer_matrix(v, params)
    return max_norm(tu @ tv - tv @ tu)


def a_table(params: ModelParams):
    """(c, ζ, m) with a(u) = c ∏_k (u - ζ_k)^{m_k}: the zeros and the pole of a(u).

    a(u) = (2u+2)/(2u+1) (u+p)(s u+q) ∏_j (u+θ_j+a+1)(u-θ_j-a+1), s = √(1+ξ²),
    has simple zeros at -1, -p, -q/s, -θ_j-a-1 and θ_j+a-1 and a simple pole
    at -1/2.  This is the one place the factors are written down; a_bare, the
    zero-root equations and their certificate all read it.
    """
    s = math.sqrt(1.0 + params.xi ** 2)
    shifts = params.thetas + params.a
    zeta = np.concatenate([[-1.0, -0.5, -params.p, -params.q / s],
                           -shifts - 1.0, shifts - 1.0])
    mult = np.ones(len(zeta), dtype=int)
    mult[1] = -1
    return s, zeta, mult


def a_bare(u, params: ModelParams) -> complex:
    """Scalar eigenvalue function multiplying the fused transfer identity."""
    c, zeta, mult = a_table(params)
    return complex(c * np.prod((u - zeta) ** mult))


def d_bare(u, params: ModelParams) -> complex:
    return a_bare(-u - 1.0, params)


def transfer_identity_residual(j: int, params: ModelParams) -> float:
    """Relative residual of t(θ_j+a) t(θ_j+a-1) = a(θ_j+a) d(θ_j+a-1) · Id."""
    if not 1 <= j <= params.two_n:
        raise ParameterError(f"site index {j} outside 1..{params.two_n}")
    x = params.thetas[j - 1] + params.a
    if abs(2.0 * x + 1.0) < 1e-12:
        raise EvaluationError("evaluation point hits the pole of the scalar prefactor")
    lhs = transfer_matrix(x, params) @ transfer_matrix(x - 1.0, params)
    scalar = a_bare(x, params) * d_bare(x - 1.0, params)
    rhs = scalar * np.eye(lhs.shape[0], dtype=complex)
    return max_norm(lhs - rhs) / max(abs(scalar), 1e-300)


def hamiltonian_from_transfer(params: ModelParams, max_dim: int = MAX_DIM,
                              _flip_c2_sign: bool = False) -> np.ndarray:
    """Hamiltonian generated by the transfer family at the homogeneous point.

    Uses the commuting-family rewriting c2^{-1} [t(-a) t'(a) + t(a) t'(-a)] - c0,
    which avoids inverting t(±a).  The _flip_c2_sign hook exists only so the
    verification suite can demonstrate a failing equivalence check.
    """
    if not params.homogeneous():
        raise ParameterError("transfer-generated Hamiltonian requires theta_bar = 0")
    a = params.a
    tp, dtp = transfer_and_derivative(a, params, max_dim=max_dim)
    tm, dtm = transfer_and_derivative(-a, params, max_dim=max_dim)
    c2 = c2_constant(params)
    if _flip_c2_sign:
        c2 = -c2
    c0 = c0_constant(params)
    dim = tp.shape[0]
    return (tm @ dtp + tp @ dtm) / c2 - c0 * np.eye(dim, dtype=complex)


def apply_transfer(u, params: ModelParams, vec: np.ndarray) -> np.ndarray:
    """Matrix-free t(u) @ vec on the quantum space (cost O(2N · 2^{2N}))."""
    two_n = params.two_n
    qdim = 2 ** two_n
    vec = np.asarray(vec, dtype=complex).ravel()
    if vec.shape[0] != qdim:
        raise ValueError(f"vector length {vec.shape[0]} != {qdim}")
    shifts = params.a + params.thetas
    kp = k_plus(u, params.q, params.xi)
    km = k_minus(u, params.p)
    out = np.zeros(qdim, dtype=complex)
    for alpha in range(2):
        w = np.zeros(2 * qdim, dtype=complex)
        w[alpha * qdim:(alpha + 1) * qdim] = vec
        for j in range(two_n, 0, -1):  # reflected monodromy, rightmost factor first
            v = u + _site_shift_sign(j, reflected=True) * shifts[j - 1]
            w = v * w + _swap_rows_aux_site(w.reshape(-1, 1), j, two_n).ravel()
        wb = w.reshape(2, qdim)
        wb[0] *= km[0, 0]
        wb[1] *= km[1, 1]
        w = wb.ravel()
        for j in range(1, two_n + 1):
            v = u + _site_shift_sign(j, reflected=False) * shifts[j - 1]
            w = v * w + _swap_rows_aux_site(w.reshape(-1, 1), j, two_n).ravel()
        wb = kp @ w.reshape(2, qdim)
        out += wb[alpha]
    return out
