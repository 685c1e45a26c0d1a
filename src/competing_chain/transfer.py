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
auxiliary bit slowest.  A factor R_{0,j}(v) = v + P_{0,j} is applied as
v·m plus a strided, axis-swapped view of m's rows, accumulated in place, so
neither a matrix product nor a copy of P_{0,j} m is formed and the
construction stays O(2N · dim^2).

One kernel (_transfer_jet) carries a block of quantum vectors through
K+ T0 K- T̂0 and the auxiliary trace: apply_transfer feeds it the vectors,
transfer_matrix the columns of the identity, and transfer_and_derivative
the identity with the product-rule derivative block alongside.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import k_minus, k_plus, max_norm
from .errors import EvaluationError, ParameterError, SizeError
from .params import ModelParams, c0_constant, c2_constant

MAX_DIM = 2 ** 13
CACHE_BYTES = 2 ** 21     # per-core L2 cache of the 2-core x86-64 reference host


def _apply_factor(m: np.ndarray, v, j: int, two_n: int, carry=None) -> np.ndarray:
    """R_{0,j}(v) m = v·m + P_{0,j} m on the rows of a (dim x ...) block.

    P_{0,j} m is read as an axis-swapped view of m and added in place.  With
    ``carry`` the result is (carry + v·m) + P_{0,j} m, the product-rule step
    of a derivative block m with carry the monodromy before this factor.
    """
    out = v * m
    if carry is not None:
        out += carry
    rows = (2,) * (two_n + 1) + (-1,)
    acc = out.reshape(rows)
    acc += np.swapaxes(m.reshape(rows), 0, j)
    return out


def _site_shift_sign(j: int, reflected: bool) -> int:
    sgn = 1 if j % 2 == 0 else -1
    return -sgn if reflected else sgn


def _dense_dim(params: ModelParams) -> int:
    """Dimension 2^{2N+1} of auxiliary ⊗ quantum space, checked against MAX_DIM."""
    dim = 2 ** (params.two_n + 1)
    if dim > MAX_DIM:
        raise SizeError(f"dense operator dimension {dim} exceeds cap {MAX_DIM}")
    return dim


def _apply_monodromy(m: np.ndarray, dm, u, params: ModelParams, reflected: bool):
    """(T(u) m, d/du of T(u) m) for a block m, factor by factor.

    dm is the derivative block of m, or None to skip the derivative.
    """
    two_n = params.two_n
    shifts = params.a + params.thetas  # a + theta_j
    sites = range(two_n, 0, -1) if reflected else range(1, two_n + 1)
    for j in sites:
        v = u + _site_shift_sign(j, reflected) * shifts[j - 1]
        if dm is not None:
            dm = _apply_factor(dm, v, j, two_n, carry=m)
        m = _apply_factor(m, v, j, two_n)
    return m, dm


def monodromy(u, params: ModelParams, reflected: bool = False,
              derivative: bool = False):
    """Dense monodromy matrix on auxiliary ⊗ quantum space.

    With derivative=True, returns (T, dT/du) computed by the exact product
    rule along the factor sequence.
    """
    dim = _dense_dim(params)
    dm = np.zeros((dim, dim), dtype=complex) if derivative else None
    m, dm = _apply_monodromy(np.eye(dim, dtype=complex), dm, u, params, reflected)
    return (m, dm) if derivative else m


def _k_plus_slope(params: ModelParams) -> np.ndarray:
    return np.array([[1.0, params.xi], [params.xi, -1.0]], dtype=complex)


def _aux_trace(k: np.ndarray, w4: np.ndarray) -> np.ndarray:
    """tr_0 (K ⊗ 1) W for a (2, q, 2, n) block W whose columns carry the trace index."""
    out = np.zeros((w4.shape[1], w4.shape[3]), dtype=complex)
    for alpha in range(2):
        out += k[alpha, 0] * w4[0, :, alpha] + k[alpha, 1] * w4[1, :, alpha]
    return out


def _transfer_jet(u, params: ModelParams, cols: np.ndarray, derivative: bool = False):
    """Columns t(u) @ cols, and with derivative=True also t'(u) @ cols.

    cols is a (2^{2N}, n) block and u a scalar or n points, one per column.
    Each factor streams the working block (and its derivative block)
    through memory.  A block larger than CACHE_BYTES runs in chunks of
    columns whose blocks fill a quarter of it, which leaves room for each
    factor's output; every column is computed on its own, so the chunks do
    not change a bit of the result.
    """
    qdim, n = cols.shape
    column_bytes = 64 * qdim * (2 if derivative else 1)  # 2 aux x 2 trace rows x 16 B
    if n * column_bytes <= CACHE_BYTES:
        return _jet_block(u, params, cols, derivative)
    step = max(1, CACHE_BYTES // 4 // column_bytes)
    t = np.empty((qdim, n), dtype=complex)
    dt = np.empty_like(t) if derivative else None
    for k in range(0, n, step):
        chunk = slice(k, k + step)
        block = _jet_block(u if np.ndim(u) == 0 else u[chunk], params, cols[:, chunk],
                           derivative)
        if derivative:
            t[:, chunk], dt[:, chunk] = block
        else:
            t[:, chunk] = block
    return (t, dt) if derivative else t


def _jet_block(u, params: ModelParams, cols: np.ndarray, derivative: bool):
    """_transfer_jet on one chunk of columns.

    Column (α, k) of the working block starts as e_α ⊗ cols[:, k], goes
    through the reflected monodromy, K^-, the monodromy and K^+, and the
    trace pairs its auxiliary row with α.  The derivative block follows the
    product rule of every factor: the R-factors through _apply_factor, as in
    monodromy, and K^-' = diag(1, -1) and K^+' at the two boundaries.
    """
    qdim, n = cols.shape
    # rows: auxiliary ⊗ quantum; columns: (trace index alpha, column k)
    w = np.zeros((2, qdim, 2, n), dtype=complex)
    for alpha in range(2):
        w[alpha, :, alpha, :] = cols
    w = w.reshape(2 * qdim, 2, n)
    dw = np.zeros_like(w) if derivative else None
    w, dw = _apply_monodromy(w, dw, u, params, reflected=True)
    km = k_minus(u, params.p)
    w4 = w.reshape(2, qdim, 2, n)
    if derivative:
        dw4 = dw.reshape(2, qdim, 2, n)
        dw4[0] *= km[0, 0]
        dw4[0] += w4[0]
        dw4[1] *= km[1, 1]
        dw4[1] -= w4[1]
    w4[0] *= km[0, 0]
    w4[1] *= km[1, 1]
    w, dw = _apply_monodromy(w, dw, u, params, reflected=False)
    kp = k_plus(u, params.q, params.xi)
    w4 = w.reshape(2, qdim, 2, n)
    t = _aux_trace(kp, w4)
    if not derivative:
        return t
    return t, _aux_trace(_k_plus_slope(params), w4) + _aux_trace(kp, dw.reshape(2, qdim, 2, n))


def _identity_columns(params: ModelParams) -> np.ndarray:
    """Identity of the quantum space; the dense operators it builds obey MAX_DIM."""
    _dense_dim(params)
    return np.eye(2 ** params.two_n, dtype=complex)


def transfer_matrix(u, params: ModelParams) -> np.ndarray:
    """Dense transfer matrix t(u) on the 2^{2N}-dimensional quantum space.

    The matrix-free kernel applied to the columns of the identity.
    """
    return _transfer_jet(u, params, _identity_columns(params))


def transfer_and_derivative(u, params: ModelParams):
    """(t(u), t'(u)) with the derivative taken by the exact product rule."""
    return _transfer_jet(u, params, _identity_columns(params), derivative=True)


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


def hamiltonian_from_transfer(params: ModelParams) -> np.ndarray:
    """Hamiltonian generated by the transfer family at the homogeneous point.

    Uses the commuting-family rewriting c2^{-1} [t(-a) t'(a) + t(a) t'(-a)] - c0,
    which avoids inverting t(±a).
    """
    if not params.homogeneous():
        raise ParameterError("transfer-generated Hamiltonian requires theta_bar = 0")
    a = params.a
    tp, dtp = transfer_and_derivative(a, params)
    tm, dtm = transfer_and_derivative(-a, params)
    c2 = c2_constant(params)
    c0 = c0_constant(params)
    dim = tp.shape[0]
    return (tm @ dtp + tp @ dtm) / c2 - c0 * np.eye(dim, dtype=complex)


def apply_transfer(us, params: ModelParams, vecs: np.ndarray) -> np.ndarray:
    """Matrix-free rows t(u_k) @ vecs_k on the quantum space (O(2N · 2^{2N}) per row).

    us is a 1-D array of n points and vecs an (n, 2^{2N}) batch; every point
    and both auxiliary traces go through the kernel in one pass.
    """
    qdim = 2 ** params.two_n
    us = np.asarray(us, dtype=complex)
    vecs = np.asarray(vecs, dtype=complex)
    if us.ndim != 1 or vecs.shape != (len(us), qdim):
        raise ValueError(f"vectors of shape {vecs.shape} do not match points of shape "
                         f"{us.shape} on dimension {qdim}")
    return _transfer_jet(us, params, vecs.T).T
