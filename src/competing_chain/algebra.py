"""Elementary tensor algebra and the integrable building blocks.

Conventions used throughout the package:

* Kronecker products are "leftmost factor slowest" (numpy.kron order), and
  the auxiliary space, when present, is always the leftmost tensor factor.
* Operator identities are certified in the entrywise max norm, which is
  scale-free for the O(1) matrices appearing here.

The two-site R-matrix is rational, R(u) = u + P with P the permutation
operator; the boundary matrices are K^-(u) = diag(p+u, p-u) and the
non-diagonal K^+(u) with entries q±(u+1) on the diagonal and ξ(u+1) off it.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeError

MAX_KRON_DIM = 2 ** 13

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def max_norm(m) -> float:
    """Entrywise absolute maximum."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def kron(a, b) -> np.ndarray:
    """Kronecker product of the trailing two axes, with the package's dimension cap.

    Leading axes broadcast: a stack of K matrices gives a stack of K products.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    dim = a.shape[-2] * b.shape[-2]
    if dim > MAX_KRON_DIM:
        raise SizeError(f"kron result dimension {dim} exceeds cap {MAX_KRON_DIM}")
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (dim, a.shape[-1] * b.shape[-1]))


def permutation_operator() -> np.ndarray:
    """Two-site swap P = (1 + sigma.sigma)/2; P^2 = 1, P hermitian."""
    p = np.eye(4, dtype=complex)
    for s in PAULI:
        p = p + np.kron(s, s)
    return 0.5 * p


_P4 = permutation_operator()


def r_matrix(u) -> np.ndarray:
    """Rational two-site R-matrix R(u) = u + P on C^2 x C^2; shape shape(u) + (4, 4)."""
    return np.asarray(u)[..., None, None] * np.eye(4, dtype=complex) + _P4


def k_minus(u, p) -> np.ndarray:
    """Diagonal left-boundary matrix diag(p+u, p-u); shape (2, 2) + shape(u)."""
    zero = np.zeros(np.shape(u))
    return np.array([[p + u, zero], [zero, p - u]], dtype=complex)


def k_plus(u, q, xi) -> np.ndarray:
    """Right-boundary matrix [[q+u+1, xi(u+1)], [xi(u+1), q-u-1]]; shape (2, 2) + shape(u)."""
    w = xi * (u + 1.0)
    return np.array([[q + u + 1.0, w], [w, q - u - 1.0]], dtype=complex)


def _stacked(k: np.ndarray) -> np.ndarray:
    """A (2, 2) + shape(u) boundary matrix as a stack of shape shape(u) + (2, 2)."""
    return np.moveaxis(k, (0, 1), (-2, -1))


def _max_norms(m: np.ndarray):
    """max_norm of each trailing matrix: a float for one, an array for a stack."""
    out = np.max(np.abs(m), axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


def _r12_on3(u) -> np.ndarray:
    return kron(r_matrix(u), ID2)


def _r23_on3(u) -> np.ndarray:
    return kron(ID2, r_matrix(u))


def _r13_on3(u) -> np.ndarray:
    s23 = kron(ID2, _P4)
    return s23 @ kron(r_matrix(u), ID2) @ s23


def yang_baxter_residual(u1, u2, u3):
    """Max-norm defect of R12(u1-u2) R13(u1-u3) R23(u2-u3) = reversed order.

    Scalar points give a float; arrays of K points give the K defects.
    """
    r12 = _r12_on3(u1 - u2)
    r13 = _r13_on3(u1 - u3)
    r23 = _r23_on3(u2 - u3)
    return _max_norms(r12 @ r13 @ r23 - r23 @ r13 @ r12)


def _r21(u) -> np.ndarray:
    return _P4 @ r_matrix(u) @ _P4


def reflection_residual(lam, u, p=None, dual: bool = False, q=None, xi=None):
    """Max-norm defect of the (dual) reflection equation on C^2 x C^2.

    With dual=False this checks the left-boundary equation for K^-(.; p);
    with dual=True the right-boundary equation for K^+(.; q, xi).  Scalar
    arguments give a float; arrays of K samples give the K defects.
    """
    if dual:
        if q is None or xi is None:
            raise ValueError("dual reflection residual needs q and xi")
        k1 = kron(_stacked(k_plus(lam, q, xi)), ID2)
        k2 = kron(ID2, _stacked(k_plus(u, q, xi)))
        lhs = r_matrix(-lam + u) @ k1 @ _r21(-lam - u - 2.0) @ k2
        rhs = k2 @ r_matrix(-lam - u - 2.0) @ k1 @ _r21(-lam + u)
    else:
        if p is None:
            raise ValueError("reflection residual needs p")
        k1 = kron(_stacked(k_minus(lam, p)), ID2)
        k2 = kron(ID2, _stacked(k_minus(u, p)))
        lhs = r_matrix(lam - u) @ k1 @ _r21(lam + u) @ k2
        rhs = k2 @ r_matrix(lam + u) @ k1 @ _r21(lam - u)
    return _max_norms(lhs - rhs)
