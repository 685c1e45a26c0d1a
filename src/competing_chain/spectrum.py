"""Exact diagonalization and per-eigenstate transfer-eigenvalue reconstruction.

For every eigenstate the transfer eigenvalue Λ(u) is a degree 4N+2
polynomial with leading coefficient 2, invariant under u -> -u-1, and
parameterized by 2N+1 sign-paired zero roots via

    Λ(u) = 2 ∏_l (u - z_l + 1/2)(u + z_l + 1/2).

Λ is sampled as a Rayleigh quotient of the (matrix-free) transfer
application, certified by the eigen-residual ‖t(u)v − Λv‖² ≤ VAR_TOL·|Λ|²
against unresolved degeneracies, interpolated on scaled Chebyshev nodes
plus the fixed points {0, -1}, factored through a balanced companion
matrix, and the roots are polished by Newton steps on the exact Rayleigh
quotient, with the slope of the fitted polynomial, so downstream energy
checks hold at 1e-8 and better.  All points of one curve, samples and
certificate together, go through one batched transfer application.

At nonzero inhomogeneities, where no Hamiltonian exists, the state is a
unit eigenvector of t(u*) itself (transfer_state_roots).  The t(u) commute,
so it needs no left eigenvector and takes the same certified path as an
ED state.

Root-set serialization: JSON holds the sign-pair representatives of z
(convention Im z >= 0, ties broken by Re z >= 0); the CSV export emits the
rotated values z̄ = -i z used for root-pattern plots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly
from numpy.polynomial import polyutils as pu

from .algebra import max_norm
from .errors import (ConsistencyError, DegeneracyError, ExtractionError,
                     FitError, ParameterError)
from .hamiltonian import hamiltonian_direct
from .params import ModelParams
from .transfer import a_bare, apply_transfer, d_bare, transfer_matrix

DEFAULT_INTERVAL = (-3.0, 2.0)
DEGENERACY_RESOLVE_POINT = 0.37
ROOT_ZERO_TOL = 1e-12
POLISH_STEPS = 2
HERM_TOL = 1e-12          # hermiticity defect of H and t(u*), relative to max(1, |m|)
# From this dimension (2N >= 10) hermitian eigensolves take the blocked
# back-transform: on a 2-core x86-64 host it saves ~0.45 s per call at 1024,
# while the scipy.linalg import it needs costs ~0.33 s in a fresh process,
# more than the ~20 ms it would save at 256 (2N=8).
BLOCKED_EIGH_MIN_DIM = 1024
DEGENERACY_GAP = 1e-9     # level spacing, relative to the spectral scale
VAR_TOL = 1e-8            # squared eigen-residual of t(u) v, relative to |Λ|^2
COND_THRESHOLD = 1e12     # largest Chebyshev-Vandermonde condition number
LEADING_TOL = 1e-6        # relative deviation of the leading coefficient from 2
PAIR_TOL = 1e-6           # largest |s_i + s_j| mismatch of a ± root pair


@dataclass
class EigenPair:
    energy: float
    state: np.ndarray


@dataclass(frozen=True)
class ZeroRootSet:
    """Sign-pair representatives of the 2N+1 zero roots of Λ(u)."""

    two_n: int
    z: tuple
    residual: float = 0.0

    @property
    def z_bar(self) -> tuple:
        """Rotated roots z̄ = -i z (the root-pattern plane)."""
        return tuple(-1j * np.asarray(self.z, dtype=complex))

    def full_multiset(self) -> np.ndarray:
        zz = np.asarray(self.z, dtype=complex)
        return np.concatenate([zz, -zz])


def canonical_root(z: complex) -> complex:
    """Pick the sign-pair representative with Im >= 0 (ties: Re >= 0)."""
    z = complex(z)
    if z.imag < -ROOT_ZERO_TOL:
        return -z
    if abs(z.imag) <= ROOT_ZERO_TOL and z.real < 0.0:
        return -z
    return z


def _sort_key(z: complex) -> tuple:
    """(Re, Im) with parts within ROOT_ZERO_TOL of zero read as 0, so ±0 noise cannot reorder."""
    return tuple(0.0 if abs(x) <= ROOT_ZERO_TOL else x for x in (z.real, z.imag))


def _sorted_roots(roots) -> tuple:
    return tuple(sorted((complex(z) for z in roots), key=_sort_key))


def lambda_from_roots(u, roots: ZeroRootSet):
    """Λ(u) = 2 ∏ (u - z + 1/2)(u + z + 1/2) from sign-pair representatives."""
    zz = np.asarray(roots.z, dtype=complex)
    u = np.asarray(u, dtype=complex)
    vals = 2.0 * np.ones_like(u)
    for z in zz:
        vals = vals * (u - z + 0.5) * (u + z + 0.5)
    return vals


# ---------------------------------------------------------------------------
# exact diagonalization
# ---------------------------------------------------------------------------

def diagonalize(params: ModelParams) -> list:
    """Full spectrum of the hermitian chain Hamiltonian, ascending.

    Degenerate levels are resolved into transfer eigenstates by
    diagonalizing t(u*) at the fixed generic point u* = 0.37 inside each
    degenerate block, so Rayleigh quotients of t(u) are well defined.
    """
    energies, vectors = _certified_eigh(hamiltonian_direct(params), "Hamiltonian")
    states = np.ascontiguousarray(vectors.T)
    pairs = [EigenPair(float(e), state) for e, state in zip(energies, states)]
    _resolve_degenerate_blocks(pairs, params)
    return pairs


def _resolve_degenerate_blocks(pairs, params):
    i = 0
    scale = max(1.0, abs(pairs[-1].energy), abs(pairs[0].energy))
    while i < len(pairs):
        j = i + 1
        while j < len(pairs) and abs(pairs[j].energy - pairs[i].energy) <= DEGENERACY_GAP * scale:
            j += 1
        if j - i > 1:
            block = np.column_stack([pairs[k].state for k in range(i, j)])
            for k, v in enumerate(_transfer_eigenvectors(block, params), start=i):
                pairs[k].state = v
        i = j


def _certified_eigh(m: np.ndarray, name: str):
    """(w, V) of m, which must be hermitian to HERM_TOL relative to max(1, |m|).

    A larger defect raises ConsistencyError: both routes read the lower
    triangle only, so a skew part would otherwise pass unnoticed.  Below
    BLOCKED_EIGH_MIN_DIM this is np.linalg.eigh; from there on it is
    _blocked_eigh, with the same eigenvalues.
    """
    defect = max_norm(m - m.conj().T)
    if defect > HERM_TOL * max(1.0, max_norm(m)):
        raise ConsistencyError(f"{name} hermiticity defect {defect:.3e}")
    if m.shape[0] < BLOCKED_EIGH_MIN_DIM:
        return np.linalg.eigh(m)
    return _blocked_eigh(m)


def _blocked_eigh(m: np.ndarray):
    """LAPACK zheevd's three steps, with a blocked back-transform.

    np.linalg.eigh is zheevd: zhetrd (lower), the divide-and-conquer
    tridiagonal solve, and zunmtr, which zheevd hands a workspace of n
    entries, so its zunmqr runs one reflector at a time.  Here the same
    zhetrd and dstevd run, then one blocked zunmqr applies the reflectors
    to rows 1..n-1 of the tridiagonal eigenvectors (Q leaves row 0 alone).
    The eigenvalues are zheevd's; the vectors differ in rounding only
    (notes/decisions.md).  Each array is dropped as soon as the next one
    exists, so the peak stays below eigh's; m itself is copied, never
    overwritten.  zheevd's rescaling of entries outside 1e±146 is left out.
    Returns (w, V) with V in Fortran order.
    """
    from scipy.linalg import lapack

    n = m.shape[0]
    lwork = int(lapack.zhetrd_lwork(n, lower=1)[0].real)
    c, d, e, tau, info = lapack.zhetrd(m, lower=1, lwork=lwork)
    _check_lapack("zhetrd", info)
    reflectors = np.asfortranarray(c[1:, :-1])
    del c
    w, z, info = lapack.dstevd(d, e)
    _check_lapack("dstevd", info)
    top = z[0].copy()
    rows = np.asfortranarray(z[1:], dtype=complex)
    del z
    lwork = int(lapack.zunmqr("L", "N", reflectors, tau, rows, -1, overwrite_c=1)[1][0].real)
    rows, _, info = lapack.zunmqr("L", "N", reflectors, tau, rows, lwork, overwrite_c=1)
    _check_lapack("zunmqr", info)
    del reflectors
    v = np.empty((n, n), dtype=complex, order="F")
    v[0] = top
    v[1:] = rows
    return w, v


def _check_lapack(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info={info}")


def _transfer_eigenvectors(basis: np.ndarray, params: ModelParams) -> list:
    """Orthonormal eigenvectors of t(u*) inside the span of orthonormal basis columns.

    t(u*) at u* = DEGENERACY_RESOLVE_POINT is applied to every column in one
    batched pass and projected onto the basis.  At real u the shifts
    ±(a + θ_j) are imaginary, so T0(u)^† = T̂0(u), and with K^± real
    symmetric t(u) is hermitian (notes/decisions.md).  The projection is
    certified hermitian and diagonalized with eigh, whose eigenvectors are
    orthonormal.  Each is still divided by its own ``norm`` (``norm(axis=0)``
    over the block rounds differently), which keeps the ``ed`` files of
    degenerate levels at their recorded digests (notes/decisions.md).
    """
    tv = apply_transfer(np.full(basis.shape[1], DEGENERACY_RESOLVE_POINT), params, basis.T).T
    _, w = _certified_eigh(basis.conj().T @ tv, "projected t(u*)")
    return [v / np.linalg.norm(v) for v in (basis @ w).T]


# ---------------------------------------------------------------------------
# Λ(u) sampling and fitting
# ---------------------------------------------------------------------------

def _state_vector(state) -> np.ndarray:
    return state.state if isinstance(state, EigenPair) else np.asarray(state, dtype=complex)


def _transfer_rows(us, params: ModelParams, v: np.ndarray) -> np.ndarray:
    """Rows t(u_k) @ v for every point u_k, in one batched application."""
    us = np.asarray(us).ravel()
    return apply_transfer(us, params, np.broadcast_to(v, (len(us), len(v))))


def lambda_samples(state, params: ModelParams, points):
    """Rayleigh-quotient samples Λ(u_k) = <v|t(u_k)|v> with a residual certificate.

    The certificate ‖t(u)v − Λv‖² <= VAR_TOL |Λ|^2 reads the same rows t(u)v
    as Λ; it fails on unresolved degenerate states, so resolve them first
    (see diagonalize).  For hermitian t(u) and unit v it equals the variance
    <t(u)^2> - <t(u)>^2.
    """
    v = _state_vector(state)
    us = np.asarray(points).ravel()
    tv = _transfer_rows(us, params, v)
    lam = tv @ v.conj()
    residual = np.sum(np.abs(tv - lam[:, None] * v) ** 2, axis=1)
    bad = np.flatnonzero(residual > VAR_TOL * np.maximum(np.abs(lam) ** 2, 1e-300))
    if bad.size:
        k = bad[0]
        raise DegeneracyError(
            f"transfer eigen-residual {residual[k]:.3e} at u={us[k]}: resolve the "
            "degenerate subspace by simultaneous diagonalization before sampling")
    return lam


def chebyshev_sample_points(two_n: int) -> np.ndarray:
    """4N+3 sorted sample points: scaled Chebyshev nodes plus the fixed points 0, -1.

    On DEFAULT_INTERVAL a node maps to u = 0 or u = -1 only where
    cos(π(2k+1)/(2(d+1))) = ±0.2, and by Niven's theorem the cosine of a
    rational multiple of π is rational only at 0, ±1/2 and ±1; so the
    points are distinct and a sort (no np.unique, which loads numpy.ma)
    orders them.  The rounded arrays equal np.unique's for 2N = 4..38.
    """
    degree = 2 * two_n + 2
    lo, hi = DEFAULT_INTERVAL
    k = np.arange(degree + 1)
    nodes = np.cos(np.pi * (2 * k + 1) / (2 * (degree + 1)))
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    return np.sort(np.concatenate([nodes, [0.0, -1.0]]))


def _chebyshev_to_power(coeffs) -> np.ndarray:
    """Ascending power-basis coefficients of a Chebyshev series on DEFAULT_INTERVAL.

    The Clenshaw recurrence of ``Chebyshev(coeffs, DEFAULT_INTERVAL).convert(
    kind=Polynomial)`` on coefficient arrays: the same convolutions, padded
    additions and subtractions in the same order, so the result is
    bit-identical to numpy's for any series of length >= 3 whose leading
    coefficient is nonzero (numpy would trim trailing zeros).
    """
    c = np.asarray(coeffs, dtype=complex)
    off, scl = pu.mapparms(DEFAULT_INTERVAL, (-1.0, 1.0))
    x = np.array([off, scl], dtype=complex)  # the window variable off + scl·u
    x2 = 2.0 * x
    c0, c1 = c[-2:-1], c[-1:]
    for i in range(3, len(c) + 1):
        tmp = c0
        c0 = -c1
        c0[0] += c[-i]
        c1 = np.convolve(c1, x2)
        c1[: len(tmp)] += tmp
    out = np.convolve(c1, x)
    out[: len(c0)] += c0
    return out


def fit_lambda_polynomial(points, values, two_n: int) -> np.ndarray:
    """Interpolate Λ through >= 4N+3 samples; degree 4N+2, leading coeff 2.

    Returns the ascending power-basis coefficients.
    """
    degree = 2 * two_n + 2
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=complex)
    if len(points) < degree + 1:
        raise FitError(f"need at least {degree + 1} samples, got {len(points)}")
    lo, hi = DEFAULT_INTERVAL
    mapped = (2.0 * points - (lo + hi)) / (hi - lo)
    design = npcheb.chebvander(mapped, degree)
    cond = np.linalg.cond(design)
    if cond > COND_THRESHOLD:
        raise FitError(
            f"Vandermonde condition {cond:.3e} above {COND_THRESHOLD:.1e}; "
            "the sample points are too clustered")
    coeffs_cheb, *_ = np.linalg.lstsq(design, values, rcond=None)
    coeffs = _chebyshev_to_power(coeffs_cheb)
    lead = coeffs[-1]
    if abs(lead / 2.0 - 1.0) > LEADING_TOL:
        raise FitError(f"leading coefficient {lead} deviates from 2 beyond {LEADING_TOL}")
    return coeffs


# ---------------------------------------------------------------------------
# zero roots
# ---------------------------------------------------------------------------

def _pair_shifts(shifts):
    """Greedy ±-pairing of the shifted roots; returns (representatives, worst)."""
    shifts = list(shifts)
    reps = []
    worst = 0.0
    while shifts:
        s0 = shifts.pop()
        dists = [abs(s0 + s) for s in shifts]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        partner = shifts.pop(k)
        reps.append(canonical_root(0.5 * (s0 - partner)))
    if worst > PAIR_TOL:
        raise ExtractionError(f"unpairable zero roots: mismatch {worst:.3e} > {PAIR_TOL:.1e}")
    return reps, worst


def _polish_on_curve(curve, u: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """POLISH_STEPS Newton steps on an analytic curve, all roots at once.

    The slope is the derivative of the fitted polynomial with ascending
    coefficients ``coeffs``, so each step costs one batched curve evaluation.
    """
    der = nppoly.polyder(coeffs)
    for _ in range(POLISH_STEPS):
        slopes = nppoly.polyval(u, der)
        safe = np.abs(slopes) > 1e-300
        u = u - np.where(safe, curve(u) / np.where(safe, slopes, 1.0), 0.0)
    return u


def _zero_roots(coeffs: np.ndarray, curve) -> ZeroRootSet:
    """Companion roots of the fit, Newton-polished on ``curve``, then ± paired.

    Shifts s = u_root + 1/2 come in ± pairs; each pair is averaged into one
    representative.  The pairing residual is the worst |s_i + s_j| mismatch.
    """
    u_roots = _polish_on_curve(curve, nppoly.polyroots(coeffs), coeffs)
    reps, worst = _pair_shifts(u_roots + 0.5)
    return ZeroRootSet(two_n=len(reps) - 1, z=_sorted_roots(reps), residual=float(worst))


def state_zero_roots(state, params: ModelParams) -> ZeroRootSet:
    """Full pipeline eigenstate -> Λ samples -> polynomial -> polished roots.

    The polynomial roots are polished on the exact Rayleigh quotient before
    sign pairing, which keeps the pairing sharp even when the companion
    roots of the degree-(4N+2) interpolant carry 1e-6-level noise.
    """
    v = _state_vector(state)
    pts = chebyshev_sample_points(params.two_n)
    coeffs = fit_lambda_polynomial(pts, lambda_samples(v, params, pts), params.two_n)
    return _zero_roots(coeffs, lambda us: _transfer_rows(us, params, v) @ v.conj())


def transfer_state_roots(params: ModelParams, reference_state: np.ndarray) -> ZeroRootSet:
    """Zero roots of the transfer eigenstate continuously connected to a reference.

    Works at nonzero inhomogeneities, where no Hamiltonian exists: the dense
    t(u*) is certified hermitian and diagonalized, and the eigenvector of
    largest overlap with the reference vector, normalized, goes through
    state_zero_roots, eigen-residual certificate included.  The t(u)
    commute, so that vector is an eigenvector of every t(u) and its Rayleigh
    quotient is Λ(u).
    """
    ref = np.asarray(reference_state, dtype=complex)
    _, w = _certified_eigh(transfer_matrix(DEGENERACY_RESOLVE_POINT, params), "t(u*)")
    v = w[:, np.argmax(np.abs(ref.conj() @ w))]
    return state_zero_roots(v / np.linalg.norm(v), params)


def inversion_identity_check(roots: ZeroRootSet, params: ModelParams, j: int) -> float:
    """Relative residual of Λ(θ_j+a) Λ(θ_j+a-1) = a(θ_j+a) d(θ_j+a-1)."""
    if not 1 <= j <= params.two_n:
        raise ParameterError(f"site index {j} outside 1..{params.two_n}")
    x = params.thetas[j - 1] + params.a
    lhs = complex(lambda_from_roots(x, roots) * lambda_from_roots(x - 1.0, roots))
    rhs = a_bare(x, params) * d_bare(x - 1.0, params)
    if abs(rhs) < 1e-300:
        return abs(lhs - rhs)
    return abs(lhs - rhs) / abs(rhs)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def roots_to_json(roots: ZeroRootSet, params: ModelParams) -> str:
    doc = {
        "two_n": roots.two_n,
        "params": params.to_dict(),
        "roots": [[z.real, z.imag] for z in roots.z],
        "residual": roots.residual,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def roots_from_json(text: str):
    doc = json.loads(text)
    params = ModelParams.from_dict(doc["params"])
    z = tuple(complex(re, im) for re, im in doc["roots"])
    return ZeroRootSet(two_n=int(doc["two_n"]), z=z, residual=float(doc["residual"])), params


def roots_to_csv(roots: ZeroRootSet) -> str:
    """CSV of the rotated roots z̄ = -i z (index, re, im), one row per representative."""
    lines = ["index,re,im"]
    for i, zb in enumerate(roots.z_bar):
        lines.append(f"{i},{zb.real:.17g},{zb.imag:.17g}")
    return "\n".join(lines) + "\n"
