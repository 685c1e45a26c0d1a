"""Exact diagonalization and per-eigenstate transfer-eigenvalue reconstruction.

diagonalize returns the full dense spectrum, degenerate levels resolved
into transfer eigenstates.  From dimension BLOCKED_EIGH_MIN_DIM (2N >= 10)
on, each hermitian matrix is reduced to a real tridiagonal once and an
eigenvector is back-transformed only when it is read (_Reduction), in one
of two fixed blocks: the LEADING_BLOCK lowest states or all the others.
Below that dimension the eigensolve is np.linalg.eigh.  ground_state
returns the lowest pair alone: a
numpy Lanczos run with full reorthogonalization, certified as the isolated
ground state by one Cholesky factorization of H + xxᴴ − (e + η)I, with a
gap η that grows with the Lanczos residual, and diagonalize's lowest pair
where that certificate fails.

For every eigenstate the transfer eigenvalue Λ(u) is invariant under
u -> -u-1 and parameterized by 2N+1 sign-paired zero roots z_l via

    Λ(u) = 2 ∏_l (u - z_l + 1/2)(u + z_l + 1/2) = 2 ∏_l (w - z_l^2),

so it is a polynomial P(w) of degree 2N+1 in w = (u + 1/2)^2 with leading
coefficient 2.  Λ is sampled as a Rayleigh quotient of the (matrix-free)
transfer application, certified by the eigen-residual
‖t(u)v − Λv‖² ≤ VAR_TOL·|Λ|² against unresolved degeneracies, at the
2N+2 points of the circle |w − c| = R, that is at complex u = −1/2 + √w.
On that circle the Vandermonde is unitary, so an FFT gives the
coefficients of P; their companion roots start Weierstrass (Durand–Kerner)
steps, first on the fit and then on the exact Rayleigh quotient, one
batched transfer application per step, until no root moves by more than
STEP_TOL relative.  z_l is the canonical square root of the root w_l, so
no ± pairing is needed.  The samples stay clear of u = −1/2 (w = 0),
where Λ can have a double zero that no relative certificate passes.

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
from numpy.polynomial import polynomial as nppoly

from .algebra import max_norm
from .errors import (ConsistencyError, DegeneracyError, ExtractionError,
                     FitError, ParameterError)
from .hamiltonian import hamiltonian_direct
from .params import ModelParams
from .transfer import a_bare, apply_transfer, d_bare, transfer_matrix

DEGENERACY_RESOLVE_POINT = 0.37
ROOT_ZERO_TOL = 1e-12
HERM_TOL = 1e-12          # hermiticity defect of H and t(u*), relative to max(1, |m|)
HERM_CHECK_ROWS = 128     # rows per block of the hermiticity check
# From this dimension (2N >= 10) hermitian eigensolves reduce once and
# back-transform on read: on a 2-core x86-64 host a 2N=10 diagonalize that
# reads 8 states takes ~0.30 s, against ~0.77 s for eigh alone, while the
# scipy.linalg import it needs costs ~0.33 s in a fresh process, more than
# the ~20 ms it would save at 256 (2N=8).
BLOCKED_EIGH_MIN_DIM = 1024
LEADING_BLOCK = 32        # states back-transformed together on the first read of any of them
DEGENERACY_GAP = 1e-9     # level spacing, relative to the spectral scale
VAR_TOL = 1e-8            # squared eigen-residual of t(u) v, relative to |Λ|^2
LEADING_TOL = 1e-6        # relative deviation of the leading coefficient from 2
CIRCLE_CENTER = -1.0      # Λ is sampled on the circle |w − c| = R in w = (u + 1/2)^2
CIRCLE_RADIUS = 4.0
FIT_STEPS = 8             # Weierstrass steps on the fitted polynomial
STEP_TOL = 1e-14          # exact Weierstrass steps stop at this largest relative step
MAX_EXACT_STEPS = 50      # exact steps before ExtractionError
LANCZOS_TOL = 1e-13       # ground-state residual ‖Hx − ex‖, relative to H's largest row sum
LANCZOS_MAX_STEPS = 150   # Krylov dimension before ground_state falls back to diagonalize
LANCZOS_CHECK = 5         # Lanczos steps between Ritz residual checks
LANCZOS_SEED = 2026       # numpy seed of the complex start vector
GROUND_STATE_ANGLE = 1e-8  # largest sin θ between a certified ground_state and its eigenvector


@dataclass
class EigenPair:
    energy: float
    state: np.ndarray


class _LazyPair(EigenPair):
    """An EigenPair whose state is ``vectors[index]``, read on first access."""

    def __init__(self, energy: float, vectors, index: int):
        self.energy = energy
        self._vectors, self._index = vectors, index

    @property
    def state(self) -> np.ndarray:
        if self._vectors is not None:
            self._state = self._vectors[self._index]
            self._vectors = None
        return self._state

    @state.setter
    def state(self, value: np.ndarray) -> None:
        self._state, self._vectors = value, None


@dataclass(frozen=True)
class ZeroRootSet:
    """Sign-pair representatives of the 2N+1 zero roots of Λ(u).

    ``residual`` is the last Weierstrass step of the extraction in
    w = z^2, relative to max(|w|, 1) and largest over the roots (≤ STEP_TOL).
    """

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
    degenerate block, so Rayleigh quotients of t(u) are well defined.  A
    pair's state is formed when it is first read (see _certified_eigh);
    the states of degenerate blocks are read here.
    """
    energies, vectors = _certified_eigh(hamiltonian_direct(params), "Hamiltonian")
    pairs = [_LazyPair(float(e), vectors, k) for k, e in enumerate(energies)]
    _resolve_degenerate_blocks(pairs, params)
    return pairs


def ground_state(params: ModelParams) -> EigenPair:
    """Lowest eigenpair of the chain Hamiltonian, without the full spectrum.

    Lanczos (_lanczos_ground_state) finds a pair (e, x) on the dense H with
    residual r = ‖Hx − ex‖.  One Cholesky factorization of
    M = H + xxᴴ − (e + η)I, with η = max(DEGENERACY_GAP·s, r/GROUND_STATE_ANGLE),
    certifies it: M is positive definite only if every eigenvalue of H but
    one lies above e + η (Sylvester's law of inertia), while the lowest is
    at most e.  So x is the ground state, its level is non-degenerate under
    diagonalize's DEGENERACY_GAP rule (s, the largest absolute row sum of H,
    bounds that rule's scale from above), and x is within sin θ ≤ r/η ≤
    GROUND_STATE_ANGLE of the ground eigenvector (Davis–Kahan;
    notes/decisions.md).  An excited or (near-)degenerate state fails.
    Where the certificate fails, or Lanczos does not converge, this is
    diagonalize(params)[0], degenerate-block resolution included.
    """
    h = hamiltonian_direct(params)
    _check_hermitian(h, "Hamiltonian")
    scale = max(1.0, float(np.max(np.sum(np.abs(h), axis=1))))
    found = _lanczos_ground_state(h, LANCZOS_TOL * scale)
    if found is not None:
        pair, residual = found
        gap = max(DEGENERACY_GAP * scale, residual / GROUND_STATE_ANGLE)
        # M is formed in h's own buffer, which keeps one dense matrix fewer
        # alive during the factorization; h is not used again
        m = h
        m += np.outer(pair.state, pair.state.conj())
        m[np.diag_indices_from(m)] -= pair.energy + gap
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            pass
        else:
            return pair
    return diagonalize(params)[0]


def _lanczos_ground_state(h: np.ndarray, tol: float):
    """(lowest Ritz pair, its residual) of hermitian h, or None above tol.

    Lanczos with full reorthogonalization (classical Gram-Schmidt, twice)
    from a fixed-seed complex start vector.  Every LANCZOS_CHECK steps the
    lowest Ritz pair of the tridiagonal is formed; the iteration stops once
    its residual estimate β|s_last| is at most tol, when the Krylov space
    is exhausted (β ≤ tol), or after min(dim, LANCZOS_MAX_STEPS) steps.
    The returned energy is the Rayleigh quotient of the unit Ritz vector x
    with the true h, and its residual ‖hx − ex‖ must itself be at most tol.
    """
    n = h.shape[0]
    steps = min(n, LANCZOS_MAX_STEPS)
    rng = np.random.default_rng(LANCZOS_SEED)
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    basis = np.empty((steps, n), dtype=complex)
    basis[0] = q / np.linalg.norm(q)
    alpha, beta = np.empty(steps), np.empty(steps)
    for j in range(steps):
        w = h @ basis[j]
        alpha[j] = np.vdot(basis[j], w).real
        for _ in range(2):
            w -= (basis[:j + 1] @ w.conj()).conj() @ basis[:j + 1]
        beta[j] = np.linalg.norm(w)
        last = beta[j] <= tol or j + 1 == steps
        if last or (j + 1) % LANCZOS_CHECK == 0:
            k = j + 1
            t = np.diag(alpha[:k]) + np.diag(beta[:k - 1], 1) + np.diag(beta[:k - 1], -1)
            _, ritz = np.linalg.eigh(t)
            if last or beta[j] * abs(ritz[-1, 0]) <= tol:
                break
        basis[j + 1] = w / beta[j]
    x = ritz[:, 0] @ basis[:k]
    x /= np.linalg.norm(x)
    hx = h @ x
    energy = np.vdot(x, hx).real
    residual = float(np.linalg.norm(hx - energy * x))
    if residual > tol:
        return None
    return EigenPair(float(energy), x), residual


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
    """(w, vectors) of m, which must be hermitian to HERM_TOL relative to max(1, |m|).

    ``vectors[k]`` is the unit eigenvector of w[k], a contiguous vector.  A
    larger defect raises ConsistencyError: both routes read the lower
    triangle only, so a skew part would otherwise pass unnoticed.  Below
    BLOCKED_EIGH_MIN_DIM this is np.linalg.eigh, and vectors is its V
    transposed into C order.  From there on m is reduced once, with LAPACK zheevd's
    zhetrd (lower) and a divide-and-conquer dstevd on the real tridiagonal,
    so w is eigh's; vectors is a _Reduction.  m is copied, never overwritten,
    and a caller that passes its only reference frees it before dstevd.
    zheevd's rescaling of entries outside 1e±146 is left out.
    """
    _check_hermitian(m, name)
    n = m.shape[0]
    if n < BLOCKED_EIGH_MIN_DIM:
        w, v = np.linalg.eigh(m)
        return w, np.ascontiguousarray(v.T)
    from scipy.linalg import lapack

    lwork = int(lapack.zhetrd_lwork(n, lower=1)[0].real)
    c, d, e, tau, info = lapack.zhetrd(m, lower=1, lwork=lwork)
    del m
    _check_lapack("zhetrd", info)
    reflectors = np.asfortranarray(c[1:, :-1])
    del c
    w, z, info = lapack.dstevd(d, e)
    _check_lapack("dstevd", info)
    return w, _Reduction(reflectors, tau, z)


def _check_hermitian(m: np.ndarray, name: str) -> None:
    """ConsistencyError unless max|m − mᴴ| ≤ HERM_TOL·max(1, max|m|).

    Both maxima are taken over row blocks of HERM_CHECK_ROWS, which keeps
    the temporaries small against m and gives the same values.
    """
    defect = scale = 0.0
    for i in range(0, m.shape[0], HERM_CHECK_ROWS):
        block = m[i:i + HERM_CHECK_ROWS]
        defect = max(defect, max_norm(block - m[:, i:i + HERM_CHECK_ROWS].conj().T))
        scale = max(scale, max_norm(block))
    if defect > HERM_TOL * max(1.0, scale):
        raise ConsistencyError(f"{name} hermiticity defect {defect:.3e}")


class _Reduction:
    """Eigenvectors diag(1, Q)·Z of a reduced hermitian matrix, back-transformed on read.

    Q is the product of zhetrd's Householder reflectors (it acts on rows
    1..n-1 and leaves row 0 alone) and Z holds dstevd's real tridiagonal
    eigenvectors.  Reading vector k applies Q, with one blocked zunmqr, to
    every column of its block: the LEADING_BLOCK lowest, or all the others.
    On the tested OpenBLAS, zunmqr gives each of these two blocks the bits
    of the all-columns call, so no vector depends on which were read before
    it.  Not every block does: a block narrower than 4 columns never does,
    and wider ones only when no column falls into a remainder of the 4-wide
    tiles the work is split into (notes/decisions.md).  Reflectors and Z
    are kept until both blocks exist; overlaps must be taken before that.
    """

    def __init__(self, reflectors: np.ndarray, tau: np.ndarray, z: np.ndarray):
        self._reflectors, self._tau, self._z = reflectors, tau, z
        self._n = z.shape[0]
        self._blocks = {}   # first column -> (columns, n) array of that block's vectors

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, k: int) -> np.ndarray:
        start, stop = (0, LEADING_BLOCK) if k < LEADING_BLOCK else (LEADING_BLOCK, self._n)
        if start not in self._blocks:
            self._blocks[start] = self._back_transform(start, stop)
            if len(self._blocks) == 2:   # every vector exists: Q and Z are not needed again
                self._reflectors = self._tau = self._z = None
        return self._blocks[start][k - start]

    def _back_transform(self, start: int, stop: int) -> np.ndarray:
        """Vectors start..stop-1 as the rows of one C-ordered array, built in its own buffer.

        zunmqr transforms rows 1..n-1 of the block as an F-ordered array at
        the head of the buffer; each column is then moved up by its index
        plus one, last column first (none lands on one not yet moved), and
        row 0 fills the gaps.  So the block takes one array, not two.
        """
        n, cols = self._n, stop - start
        flat = np.empty(n * cols, dtype=complex)
        rows = flat[:(n - 1) * cols].reshape((n - 1, cols), order="F")
        rows[...] = self._z[1:, start:stop]
        done = self._apply_q("N", rows)
        if done is not rows:
            rows[...] = done
        for j in range(cols - 1, -1, -1):
            flat[j * n + 1:(j + 1) * n] = flat[j * (n - 1):(j + 1) * (n - 1)]
        flat[::n] = self._z[0, start:stop]
        return flat.reshape((cols, n))

    def overlaps(self, ref: np.ndarray) -> np.ndarray:
        """|⟨ref|v_k⟩| for every k: |yᴴZ| with y = diag(1, Q)ᴴ ref, one zunmqr on one column."""
        y = np.empty(len(ref), dtype=complex)
        y[0] = ref[0]
        column = np.array(ref[1:, None], order="F")   # a copy: zunmqr overwrites it
        y[1:] = self._apply_q("C", column)[:, 0]
        return np.hypot(y.real @ self._z, y.imag @ self._z)

    def _apply_q(self, trans: str, c: np.ndarray) -> np.ndarray:
        """Q c (trans "N") or Qᴴ c ("C"); a complex F-ordered c is overwritten and returned."""
        from scipy.linalg import lapack

        # zunmqr's block size is at most its NBMAX = 64 and its T block takes
        # 65 × 64 entries, so this workspace runs the blocked path without a
        # workspace query, with the block size that query would give
        lwork = c.shape[1] * 64 + 65 * 64
        c, _, info = lapack.zunmqr("L", trans, self._reflectors, self._tau, c, lwork,
                                   overwrite_c=1)
        _check_lapack("zunmqr", info)
        return c


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
    _, vectors = _certified_eigh(basis.conj().T @ tv, "projected t(u*)")
    return [v / np.linalg.norm(v) for v in (basis @ vectors.T).T]


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


def circle_sample_points(two_n: int) -> np.ndarray:
    """The 2N+2 sample points w_k = c + R e^{2πik/(2N+2)} of P(w), on the circle |w − c| = R."""
    k = np.arange(two_n + 2)
    return CIRCLE_CENTER + CIRCLE_RADIUS * np.exp(2j * np.pi * k / (two_n + 2))


def u_of_w(w) -> np.ndarray:
    """u = −1/2 + √w; Λ is even in u + 1/2, so either branch of the root gives it."""
    return np.sqrt(np.asarray(w, dtype=complex)) - 0.5


def fit_lambda_polynomial(values) -> np.ndarray:
    """Ascending coefficients of P in t = (w − c)/R from its samples at circle_sample_points.

    The samples are P at the (2N+2)-th roots of unity in t, so the
    Vandermonde is unitary up to scale and the coefficients are the discrete
    Fourier transform of the samples over their count.  P has degree 2N+1
    and leading coefficient 2 in w, that is 2 R^{2N+1} in t; a deviation
    beyond LEADING_TOL raises FitError.
    """
    values = np.asarray(values, dtype=complex)
    coeffs = np.fft.fft(values) / len(values)
    lead = coeffs[-1] / CIRCLE_RADIUS ** (len(values) - 1)
    if abs(lead / 2.0 - 1.0) > LEADING_TOL:
        raise FitError(f"leading coefficient {lead} deviates from 2 beyond {LEADING_TOL}")
    return coeffs


# ---------------------------------------------------------------------------
# zero roots
# ---------------------------------------------------------------------------

def _weierstrass_step(w: np.ndarray, values: np.ndarray, lead: complex):
    """One simultaneous Weierstrass step w_i -= P(w_i) / (lead ∏_{j≠i} (w_i − w_j)).

    Returns the new roots and the largest step relative to max(|w_i|, 1):
    a root at w = 0, a double zero of Λ at u = −1/2, is measured absolutely.
    """
    diff = w[:, None] - w[None, :]
    np.fill_diagonal(diff, 1.0)
    step = values / (lead * np.prod(diff, axis=1))
    return w - step, float(np.max(np.abs(step) / np.maximum(np.abs(w), 1.0)))


def _zero_roots(coeffs: np.ndarray, curve) -> ZeroRootSet:
    """Roots of the fit in t, Weierstrass-polished on the fit and then on ``curve``.

    ``curve`` evaluates P(w) = Λ(−1/2 + √w) at an array of w.  FIT_STEPS steps
    on the fitted polynomial start the exact steps, each one call of
    ``curve`` on all 2N+1 roots, which stop once no root moves by more than
    STEP_TOL relative (ExtractionError after MAX_EXACT_STEPS).  Each w_l is
    z_l^2, so z_l is the canonical square root, and the residual is the
    last relative step.
    """
    n = len(coeffs) - 1
    w = CIRCLE_CENTER + CIRCLE_RADIUS * nppoly.polyroots(coeffs)
    fit_lead = coeffs[-1] / CIRCLE_RADIUS ** n
    for _ in range(FIT_STEPS):
        t = (w - CIRCLE_CENTER) / CIRCLE_RADIUS
        w, _ = _weierstrass_step(w, nppoly.polyval(t, coeffs), fit_lead)
    for _ in range(MAX_EXACT_STEPS):
        w, step = _weierstrass_step(w, curve(w), 2.0)
        if step <= STEP_TOL:
            z = [canonical_root(np.sqrt(x)) for x in w]
            return ZeroRootSet(two_n=n - 1, z=_sorted_roots(z), residual=step)
    raise ExtractionError(f"zero roots still move by {step:.3e} after "
                          f"{MAX_EXACT_STEPS} Weierstrass steps")


def state_zero_roots(state, params: ModelParams) -> ZeroRootSet:
    """Full pipeline eigenstate -> Λ samples -> polynomial -> polished roots.

    The 2N+2 certified circle samples cost one batched transfer application,
    and every exact Weierstrass step one more of 2N+1 rows, all without a
    certificate: at a root Λ vanishes and the relative test cannot hold.
    """
    v = _state_vector(state)
    pts = u_of_w(circle_sample_points(params.two_n))
    coeffs = fit_lambda_polynomial(lambda_samples(v, params, pts))
    return _zero_roots(coeffs, lambda w: _transfer_rows(u_of_w(w), params, v) @ v.conj())


def transfer_state_roots(params: ModelParams, reference_state: np.ndarray) -> ZeroRootSet:
    """Zero roots of the transfer eigenstate continuously connected to a reference.

    Works at nonzero inhomogeneities, where no Hamiltonian exists: the dense
    t(u*) is certified hermitian and diagonalized, and the eigenvector of
    largest overlap with the reference vector, normalized, goes through
    state_zero_roots, eigen-residual certificate included.  The t(u)
    commute, so that vector is an eigenvector of every t(u) and its Rayleigh
    quotient is Λ(u).  From BLOCKED_EIGH_MIN_DIM on the overlaps come from
    the reduction (_Reduction.overlaps), and only the chosen vector's
    block is back-transformed.
    """
    ref = np.asarray(reference_state, dtype=complex)
    _, vectors = _certified_eigh(transfer_matrix(DEGENERACY_RESOLVE_POINT, params), "t(u*)")
    if isinstance(vectors, _Reduction):
        overlaps = vectors.overlaps(ref)
    else:
        overlaps = np.abs(vectors.conj() @ ref)
    v = vectors[np.argmax(overlaps)]
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
