"""Exact diagonalization and per-eigenstate transfer-eigenvalue reconstruction.

For every eigenstate the transfer eigenvalue Λ(u) is a degree 4N+2
polynomial with leading coefficient 2, invariant under u -> -u-1, and
parameterized by 2N+1 sign-paired zero roots via

    Λ(u) = 2 ∏_l (u - z_l + 1/2)(u + z_l + 1/2).

Λ is sampled as a Rayleigh quotient of the (matrix-free) transfer
application, with a variance certificate guarding against unresolved
degeneracies, interpolated on scaled Chebyshev nodes plus the fixed points
{0, -1}, factored through a balanced companion matrix, and the roots are
polished on the exact Rayleigh quotient so downstream energy checks hold at
1e-8 and better.

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

from .algebra import max_norm
from .errors import (ConsistencyError, DegeneracyError, ExtractionError,
                     FitError, ParameterError)
from .hamiltonian import hamiltonian_direct
from .params import ModelParams
from .transfer import a_bare, apply_transfer, d_bare, transfer_matrix

DEFAULT_INTERVAL = (-3.0, 2.0)
DEGENERACY_RESOLVE_POINT = 0.37


@dataclass
class EigenPair:
    energy: float
    state: np.ndarray


@dataclass(frozen=True)
class SpectralPolynomial:
    """Transfer eigenvalue Λ(u) as a power-basis polynomial (ascending)."""

    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> complex:
        return self.coeffs[-1]

    def __call__(self, u):
        return nppoly.polyval(u, np.asarray(self.coeffs))

    def crossing_defect(self) -> float:
        """Relative coefficient defect of Λ(u) - Λ(-u-1)."""
        c = np.asarray(self.coeffs)
        reflected = _compose_affine(c, -1.0, -1.0)
        scale = max(np.max(np.abs(c)), 1e-300)
        return float(np.max(np.abs(c - reflected)) / scale)


def _compose_affine(coeffs: np.ndarray, shift: float, scale: float) -> np.ndarray:
    """Coefficients of P(shift + scale * u), same length as the input."""
    out = np.zeros(len(coeffs), dtype=complex)
    basis = np.array([1.0 + 0.0j])
    lin = np.array([shift, scale], dtype=complex)
    for c in coeffs:
        out[: len(basis)] += c * basis
        basis = nppoly.polymul(basis, lin)
    return out


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


def canonical_root(z: complex, tol: float = 1e-12) -> complex:
    """Pick the sign-pair representative with Im >= 0 (ties: Re >= 0)."""
    z = complex(z)
    if z.imag < -tol:
        return -z
    if abs(z.imag) <= tol and z.real < 0.0:
        return -z
    return z


def _sorted_roots(roots) -> tuple:
    return tuple(sorted((complex(z) for z in roots), key=lambda w: (w.real, w.imag)))


def lambda_from_roots(u, roots: ZeroRootSet | tuple):
    """Λ(u) = 2 ∏ (u - z + 1/2)(u + z + 1/2) from sign-pair representatives."""
    zz = np.asarray(roots.z if isinstance(roots, ZeroRootSet) else roots, dtype=complex)
    u = np.asarray(u, dtype=complex)
    vals = 2.0 * np.ones_like(u)
    for z in zz:
        vals = vals * (u - z + 0.5) * (u + z + 0.5)
    return vals


# ---------------------------------------------------------------------------
# exact diagonalization
# ---------------------------------------------------------------------------

def diagonalize(params: ModelParams, resolve_degeneracies: bool = True,
                herm_tol: float = 1e-12, degeneracy_gap: float = 1e-9) -> list:
    """Full spectrum of the hermitian chain Hamiltonian, ascending.

    Degenerate levels are resolved into transfer eigenstates by
    diagonalizing t(u*) at the fixed generic point u* = 0.37 inside each
    degenerate block, so Rayleigh quotients of t(u) are well defined.
    """
    h = hamiltonian_direct(params)
    defect = max_norm(h - h.conj().T)
    if defect > herm_tol * max(1.0, max_norm(h)):
        raise ConsistencyError(f"Hamiltonian hermiticity defect {defect:.3e}")
    energies, vectors = np.linalg.eigh(h)
    pairs = [EigenPair(float(energies[i]), np.ascontiguousarray(vectors[:, i]))
             for i in range(len(energies))]
    if resolve_degeneracies:
        _resolve_degenerate_blocks(pairs, params, gap=degeneracy_gap)
    return pairs


def _resolve_degenerate_blocks(pairs, params, gap, u_star=DEGENERACY_RESOLVE_POINT):
    i = 0
    scale = max(1.0, abs(pairs[-1].energy), abs(pairs[0].energy))
    while i < len(pairs):
        j = i + 1
        while j < len(pairs) and abs(pairs[j].energy - pairs[i].energy) <= gap * scale:
            j += 1
        if j - i > 1:
            block = np.column_stack([pairs[k].state for k in range(i, j)])
            tv = np.column_stack([apply_transfer(u_star, params, block[:, c])
                                  for c in range(block.shape[1])])
            small = block.conj().T @ tv
            _, w = np.linalg.eig(small)
            new = block @ w
            for c in range(new.shape[1]):
                v = new[:, c]
                nrm = np.linalg.norm(v)
                if nrm < 1e-12:
                    raise DegeneracyError("degenerate block produced a null vector")
                pairs[i + c].state = v / nrm
        i = j


# ---------------------------------------------------------------------------
# Λ(u) sampling and fitting
# ---------------------------------------------------------------------------

def lambda_samples(state, params: ModelParams, points, var_tol: float = 1e-8):
    """Rayleigh-quotient samples Λ(u_k) = <v|t(u_k)|v> with variance certificate.

    The certificate <t(u)^2> - <t(u)>^2 <= var_tol |Λ|^2 fails on unresolved
    degenerate states; resolve them first (see diagonalize).
    """
    v = state.state if isinstance(state, EigenPair) else np.asarray(state, dtype=complex)
    out = []
    for u in points:
        tv = apply_transfer(u, params, v)
        lam = complex(np.vdot(v, tv))
        ttv = apply_transfer(u, params, tv)
        second = complex(np.vdot(v, ttv))
        variance = abs(second - lam * lam)
        if variance > var_tol * max(abs(lam) ** 2, 1e-300):
            raise DegeneracyError(
                f"transfer variance {variance:.3e} at u={u}: resolve the degenerate "
                "subspace by simultaneous diagonalization before sampling")
        out.append(lam)
    return np.asarray(out, dtype=complex)


def chebyshev_sample_points(two_n: int, interval=DEFAULT_INTERVAL) -> np.ndarray:
    """4N+3 sample points: scaled Chebyshev nodes plus the fixed points 0, -1."""
    degree = 2 * two_n + 2
    lo, hi = interval
    k = np.arange(degree + 1)
    nodes = np.cos(np.pi * (2 * k + 1) / (2 * (degree + 1)))
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    pts = np.concatenate([nodes, [0.0, -1.0]])
    return np.unique(pts)


def fit_lambda_polynomial(points, values, two_n: int, interval=DEFAULT_INTERVAL,
                          cond_threshold: float = 1e12,
                          leading_tol: float = 1e-6) -> SpectralPolynomial:
    """Interpolate Λ through >= 4N+3 samples; degree 4N+2, leading coeff 2."""
    degree = 2 * two_n + 2
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=complex)
    if len(points) < degree + 1:
        raise FitError(f"need at least {degree + 1} samples, got {len(points)}")
    lo, hi = interval
    mapped = (2.0 * points - (lo + hi)) / (hi - lo)
    design = npcheb.chebvander(mapped, degree)
    cond = np.linalg.cond(design)
    if cond > cond_threshold:
        raise FitError(
            f"Vandermonde condition {cond:.3e} above {cond_threshold:.1e}; "
            "widen the sample interval")
    coeffs_cheb, *_ = np.linalg.lstsq(design, values, rcond=None)
    series = npcheb.Chebyshev(coeffs_cheb, domain=[lo, hi])
    power = series.convert(kind=np.polynomial.Polynomial)
    coeffs = np.zeros(degree + 1, dtype=complex)
    coeffs[: len(power.coef)] = power.coef
    lead = coeffs[-1]
    if abs(lead / 2.0 - 1.0) > leading_tol:
        raise FitError(f"leading coefficient {lead} deviates from 2 beyond {leading_tol}")
    return SpectralPolynomial(coeffs=tuple(coeffs))


# ---------------------------------------------------------------------------
# zero roots
# ---------------------------------------------------------------------------

def _pair_shifts(shifts, pair_tol: float):
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
    if worst > pair_tol:
        raise ExtractionError(f"unpairable zero roots: mismatch {worst:.3e} > {pair_tol:.1e}")
    return reps, worst


def extract_zero_roots(poly: SpectralPolynomial, pair_tol: float = 1e-6) -> ZeroRootSet:
    """Companion-matrix roots of Λ, one Newton polish, then sign pairing.

    Shifts s = u_root + 1/2 come in ± pairs; each pair is averaged into one
    representative.  The pairing residual is the worst |s_i + s_j| mismatch.
    """
    coeffs = np.asarray(poly.coeffs)
    roots = nppoly.polyroots(coeffs)
    der = nppoly.polyder(coeffs)
    vals = nppoly.polyval(roots, coeffs)
    slopes = nppoly.polyval(roots, der)
    safe = np.abs(slopes) > 1e-300
    roots = roots - np.where(safe, vals / np.where(safe, slopes, 1.0), 0.0)
    reps, worst = _pair_shifts(roots + 0.5, pair_tol)
    two_n = (len(reps) - 1) // 2
    return ZeroRootSet(two_n=two_n, z=_sorted_roots(reps), residual=float(worst))


def _polish_on_curve(func, u0: complex, steps: int = 3, h: float = 1e-6) -> complex:
    """A few Newton steps on an analytic scalar curve with central differences."""
    u = complex(u0)
    for _ in range(steps):
        step = h * (1.0 + abs(u))
        d = (func(u + step) - func(u - step)) / (2.0 * step)
        if abs(d) < 1e-300:
            break
        u = u - func(u) / d
    return u


def state_zero_roots(state, params: ModelParams, interval=DEFAULT_INTERVAL,
                     refine: bool = True, var_tol: float = 1e-8,
                     pair_tol: float = 1e-6) -> ZeroRootSet:
    """Full pipeline eigenstate -> Λ samples -> polynomial -> polished roots.

    The polynomial roots are polished on the exact Rayleigh quotient before
    sign pairing, which keeps the pairing sharp even when the companion
    roots of the degree-(4N+2) interpolant carry 1e-6-level noise.
    """
    v = state.state if isinstance(state, EigenPair) else np.asarray(state, dtype=complex)
    pts = chebyshev_sample_points(params.two_n, interval)
    vals = lambda_samples(v, params, pts, var_tol=var_tol)
    poly = fit_lambda_polynomial(pts, vals, params.two_n, interval)
    u_roots = nppoly.polyroots(np.asarray(poly.coeffs))
    if not refine:
        reps, worst = _pair_shifts(u_roots + 0.5, pair_tol)
        return ZeroRootSet(two_n=params.two_n, z=_sorted_roots(reps), residual=worst)
    lam = lambda u: complex(np.vdot(v, apply_transfer(u, params, v)))
    polished = [_polish_on_curve(lam, u) for u in u_roots]
    reps, worst = _pair_shifts(np.asarray(polished) + 0.5, pair_tol)
    return ZeroRootSet(two_n=params.two_n, z=_sorted_roots(reps), residual=float(worst))


def transfer_state_roots(params: ModelParams, reference_state: np.ndarray,
                         u_star: float = DEGENERACY_RESOLVE_POINT,
                         interval=DEFAULT_INTERVAL, refine: bool = True) -> ZeroRootSet:
    """Zero roots of the transfer eigenstate continuously connected to a reference.

    Works at nonzero inhomogeneities, where no Hamiltonian exists: t(u*) is
    diagonalized directly, the eigencolumn of largest overlap with the
    reference vector is selected, and Λ(u) is evaluated with the matching
    left eigenvector.
    """
    t_star = transfer_matrix(u_star, params)
    _, vecs = np.linalg.eig(t_star)
    left = np.linalg.inv(vecs)
    ref = np.asarray(reference_state, dtype=complex)
    overlaps = np.abs(ref.conj() @ vecs) / np.linalg.norm(vecs, axis=0)
    k = int(np.argmax(overlaps))
    v = vecs[:, k]
    w = left[k, :]
    norm = complex(w @ v)

    def lam(u):
        return complex(w @ apply_transfer(u, params, v)) / norm

    pts = chebyshev_sample_points(params.two_n, interval)
    vals = np.asarray([lam(u) for u in pts])
    poly = fit_lambda_polynomial(pts, vals, params.two_n, interval)
    u_roots = nppoly.polyroots(np.asarray(poly.coeffs))
    if refine:
        u_roots = np.asarray([_polish_on_curve(lam, u) for u in u_roots])
    reps, worst = _pair_shifts(u_roots + 0.5, pair_tol=1e-6)
    return ZeroRootSet(two_n=params.two_n, z=_sorted_roots(reps), residual=float(worst))


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
