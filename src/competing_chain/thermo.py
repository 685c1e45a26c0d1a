"""Thermodynamic-limit quantities: root densities, surface energy, excitations.

Fourier convention
------------------
All kernels are transformed with F̃(k) = ∫ F(u) e^{iku} du, under which

    a_n(u) = (1/2π) n / (u² + n²/4)      ->  ã_n(k) = e^{-n|k|/2},
    b_n(u) = (1/2π) 2u / (u² + n²/4)     ->  b̃_n(k) = i sign(k) e^{-n|k|/2},

and a shift by c contributes e^{-ick}.  This is the unique normalisation in
which the density solutions below carry their cos(āk) / cos(αk) factors,
and it reproduces the Heisenberg anchors: bulk energy per site 1 - 4 ln 2
and free-boundary surface energy π - 1 - 2 ln 2 at ā = 0.

Sign conventions of the energy integrals are fixed by assembling the O(1)
part of the finite-size ground energy from the bare boundary-pair
contributions plus the density backflow (cross-checked against finite-size
extrapolation of the solved chains): e_b(p) is negative at ā = 0, divergent
for p -> 0, monotone increasing in |p|, and e_b0 picks up the constant
-3ā²/(1+ā²) from the additive Hamiltonian constant.

All integrands are even in k with an |k| kink at the origin, so every
integral is evaluated as 2∫_0^∞ of the one-sided smooth extension, with the
cutoff chosen from the slowest analytic decay rate so that the certified
tail bound stays below a tenth of the absolute tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import quad

from .errors import DivergenceError, DomainError, QuadratureError
from .params import ModelParams, c0_constant


def a_kernel(u, n):
    """a_n(u) = (1/2π) n / (u² + n²/4); even in u."""
    return (n / (2.0 * math.pi)) / (u * u + 0.25 * n * n)


def b_kernel(u, n):
    """b_n(u) = (1/2π) 2u / (u² + n²/4); odd in u."""
    return (u / math.pi) / (u * u + 0.25 * n * n)


def a_kernel_fourier(k, n):
    """ã_n(k) = exp(-n|k|/2)."""
    return np.exp(-0.5 * abs(n) * np.abs(k))


def b_kernel_fourier(k, n):
    """b̃_n(k) = i sign(k) exp(-n|k|/2)."""
    return 1j * np.sign(k) * np.exp(-0.5 * abs(n) * np.abs(k))


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    k_max: float | None = None
    limit: int = 200
    method: str = "adaptive"   # "adaptive" (QUADPACK) or "gauss" (composite GL)

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise DomainError("abs_tol must be positive")
        if self.k_max is not None and self.k_max <= 0:
            raise DomainError("k_max must be positive")


DEFAULT_SPEC = QuadratureSpec()


@dataclass
class ThermoResult:
    value: float
    components: dict
    est_error: float
    spec: QuadratureSpec = field(default_factory=QuadratureSpec)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "components": dict(self.components),
            "est_error": self.est_error,
            "quadrature": {
                "abs_tol": self.spec.abs_tol,
                "k_max": self.spec.k_max,
                "limit": self.spec.limit,
                "method": self.spec.method,
            },
        }


_GL_NODES_CACHE: dict = {}


def _gauss_panels(f, a, b, panels, order=40):
    if order not in _GL_NODES_CACHE:
        _GL_NODES_CACHE[order] = np.polynomial.legendre.leggauss(order)
    x, w = _GL_NODES_CACHE[order]
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * np.sum(w * f(mid + half * x))
    return total


def _cutoff(decay: float, spec: QuadratureSpec, amplitude: float = 1.0):
    """(k_max, tail bound) for an integrand bounded by amplitude·e^{-decay k}."""
    if decay <= 0:
        raise QuadratureError("need a positive analytic decay rate for the tail bound")
    amp = max(abs(amplitude), 1.0)
    k_max = spec.k_max
    if k_max is None:
        k_max = math.log(10.0 * amp / (decay * spec.abs_tol * 0.1)) / decay
        k_max = max(k_max, 10.0)
    return k_max, amp * math.exp(-decay * k_max) / decay


def _certified(value: float, err: float, tail: float, spec: QuadratureSpec):
    est = 2.0 * abs(err) + 2.0 * tail
    if est > spec.abs_tol:
        raise QuadratureError(
            f"estimated error {est:.3e} above abs_tol {spec.abs_tol:.1e}")
    return 2.0 * value, est


def half_line_integral(f, decay: float, spec: QuadratureSpec = DEFAULT_SPEC,
                       amplitude: float = 1.0):
    """(2 ∫_0^∞ f(k) dk, error estimate) for an even integrand's half line.

    decay is a lower bound on the analytic decay rate (|f| <= A e^{-decay k}
    eventually); the cutoff is chosen so the tail bound stays below
    abs_tol/10 and is added to the reported error estimate.
    """
    k_max, tail = _cutoff(decay, spec, amplitude)
    if spec.method == "gauss":
        panels = max(16, int(2 * k_max))
        value = _gauss_panels(f, 0.0, k_max, panels)
        err = tail  # GL panels of unit width resolve these analytic integrands
    else:
        value, err = quad(f, 0.0, k_max, epsabs=0.25 * spec.abs_tol,
                          epsrel=1e-13, limit=spec.limit)
    return _certified(value, err, tail, spec)


def _cosine_half_line_integral(g, omega: float, decay: float, spec: QuadratureSpec):
    """(2 ∫_0^∞ g(k) cos(ωk) dk, error estimate) by QUADPACK's cosine-weighted
    rule, which integrates the oscillation exactly and samples only g."""
    k_max, tail = _cutoff(decay, spec)
    value, err = quad(g, 0.0, k_max, weight="cos", wvar=abs(omega),
                      epsabs=0.25 * spec.abs_tol, epsrel=1e-13, limit=spec.limit)
    return _certified(value, err, tail, spec)


# ---------------------------------------------------------------------------
# root densities (Fourier space)
# ---------------------------------------------------------------------------

def density_regime1(k, params: ModelParams, alpha: float = math.inf):
    """Fourier ground-state density of 2-string centers, patterns with ±α.

    Includes the boundary back-flow terms for pairs at i(|p|+1/2) and
    i(|q̄|+1/2); the oscillatory real-pair term -2 b̃_1 cos(αk) is dropped
    for alpha = inf (its energy contribution vanishes in that limit).
    The result is real and even in k; a complex dtype is kept for the
    caller's convenience.
    """
    k = np.asarray(k, dtype=float)
    ak = np.abs(k)
    n = params.n
    e1, e2, e3 = np.exp(-0.5 * ak), np.exp(-ak), np.exp(-1.5 * ak)
    num = (4.0 * n * e2 * np.cos(params.a_bar * k)
           + e2 - e1
           - np.exp(-(abs(params.p) + 1.0) * ak)
           - np.exp(-(abs(params.q_bar) + 1.0) * ak))
    if math.isfinite(alpha):
        num = num - 2.0 * e1 * np.cos(alpha * k)
    return (num / (2.0 * n * (e1 + e3))).astype(complex)


def density_regime2(k, params: ModelParams, beta: float):
    """Fourier density for patterns carrying a pure imaginary pair ±iβ."""
    k = np.asarray(k, dtype=float)
    ak = np.abs(k)
    n = params.n
    e1, e2, e3 = np.exp(-0.5 * ak), np.exp(-ak), np.exp(-1.5 * ak)
    num = (4.0 * n * e2 * np.cos(params.a_bar * k)
           + e2 - e1
           - np.exp(-(abs(params.p) + 1.0) * ak)
           - np.exp(-(abs(params.q_bar) + 1.0) * ak)
           - np.exp(-0.5 * abs(2.0 * beta + 1.0) * ak)
           - np.exp(-0.5 * abs(2.0 * beta - 1.0) * ak))
    return (num / (2.0 * n * (e1 + e3))).astype(complex)


# ---------------------------------------------------------------------------
# surface energy
# ---------------------------------------------------------------------------

def _boundary_field_integral(b: float, a_bar: float, spec: QuadratureSpec):
    """∫_0^∞ tanh(k/2) e^{-b k} cos(ā k) dk with certified tail."""
    def f(k):
        return np.tanh(0.5 * k) * np.exp(-b * k) * np.cos(a_bar * k)
    value, err = half_line_integral(f, decay=b, spec=spec)
    return 0.5 * value, 0.5 * err


def surface_energy(params: ModelParams, spec: QuadratureSpec = DEFAULT_SPEC) -> ThermoResult:
    """Boundary contribution to the ground energy, e_b(p) + e_b(q) + e_b0.

    The two field terms depend on |p| and |q̄| only and coincide for
    p = q̄; e_b0 depends on ā alone.  Divergent at p = 0 or q = 0 (infinite
    boundary field).  The decomposition is identical in all six regimes.
    """
    if params.p == 0.0 or params.q == 0.0:
        raise DivergenceError("surface energy diverges at p = 0 or q = 0")
    ab = params.a_bar
    pref = 1.0 + 4.0 * ab ** 2
    # split the error budget so the summed estimate stays below abs_tol
    part = replace(spec, abs_tol=spec.abs_tol / (4.0 * pref))

    ip, err_p = _boundary_field_integral(abs(params.p), ab, part)
    iq, err_q = _boundary_field_integral(abs(params.q_bar), ab, part)
    eb_p = -pref * ip
    eb_q = -pref * iq

    def f0(k):
        return (np.tanh(0.5 * k) * (np.exp(-0.5 * k) - np.exp(-k))
                * np.cos(ab * k))
    i0, err_0 = half_line_integral(f0, decay=0.5, spec=part)
    eb_0 = 0.5 * pref * i0 - 3.0 * ab ** 2 / (1.0 + ab ** 2)

    est = pref * (err_p + err_q + 0.5 * err_0)
    return ThermoResult(
        value=eb_p + eb_q + eb_0,
        components={"e_b_p": eb_p, "e_b_q": eb_q, "e_b0": eb_0},
        est_error=est,
        spec=spec,
    )


def bulk_energy_per_site(params: ModelParams, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Thermodynamic bulk energy density ε (ε = 1 - 4 ln 2 at ā = 0)."""
    ab = params.a_bar

    def f(k):
        return np.tanh(0.5 * k) * np.exp(-k) * np.cos(ab * k) ** 2
    value, _ = half_line_integral(f, decay=1.0, spec=spec)
    return -(2.0 * ab ** 2 + 1.0) - (1.0 + 4.0 * ab ** 2) * value


def ground_energy_density(params: ModelParams, rho, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Thermodynamic ground energy functional of a Fourier density rho(k).

    N (4a²-1) ∫ (ã_1 - ã_3) cos(āk) ρ̃(k) dk - c0
    - (4a²-1) [ |p|/(a²-p²) + |q̄|/(a²-q̄²) ],  evaluated with a = i ā.
    """
    ab = params.a_bar
    n = params.n
    pref = 1.0 + 4.0 * ab ** 2

    def f(k):
        vals = rho(k)
        imag = np.max(np.abs(np.imag(np.atleast_1d(vals))))
        if imag > 1e-10:
            warnings.warn(f"density has imaginary part {imag:.3e}")
        return ((np.exp(-0.5 * k) - np.exp(-1.5 * k)) * np.cos(ab * k)
                * np.real(vals))
    value, _ = half_line_integral(f, decay=0.5, spec=spec, amplitude=4.0)
    rational = (abs(params.p) / (ab ** 2 + params.p ** 2)
                + abs(params.q_bar) / (ab ** 2 + params.q_bar ** 2))
    return -n * pref * value - c0_constant(params) - pref * rational


# ---------------------------------------------------------------------------
# excitations
# ---------------------------------------------------------------------------

def bulk_excitation_energy(z_bar: float, params: ModelParams,
                           spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Energy of one broken-pair real root at position z̄ (first bulk kind).

    The integrand 2 tanh(k/2) e^{-k/2} cos(āk) cos(z̄k) is split into the
    cosines of ā ± z̄; adaptive quadrature integrates each with the
    cosine-weighted rule, Gauss quadrature the product as it stands.
    """
    ab = params.a_bar

    def envelope(k):
        return np.tanh(0.5 * k) * np.exp(-0.5 * k)

    if spec.method == "gauss":
        def f(k):
            return 2.0 * envelope(k) * np.cos(ab * k) * np.cos(z_bar * k)
        value, _ = half_line_integral(f, decay=0.5, spec=spec)
    else:
        part = replace(spec, abs_tol=0.5 * spec.abs_tol)
        value = sum(_cosine_half_line_integral(envelope, omega, 0.5, part)[0]
                    for omega in (ab + z_bar, ab - z_bar))
    rational = (1.0 / ((z_bar + ab) ** 2 + 0.25)
                + 1.0 / ((z_bar - ab) ** 2 + 0.25))
    return 0.5 * (1.0 + 4.0 * ab ** 2) * (value + rational)


def string_excitation_energy(n: int, z_tilde: float, params: ModelParams,
                             spec: QuadratureSpec = DEFAULT_SPEC,
                             flag_tol: float = 1e-6) -> float:
    """Energy carried by a single n-string pair, n > 2: analytically zero.

    The back-flow integral cancels the bare 2π a_{n±1} terms exactly, so
    the returned value doubles as a quadrature self-test; values above
    flag_tol indicate an inconsistency and raise a warning.
    """
    if n < 3:
        raise DomainError("string excitations need n >= 3; n = 2 pairs form the sea")
    ab = params.a_bar

    def f(k):
        return (np.tanh(0.5 * k)
                * (np.exp(-0.5 * (n + 1) * k) + np.exp(-0.5 * (n - 1) * k))
                * np.cos(ab * k) * np.cos(z_tilde * k))
    value, _ = half_line_integral(f, decay=0.5 * (n - 1), spec=spec)
    integral = 2.0 * value
    rational = 0.0
    for x in (z_tilde - ab, z_tilde + ab):
        rational += (n + 1.0) / (x * x + 0.25 * (n + 1.0) ** 2)
        rational -= (n - 1.0) / (x * x + 0.25 * (n - 1.0) ** 2)
    out = 0.5 * (1.0 + 4.0 * ab ** 2) * (integral + rational)
    if abs(out) > flag_tol:
        warnings.warn(
            f"string excitation energy {out:.3e} fails the analytic cancellation")
    return out


def boundary_excitation_energy(b: float, params: ModelParams,
                               spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Energy of moving a boundary pair from i(|b|+1/2) to i(1/2-|b|).

    b stands for p or q̄, restricted to |b| < 1/2.  Vanishes exactly at
    b = 0 for ā != 0 and diverges there for the plain-exchange chain ā = 0.
    """
    if abs(b) >= 0.5:
        raise DomainError("boundary excitations exist for |b| < 1/2 only")
    ab = params.a_bar
    babs = abs(b)
    if babs == 0.0 and ab == 0.0:
        return math.inf

    def f(k):
        return (np.tanh(0.5 * k) * np.cos(ab * k)
                * (np.exp(-(1.0 - babs) * k) - np.exp(-(1.0 + babs) * k)))
    value, _ = half_line_integral(f, decay=1.0 - babs, spec=spec)
    rational = (4.0 * babs / (babs ** 2 + ab ** 2) if babs > 0.0 else 0.0)
    rational += 2.0 * (1.0 - babs) / (ab ** 2 + (1.0 - babs) ** 2)
    rational -= 2.0 * (1.0 + babs) / (ab ** 2 + (1.0 + babs) ** 2)
    return 0.5 * (1.0 + 4.0 * ab ** 2) * (value + rational)
