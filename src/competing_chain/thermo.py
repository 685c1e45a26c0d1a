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

Every energy integral here is a sum of terms c ∫_0^∞ tanh(k/2) e^{-dk}
cos(ωk) dk, and each such term is c Re I(d + iω) with the Laplace
transform I(s) = ψ((s+1)/2) - ψ(s/2) - 1/s (Re s > 0).  The surface
energy, the bulk energy per site and the bulk, boundary and n-string
excitations are evaluated in that closed form, with a rounding bound as
their error estimate.  ground_energy_density integrates a caller's density
and stays a quadrature: every integral it takes is evaluated as 2∫_0^∞ of
the even integrand's one-sided smooth extension, with the cutoff chosen
from the slowest analytic decay rate so that the certified tail bound
stays below a tenth of the absolute tolerance.  QuadratureSpec(method=
"gauss") evaluates every quantity by composite Gauss–Legendre quadrature
instead, an independent check of the closed forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, DomainError, QuadratureError
from .params import ModelParams, c0_constant


def a_kernel(u, n):
    """a_n(u) = (1/2π) n / (u² + n²/4); even in u."""
    return (n / (2.0 * math.pi)) / (u * u + 0.25 * n * n)


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    k_max: float | None = None
    # "adaptive": closed forms, and QUADPACK for ground_energy_density;
    # "gauss": composite Gauss–Legendre for every quantity
    method: str = "adaptive"

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

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "components": dict(self.components),
            "est_error": self.est_error,
        }


STRING_FLAG_TOL = 1e-6    # largest |string excitation energy| taken as zero
ROUND_ULPS = 32           # closed-form rounding bound, in units of eps · Σ|terms|
EPS = float(np.finfo(float).eps)
QUAD_LIMIT = 200          # most QUADPACK subintervals per integral
GAUSS_ORDER = 40          # Gauss–Legendre nodes per panel
GAUSS_BLOCK = 65536       # most nodes handed to the integrand in one call
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GAUSS_ORDER)


def _gauss_panels(f, a, b, panels):
    """Composite Gauss–Legendre rule on equal panels of [a, b].

    The whole node grid is evaluated with one call of f per block of at
    most GAUSS_BLOCK nodes, which bounds memory when the panel count is
    large; every integral of a few thousand panels takes a single call.
    """
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    nodes = panels * GAUSS_ORDER
    total = 0.0
    for start in range(0, nodes, GAUSS_BLOCK):
        stop = min(start + GAUSS_BLOCK, nodes)
        first, last = start // GAUSS_ORDER, -(-stop // GAUSS_ORDER)
        cut = slice(start - first * GAUSS_ORDER, stop - first * GAUSS_ORDER)
        half = halves[first:last, None]
        k = (mids[first:last, None] + half * _GL_X).ravel()[cut]
        total += np.sum((half * _GL_W).ravel()[cut] * f(k))
    return total


def half_line_integral(f, decay: float, spec: QuadratureSpec = DEFAULT_SPEC,
                       amplitude: float = 1.0):
    """(2 ∫_0^∞ f(k) dk, error estimate) for an even integrand's half line.

    decay is a lower bound on the analytic decay rate (|f| <= A e^{-decay k}
    eventually, A = max(|amplitude|, 1)); the cutoff is chosen so the tail
    bound stays below abs_tol/10 and is added to the reported error
    estimate.
    """
    if decay <= 0:
        raise QuadratureError("need a positive analytic decay rate for the tail bound")
    amp = max(abs(amplitude), 1.0)
    k_max = spec.k_max
    if k_max is None:
        k_max = math.log(10.0 * amp / (decay * spec.abs_tol * 0.1)) / decay
        k_max = max(k_max, 10.0)
    tail = amp * math.exp(-decay * k_max) / decay
    if spec.method == "gauss":
        panels = max(16, int(2 * k_max))
        value = _gauss_panels(f, 0.0, k_max, panels)
        err = tail  # GL panels of unit width resolve these analytic integrands
    else:
        # imported here: loading scipy.integrate costs ~0.5 s, which every
        # command skips (only ground_energy_density integrates adaptively)
        from scipy.integrate import quad

        # A float integrand evaluated in math overflows or divides by zero
        # with a Python exception instead of numpy's inf/nan; either is
        # reported as the QuadratureError raised below for a non-finite result.
        try:
            value, err = quad(f, 0.0, k_max, epsabs=0.25 * spec.abs_tol, epsrel=1e-13,
                              limit=QUAD_LIMIT)
        except (OverflowError, ZeroDivisionError) as exc:
            raise QuadratureError(f"non-finite integrand on [0, {k_max:g}]: {exc}") from exc
    est = 2.0 * abs(err) + 2.0 * tail
    if not (math.isfinite(value) and math.isfinite(est)):
        raise QuadratureError(f"non-finite quadrature result {value!r} (estimate {est!r})")
    if est > spec.abs_tol:
        raise QuadratureError(
            f"estimated error {est:.3e} above abs_tol {spec.abs_tol:.1e}")
    return 2.0 * value, est


def _laplace(decay, omega):
    """Re I(d + iω) = ∫_0^∞ tanh(k/2) e^{-dk} cos(ωk) dk elementwise, d > 0,
    with I(s) = ψ((s+1)/2) - ψ(s/2) - 1/s; and the rounding bound of each.

    The bound is ROUND_ULPS · eps · (|ψ((s+1)/2)| + |ψ(s/2)| + 1/|s|):
    scipy's complex digamma loses up to 16 such units near the real axis
    (worst of 20 000 draws of d in [1e-3, 4] and ω in [0, 8] against
    40-digit mpmath).
    """
    # imported here: scipy.special loads in ~0.2 s, which the commands that
    # evaluate no thermodynamic quantity (verify, ed, bae, classify) skip
    from scipy.special import digamma

    s = np.asarray(decay, dtype=float) + 1j * np.asarray(omega, dtype=float)
    upper, lower = digamma(0.5 * (s + 1.0)), digamma(0.5 * s)
    return ((upper - lower - 1.0 / s).real,
            ROUND_ULPS * EPS * (np.abs(upper) + np.abs(lower) + 1.0 / np.abs(s)))


def _rounding(*addends) -> float:
    """Rounding bound of a sum of a few float addends."""
    return ROUND_ULPS * EPS * sum(abs(x) for x in addends)


# ---------------------------------------------------------------------------
# root densities (Fourier space)
# ---------------------------------------------------------------------------

def _xp(k):
    """math for a Python float k, numpy otherwise.

    QUADPACK calls the ground_energy_density integrand, and through it the
    densities, with one float at a time, where a math call costs a fraction
    of a numpy ufunc call on a 0-d array.
    """
    return math if isinstance(k, float) else np


def _density(k, params: ModelParams, extra=None):
    """Shared form of the regime densities, (num - extra) / (2N (e1 + e3)).

    With e_n = exp(-n|k|/2), num holds the bulk and boundary back-flow terms
    common to every pattern and extra(xp, k, |k|), if given, the pattern's
    own kernel images.  Both are written divided by e1, so the quotient is
    formed over 2N (1 + e2) and stays finite where e1 underflows to 0
    (|k| > 1490).  A float k gives a Python complex, an array k a complex
    ndarray.
    """
    xp = _xp(k)
    if xp is np:
        k = np.asarray(k, dtype=float)
    ak = abs(k)
    n = params.n
    e1 = xp.exp(-0.5 * ak)
    num = (4.0 * n * e1 * xp.cos(params.a_bar * k)
           + e1 - 1.0
           - xp.exp(-(abs(params.p) + 0.5) * ak)
           - xp.exp(-(abs(params.q_bar) + 0.5) * ak))
    if extra is not None:
        num = num - extra(xp, k, ak)
    out = num / (2.0 * n * (1.0 + e1 * e1))
    return complex(out) if xp is math else out.astype(complex)


def density_regime1(k, params: ModelParams, alpha: float = math.inf):
    """Fourier ground-state density of 2-string centers, patterns with ±α.

    Includes the boundary back-flow terms for pairs at i(|p|+1/2) and
    i(|q̄|+1/2); the oscillatory real-pair term -2 b̃_1 cos(αk) is dropped
    for alpha = inf (its energy contribution vanishes in that limit).
    The result is real and even in k; a complex dtype is kept for the
    caller's convenience.
    """
    if math.isfinite(alpha):
        return _density(k, params, lambda xp, k, ak: 2.0 * xp.cos(alpha * k))
    return _density(k, params)


def density_regime2(k, params: ModelParams, beta: float):
    """Fourier density for patterns carrying a pure imaginary pair ±iβ."""
    return _density(k, params, lambda xp, k, ak: (
        xp.exp(-(abs(beta + 0.5) - 0.5) * ak)
        + xp.exp(-(abs(beta - 0.5) - 0.5) * ak)))


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
    est_error is the closed form's rounding bound, or with method="gauss"
    the quadrature's certified estimate.
    """
    if params.p == 0.0 or params.q == 0.0:
        raise DivergenceError("surface energy diverges at p = 0 or q = 0")
    ab = params.a_bar
    pref = 1.0 + 4.0 * ab ** 2
    shift = 3.0 * ab ** 2 / (1.0 + ab ** 2)
    if spec.method == "gauss":
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
        eb_0 = 0.5 * pref * i0 - shift
        est = pref * (err_p + err_q + 0.5 * err_0)
    else:
        r, err = _laplace([abs(params.p), abs(params.q_bar), 0.5, 1.0], ab)
        eb_p, eb_q = float(-pref * r[0]), float(-pref * r[1])
        b0 = float(pref * (r[2] - r[3]))
        eb_0 = b0 - shift
        est = float(pref * err.sum()) + _rounding(eb_p, eb_q, b0, shift)
    return ThermoResult(
        value=eb_p + eb_q + eb_0,
        components={"e_b_p": eb_p, "e_b_q": eb_q, "e_b0": eb_0},
        est_error=est,
    )


def bulk_energy_per_site(params: ModelParams, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Thermodynamic bulk energy density ε (ε = 1 - 4 ln 2 at ā = 0).

    The integrand tanh(k/2) e^{-k} cos²(āk) is half of tanh(k/2) e^{-k}
    [1 + cos(2āk)], two closed-form terms.
    """
    ab = params.a_bar
    if spec.method == "gauss":
        def f(k):
            return np.tanh(0.5 * k) * np.exp(-k) * np.cos(ab * k) ** 2
        value, _ = half_line_integral(f, decay=1.0, spec=spec)
    else:
        value = float(_laplace(1.0, [0.0, 2.0 * ab])[0].sum())
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
        xp = _xp(k)
        if xp is math:
            vals = complex(rho(k))
            imag = abs(vals.imag)
        else:
            vals = np.asarray(rho(k))
            imag = abs(vals.imag).max()
        if imag > 1e-10:
            warnings.warn(f"density has imaginary part {imag:.3e}")
        e = xp.exp(-0.5 * k)
        return e * (1.0 - e * e) * xp.cos(ab * k) * vals.real
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

    The integrand 2 tanh(k/2) e^{-k/2} cos(āk) cos(z̄k) is tanh(k/2) e^{-k/2}
    [cos((ā+z̄)k) + cos((ā-z̄)k)], two closed-form terms; Gauss quadrature
    integrates the product as it stands.
    """
    return _bulk_excitation(z_bar, params, spec)[0]


def _bulk_excitation(z_bar: float, params: ModelParams, spec: QuadratureSpec = DEFAULT_SPEC):
    """(bulk_excitation_energy, its rounding bound or quadrature estimate)."""
    ab = params.a_bar
    scale = 0.5 * (1.0 + 4.0 * ab ** 2)
    rational = (1.0 / ((z_bar + ab) ** 2 + 0.25)
                + 1.0 / ((z_bar - ab) ** 2 + 0.25))
    if spec.method == "gauss":
        # the estimate is scaled like the value: keep scale * err below abs_tol
        spec = replace(spec, abs_tol=spec.abs_tol / max(1.0, scale))

        def f(k):
            envelope = np.tanh(0.5 * k) * np.exp(-0.5 * k)
            return 2.0 * envelope * np.cos(ab * k) * np.cos(z_bar * k)
        value, err = half_line_integral(f, decay=0.5, spec=spec)
    else:
        r, bound = _laplace(0.5, [ab + z_bar, ab - z_bar])
        value = float(2.0 * r.sum())
        err = float(2.0 * bound.sum()) + _rounding(value, rational)
    return scale * (value + rational), scale * err


def string_excitation_energy(n: int, z_tilde: float, params: ModelParams,
                             spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Energy carried by a single n-string pair, n > 2: analytically zero.

    The back-flow integral cancels the bare 2π a_{n±1} terms exactly, so
    the returned value doubles as a self-test of the integral; values above
    STRING_FLAG_TOL indicate an inconsistency and raise a warning.
    """
    if n < 3:
        raise DomainError("string excitations need n >= 3; n = 2 pairs form the sea")
    ab = params.a_bar
    if spec.method == "gauss":
        def f(k):
            return (np.tanh(0.5 * k)
                    * (np.exp(-0.5 * (n + 1) * k) + np.exp(-0.5 * (n - 1) * k))
                    * np.cos(ab * k) * np.cos(z_tilde * k))
        value, _ = half_line_integral(f, decay=0.5 * (n - 1), spec=spec)
    else:
        # cos(āk) cos(z̃k) is the mean of the cosines of z̃ ± ā
        decay = [0.5 * (n + 1)] * 2 + [0.5 * (n - 1)] * 2
        value = float(_laplace(decay, [z_tilde - ab, z_tilde + ab] * 2)[0].sum())
    integral = 2.0 * value
    rational = 0.0
    for x in (z_tilde - ab, z_tilde + ab):
        rational += (n + 1.0) / (x * x + 0.25 * (n + 1.0) ** 2)
        rational -= (n - 1.0) / (x * x + 0.25 * (n - 1.0) ** 2)
    out = 0.5 * (1.0 + 4.0 * ab ** 2) * (integral + rational)
    if abs(out) > STRING_FLAG_TOL:
        warnings.warn(
            f"string excitation energy {out:.3e} fails the analytic cancellation")
    return out


def boundary_excitation_energy(b: float, params: ModelParams,
                               spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Energy of moving a boundary pair from i(|b|+1/2) to i(1/2-|b|).

    b stands for p or q̄, restricted to |b| < 1/2.  Vanishes exactly at
    b = 0 for ā != 0 and diverges there for the plain-exchange chain ā = 0.
    """
    return _boundary_excitation(b, params, spec)[0]


def _boundary_excitation(b: float, params: ModelParams, spec: QuadratureSpec = DEFAULT_SPEC):
    """(boundary_excitation_energy, its rounding bound or quadrature estimate)."""
    if abs(b) >= 0.5:
        raise DomainError("boundary excitations exist for |b| < 1/2 only")
    ab = params.a_bar
    babs = abs(b)
    if babs == 0.0 and ab == 0.0:
        return math.inf, 0.0
    scale = 0.5 * (1.0 + 4.0 * ab ** 2)
    rational = (4.0 * babs / (babs ** 2 + ab ** 2) if babs > 0.0 else 0.0,
                2.0 * (1.0 - babs) / (ab ** 2 + (1.0 - babs) ** 2),
                -2.0 * (1.0 + babs) / (ab ** 2 + (1.0 + babs) ** 2))
    if spec.method == "gauss":
        spec = replace(spec, abs_tol=spec.abs_tol / max(1.0, scale))

        def f(k):
            return (np.tanh(0.5 * k) * np.cos(ab * k)
                    * (np.exp(-(1.0 - babs) * k) - np.exp(-(1.0 + babs) * k)))
        value, err = half_line_integral(f, decay=1.0 - babs, spec=spec)
    else:
        r, bound = _laplace([1.0 - babs, 1.0 + babs], ab)
        value = float(2.0 * (r[0] - r[1]))
        err = float(2.0 * bound.sum()) + _rounding(value, *rational)
    return scale * (value + sum(rational)), scale * err
