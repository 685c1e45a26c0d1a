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
stays below a tenth of the absolute tolerance.  Its default rule is an
adaptive 21-point Gauss–Kronrod bisection that hands the integrand every
node of a round in one array.  QuadratureSpec(method="gauss") evaluates
every quantity by composite Gauss–Legendre quadrature instead, an
independent check of the closed forms and of the Gauss–Kronrod rule.
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
    # "adaptive": closed forms, and adaptive Gauss–Kronrod for
    # ground_energy_density; "gauss": composite Gauss–Legendre for every quantity
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
QUAD_PANELS = 2000        # most Gauss–Kronrod panels evaluated per adaptive integral
KRONROD_WIDTH = 4.0       # width of the first Gauss–Kronrod panels
KRONROD_ULPS = 50         # a panel's rounding error, in units of eps · ∫|f| (as qk21)
GAUSS_ORDER = 40          # Gauss–Legendre nodes per panel
GAUSS_BLOCK = 65536       # most nodes handed to the integrand in one call
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GAUSS_ORDER)

# The 21-point Gauss–Kronrod rule on [-1, 1] and its embedded 10-point Gauss
# rule (QUADPACK's qk21), written out here because loading scipy.integrate
# costs ~0.45 s.  The Kronrod nodes are ±_GK_X with weights _GK_W; the Gauss
# nodes are ±_GK_X[1::2] with weights _G_W.
_GK_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK_W = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980539086, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_G_W = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_KX = np.concatenate([-_GK_X, _GK_X[-2::-1]])
_KW = np.concatenate([_GK_W, _GK_W[-2::-1]])
_KG = _KW.copy()                      # Kronrod minus Gauss weights
_KG[1:10:2] -= _G_W
_KG[11::2] -= _G_W[::-1]


def _kronrod(f, k_max: float, tol: float):
    """(∫_0^k_max f, error estimate) by adaptive Gauss–Kronrod bisection.

    [0, k_max] starts as panels of width at most KRONROD_WIDTH.  Each round
    evaluates every node of every open panel in one call of f, accepts the
    panels whose |K21 - G10| is at most their share tol · width / k_max, and
    bisects the rest; a non-finite panel is accepted too and left to the
    caller's check.  Evaluating more than QUAD_PANELS panels in all raises
    QuadratureError.  The estimate sums |K21 - G10| and the rounding bound
    KRONROD_ULPS · eps · K21(|f|) of the accepted panels.
    """
    panels = max(1, math.ceil(k_max / KRONROD_WIDTH))
    edges = np.linspace(0.0, k_max, panels + 1)
    lo, hi = edges[:-1], edges[1:]
    value = err = 0.0
    spent = 0
    while lo.size:
        spent += lo.size
        if spent > QUAD_PANELS:
            raise QuadratureError(
                f"adaptive Gauss–Kronrod rule needs more than {QUAD_PANELS} "
                f"panels on [0, {k_max:g}]")
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        rows = np.reshape(f((mid[:, None] + half[:, None] * _KX).ravel()), (lo.size, _KX.size))
        kronrod = half * (rows @ _KW)
        diff = np.abs(half * (rows @ _KG))
        done = ~(diff > tol * (hi - lo) / k_max)
        value += float(kronrod[done].sum())
        rounding = KRONROD_ULPS * EPS * half[done] @ (np.abs(rows[done]) @ _KW)
        err += float(diff[done].sum() + rounding)
        lo, hi, mid = lo[~done], hi[~done], mid[~done]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return value, err


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
    estimate.  f takes a 1-D float array of nodes and returns the integrand
    there; the adaptive rule (_kronrod) is asked for a quarter of abs_tol,
    and the Gauss rule takes the tail bound as its own error.  A non-finite
    result or an estimate above abs_tol raises QuadratureError.
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
        value, err = _kronrod(f, k_max, 0.25 * spec.abs_tol)
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
    40-digit mpmath).  Entries with ω = 0 take scipy's real digamma, which
    loses at most 1.8 units there, where the complex one lost up to 15.3
    (4000 draws of d in [1e-3, 4]).
    """
    # imported here: scipy.special loads in ~0.2 s, which the commands that
    # evaluate no thermodynamic quantity (verify, ed, bae, classify) skip
    from scipy.special import digamma

    decay, omega = np.asarray(decay, dtype=float), np.asarray(omega, dtype=float)
    s = decay + 1j * omega
    complex_entries = np.count_nonzero(omega)
    if not complex_entries:
        x = s.real
        upper, lower = digamma(0.5 * (x + 1.0)), digamma(0.5 * x)
    else:
        upper, lower = digamma(0.5 * (s + 1.0)), digamma(0.5 * s)
        if complex_entries < omega.size:
            real = s.imag == 0.0
            x = s.real[real]
            upper[real], lower[real] = digamma(0.5 * (x + 1.0)), digamma(0.5 * x)
    return ((upper - lower - 1.0 / s).real,
            ROUND_ULPS * EPS * (np.abs(upper) + np.abs(lower) + 1.0 / np.abs(s)))


def _rounding(*addends) -> float:
    """Rounding bound of a sum of a few float addends."""
    return ROUND_ULPS * EPS * sum(abs(x) for x in addends)


# ---------------------------------------------------------------------------
# root densities (Fourier space)
# ---------------------------------------------------------------------------

def _density(k, params: ModelParams, extra=None):
    """Shared form of the regime densities, (num - extra) / (2N (e1 + e3)).

    With e_n = exp(-n|k|/2), num holds the bulk and boundary back-flow terms
    common to every pattern and extra(k, |k|), if given, the pattern's
    own kernel images.  Both are written divided by e1, so the quotient is
    formed over 2N (1 + e2) and stays finite where e1 underflows to 0
    (|k| > 1490).  The result is complex, of k's shape: a numpy complex
    scalar for a float k.
    """
    k = np.asarray(k, dtype=float)
    ak = np.abs(k)
    n = params.n
    e1 = np.exp(-0.5 * ak)
    num = (4.0 * n * e1 * np.cos(params.a_bar * k)
           + e1 - 1.0
           - np.exp(-(abs(params.p) + 0.5) * ak)
           - np.exp(-(abs(params.q_bar) + 0.5) * ak))
    if extra is not None:
        num = num - extra(k, ak)
    out = num / (2.0 * n * (1.0 + e1 * e1))
    return out.astype(complex)


def density_regime1(k, params: ModelParams, alpha: float = math.inf):
    """Fourier ground-state density of 2-string centers, patterns with ±α.

    Includes the boundary back-flow terms for pairs at i(|p|+1/2) and
    i(|q̄|+1/2); the oscillatory real-pair term -2 b̃_1 cos(αk) is dropped
    for alpha = inf (its energy contribution vanishes in that limit).
    The result is real and even in k; a complex dtype is kept for the
    caller's convenience.
    """
    if math.isfinite(alpha):
        return _density(k, params, lambda k, ak: 2.0 * np.cos(alpha * k))
    return _density(k, params)


def density_regime2(k, params: ModelParams, beta: float):
    """Fourier density for patterns carrying a pure imaginary pair ±iβ."""
    return _density(k, params, lambda k, ak: (
        np.exp(-(abs(beta + 0.5) - 0.5) * ak)
        + np.exp(-(abs(beta - 0.5) - 0.5) * ak)))


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
        vals = np.asarray(rho(k))
        imag = abs(vals.imag).max()
        if imag > 1e-10:
            warnings.warn(f"density has imaginary part {imag:.3e}")
        e = np.exp(-0.5 * k)
        return e * (1.0 - e * e) * np.cos(ab * k) * vals.real
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
