import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import digamma

from competing_chain import (ModelParams, QuadratureSpec, a_kernel, density_regime1,
                             density_regime2, surface_energy,
                             ground_energy_density, bulk_energy_per_site,
                             bulk_excitation_energy, string_excitation_energy,
                             boundary_excitation_energy, half_line_integral,
                             ground_state_scan, thermo)
from competing_chain.errors import DivergenceError, DomainError, QuadratureError
from competing_chain.params import c0_constant
from conftest import REGIME_POINTS


def _pr(a_bar=0.0, p=1.0, q_bar=None, q=1.0, xi=0.0, two_n=8):
    if q_bar is not None:
        return ModelParams.from_q_bar(two_n, a_bar, p, q_bar, xi)
    return ModelParams(two_n=two_n, a_bar=a_bar, p=p, q=q, xi=xi)


_REGIME_PARAMS = {regime: ModelParams.from_q_bar(8, 0.66, p, q_bar, 1.2)
                  for regime, (p, q_bar) in REGIME_POINTS.items()}

# float-valued quantities checked against their Gauss evaluation
_QUADRATURES = {
    "ground_density_1": lambda pr, spec: ground_energy_density(
        pr, lambda k: density_regime1(k, pr), spec),
    "ground_density_2": lambda pr, spec: ground_energy_density(
        pr, lambda k: density_regime2(k, pr, beta=0.9), spec),
    "bulk_energy": lambda pr, spec: bulk_energy_per_site(pr, spec),
    "string": lambda pr, spec: string_excitation_energy(3, 0.7, pr, spec),
}


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_parity():
    u = np.linspace(-3, 3, 11)
    assert np.allclose(a_kernel(u, 2), a_kernel(-u, 2))


def test_kernel_transform_is_consistent():
    # independent quadrature check of the convention:
    # ∫ a_n(u) cos(ku) du = e^{-n|k|/2}, integrated in real space on [0, ∞)
    # with QUADPACK's Fourier-integral rule (QAWF); any warning fails
    from scipy.integrate import IntegrationWarning, quad
    for n, k in ((1, 0.7), (3, 1.3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            val, _ = quad(lambda u: a_kernel(u, n), 0.0, np.inf,
                          weight="cos", wvar=k, epsabs=1e-12)
        assert 2.0 * val == pytest.approx(math.exp(-0.5 * n * abs(k)), abs=1e-10)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_density_real_even():
    pr = _pr(a_bar=0.66, p=1.2, q_bar=0.7, xi=1.2)
    k = np.linspace(-6, 6, 41)
    rho = density_regime1(k, pr, alpha=math.inf)
    assert np.max(np.abs(rho.imag)) < 1e-14
    assert np.allclose(rho, rho[::-1])
    rho2 = density_regime2(k, pr, beta=1.1)
    assert np.max(np.abs(rho2.imag)) < 1e-14
    assert np.allclose(rho2, rho2[::-1])


def test_density_counts_roots():
    # value at k=0 counts string centers per site: 1 - 1/N with both
    # boundary pairs and the real pair present, 1 in the pure-string case
    pr = _pr(a_bar=0.66, p=0.3, q_bar=0.3, xi=0.0)
    n = pr.n
    rho0 = density_regime1(0.0, pr, alpha=3.0)
    assert complex(rho0).real == pytest.approx(1.0 - 1.0 / n, rel=1e-12)
    rho0b = density_regime2(0.0, pr, beta=1.1)
    assert complex(rho0b).real == pytest.approx(1.0 - 1.0 / n, rel=1e-12)


def test_density_bulk_limit():
    # large boundary fields and alpha -> inf leave the pure bulk ratio
    pr = ModelParams(two_n=200, a_bar=0.0, p=50.0, q=50.0, xi=0.0)
    k = np.linspace(0.3, 4.0, 7)
    rho = density_regime1(k, pr, alpha=math.inf).real
    bulk = 2.0 * np.exp(-k) / (np.exp(-0.5 * k) + np.exp(-1.5 * k))
    assert np.max(np.abs(rho - bulk)) < 1e-2
    assert np.max(np.abs(rho - bulk)) * pr.n < 1.0  # deviation is O(1/N)


def test_density_regime1_finite_alpha_matches_formula():
    # the real-pair term written out against the three separate exponentials
    pr = _pr(a_bar=0.66, p=1.2, q_bar=-0.7, xi=1.2)
    k = np.linspace(-6, 6, 41)
    alpha = 1.3
    ak = np.abs(k)
    n = pr.n
    e1, e2, e3 = np.exp(-0.5 * ak), np.exp(-ak), np.exp(-1.5 * ak)
    num = (4.0 * n * e2 * np.cos(pr.a_bar * k) + e2 - e1
           - np.exp(-(abs(pr.p) + 1.0) * ak) - np.exp(-(abs(pr.q_bar) + 1.0) * ak))
    expected = (num - 2.0 * e1 * np.cos(alpha * k)) / (2.0 * n * (e1 + e3))
    rho = density_regime1(k, pr, alpha=alpha)
    assert rho.dtype == complex
    assert np.max(np.abs(rho.imag)) == 0.0
    assert np.allclose(rho.real, expected, rtol=1e-13, atol=1e-15)


def test_density_regime2_beta_terms():
    pr = _pr(a_bar=0.3, p=0.2, q_bar=-0.3, xi=0.5)
    # away from k = 0 a huge beta is exponentially suppressed
    k = np.concatenate([np.linspace(-3, -0.5, 6), np.linspace(0.5, 3, 6)])
    base = density_regime1(k, pr, alpha=math.inf)
    with_beta = density_regime2(k, pr, beta=40.0)
    assert np.max(np.abs(base - with_beta)) < 1e-8
    # the two regimes differ exactly by the beta kernel images
    diff = density_regime1(k, pr, alpha=math.inf) - density_regime2(k, pr, beta=0.9)
    ak = np.abs(k)
    expected = (np.exp(-0.5 * (2 * 0.9 + 1) * ak) + np.exp(-0.5 * abs(2 * 0.9 - 1) * ak)) \
        / (2.0 * pr.n * (np.exp(-0.5 * ak) + np.exp(-1.5 * ak)))
    assert np.allclose(diff.real, expected, atol=1e-13)


_DENSITIES = {
    "regime1_inf": lambda k, pr: density_regime1(k, pr),
    "regime1_alpha": lambda k, pr: density_regime1(k, pr, alpha=1.3),
    "regime2": lambda k, pr: density_regime2(k, pr, beta=0.9),
}


@pytest.mark.parametrize("density", _DENSITIES.values(), ids=_DENSITIES)
@pytest.mark.parametrize("regime", REGIME_POINTS)
def test_density_float_path_matches_array_path(regime, density):
    # one numpy path: a float k gives a complex scalar, bitwise the element
    # the same k gets inside an array
    pr = _REGIME_PARAMS[regime]
    k = np.linspace(0.0, 60.0, 200)
    grid = density(k, pr)
    assert isinstance(grid, np.ndarray) and grid.dtype == complex
    for point, ref in zip(k.tolist(), grid):
        value = density(point, pr)
        assert np.shape(value) == () and np.asarray(value).dtype == complex
        assert value == ref


def test_adaptive_ground_energy_density_calls_rho_with_arrays():
    # the Gauss–Kronrod rule hands rho every node of a round in one array
    pr = _REGIME_PARAMS["V"]
    seen = []

    def rho(k):
        seen.append(k)
        return density_regime2(k, pr, beta=0.9)
    ground_energy_density(pr, rho, QuadratureSpec())
    assert 1 <= len(seen) <= 4
    for k in seen:
        assert isinstance(k, np.ndarray) and k.ndim == 1 and k.dtype == float
        assert k.size >= 21 and k.size % 21 == 0


# ---------------------------------------------------------------------------
# surface energy
# ---------------------------------------------------------------------------

def test_bulk_energy_heisenberg_anchor():
    eps = bulk_energy_per_site(_pr(a_bar=0.0))
    assert eps == pytest.approx(1.0 - 4.0 * math.log(2.0), abs=1e-10)


def test_surface_free_boundary_anchor():
    # e_b0 at a=0 equals the free-boundary surface energy pi - 1 - 2 ln 2
    se = surface_energy(_pr(a_bar=0.0, p=2.0, q=2.0))
    assert se.components["e_b0"] == pytest.approx(
        math.pi - 1.0 - 2.0 * math.log(2.0), abs=1e-10)


def test_surface_closed_form_field_term():
    # e_b(1/2) at a=0 is -(pi - 2) exactly
    se = surface_energy(_pr(a_bar=0.0, p=0.5, q=2.0))
    assert se.components["e_b_p"] == pytest.approx(-(math.pi - 2.0), abs=1e-10)


def test_surface_eb0_parameter_independent():
    vals = [surface_energy(_pr(a_bar=0.6, p=p, q=q, xi=xi)).components["e_b0"]
            for p, q, xi in ((0.5, 1.0, 0.0), (2.0, 0.3, 1.2), (1.1, 2.2, 0.7))]
    assert np.ptp(vals) < 1e-12


def test_surface_pq_exchange_symmetry():
    # e_b(q) is the same function of q-bar as e_b(p) is of p
    se = surface_energy(ModelParams.from_q_bar(8, 0.6, 0.77, 0.77, 1.2))
    assert se.components["e_b_p"] == pytest.approx(se.components["e_b_q"], rel=1e-12)


def test_surface_divergence_guard():
    with pytest.raises((DivergenceError, Exception)):
        surface_energy(ModelParams(two_n=8, a_bar=0.5, p=0.0, q=1.0))


def test_surface_heisenberg_monotone_negative():
    vals = []
    for p in np.linspace(0.2, 3.0, 10):
        vals.append(surface_energy(ModelParams.from_q_bar(8, 0.0, float(p), 0.5, 1.2)).value)
    vals = np.array(vals)
    assert np.all(vals < 0.0)
    assert np.all(np.diff(vals) > 0.0)


def test_surface_curves_cross():
    # with couplings on, the surface energy is below the plain-exchange
    # value at weak fields (large |p|) and above it at strong fields
    for p in (2.0, 3.0):
        e0 = surface_energy(ModelParams.from_q_bar(8, 0.0, p, 0.7, 1.2)).value
        e6 = surface_energy(ModelParams.from_q_bar(8, 0.6, p, 0.7, 1.2)).value
        assert e6 < e0
    for p in (0.2, 0.4):
        e0 = surface_energy(ModelParams.from_q_bar(8, 0.0, p, 0.7, 1.2)).value
        e6 = surface_energy(ModelParams.from_q_bar(8, 0.6, p, 0.7, 1.2)).value
        assert e6 > e0


def test_surface_est_error_certified():
    spec = QuadratureSpec(abs_tol=1e-10)
    se = surface_energy(_pr(a_bar=0.6, p=1.0, q_bar=0.8, xi=1.2), spec)
    assert se.est_error <= spec.abs_tol


def test_quadrature_methods_agree():
    pr = _pr(a_bar=0.66, p=1.1, q=0.9, xi=0.3)
    adaptive = surface_energy(pr, QuadratureSpec(method="adaptive"))
    gauss = surface_energy(pr, QuadratureSpec(method="gauss"))
    assert abs(adaptive.value - gauss.value) < 1e-10


@pytest.mark.parametrize("tol", [1e-10, 1e-8])
@pytest.mark.parametrize("quantity", _QUADRATURES.values(), ids=_QUADRATURES)
@pytest.mark.parametrize("regime", REGIME_POINTS)
def test_adaptive_matches_gauss_at_regime_points(regime, quantity, tol):
    pr = _REGIME_PARAMS[regime]
    adaptive = quantity(pr, QuadratureSpec(abs_tol=tol))
    gauss = quantity(pr, QuadratureSpec(abs_tol=tol, method="gauss"))
    assert abs(adaptive - gauss) <= tol


def _per_panel_gauss(f, a, b, panels):
    """Reference composite rule: one integrand call per 40-node panel."""
    x, w = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * np.sum(w * f(mid + half * x))
    return total


@pytest.fixture
def gauss_integrals(monkeypatch):
    """Every Gauss integral as (value, per-panel value, integrand calls, nodes)."""
    records = []
    vectorised = thermo._gauss_panels

    def recording(f, a, b, panels):
        calls = []

        def counted(k):
            calls.append(np.size(k))
            return f(k)
        value = vectorised(counted, a, b, panels)
        assert sum(calls) == panels * thermo.GAUSS_ORDER
        records.append((value, _per_panel_gauss(f, a, b, panels), len(calls),
                        panels * thermo.GAUSS_ORDER))
        return value
    monkeypatch.setattr(thermo, "_gauss_panels", recording)
    return records


_PR_SMALL_P = ModelParams.from_q_bar(8, 0.66, 0.05, 0.7, 1.2)   # decay 0.05 field term


@pytest.mark.parametrize("quantity", [
    lambda spec: surface_energy(_PR_SMALL_P, spec),
    lambda spec: ground_energy_density(
        _PR_SMALL_P, lambda k: density_regime1(k, _PR_SMALL_P), spec),
    lambda spec: ground_energy_density(
        _PR_SMALL_P, lambda k: density_regime2(k, _PR_SMALL_P, beta=0.9), spec),
    lambda spec: bulk_excitation_energy(1.3, _PR_SMALL_P, spec),
], ids=["surface", "ground_density_1", "ground_density_2", "bulk_excitation"])
def test_gauss_single_call_matches_per_panel_loop(gauss_integrals, quantity):
    quantity(QuadratureSpec(abs_tol=1e-10, method="gauss"))
    assert gauss_integrals
    for value, reference, calls, nodes in gauss_integrals:
        assert nodes <= thermo.GAUSS_BLOCK
        assert calls == 1
        assert abs(value - reference) <= 1e-13 * abs(reference)


def test_gauss_blocks_bound_the_integrand_call(gauss_integrals):
    # decay 0.01 needs ~6.4k panels, more than three blocks of nodes
    spec = QuadratureSpec(abs_tol=1e-10, method="gauss")
    value, _ = half_line_integral(lambda k: np.exp(-0.01 * k), decay=0.01, spec=spec)
    [(raw, reference, calls, nodes)] = gauss_integrals
    assert calls == math.ceil(nodes / thermo.GAUSS_BLOCK) > 1
    assert abs(raw - reference) <= 1e-13 * abs(reference)
    assert value == pytest.approx(200.0, abs=1e-10)


def test_quadrature_tail_guard():
    with pytest.raises(QuadratureError):
        half_line_integral(lambda k: np.exp(-0.01 * k),
                           decay=0.01, spec=QuadratureSpec(k_max=5.0))


def test_ground_energy_density_per_site_converges():
    # the thermodynamic functional approaches the solved per-site energy
    base = ModelParams.from_q_bar(8, 0.6, 1.0, 0.8, 1.2)
    scan = {two_n: e for two_n, e, _ in ground_state_scan(base, [8, 16])}
    diffs = []
    for two_n in (8, 16):
        pr = ModelParams.from_q_bar(two_n, 0.6, 1.0, 0.8, 1.2)
        model = ground_energy_density(
            pr, lambda k: density_regime1(k, pr, alpha=math.inf))
        diffs.append(abs(model - scan[two_n]) / two_n)
    assert diffs[1] < diffs[0]  # observed decreasing per-site gap
    assert diffs[1] < 0.25      # residual gap is O(1)/2N (see notes/decisions.md)


@pytest.mark.parametrize("method", ["adaptive", "gauss"])
def test_ground_energy_density_imaginary_part_warning(method):
    pr = _pr(a_bar=0.66, p=1.2, q_bar=0.7, xi=1.2)
    spec = QuadratureSpec(method=method)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clean = ground_energy_density(pr, lambda k: density_regime1(k, pr), spec)
    with pytest.warns(UserWarning, match="imaginary part"):
        noisy = ground_energy_density(pr, lambda k: density_regime1(k, pr) + 1e-9j, spec)
    assert noisy == clean  # the real part alone enters the integral


def test_ground_energy_density_prefactor_at_a0():
    # the rational boundary terms stay real and the a=0 limit is finite
    pr = _pr(a_bar=0.0, p=1.0, q=1.0, two_n=8)
    val = ground_energy_density(pr, lambda k: density_regime1(k, pr, alpha=math.inf))
    assert math.isfinite(val)


# ---------------------------------------------------------------------------
# excitations
# ---------------------------------------------------------------------------

def test_bulk_excitation_even():
    pr = _pr(a_bar=0.66)
    assert bulk_excitation_energy(0.7, pr) == pytest.approx(
        bulk_excitation_energy(-0.7, pr), rel=1e-12)


@pytest.mark.parametrize("a_bar,z_bar,tol", [
    (1.048089392377342, -1.994835805810022, 1e-10),
    (0.9789134722187997, -2.161076632725525, 1e-8),
])
def test_bulk_excitation_adaptive_matches_gauss(a_bar, z_bar, tol):
    # points where plain adaptive panels missed by ~1e-7 while certifying tol
    pr = _pr(a_bar=a_bar)
    adaptive = bulk_excitation_energy(z_bar, pr, QuadratureSpec(abs_tol=tol))
    gauss = bulk_excitation_energy(z_bar, pr, QuadratureSpec(abs_tol=tol, method="gauss"))
    assert abs(adaptive - gauss) <= tol


_CLOSED_FORMS = {
    "surface": lambda pr: surface_energy(pr),
    "bulk_energy": lambda pr: bulk_energy_per_site(pr),
    "bulk_excitation": lambda pr: bulk_excitation_energy(1.3, pr),
    "boundary_excitation": lambda pr: boundary_excitation_energy(0.2, pr),
    "string": lambda pr: string_excitation_energy(3, 0.7, pr),
}


@pytest.mark.parametrize("quantity", _CLOSED_FORMS.values(), ids=_CLOSED_FORMS)
def test_closed_forms_integrate_nothing(monkeypatch, quantity):
    # the default method of the five quantities evaluates digamma, no integral

    def refuse(*args, **kwargs):
        raise AssertionError("the default method integrated")
    monkeypatch.setattr(thermo, "half_line_integral", refuse)
    quantity(_REGIME_PARAMS["V"])


def test_bulk_excitation_peaks():
    grid = np.linspace(-4.0, 4.0, 161)
    vals0 = np.array([bulk_excitation_energy(z, _pr(a_bar=0.0)) for z in grid])
    assert grid[np.argmax(vals0)] == pytest.approx(0.0, abs=1e-12)
    # interior local maxima: exactly one at the origin
    interior0 = [i for i in range(1, 160)
                 if vals0[i] > vals0[i - 1] and vals0[i] > vals0[i + 1]]
    assert interior0 == [80]

    vals8 = np.array([bulk_excitation_energy(z, _pr(a_bar=0.8)) for z in grid])
    interior8 = [i for i in range(1, 160)
                 if vals8[i] > vals8[i - 1] and vals8[i] > vals8[i + 1]]
    assert len(interior8) == 2
    assert interior8[0] + interior8[1] == 160  # symmetric pair
    assert grid[interior8[1]] > 0.1


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("z_tilde", [0.0, 0.5, 1.7])
@pytest.mark.parametrize("a_bar", [0.0, 0.66, 0.8])
def test_string_excitation_cancellation(n, z_tilde, a_bar):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = string_excitation_energy(n, z_tilde, _pr(a_bar=a_bar))
    assert abs(val) <= 1e-8


def test_string_excitation_needs_high_string():
    with pytest.raises(DomainError):
        string_excitation_energy(2, 0.0, _pr())


def test_boundary_excitation_symmetry_and_domain():
    pr = _pr(a_bar=0.66)
    assert boundary_excitation_energy(0.3, pr) == pytest.approx(
        boundary_excitation_energy(-0.3, pr), rel=1e-12)
    with pytest.raises(DomainError):
        boundary_excitation_energy(0.5, pr)


def test_boundary_excitation_minimum_at_zero():
    pr = _pr(a_bar=0.66)
    v0 = boundary_excitation_energy(0.0, pr)
    v1 = boundary_excitation_energy(0.1, pr)
    v3 = boundary_excitation_energy(0.3, pr)
    assert v0 == pytest.approx(0.0, abs=1e-12)
    assert v0 < v1 < v3


def test_boundary_excitation_decreasing_heisenberg():
    pr = _pr(a_bar=0.0)
    grid = [0.05, 0.15, 0.25, 0.35, 0.45]
    vals = [boundary_excitation_energy(b, pr) for b in grid]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert boundary_excitation_energy(0.0, pr) == math.inf


def test_excitations_real_valued():
    pr = _pr(a_bar=0.66)
    for val in (bulk_excitation_energy(1.3, pr),
                boundary_excitation_energy(0.2, pr),
                string_excitation_energy(3, 0.4, pr)):
        assert isinstance(val, float)


# ---------------------------------------------------------------------------
# closed forms and quadrature limits
# ---------------------------------------------------------------------------

def _mp_laplace(decay, omega):
    """∫_0^∞ tanh(k/2) e^{-decay k} cos(ωk) dk = Re[ψ((s+1)/2) - ψ(s/2) - 1/s]
    at s = decay + iω, in mpmath at the working precision."""
    s = mpmath.mpc(decay, omega)
    return mpmath.re(mpmath.digamma((s + 1) / 2) - mpmath.digamma(s / 2) - 1 / s)


def test_laplace_on_the_real_axis_matches_40_digit_mpmath():
    # at ω = 0 the real digamma is used: its error stays within 4 units of
    # eps·(|ψ((d+1)/2)| + |ψ(d/2)| + 1/d), where scipy's complex digamma of a
    # real argument lost up to 15; entries of a mixed call take the same path
    rng = np.random.default_rng(20261020)
    decay = rng.uniform(1e-3, 4.0, 600)
    omega = np.where(np.arange(decay.size) % 3 == 0, 0.7, 0.0)
    real = omega == 0.0
    with mpmath.workdps(40):
        exact = np.array([float(_mp_laplace(d, 0.0)) for d in decay[real]])
    eps = np.finfo(float).eps
    unit = eps * (np.abs(digamma(0.5 * (decay[real] + 1.0))) + np.abs(digamma(0.5 * decay[real]))
                  + 1.0 / decay[real])
    for value in (thermo._laplace(decay[real], 0.0)[0], thermo._laplace(decay, omega)[0][real]):
        assert np.max(np.abs(value - exact) / unit) <= 4.0


def _reference(pr, z_bar, b, n):
    """Every closed-form quantity at pr to 40 digits, rounded to floats."""
    with mpmath.workdps(40):
        lap = _mp_laplace
        ab, z, bb = (mpmath.mpf(x) for x in (pr.a_bar, z_bar, abs(b)))
        pref = 1 + 4 * ab ** 2
        ref = {"e_b_p": -pref * lap(abs(pr.p), ab),
               "e_b_q": -pref * lap(abs(pr.q_bar), ab),
               "e_b0": pref * (lap(0.5, ab) - lap(1, ab)) - 3 * ab ** 2 / (1 + ab ** 2)}
        ref["surface"] = ref["e_b_p"] + ref["e_b_q"] + ref["e_b0"]
        ref["bulk_energy"] = -(2 * ab ** 2 + 1) - pref * (lap(1, 0) + lap(1, 2 * ab))
        ref["bulk_excitation"] = pref / 2 * (
            2 * (lap(0.5, ab + z) + lap(0.5, ab - z))
            + 1 / ((z + ab) ** 2 + 0.25) + 1 / ((z - ab) ** 2 + 0.25))
        ref["boundary_excitation"] = pref / 2 * (
            2 * (lap(1 - bb, ab) - lap(1 + bb, ab))
            + 4 * bb / (bb ** 2 + ab ** 2)
            + 2 * (1 - bb) / (ab ** 2 + (1 - bb) ** 2)
            - 2 * (1 + bb) / (ab ** 2 + (1 + bb) ** 2))
        hi, lo = mpmath.mpf(n + 1) / 2, mpmath.mpf(n - 1) / 2
        ref["string"] = pref / 2 * sum(
            2 * (lap(hi, x) + lap(lo, x)) + 2 * hi / (x ** 2 + hi ** 2) - 2 * lo / (x ** 2 + lo ** 2)
            for x in (z - ab, z + ab))
        return {name: float(value) for name, value in ref.items()}


def _box_draws(seed, count):
    """(params, z̄, b) drawn from the benchmark's thermo_sweep box."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(count):
        a_bar, p, q_bar, xi = (rng.uniform(0.0, 1.2), rng.uniform(0.05, 3.0),
                               rng.uniform(0.05, 3.0) * (-1) ** i, rng.uniform(0.0, 2.0))
        points.append((ModelParams.from_q_bar(8, a_bar, p, q_bar, xi),
                       rng.uniform(-4.0, 4.0), rng.uniform(-0.45, 0.45)))
    return points


def _closed_form_points():
    # the regime points, then seeded draws from the benchmark's sweep box
    return [(_REGIME_PARAMS[r], 1.3, 0.2) for r in REGIME_POINTS] + _box_draws(20240811, 6)


@pytest.mark.parametrize("method", ["adaptive", "gauss"])
@pytest.mark.parametrize("pr,z_bar,b", _closed_form_points())
def test_quadratures_match_the_digamma_closed_form(pr, z_bar, b, method):
    spec = QuadratureSpec(abs_tol=1e-10, method=method)
    ref = _reference(pr, z_bar, b, 3)
    se = surface_energy(pr, spec)
    for name in ("e_b_p", "e_b_q", "e_b0"):
        assert abs(se.components[name] - ref[name]) <= spec.abs_tol, name
    assert abs(bulk_energy_per_site(pr, spec) - ref["bulk_energy"]) <= spec.abs_tol
    assert abs(bulk_excitation_energy(z_bar, pr, spec) - ref["bulk_excitation"]) <= spec.abs_tol
    assert abs(boundary_excitation_energy(b, pr, spec) - ref["boundary_excitation"]) \
        <= spec.abs_tol


_MPMATH_POINTS = (
    [pytest.param(_REGIME_PARAMS[r], 1.3, 0.2, id=f"regime-{r}") for r in REGIME_POINTS]
    + [pytest.param(*point, id=f"box-{i}") for i, point in
       enumerate(_box_draws(20240811, 6) + _box_draws(31, 10))]
    # where adaptive QUADPACK missed the bulk excitation by ~1e-7
    + [pytest.param(_pr(a_bar=a_bar), z_bar, 0.2, id=f"bulk-excitation-{a_bar:.3f}")
       for a_bar, z_bar in ((1.048089392377342, -1.994835805810022),
                            (0.9789134722187997, -2.161076632725525))]
    # fields next to the divergence at p = 0 or q = 0, where adaptive
    # QUADPACK could not certify the surface energy
    + [pytest.param(ModelParams.from_q_bar(8, 0.66, p, q_bar, 1.2), 1.3, 0.2,
                    id=f"p={p:g},q_bar={q_bar:g}")
       for p, q_bar in ((1e-2, 0.7), (-1e-3, 0.7), (1.2, 1e-2), (1.2, -1e-3))])


@pytest.mark.parametrize("pr,z_bar,b", _MPMATH_POINTS)
def test_closed_forms_match_40_digit_mpmath(pr, z_bar, b):
    se = surface_energy(pr)
    bulk_exc, bulk_bound = thermo._bulk_excitation(z_bar, pr)
    boundary_exc, boundary_bound = thermo._boundary_excitation(b, pr)
    bounds = {"surface": se.est_error, "bulk_excitation": bulk_bound,
              "boundary_excitation": boundary_bound}
    for n in (3, 4, 5):
        ref = _reference(pr, z_bar, b, n)
        values = {**se.components, "surface": se.value,
                  "bulk_energy": bulk_energy_per_site(pr),
                  "bulk_excitation": bulk_exc, "boundary_excitation": boundary_exc,
                  "string": string_excitation_energy(n, z_bar, pr)}
        for name, value in values.items():
            assert type(value) is float, name
            scale = max(1.0, abs(ref[name]))
            assert abs(value - ref[name]) <= 1e-13 * scale, name
            if name in bounds:
                # est_error bounds the rounding, and is of rounding size
                assert abs(value - ref[name]) <= bounds[name] <= 1e-12 * scale, name


def _mp_ground_energy_density(pr):
    """ground_energy_density(pr, density_regime1(k, pr)) to 40 digits.

    With e = e^{-k/2}, e(1 - e²)/(1 + e²) = tanh(k/2), so the integrand
    e(1 - e²) cos(āk) ρ̃(k) is tanh(k/2) e cos(āk) num(k) / 2N: a sum of
    tanh(k/2) e^{-dk} cos(ωk) terms.  c0 is the same float on both sides.
    """
    with mpmath.workdps(40):
        lap = _mp_laplace
        ab, p, q = (mpmath.mpf(x) for x in (pr.a_bar, abs(pr.p), abs(pr.q_bar)))
        n = pr.n
        # 4N e² cos²(āk) / 2N = e^{-k} (1 + cos 2āk); the other terms carry 1/2N
        integral = lap(1, 0) + lap(1, 2 * ab) + (
            lap(1, ab) - lap(0.5, ab) - lap(p + 1, ab) - lap(q + 1, ab)) / (2 * n)
        pref = 1 + 4 * ab ** 2
        rational = p / (ab ** 2 + p ** 2) + q / (ab ** 2 + q ** 2)
        return float(-n * pref * 2 * integral - pref * rational) - c0_constant(pr)


@pytest.mark.parametrize("method", ["adaptive", "gauss"])
@pytest.mark.parametrize("regime", REGIME_POINTS)
def test_ground_energy_density_matches_40_digit_mpmath(regime, method):
    pr = _REGIME_PARAMS[regime]
    spec = QuadratureSpec(method=method)
    value = ground_energy_density(pr, lambda k: density_regime1(k, pr), spec)
    assert abs(value - _mp_ground_energy_density(pr)) <= spec.abs_tol


def test_kronrod_rule_is_qk21():
    # K21 integrates x^j exactly up to j = 31, its Gauss part is the
    # 10-point Gauss–Legendre rule, and the nodes run up from -1 to 1
    x = thermo._KX
    assert np.all(np.diff(x) > 0) and x[10] == 0.0 and x[0] == -x[-1]
    exact = [2.0 / (j + 1) if j % 2 == 0 else 0.0 for j in range(32)]
    assert np.allclose([thermo._KW @ x ** j for j in range(32)], exact, rtol=0, atol=1e-15)
    gauss = thermo._KW - thermo._KG
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert np.count_nonzero(gauss) == 10
    assert np.allclose(x[gauss != 0], nodes, rtol=0, atol=1e-15)
    assert np.allclose(gauss[gauss != 0], weights, rtol=0, atol=1e-15)


@pytest.mark.parametrize("tol", [1e-10, 1e-8])
@pytest.mark.parametrize("omega", [0.0, 0.7, 2.4, 5.2])
@pytest.mark.parametrize("decay", [0.05, 0.3, 0.5, 1.0, 2.0])
def test_adaptive_estimate_bounds_the_true_error(decay, omega, tol):
    # 2 ∫_0^∞ tanh(k/2) e^{-dk} cos(ωk) dk = 2 Re I(d + iω).  At ω = 0 the
    # error is nearly all the truncated tail, so |error| / estimate nears 1;
    # at d = 0.05, ω = 5.2 QUADPACK ran out of its 200 subintervals
    def f(k):
        return np.tanh(0.5 * k) * np.exp(-decay * k) * np.cos(omega * k)
    value, est = half_line_integral(f, decay=decay, spec=QuadratureSpec(abs_tol=tol))
    with mpmath.workdps(40):
        exact = float(2 * _mp_laplace(decay, omega))
    assert est <= tol
    assert abs(value - exact) <= est
    assert abs(value - 2.0 * float(thermo._laplace(decay, omega)[0])) <= est


def test_unresolvable_adaptive_integral_raises_within_its_panel_budget():
    # the cutoff for d = 0.01 is k ≈ 3224: 806 first panels, and cos(5.2k)
    # fails its share on each, so their 1612 halves would pass QUAD_PANELS
    nodes = []

    def f(k):
        nodes.append(k.size)
        return np.tanh(0.5 * k) * np.exp(-0.01 * k) * np.cos(5.2 * k)
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="panels"):
        half_line_integral(f, decay=0.01, spec=QuadratureSpec(abs_tol=1e-10))
    assert time.perf_counter() - start < 1.0
    assert sum(nodes) <= thermo.QUAD_PANELS * thermo._KX.size


@pytest.mark.parametrize("method", ["adaptive", "gauss"])
def test_ground_energy_density_past_the_e1_underflow(method):
    # e^{-|k|/2} underflows to 0 past |k| ≈ 1490; the density must not form 0/0
    pr = _REGIME_PARAMS["V"]

    def rho(k):
        return density_regime1(k, pr)
    reference = ground_energy_density(pr, rho, QuadratureSpec(k_max=1400.0, method=method))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = ground_energy_density(pr, rho, QuadratureSpec(k_max=1600.0, method=method))
    assert abs(far - reference) <= QuadratureSpec().abs_tol


@pytest.mark.parametrize("method", ["adaptive", "gauss"])
def test_non_finite_quadrature_result_raises(method):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(QuadratureError, match="non-finite"):
            half_line_integral(lambda k: np.exp(-k) * np.nan, decay=1.0,
                               spec=QuadratureSpec(method=method))


@pytest.mark.parametrize("method", ["adaptive", "gauss"])
def test_regime2_density_overflow_raises(method):
    # the regime-2 terms grow like e^{(1/2-|β-1/2|)|k|}: at β=0.45 they pass
    # the float range near |k| ≈ 1580, inside a user cutoff of 1600
    pr = ModelParams.from_q_bar(8, 0.66, 0.05, -0.25, 1.2)

    def rho(k):
        return density_regime2(k, pr, beta=0.45)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(QuadratureError, match="non-finite"):
            ground_energy_density(pr, rho, QuadratureSpec(k_max=1600.0, method=method))


@pytest.mark.xfail(strict=True, reason=(
    "density_regime2's integrand decays at rate |β-1/2|, but ground_energy_density "
    "sizes its cutoff for rate 1/2: at β=0.45 the certified value is off by 0.21"))
def test_regime2_density_tail_is_not_truncated():
    pr = ModelParams.from_q_bar(8, 0.66, 0.05, -0.25, 1.2)

    def rho(k):
        return density_regime2(k, pr, beta=0.45)
    spec = QuadratureSpec(abs_tol=1e-10)
    certified = ground_energy_density(pr, rho, spec)
    longer = ground_energy_density(pr, rho, QuadratureSpec(abs_tol=1e-10, k_max=800.0))
    assert abs(certified - longer) <= spec.abs_tol
