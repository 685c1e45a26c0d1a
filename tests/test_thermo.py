import math
import warnings

import numpy as np
import pytest

from competing_chain import (ModelParams, QuadratureSpec, a_kernel, b_kernel,
                             a_kernel_fourier, b_kernel_fourier,
                             density_regime1, density_regime2, surface_energy,
                             ground_energy_density, bulk_energy_per_site,
                             bulk_excitation_energy, string_excitation_energy,
                             boundary_excitation_energy, half_line_integral,
                             ground_state_scan)
from competing_chain.errors import DivergenceError, DomainError, QuadratureError


def _pr(a_bar=0.0, p=1.0, q_bar=None, q=1.0, xi=0.0, two_n=8):
    if q_bar is not None:
        return ModelParams.from_q_bar(two_n, a_bar, p, q_bar, xi)
    return ModelParams(two_n=two_n, a_bar=a_bar, p=p, q=q, xi=xi)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_parity():
    u = np.linspace(-3, 3, 11)
    assert np.allclose(a_kernel(u, 2), a_kernel(-u, 2))
    assert np.allclose(b_kernel(u, 2), -b_kernel(-u, 2))


def test_kernel_fourier_values():
    assert a_kernel_fourier(0.0, 3) == 1.0
    k = np.array([-1.0, 2.0])
    assert np.allclose(a_kernel_fourier(k, 2), np.exp(-np.abs(k)))
    bt = b_kernel_fourier(k, 2)
    assert np.allclose(bt, 1j * np.sign(k) * np.exp(-np.abs(k)))
    # even part of the odd kernel image vanishes
    assert np.allclose(b_kernel_fourier(1.0, 3) + b_kernel_fourier(-1.0, 3), 0.0)


def test_kernel_transform_is_consistent():
    # independent quadrature check of the convention:
    # ∫ a_n(u) cos(ku) du = e^{-n|k|/2}
    import mpmath as mp
    for n, k in ((1, 0.7), (3, 1.3)):
        val = mp.quadosc(lambda u: float(a_kernel(float(u), n)) * mp.cos(k * u),
                         [0, mp.inf], omega=k)
        assert 2.0 * float(val) == pytest.approx(math.exp(-0.5 * n * abs(k)),
                                                 abs=1e-10)


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
    assert diffs[1] < 0.25      # residual gap is O(1)/2N (see project notes)


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
