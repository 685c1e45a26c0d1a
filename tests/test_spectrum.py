import itertools
import json
import pathlib
import subprocess
import sys

import numpy as np
import numpy.polynomial.polynomial as nppoly
import pytest

from competing_chain import (ModelParams, ZeroRootSet, apply_transfer, diagonalize,
                             ground_state, lambda_samples, circle_sample_points,
                             fit_lambda_polynomial, state_zero_roots,
                             transfer_state_roots, lambda_from_roots,
                             inversion_identity_check, hamiltonian_direct,
                             ground_state_scan, roots_to_json, roots_from_json,
                             roots_to_csv)
from competing_chain import spectrum
from competing_chain.spectrum import _sorted_roots, _zero_roots, canonical_root, u_of_w
from competing_chain.bae import REGIMES, default_spread_profile
from competing_chain.errors import (ConsistencyError, DegeneracyError, ExtractionError,
                                    FitError)
from competing_chain.transfer import transfer_matrix
from conftest import REGIME_POINTS, box_points


def test_trace_identity(params_small):
    pairs = diagonalize(params_small)
    h = hamiltonian_direct(params_small)
    tr = float(np.trace(h).real)
    total = sum(p.energy for p in pairs)
    assert abs(total - tr) <= 1e-8 * max(1.0, abs(tr))


def _ground_state_points(two_n):
    """The six regime points (ā=0.66, ξ=1.2), the defaults and the 12 box points."""
    points = [ModelParams.from_q_bar(two_n, 0.66, p, q_bar, 1.2)
              for p, q_bar in REGIME_POINTS.values()]
    points.append(ModelParams(two_n=two_n))
    return points + [ModelParams.from_q_bar(two_n, *draw[1:]) for draw in box_points(2)]


@pytest.mark.parametrize("two_n", [4, 6, 8])
def test_ground_state_matches_the_full_spectrum(two_n, monkeypatch):
    # every point is certified on the Lanczos path (no diagonalize fallback);
    # at 2N=4 Lanczos exhausts the 16-dimensional space
    fallbacks = []
    monkeypatch.setattr(spectrum, "diagonalize", lambda pr: fallbacks.append(pr))
    for pr in _ground_state_points(two_n):
        got = ground_state(pr)
        want = diagonalize(pr)[0]
        assert abs(got.energy - want.energy) <= 1e-12 * max(1.0, abs(want.energy))
        assert abs(np.vdot(want.state, got.state)) >= 1.0 - 1e-12
        z_got = np.array(state_zero_roots(got, pr).z)
        assert np.max(np.abs(z_got - np.array(state_zero_roots(want, pr).z))) <= 1e-12
    assert not fallbacks


def _certify(monkeypatch, params, pair):
    """ground_state(params) with Lanczos replaced by pair: the pair, or None on fallback."""
    h = hamiltonian_direct(params)
    residual = float(np.linalg.norm(h @ pair.state - pair.energy * pair.state))
    monkeypatch.setattr(spectrum, "_lanczos_ground_state", lambda h, tol: (pair, residual))
    monkeypatch.setattr(spectrum, "diagonalize", lambda pr: [None])
    return ground_state(params)


def test_isolation_certificate_rejects_excited_states(params_fig4, monkeypatch):
    pairs = diagonalize(params_fig4)
    assert _certify(monkeypatch, params_fig4, pairs[0]) is pairs[0]
    for pair in pairs[1:4] + pairs[-1:]:
        assert _certify(monkeypatch, params_fig4, pair) is None


def _synthetic_hamiltonian(monkeypatch, levels):
    """Patch a random 16×16 hermitian H with these levels in; returns its eigenvectors."""
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    h = (u * levels) @ u.conj().T
    monkeypatch.setattr(spectrum, "hamiltonian_direct", lambda pr: 0.5 * (h + h.conj().T))
    return u


@pytest.mark.parametrize("case", ["degenerate", "unconverged"])
def test_uncertified_ground_state_takes_the_full_spectrum(case, monkeypatch, params_small):
    # a doubly degenerate lowest level fails the certificate; a Lanczos run
    # cut below convergence returns nothing; both fall back to diagonalize
    if case == "degenerate":
        _synthetic_hamiltonian(monkeypatch, np.r_[-2.0, -2.0, np.linspace(-1.0, 3.0, 14)])
    else:
        monkeypatch.setattr(spectrum, "LANCZOS_MAX_STEPS", 3)
    found = []
    lanczos = spectrum._lanczos_ground_state
    monkeypatch.setattr(spectrum, "_lanczos_ground_state",
                        lambda *args: found.append(lanczos(*args)) or found[-1])
    fallback = [spectrum.EigenPair(0.0, np.zeros(16))]
    calls = []
    monkeypatch.setattr(spectrum, "diagonalize", lambda pr: calls.append(pr) or fallback)
    assert ground_state(params_small) is fallback[0]
    assert calls == [params_small]
    assert (found[0] is not None) == (case == "degenerate")


def test_near_degenerate_ground_state_is_certified_only_to_its_residual(monkeypatch,
                                                                        params_small):
    # a state that mixes the two lowest levels, 8e-9 apart, by θ = 5e-5 has
    # a residual r ≈ θ·8e-9 within LANCZOS_TOL·s.  A gap of DEGENERACY_GAP·s
    # alone would certify it; the gap r/GROUND_STATE_ANGLE refuses it
    u = _synthetic_hamiltonian(monkeypatch, np.r_[-2.0, -2.0 + 8e-9,
                                                  np.linspace(-1.0, 3.0, 14)])
    h = spectrum.hamiltonian_direct(params_small)
    scale = max(1.0, np.max(np.sum(np.abs(h), axis=1)))
    assert spectrum.DEGENERACY_GAP * scale < 8e-9
    x = np.cos(5e-5) * u[:, 0] + np.sin(5e-5) * u[:, 1]
    pair = spectrum.EigenPair(float(np.vdot(x, h @ x).real), x)
    assert np.linalg.norm(h @ x - pair.energy * x) <= spectrum.LANCZOS_TOL * scale
    assert _certify(monkeypatch, params_small, pair) is None
    monkeypatch.setattr(spectrum, "GROUND_STATE_ANGLE", np.inf)
    assert _certify(monkeypatch, params_small, pair) is pair


def test_ground_state_next_to_a_close_level_matches_the_full_spectrum(monkeypatch,
                                                                      params_small):
    # a ground level about 1e-7·s below the next is either certified to
    # GROUND_STATE_ANGLE or left to diagonalize
    _synthetic_hamiltonian(monkeypatch, np.r_[-2.0, -2.0 + 6e-7, np.linspace(-1.0, 3.0, 14)])
    got, want = ground_state(params_small), diagonalize(params_small)[0]
    assert abs(got.energy - want.energy) <= 1e-12 * abs(want.energy)
    assert abs(np.vdot(want.state, got.state)) >= 1.0 - 1e-12


@pytest.fixture(scope="module")
def chain_10():
    """Regime V at 2N=10, whose 1024-dimensional H takes the blocked eigensolve."""
    params = ModelParams.from_q_bar(10, 0.66, *REGIME_POINTS["V"], 1.2)
    return params, diagonalize(params)


def test_eigenvectors_orthonormal(params_small, chain_10):
    for pairs in (diagonalize(params_small), chain_10[1]):
        v = np.column_stack([p.state for p in pairs])
        assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) < 1e-10


def test_eigen_residuals(params_small, chain_10):
    for params, pairs in ((params_small, diagonalize(params_small)), chain_10):
        h = hamiltonian_direct(params)
        scale = np.max(np.abs(h))
        for p in pairs[:4] + pairs[-2:]:
            assert np.linalg.norm(h @ p.state - p.energy * p.state) <= 1e-10 * scale


def test_blocked_eigensolve_energies_match_eigvalsh(chain_10):
    # not bitwise: numpy's and scipy's wheels each bundle their own LAPACK
    params, pairs = chain_10
    want = np.linalg.eigvalsh(hamiltonian_direct(params))
    got = np.array([p.energy for p in pairs])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.fixture(scope="module")
def hermitian_1024():
    gen = np.random.default_rng(1024)
    a = gen.normal(size=(1024, 1024)) + 1j * gen.normal(size=(1024, 1024))
    return (a + a.conj().T) / 2


def test_blocked_eigensolve_keeps_its_input(hermitian_1024):
    m = np.asfortranarray(hermitian_1024)   # a layout LAPACK could overwrite in place
    w, vectors = spectrum._certified_eigh(m, "m")
    v = np.column_stack([vectors[k] for k in range(1024)])
    assert np.array_equal(m, hermitian_1024)
    assert np.max(np.abs(v.conj().T @ v - np.eye(1024))) <= 1e-13
    assert np.max(np.linalg.norm(m @ v - v * w, axis=0)) <= 1e-13 * np.max(np.abs(w))


def test_reduction_overlaps_match_the_back_transformed_vectors(hermitian_1024):
    # transfer_state_roots picks its vector from these before any is built
    _, vectors = spectrum._certified_eigh(hermitian_1024, "m")
    ref = np.random.default_rng(5).normal(size=1024) + 0j
    kept = ref.copy()
    got = vectors.overlaps(ref)
    assert np.array_equal(ref, kept)
    v = np.column_stack([vectors[k] for k in range(1024)])
    assert np.max(np.abs(got - np.abs(ref.conj() @ v))) <= 1e-12 * np.linalg.norm(ref)


def test_certified_eigh_refuses_a_skew_part_before_lapack(hermitian_1024, monkeypatch):
    from scipy.linalg import lapack

    skew = np.triu(np.full(hermitian_1024.shape, 1e-6), 1)
    skew = skew - skew.T

    def never(*_args, **_kwargs):
        pytest.fail("the blocked eigensolve ran on a non-hermitian matrix")

    monkeypatch.setattr(lapack, "zhetrd", never)
    with pytest.raises(ConsistencyError, match="hermiticity"):
        spectrum._certified_eigh(hermitian_1024 + skew, "m")


def test_lazy_states_do_not_depend_on_the_read_order(chain_10):
    params = chain_10[0]
    forward, backward = diagonalize(params), diagonalize(params)
    first = [forward[k].state for k in (1023, 40, 3)]
    second = [backward[k].state for k in (3, 40, 1023)][::-1]
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_reading_the_low_states_back_transforms_one_leading_block(chain_10, monkeypatch):
    from scipy.linalg import lapack

    columns = []
    zunmqr = lapack.zunmqr

    def counted(side, trans, a, tau, c, *args, **kwargs):
        columns.append(c.shape[1])
        return zunmqr(side, trans, a, tau, c, *args, **kwargs)

    monkeypatch.setattr(lapack, "zunmqr", counted)
    pairs = diagonalize(chain_10[0])
    for pair in pairs[:8]:
        assert pair.state.shape == (1024,)
    assert len(columns) == 1 and columns[0] <= 32


def test_lazy_states_match_eigh_up_to_phase(chain_10):
    params = chain_10[0]
    pairs = diagonalize(params)
    _, want = np.linalg.eigh(hamiltonian_direct(params))
    for k in (0, 31, 32, 33, 500, 1023):
        assert 1.0 - abs(np.vdot(want[:, k], pairs[k].state)) <= 1e-12


def test_degenerate_pair_across_the_leading_block_resolves(chain_10, monkeypatch):
    # H' shares chain_10's eigenvectors, which are t(u*) eigenvectors (the
    # t(u) commute with H), with levels 31 and 32 made equal: diagonalize
    # must rotate that pair, which straddles the two back-transform blocks,
    # back onto them
    params, pairs = chain_10
    u = np.column_stack([p.state for p in pairs])
    levels = np.array([p.energy for p in pairs])
    levels[32] = levels[31]
    h = (u * levels) @ u.conj().T
    monkeypatch.setattr(spectrum, "hamiltonian_direct", lambda pr: 0.5 * (h + h.conj().T))
    got = diagonalize(params)
    for k in (31, 32):
        assert 1.0 - np.max(np.abs(u[:, 31:33].conj().T @ got[k].state)) <= 1e-10
        lambda_samples(got[k], params, [spectrum.DEGENERACY_RESOLVE_POINT, 1.1])
    assert abs(np.vdot(got[31].state, got[32].state)) <= 1e-12


def test_lambda_fixed_values(params_fig4):
    gs = diagonalize(params_fig4)[0]
    lam0, lam_m1 = lambda_samples(gs, params_fig4, [0.0, -1.0])
    pred = 2 * params_fig4.p * params_fig4.q * (1 + params_fig4.a_bar ** 2) ** params_fig4.two_n
    assert abs(lam0 - pred) <= 1e-8 * abs(pred)
    assert abs(lam_m1 - lam0) <= 1e-10 * abs(lam0)


def test_lambda_crossing_on_samples(params_fig4):
    gs = diagonalize(params_fig4)[0]
    us = np.array([0.37, 1.1, -0.2])
    left = lambda_samples(gs, params_fig4, us)
    right = lambda_samples(gs, params_fig4, -us - 1.0)
    assert np.max(np.abs(left - right) / np.abs(left)) <= 1e-10


def crossing_defect(coeffs) -> float:
    """Relative coefficient defect of Λ(u) - Λ(-u-1), ascending power coefficients."""
    c = np.asarray(coeffs)
    reflected = nppoly.Polynomial(c)(nppoly.Polynomial([-1.0, -1.0])).coef
    reflected = np.pad(reflected, (0, len(c) - len(reflected)))  # numpy trims zeros
    scale = max(np.max(np.abs(c)), 1e-300)
    return float(np.max(np.abs(c - reflected)) / scale)


def circle_points_u(two_n):
    return u_of_w(circle_sample_points(two_n))


def fit_in_u(coeffs) -> np.ndarray:
    """Ascending power coefficients in u of the fit in t = (w − c)/R, w = (u + 1/2)^2."""
    c, r = spectrum.CIRCLE_CENTER, spectrum.CIRCLE_RADIUS
    t_of_u = nppoly.Polynomial([0.25 - c, 1.0, 1.0]) / r
    return nppoly.Polynomial(coeffs)(t_of_u).coef


def test_fit_degree_and_leading(params_small):
    # degree 2N+1 = 5 in w at 2N=4, so 4N+2 = 10 in u; leading coefficient 2
    gs = diagonalize(params_small)[0]
    vals = lambda_samples(gs, params_small, circle_points_u(params_small.two_n))
    coeffs = fit_lambda_polynomial(vals)
    assert len(coeffs) - 1 == 5
    in_u = fit_in_u(coeffs)
    assert len(in_u) - 1 == 10
    assert abs(in_u[-1] / 2.0 - 1.0) <= 1e-6
    assert crossing_defect(in_u) <= 1e-8


def test_fit_refuses_a_wrong_leading_coefficient(params_small):
    # Λ of 2N=4 has degree 5 in w: eight samples give a vanishing degree-7 term
    gs = diagonalize(params_small)[0]
    vals = lambda_samples(gs, params_small, circle_points_u(6))
    with pytest.raises(FitError, match="leading coefficient"):
        fit_lambda_polynomial(vals)


def test_crossing_defect_keeps_trailing_zero_coefficients():
    # u(u+1) is crossing symmetric; 1 + 2u is not: 1 + 2u - (1 + 2(-u-1)) = 2 + 4u
    assert crossing_defect((1.0, 0.0)) == 0.0
    assert crossing_defect((0.0, 1.0, 1.0, 0.0)) == 0.0
    assert crossing_defect((1.0, 2.0, 0.0)) == 2.0


def test_mixed_state_fails_variance_certificate(params_small):
    # an equal mix of two levels, and the ground state perturbed by 1e-3
    pairs = diagonalize(params_small)
    kick = np.random.default_rng(3).normal(size=len(pairs[0].state))
    perturbed = pairs[0].state + 1e-3 * kick / np.linalg.norm(kick)
    pts = circle_points_u(params_small.two_n)
    for state in ((pairs[0].state + pairs[1].state) / np.sqrt(2.0),
                  perturbed / np.linalg.norm(perturbed)):
        with pytest.raises(DegeneracyError):
            lambda_samples(state, params_small, pts)


def test_lambda_samples_applies_the_transfer_once(params_small, monkeypatch):
    # Λ and its residual certificate read the same batched rows t(u_k) v
    calls = []

    def counted(*args):
        calls.append(args[0])
        return apply_transfer(*args)

    monkeypatch.setattr(spectrum, "apply_transfer", counted)
    pts = circle_points_u(params_small.two_n)
    lambda_samples(diagonalize(params_small)[0], params_small, pts)
    assert len(calls) == 1 and np.array_equal(calls[0], pts)


def test_sample_points_and_roots_leave_numpy_ma_unloaded():
    # the first state_zero_roots of an ed run would pay numpy.ma's import
    # (np.unique loads it); the circle points and the FFT need none
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from competing_chain import ModelParams, diagonalize, state_zero_roots\n"
        "params = ModelParams(two_n=4, a_bar=0.6, p=1.0, q=0.5, xi=1.2)\n"
        "state_zero_roots(diagonalize(params)[0], params)\n"
        "diagonalize(ModelParams(two_n=8, a_bar=0.6, p=1.0, q=0.5, xi=1.2))\n"
        "print('numpy.ma' in sys.modules, 'scipy.linalg' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    # nor does ed up to 2N=8 import scipy.linalg (~0.33 s), which only the
    # blocked eigensolve from spectrum.BLOCKED_EIGH_MIN_DIM on needs
    assert done.stdout.strip() == "False False"


def test_fit_holdout_residual(params_fig4):
    gs = diagonalize(params_fig4)[0]
    vals = lambda_samples(gs, params_fig4, circle_points_u(params_fig4.two_n))
    coeffs = fit_in_u(fit_lambda_polynomial(vals))
    held = np.linspace(-2.7, 1.6, 8) + 0.037  # fresh points
    fresh = lambda_samples(gs, params_fig4, held)
    rel = np.abs(nppoly.polyval(held, coeffs) - fresh) / np.abs(fresh)
    assert np.max(rel) <= 1e-7


def exact_curve(roots: ZeroRootSet):
    """P(w) = Λ(−1/2 + √w) of a root set, the curve state_zero_roots samples and polishes."""
    return lambda w: lambda_from_roots(u_of_w(w), roots)


def roots_of_curve(curve, two_n: int) -> ZeroRootSet:
    return _zero_roots(fit_lambda_polynomial(curve(circle_sample_points(two_n))), curve)


def test_synthetic_root_round_trip():
    z_true = [0.5 + 1.0j, 1.5 + 1.0j, 2.5 + 0.0j, 0.7j, 1.3j]
    back = roots_of_curve(exact_curve(ZeroRootSet(two_n=4, z=tuple(z_true))), 4)
    assert back.two_n == 4   # 2N+1 = 5 sign-pair representatives
    got = np.array(back.z)
    for z in z_true:  # multiset comparison: sort order is noise-sensitive
        assert np.min(np.abs(got - z)) < 1e-8


def test_exact_curves_past_2n_12_give_back_their_roots():
    # the ground-state roots of a BAE scan at 2N = 14, 16, 20 in every regime
    # come back from their exact curve to 1e-14, where a degree-(4N+2) fit in
    # u on a real interval lost 1e-7 at 14 and failed from 16 on
    for p, q_bar in REGIME_POINTS.values():
        base = ModelParams.from_q_bar(8, 0.66, p, q_bar, 1.2)
        for two_n, _, roots in ground_state_scan(base, [8, 14, 16, 20])[1:]:
            back = roots_of_curve(exact_curve(roots), two_n)
            assert back.two_n == two_n
            assert np.max(np.abs(np.subtract(back.z, roots.z))) <= 1e-14


def test_extraction_stops_at_the_step_cap():
    # noise of 1e-9 on the exact curve keeps every step far above STEP_TOL
    poly = exact_curve(ZeroRootSet(two_n=2, z=(0.5 + 1.0j, 2.5 + 0.0j, 0.7j)))
    coeffs = fit_lambda_polynomial(poly(circle_sample_points(2)))
    gen = np.random.default_rng(9)
    with pytest.raises(ExtractionError, match="Weierstrass"):
        _zero_roots(coeffs, lambda w: poly(w) + 1e-9 * gen.normal(size=w.shape))


def test_root_order_ignores_signed_zero_noise():
    # parts within the canonical tolerance of 0 sort as 0: ±1e-17 noise on
    # the real parts of imaginary roots (and vice versa) keeps the order
    base = [1.89j, 0.971j, 0.5 + 1.0j, 2.5, -0.3 + 0.7j]
    want = np.array(_sorted_roots(base))
    for signs in itertools.product((1.0, -1.0), repeat=len(base)):
        noisy = [z + s * 1e-17 * (1.0 + 1j) for z, s in zip(base, signs)]
        got = _sorted_roots(noisy)
        assert set(got) == set(noisy)   # values are left as they are
        assert np.max(np.abs(np.array(got) - want)) < 1e-15


@pytest.fixture(scope="module")
def low_states_8(regime_points):
    """Per regime: the 2N=8 parameters and their 8 lowest ED states."""
    out = {}
    for regime, (p, q_bar) in regime_points.items():
        params = ModelParams.from_q_bar(8, 0.66, p, q_bar, 1.2)
        out[regime] = params, diagonalize(params)[:8]
    return out


@pytest.mark.parametrize("regime", REGIMES)
def test_polish_has_converged(regime, low_states_8):
    # one more exact Weierstrass step moves no root by more than 1e-13
    params, states = low_states_8[regime]
    for state in states:
        roots = state_zero_roots(state, params)
        w = np.square(roots.z)
        v = state.state
        curve = spectrum._transfer_rows(u_of_w(w), params, v) @ v.conj()
        w_next, _ = spectrum._weierstrass_step(w, curve, 2.0)
        further = [canonical_root(np.sqrt(x)) for x in w_next]
        assert np.max(np.abs(np.subtract(further, roots.z))) <= 1e-13


def test_zero_roots_stay_within_the_transfer_row_budget(low_states_8, chain_10, monkeypatch):
    # 2N+2 circle samples plus at most 3 exact steps of 2N+1 rows per state;
    # 2N=10 at regime V only, the one 1024-dimensional ED the module pays for
    rows = []

    def counted(us, params, v):
        rows[-1] += np.asarray(us).size
        return transfer_rows(us, params, v)

    transfer_rows = spectrum._transfer_rows
    monkeypatch.setattr(spectrum, "_transfer_rows", counted)
    chain_10_low = chain_10[0], chain_10[1][:8]
    for params, states in [*low_states_8.values(), chain_10_low]:
        two_n = params.two_n
        for state in states:
            rows.append(0)
            state_zero_roots(state, params)
            assert rows[-1] <= (two_n + 2) + 3 * (two_n + 1)


def test_roots_conjugate_closed(params_fig4):
    gs = diagonalize(params_fig4)[0]
    roots = state_zero_roots(gs, params_fig4)
    full = roots.full_multiset()
    for z in full:
        assert np.min(np.abs(full - np.conj(z))) < 1e-8


def test_reconstruction_matches_samples(params_fig4):
    gs = diagonalize(params_fig4)[0]
    roots = state_zero_roots(gs, params_fig4)
    us = np.array([0.21, -0.73, 1.4])
    direct = lambda_samples(gs, params_fig4, us)
    recon = lambda_from_roots(us, roots)
    assert np.max(np.abs(direct - recon) / np.abs(direct)) <= 1e-7


def test_inversion_identity_homogeneous(params_fig4):
    gs = diagonalize(params_fig4)[0]
    roots = state_zero_roots(gs, params_fig4)
    for j in (1, params_fig4.two_n):
        assert inversion_identity_check(roots, params_fig4, j) <= 1e-6


def test_inversion_identity_inhomogeneous(regime_points):
    prof = default_spread_profile(8, scale=0.1)
    for p, q_bar in regime_points.values():
        pr = ModelParams.from_q_bar(8, 0.66, p, q_bar, 1.2, theta_bar=prof)
        hom_gs = diagonalize(pr.at_homogeneous_point())[0]
        roots = transfer_state_roots(pr, hom_gs.state)
        for j in range(1, 9):
            assert inversion_identity_check(roots, pr, j) <= 1e-6


def test_transfer_state_roots_samples_the_selected_unit_eigenvector(monkeypatch):
    # the inhomogeneous state goes through lambda_samples (and its certificate)
    # as the unit eigenvector of t(u*) of largest overlap with the reference
    prof = default_spread_profile(6, scale=0.1)
    pr = ModelParams.from_q_bar(6, 0.66, 1.2, 0.7, 1.2, theta_bar=prof)
    ref = diagonalize(pr.at_homogeneous_point())[0].state
    sampled = []

    def spy(state, *args):
        sampled.append(np.array(state))
        return lambda_samples(state, *args)

    monkeypatch.setattr(spectrum, "lambda_samples", spy)
    transfer_state_roots(pr, ref)
    assert len(sampled) == 1
    v = sampled[0]
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    u = spectrum.DEGENERACY_RESOLVE_POINT
    tv = apply_transfer([u], pr, [v])[0]
    lam = np.vdot(v, tv)
    assert np.linalg.norm(tv - lam * v) <= 1e-10 * abs(lam)
    _, vecs = np.linalg.eig(transfer_matrix(u, pr))
    overlaps = np.abs(ref.conj() @ vecs) / np.linalg.norm(vecs, axis=0)
    assert abs(np.vdot(ref, v)) == pytest.approx(overlaps.max(), abs=1e-10)
    assert np.sort(overlaps)[-2] < overlaps.max() - 1e-3


def test_inversion_identity_negative_control(params_fig4):
    gs = diagonalize(params_fig4)[0]
    roots = state_zero_roots(gs, params_fig4)
    bad = roots.__class__(two_n=roots.two_n,
                          z=tuple(z + 0.4 for z in roots.z),
                          residual=roots.residual)
    assert inversion_identity_check(bad, params_fig4, 1) > 0.1


def test_json_round_trip(params_fig4):
    gs = diagonalize(params_fig4)[0]
    roots = state_zero_roots(gs, params_fig4)
    text = roots_to_json(roots, params_fig4)
    doc = json.loads(text)
    assert set(doc) == {"two_n", "params", "roots", "residual"}
    back, back_params = roots_from_json(text)
    assert back_params == params_fig4
    assert np.max(np.abs(np.array(back.z) - np.array(roots.z))) == 0.0


def test_csv_export(params_fig4):
    gs = diagonalize(params_fig4)[0]
    roots = state_zero_roots(gs, params_fig4)
    lines = roots_to_csv(roots).strip().splitlines()
    assert lines[0] == "index,re,im"
    assert len(lines) == len(roots.z) + 1


def test_degenerate_levels_resolve_into_transfer_eigenstates():
    # at the ModelParams defaults (ā=0, p=q=1, ξ=0) three levels of the 2N=4
    # chain are degenerate; each block is rotated into t(u*) eigenstates,
    # whose roots must then satisfy the inversion identity
    params = ModelParams(two_n=4)
    pairs = diagonalize(params)
    energies = np.array([p.energy for p in pairs])
    scale = max(1.0, np.max(np.abs(energies)))
    ties = np.flatnonzero(np.diff(energies) <= spectrum.DEGENERACY_GAP * scale)
    assert len(ties) == 3
    for pair in pairs:
        roots = state_zero_roots(pair, params)
        worst = max(inversion_identity_check(roots, params, j) for j in range(1, 5))
        assert worst <= 1e-8


def test_low_states_sample_across_a_double_zero_of_lambda():
    # at 2N=6, ā=0, p=q=0.5, ξ=0 Λ of several low states has a double zero at
    # u = -1/2 (w = 0); the circle |w + 1| = 4 stays clear of it, so every
    # sample certifies and the roots reproduce Λ off the samples
    params = ModelParams(two_n=6, a_bar=0.0, p=0.5, q=0.5, xi=0.0)
    us = np.array([0.37, 1.1, -0.21])
    for pair in diagonalize(params)[:40]:
        roots = state_zero_roots(pair, params)
        lam = lambda_samples(pair, params, us)
        assert np.max(np.abs(lambda_from_roots(us, roots) - lam) / np.abs(lam)) <= 1e-13


def _inhomogeneous_chain(two_n):
    prof = default_spread_profile(two_n, scale=0.1)
    return ModelParams.from_q_bar(two_n, 0.66, 1.2, 0.7, 1.2, theta_bar=prof)


def test_transfer_eigenvectors_are_orthonormal():
    pr = _inhomogeneous_chain(6)
    basis = np.eye(2 ** pr.two_n, dtype=complex)
    v = np.column_stack(spectrum._transfer_eigenvectors(basis, pr))
    assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) <= 1e-13
    tv = apply_transfer([spectrum.DEGENERACY_RESOLVE_POINT], pr, [v[:, 5]])[0]
    lam = np.vdot(v[:, 5], tv)
    assert np.linalg.norm(tv - lam * v[:, 5]) <= 1e-12 * abs(lam)


def test_transfer_eigenvectors_refuse_a_non_hermitian_projection(monkeypatch):
    # eigh reads one triangle only, so a skew part must be caught before it
    pr = _inhomogeneous_chain(4)
    basis = np.eye(2 ** pr.two_n, dtype=complex)
    skew = np.triu(np.full((basis.shape[0],) * 2, 1e-6), 1)
    skew = skew - skew.T

    def perturbed(us, params, vecs):
        return apply_transfer(us, params, vecs) + vecs @ skew.T

    monkeypatch.setattr(spectrum, "apply_transfer", perturbed)
    with pytest.raises(ConsistencyError, match="hermiticity"):
        spectrum._transfer_eigenvectors(basis, pr)
