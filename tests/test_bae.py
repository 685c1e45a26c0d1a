import math

import numpy as np
import pytest

from competing_chain import (ModelParams, diagonalize, state_zero_roots,
                             transfer_state_roots, regime_of, seed_roots,
                             bae_residual, solve_bae, classify_pattern,
                             energy_from_roots, ground_state_scan)
from competing_chain import bae
from competing_chain.bae import REGIMES, default_spread_profile
from competing_chain.spectrum import ZeroRootSet
from competing_chain.errors import DomainError, ParameterError, SolverError


def test_regime_boxes():
    assert regime_of(1.2, 0.7) == "V"
    assert regime_of(0.3, 0.7) == "III"
    assert regime_of(0.0, 0.0) == "I"
    assert regime_of(0.2, -0.2) == "II"
    assert regime_of(1.0, -0.2) == "IV"
    assert regime_of(0.2, -0.8) == "IV"
    assert regime_of(0.8, -0.6) == "VI"
    assert regime_of(0.49999, 0.49999) == "I"
    assert regime_of(0.5, 0.5) == "V"
    with pytest.raises(DomainError):
        regime_of(-0.1, 0.0)


@pytest.mark.parametrize("regime,counts", [
    ("I", (6, 2, True, False)),
    ("II", (6, 2, False, True)),
    ("III", (6, 1, True, True)),
    ("IV", (8, 1, False, False)),
    ("V", (8, 0, True, False)),
    ("VI", (8, 0, False, True)),
])
def test_seed_inventories(regime, counts, regime_points):
    p, qb = regime_points[regime]
    pr = ModelParams.from_q_bar(8, 0.66, p, qb, 1.2)
    seed = seed_roots(regime, pr)
    assert len(seed.z) == 9  # 2N+1 representatives
    pat = classify_pattern(seed, pr)
    n_centers, n_bp, has_alpha, has_beta = counts
    assert len(pat.pairs_n2) == n_centers
    assert len(pat.boundary_pairs) == n_bp
    assert (pat.real_pair is not None) == has_alpha
    assert (pat.imaginary_pair is not None) == has_beta


def test_bae_residual_on_ed_roots(params_fig4):
    gs = diagonalize(params_fig4)[0]
    roots = state_zero_roots(gs, params_fig4)
    res = bae_residual(roots, params_fig4)
    assert len(res) == params_fig4.two_n + 1
    assert np.max(np.abs(res)) <= 1e-6


def test_bae_residual_sensitivity(params_fig4):
    gs = diagonalize(params_fig4)[0]
    roots = state_zero_roots(gs, params_fig4)
    z = list(roots.z)
    z[0] += 0.1
    bad = ZeroRootSet(two_n=roots.two_n, z=tuple(z), residual=roots.residual)
    assert np.max(np.abs(bae_residual(bad, params_fig4))) > 1e-2


def test_exact_small_instance_residual(params_small):
    # brute-force route: full ED at 2N=4 plus exact polishing of every root
    for pair in diagonalize(params_small):
        roots = state_zero_roots(pair, params_small)
        assert np.max(np.abs(bae_residual(roots, params_small))) <= 1e-10


def test_solve_regime_v_closure(params_fig4):
    gs = diagonalize(params_fig4)[0]
    seed = seed_roots("V", params_fig4)
    sol = solve_bae(seed, params_fig4, homotopy=10)
    assert sol.residual <= 1e-10
    pat = classify_pattern(sol, params_fig4)
    assert pat.regime == "V"
    assert len(pat.pairs_n2) == 8 and pat.real_pair is not None
    assert abs(energy_from_roots(sol, params_fig4) - gs.energy) <= 1e-8


def test_homotopy_endpoint_is_direct_fixed_point(params_fig4):
    # path independence on a connected basin: the ramp endpoint solves the
    # homogeneous system directly, so a direct solve seeded there returns it
    seed = seed_roots("V", params_fig4)
    ramped = solve_bae(seed, params_fig4, homotopy=10)
    direct = solve_bae(ramped, params_fig4, homotopy=None)
    assert np.max(np.abs(np.array(direct.z) - np.array(ramped.z))) < 1e-9


@pytest.mark.parametrize("spread", [False, True])
@pytest.mark.parametrize("regime", REGIMES)
def test_closed_form_jacobian_matches_central_differences(regime, spread, regime_points):
    # at θ̄ = 0 all nodes coincide and the jet rows carry the system
    p, qb = regime_points[regime]
    pr = ModelParams.from_q_bar(8, 0.66, p, qb, 1.2)
    if spread:
        pr = pr.with_theta_bar(default_spread_profile(8))
    pattern = bae._seed_pattern(regime, pr)
    z_map, y = pattern.z_map(), pattern.encode()
    _, jac = bae._reduced_system(z_map, pr, y)
    fd = np.empty_like(jac)
    for i in range(len(y)):
        step = np.zeros(len(y))
        step[i] = 1e-6 * (1.0 + abs(y[i]))
        diff = (bae._reduced_system(z_map, pr, y + step)[0]
                - bae._reduced_system(z_map, pr, y - step)[0])
        diff -= 2j * np.pi * np.round(diff.imag / (2.0 * np.pi))  # log rows live mod 2πi
        fd[:, i] = np.concatenate([diff.real, diff.imag]) / (2.0 * step[i])
    assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))


def test_solver_error_history_covers_one_attempt(params_fig4):
    # one iteration per stage fails every ladder attempt after one residual
    with pytest.raises(SolverError) as info:
        solve_bae(seed_roots("V", params_fig4), params_fig4, max_iter=1)
    assert len(info.value.history) == 1


def test_solver_roots_symmetric_and_conjugate_closed(params_fig4):
    sol = solve_bae(seed_roots("V", params_fig4), params_fig4, homotopy=10)
    full = sol.full_multiset()
    for z in full:
        assert np.min(np.abs(full + z)) < 1e-10       # sign closure
        assert np.min(np.abs(full - np.conj(z))) < 1e-10  # conjugation closure


def test_theta_profile_preserves_inventory(params_fig4):
    # homogeneous vs spread-profile roots carry the same pattern inventory
    gs = diagonalize(params_fig4)[0]
    hom = classify_pattern(state_zero_roots(gs, params_fig4), params_fig4)
    prof = default_spread_profile(8, scale=0.1)
    pr_inh = params_fig4.with_theta_bar(prof)
    inh_roots = transfer_state_roots(pr_inh, gs.state)
    inh = classify_pattern(inh_roots, pr_inh)
    assert hom.regime == inh.regime == "V"
    assert len(hom.pairs_n2) == len(inh.pairs_n2)
    assert (hom.real_pair is None) == (inh.real_pair is None)


def test_classify_regime_iii_inventory(regime_points):
    p, qb = regime_points["III"]
    pr = ModelParams.from_q_bar(8, 0.66, p, qb, 1.2)
    gs = diagonalize(pr)[0]
    pat = classify_pattern(state_zero_roots(gs, pr), pr)
    assert pat.regime == "III"
    assert len(pat.pairs_n2) == 6
    assert len(pat.boundary_pairs) == 1
    tag, height = pat.boundary_pairs[0]
    assert tag == "q"  # min(|p|, |q-bar|) side
    assert height == pytest.approx(abs(pr.q_bar) + 0.5, abs=0.05)
    assert pat.real_pair is not None
    assert pat.imaginary_pair is not None
    assert pat.imaginary_pair > min(abs(pr.p), abs(pr.q_bar))


def test_classify_boundary_string_excitation(params_fig4):
    # synthetic: regime-I style set with a pair moved to i(1/2 - |p|)
    pr = ModelParams.from_q_bar(8, 0.66, 0.1, 0.35, 1.2)
    gs = diagonalize(pr)[0]
    roots = state_zero_roots(gs, pr)
    z = []
    moved_one = False
    for w in roots.z:
        zb = -1j * w
        if abs(zb.real) < 1e-6 and abs(abs(zb.imag) - 0.6) < 0.05 and not moved_one:
            z.append(complex(0.5 - abs(pr.p), 0.0))  # pair moved to i(1/2-|p|)
            moved_one = True
        else:
            z.append(w)
    assert moved_one
    moved = ZeroRootSet(two_n=8, z=tuple(z), residual=0.0)
    pat = classify_pattern(moved, pr)
    assert pat.regime == "excited"
    assert pat.boundary_strings


def test_classify_three_string(params_fig4):
    # synthetic: replace two 2-string quadruples by one n=3 quadruple pair
    gs = diagonalize(params_fig4)[0]
    roots = state_zero_roots(gs, params_fig4)
    zb = sorted((-1j * np.asarray(roots.z)).tolist(), key=lambda w: abs(w.imag - 1.0))
    zb[0] = zb[0].real + 1.5j
    zb[1] = zb[1].real + 1.5j
    moved = ZeroRootSet(two_n=8, z=tuple(1j * np.asarray(zb)), residual=0.0)
    pat = classify_pattern(moved, params_fig4)
    assert pat.regime == "excited"
    assert any(n == 3 for n, _ in pat.extra_strings)


def test_energy_kernel_value():
    # a_1(i z - i a) + a_1(i z + i a) at z-bar = a-bar = 0 equals 4/pi
    from competing_chain.bae import _a1
    assert abs(_a1(0.0) + _a1(0.0) - 4.0 / math.pi) < 1e-15


def test_energy_refuses_inhomogeneous(params_fig4):
    gs = diagonalize(params_fig4)[0]
    roots = state_zero_roots(gs, params_fig4)
    pr = params_fig4.with_theta_bar(default_spread_profile(8, scale=0.1))
    with pytest.raises(ParameterError):
        energy_from_roots(roots, pr)


def test_all_state_energy_closure_2n4(params_small):
    pairs = diagonalize(params_small)
    for pair in pairs:
        roots = state_zero_roots(pair, params_small)
        assert abs(energy_from_roots(roots, params_small) - pair.energy) <= 1e-8


def test_ground_state_scan_matches_ed():
    base = ModelParams.from_q_bar(8, 0.6, 1.0, 0.8, 1.2)
    res = ground_state_scan(base, [8, 10])
    ed8 = diagonalize(ModelParams.from_q_bar(8, 0.6, 1.0, 0.8, 1.2))[0].energy
    assert abs(res[0][1] - ed8) <= 1e-8
    # 2N=10 reference from a one-off dense diagonalization
    assert res[1][1] == pytest.approx(-28.027604097360523, abs=1e-8)
