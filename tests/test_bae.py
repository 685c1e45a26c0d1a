import logging
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
from competing_chain.transfer import a_table
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
    stage = bae._Stage.of(pr)
    jac = bae._reduced_jacobian(stage, z_map, y, z_map @ np.abs(y))
    fd = np.empty_like(jac)
    for i in range(len(y)):
        step = np.zeros(len(y))
        step[i] = 1e-6 * (1.0 + abs(y[i]))
        diff = (stage.residual(z_map @ np.abs(y + step))
                - stage.residual(z_map @ np.abs(y - step)))
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
    from competing_chain.thermo import a_kernel
    assert abs(a_kernel(0.0, 1) + a_kernel(0.0, 1) - 4.0 / math.pi) < 1e-15


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


def test_ground_state_scan_stops_at_first_failed_warm_size(monkeypatch):
    # a failed warm solve ends the scan at once: no retry ladder at that size
    base = ModelParams.from_q_bar(8, 0.6, 1.0, 0.8, 1.2)
    marker = ZeroRootSet(two_n=10, z=(1j,) * 11)
    injected = SolverError("injected", best_roots=marker, history=[0.5])
    calls = []
    solve = bae.solve_bae

    def spy(seed, params, homotopy=bae.HOMOTOPY_STEPS, **kwargs):
        calls.append((params.two_n, homotopy))
        if params.two_n == 10:
            raise injected
        return solve(seed, params, homotopy, **kwargs)

    monkeypatch.setattr(bae, "solve_bae", spy)
    with pytest.raises(SolverError, match="2N=10") as info:
        ground_state_scan(base, [8, 10])
    assert calls == [(8, bae.HOMOTOPY_STEPS), (10, None)]
    assert info.value.__cause__ is injected
    assert info.value.best_roots is marker and info.value.history == [0.5]


def _closed_form_rows(u, r, c, t, w):
    # Taylor rows of log c∏(u - t_k)^{w_k}: the log at r = 0 and the
    # inverse-power sum Σ w_k (-1)^{r-1} (u - t_k)^{-r} / r at r >= 1
    d = u[:, None] - t
    rr = r[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(rr == 0, np.log(d), (-1.0) ** (rr - 1) * d ** -rr / np.maximum(rr, 1))
    return np.where(r == 0, np.log(c), 0.0) + terms @ w


def _closed_form_gradient(u, r, z):
    # z-derivative of the Λ rows: t = (z - 1/2, -z - 1/2) enters with
    # d/dt_k = (-1)^{r+1} (u - t_k)^{-r-1} per unit weight
    t = np.concatenate([z - 0.5, -z - 0.5])
    rr = r[:, None]
    g = np.ones(len(t)) * (-1.0) ** (rr + 1) * (u[:, None] - t) ** -(rr + 1)
    return g[:, :len(z)] - g[:, len(z):]


def _confluent_nodes(params):
    groups = bae._theta_groups(params.theta_bar)
    x = np.asarray([1j * v + params.a for v, mult in groups for _ in range(mult)])
    r = np.asarray([k for _, mult in groups for k in range(mult)], dtype=int)
    return x, r


def _principal_log(v):
    return v - 2.0j * np.pi * np.round(np.imag(v) / (2.0 * np.pi))


def _uncached_residual(z, params):
    # the solver residual written out from the closed-form rows, every
    # table rebuilt from params on each call
    x, r = _confluent_nodes(params)
    c, zeta, mult = a_table(params)
    t = np.concatenate([z - 0.5, -z - 0.5])
    w = np.ones(len(t))
    lhs = _closed_form_rows(x, r, 2.0, t, w) + _closed_form_rows(x - 1.0, r, 2.0, t, w)
    rhs = _closed_form_rows(x, r, c, zeta, mult) + (-1.0) ** r * _closed_form_rows(-x, r, c, zeta, mult)
    rows = np.where(r == 0, _principal_log(lhs - rhs), bae.JET_SCALE ** r * (lhs - rhs))
    zero = np.zeros(1, dtype=int)
    lam0 = _closed_form_rows(zero, zero, 2.0, t, w)[0]
    a0 = _closed_form_rows(zero, zero, c, zeta, mult)[0]
    return np.append(rows, _principal_log(lam0 - a0)), rhs, a0


# 2N = 10 gives row counts that are not a multiple of 4, which reach other
# matrix-vector kernels; the 2N = 8 cases keep their original ids
STAGE_CASES = [pytest.param(regime, spread, two_n,
                            id=f"{regime}-{spread}" + ("" if two_n == 8 else f"-{two_n}"))
               for two_n in (8, 10, 28) for spread in (False, True) for regime in REGIMES]


def _stage_case(regime, spread, two_n, regime_points):
    p, qb = regime_points[regime]
    pr = ModelParams.from_q_bar(two_n, 0.66, p, qb, 1.2)
    if spread:
        pr = pr.with_theta_bar(default_spread_profile(two_n))
    return pr, bae._seed_pattern(regime, pr).z_reps()


@pytest.mark.parametrize("regime,spread,two_n", STAGE_CASES)
def test_stage_residual_equals_uncached_evaluation(regime, spread, two_n, regime_points):
    pr, z = _stage_case(regime, spread, two_n, regime_points)
    stage = bae._Stage.of(pr)
    expected, rhs, a0 = _uncached_residual(z, pr)
    assert np.array_equal(stage.residual(z), expected)
    assert np.array_equal(stage.rhs, rhs)
    assert stage.a0 == a0


@pytest.mark.parametrize("regime,spread,two_n", STAGE_CASES)
def test_stage_jacobian_equals_closed_form_gradient(regime, spread, two_n, regime_points):
    pr, z = _stage_case(regime, spread, two_n, regime_points)
    x, r = _confluent_nodes(pr)
    zero = np.zeros(1, dtype=int)
    expected = np.vstack([
        bae.JET_SCALE ** r[:, None] * (_closed_form_gradient(x, r, z)
                                       + _closed_form_gradient(x - 1.0, r, z)),
        _closed_form_gradient(zero, zero, z)])
    assert np.array_equal(bae._Stage.of(pr).jacobian(z), expected)


@pytest.mark.parametrize("theta_bar", [
    (0.0,) * 8,
    (0.1, 0.1, 0.1, -0.2, -0.2, 0.3, 0.4, 0.5),
    default_spread_profile(8),
])
def test_log_jets_match_the_closed_form_rows(theta_bar, params_fig4):
    # each row is log f at r = 0 and the inverse-power sum at r >= 1
    pr = params_fig4.with_theta_bar(theta_bar)
    stage = bae._Stage.of(pr)
    t = bae._lambda_points(bae._seed_pattern("V", pr).z_reps())
    w = np.ones(len(t))
    d = stage.x[:, None] - t
    rr = stage.r[:, None]
    terms = np.where(rr == 0, np.log(d), (-1.0) ** (rr - 1) * d ** -rr / np.maximum(rr, 1))
    expected = np.where(stage.r == 0, np.log(2.0), 0.0) + terms @ w
    rows = bae._JetRows.of(stage.r, 2.0, w).rows(stage.x[:, None], t)
    assert np.array_equal(rows, expected)


def test_non_finite_jacobian_rejects_an_accepted_trial(monkeypatch, params_fig4):
    # the first trial passes the Armijo test but its Jacobian is refused:
    # the line search halves the step instead of accepting the point
    pattern = bae._seed_pattern("V", params_fig4)
    pr = params_fig4.with_theta_bar(
        default_spread_profile(8, scale=bae._matched_spread_scale(pattern)))
    points = []
    jacobian = bae._reduced_jacobian

    def refuse_first_trial(stage, z_map, y, z):
        points.append(y.copy())
        return None if len(points) == 2 else jacobian(stage, z_map, y, z)

    monkeypatch.setattr(bae, "_reduced_jacobian", refuse_first_trial)
    bae._gauss_newton(pattern, pr, tol=1e-11, max_iter=200, history=[])
    y0, first, second = points[:3]
    assert np.allclose(second - y0, 0.5 * (first - y0), rtol=0, atol=1e-15)


def test_direct_scan_failure_names_the_direct_solve():
    # regime V continues to 2N=48; the direct solve at 2N=50 stalls
    base = ModelParams.from_q_bar(8, 0.66, 1.2, 0.7, 1.2)
    with pytest.raises(SolverError, match="2N=50: direct solve failed: line search stalled") as info:
        ground_state_scan(base, [8, 50])
    cause = info.value.__cause__
    assert isinstance(cause, SolverError)
    assert str(cause).startswith("direct solve failed: ")
    assert info.value.best_roots is cause.best_roots and cause.best_roots.two_n == 50
    assert info.value.history == cause.history and len(cause.history) > 1


@pytest.mark.parametrize("steps", [0, -3])
def test_homotopy_below_one_step_is_refused(steps, params_fig4):
    with pytest.raises(ParameterError, match="homotopy"):
        solve_bae(seed_roots("V", params_fig4), params_fig4, homotopy=steps)


def test_gauss_newton_stages_log_their_counts_at_debug(caplog, regime_points):
    logger = logging.getLogger("competing_chain.bae")
    assert not logger.handlers
    p, qb = regime_points["II"]
    pr = ModelParams.from_q_bar(8, 0.66, p, qb, 1.2)
    solve_bae(seed_roots("II", pr), pr)
    assert not [rec for rec in caplog.records if rec.name == logger.name]
    with caplog.at_level(logging.DEBUG, logger=logger.name):
        solve_bae(seed_roots("II", pr), pr)
    stages = [rec.args for rec in caplog.records if rec.name == logger.name]
    assert stages and all(rec.levelno == logging.DEBUG for rec in caplog.records)
    assert {s["outcome"] for s in stages} <= {"converged", "line search stalled",
                                               "iteration limit", "non-finite seed"}
    assert stages[-1]["outcome"] == "converged" and stages[-1]["residual"] <= 1e-11
    for s in stages:
        assert s["jacobian_evals"] <= s["iterations"] + 1 <= s["residual_evals"]
        assert math.isfinite(s["seconds"]) and s["seconds"] >= 0.0


def test_solve_bae_classifies_its_seed_once(monkeypatch, params_fig4):
    seed = seed_roots("V", params_fig4)
    seen = []
    classify = bae.classify_pattern

    def spy(roots, params):
        seen.append(roots is seed)
        return classify(roots, params)

    monkeypatch.setattr(bae, "classify_pattern", spy)
    solve_bae(seed, params_fig4, homotopy=3)
    assert seen.count(True) == 1


@pytest.mark.xfail(strict=True, reason="the retry ladder stops once one minimum is hit twice "
                   "(bae._ladder_settled) and returns an excited state at -15.867963969080519; "
                   "a later rung reaches the ED ground energy")
def test_cold_solve_reaches_the_ed_ground_state_past_a_settled_minimum():
    # regime III at 2N=8: the ED ground state carries the regime-III
    # inventory, and with the settle rule off the ladder reaches it
    # (-16.343255643480767)
    pr = ModelParams.from_q_bar(8, 0.3231522811642001, 1.0840470232578954,
                                0.23756326536899386, 0.40153790832243863)
    gs = diagonalize(pr)[0]
    assert regime_of(abs(pr.p), pr.q_bar) == "III"
    assert classify_pattern(state_zero_roots(gs, pr), pr).regime == "III"
    sol = solve_bae(seed_roots("III", pr), pr)
    assert abs(energy_from_roots(sol, pr) - gs.energy) <= 1e-8
