"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 8 is implemented twice: the literal two-parameter fit
(which fails for structural reasons recorded in the assertion message and
the project notes — the omitted 1/(2N) term biases the fitted intercept by
~38% regardless of the analytic formula under test) and a bias-corrected
companion on the same data, sizes and tolerance, which passes.
"""

import json
import math
import time

import numpy as np
import pytest

from competing_chain import (ModelParams, QuadratureSpec, diagonalize,
                             state_zero_roots, lambda_samples,
                             circle_sample_points, fit_lambda_polynomial,
                             inversion_identity_check, yang_baxter_residual,
                             reflection_residual, hamiltonian_direct,
                             hamiltonian_from_transfer, max_norm,
                             transfer_identity_residual, seed_roots, solve_bae,
                             classify_pattern, energy_from_roots, regime_of,
                             ground_state_scan, surface_energy,
                             bulk_excitation_energy, string_excitation_energy,
                             boundary_excitation_energy)
from competing_chain import spectrum
from competing_chain.bae import default_spread_profile
from competing_chain.cli import main as cli_main

from conftest import REGIME_POINTS


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. algebraic residuals
# ---------------------------------------------------------------------------

def test_criterion_1_algebraic_residuals():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_qybe = worst_re = worst_dre = 0.0
    for _ in range(100):
        u = rng.uniform(-5, 5, 3) + 1j * rng.uniform(-5, 5, 3)
        worst_qybe = max(worst_qybe, yang_baxter_residual(*u))
    for _ in range(100):
        lam, u = rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
        p = rng.uniform(-3, 3)
        worst_re = max(worst_re, reflection_residual(lam, u, p=p))
    for _ in range(100):
        lam, u = rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
        q, xi = rng.uniform(-3, 3, 2)
        worst_dre = max(worst_dre, reflection_residual(lam, u, dual=True, q=q, xi=xi))
    elapsed = time.perf_counter() - t0
    ok = max(worst_qybe, worst_re, worst_dre) <= 1e-12 and elapsed < 1.0
    _report("1", ok, f"QYBE {worst_qybe:.2e}, RE {worst_re:.2e}, "
                     f"dual RE {worst_dre:.2e} over 100 points each; {elapsed:.2f}s")
    assert worst_qybe <= 1e-12
    assert worst_re <= 1e-12
    assert worst_dre <= 1e-12
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. Hamiltonian equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_hamiltonian_equivalence():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    draws = [(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.5, 2.0)),
              float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.0, 2.0)))
             for _ in range(5)]
    fig4 = (0.66, 1.2, 0.7 * math.sqrt(1 + 1.2 ** 2), 1.2)
    for two_n in (4, 6):
        for a_bar, p, q, xi in draws + [fig4]:
            pr = ModelParams(two_n=two_n, a_bar=a_bar, p=p, q=q, xi=xi)
            defect = max_norm(hamiltonian_direct(pr) - hamiltonian_from_transfer(pr))
            worst = max(worst, defect)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _report("2", ok, f"max |H_direct - H_transfer| = {worst:.2e} over "
                     f"12 builds at 2N in {{4,6}}; {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 3. operator identity
# ---------------------------------------------------------------------------

def test_criterion_3_operator_identity():
    worst = 0.0
    profile = default_spread_profile(4, scale=0.1)
    for theta in ((0.0,) * 4, profile):
        pr = ModelParams(two_n=4, a_bar=0.6, p=1.0, q=0.5, xi=1.2, theta_bar=theta)
        for j in range(1, 5):
            worst = max(worst, transfer_identity_residual(j, pr))
    ok = worst <= 1e-8
    _report("3", ok, f"relative fused-identity residual {worst:.2e} for all j, "
                     "theta in {0, spread profile}")
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# 4. eigenvalue certificates
# ---------------------------------------------------------------------------

def test_criterion_4_eigenvalue_certificates():
    worst_lead = worst_zero = worst_cross = worst_inv = 0.0
    for two_n in (4, 6):
        pr = ModelParams.from_q_bar(two_n, 0.66, 1.2, 0.7, 1.2)
        pred0 = 2 * pr.p * pr.q * (1 + pr.a_bar ** 2) ** two_n
        w = circle_sample_points(two_n)
        r = spectrum.CIRCLE_RADIUS
        t0 = (0.25 - spectrum.CIRCLE_CENTER) / r   # u = 0 is w = 1/4
        us = np.array([0.37, 1.1, -0.21])
        for pair in diagonalize(pr):
            vals = lambda_samples(pair, pr, spectrum.u_of_w(w))
            coeffs = fit_lambda_polynomial(vals)   # in t = (w - c)/R
            worst_lead = max(worst_lead, abs(coeffs[-1] / r ** (two_n + 1) / 2.0 - 1.0))
            lam0 = np.polynomial.polynomial.polyval(t0, coeffs)
            worst_zero = max(worst_zero, abs(lam0 - pred0) / abs(pred0))
            left = lambda_samples(pair, pr, us)
            right = lambda_samples(pair, pr, -us - 1.0)
            worst_cross = max(worst_cross, float(np.max(np.abs(left - right) / np.abs(left))))
            roots = state_zero_roots(pair, pr)
            for j in range(1, two_n + 1):
                worst_inv = max(worst_inv, inversion_identity_check(roots, pr, j))
    ok = (worst_lead <= 1e-6 and worst_zero <= 1e-8
          and worst_cross <= 1e-8 and worst_inv <= 1e-6)
    _report("4", ok, f"leading {worst_lead:.2e}, value-at-0 {worst_zero:.2e}, "
                     f"crossing {worst_cross:.2e}, inversion {worst_inv:.2e} "
                     "over every eigenstate at 2N in {4,6}")
    assert worst_lead <= 1e-6
    assert worst_zero <= 1e-8
    assert worst_cross <= 1e-8
    assert worst_inv <= 1e-6


# ---------------------------------------------------------------------------
# 5 & 6. six-regime closure and root-pattern figures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def regime_closure():
    data = {}
    t0 = time.perf_counter()
    for regime, (p, qb) in REGIME_POINTS.items():
        pr = ModelParams.from_q_bar(8, 0.66, p, qb, 1.2)
        gs = diagonalize(pr)[0]
        ed_pattern = classify_pattern(state_zero_roots(gs, pr), pr)
        sol = solve_bae(seed_roots(regime, pr), pr, homotopy=10)
        data[regime] = {
            "params": pr,
            "ed_energy": gs.energy,
            "ed_pattern": ed_pattern,
            "solution": sol,
            "solve_energy": energy_from_roots(sol, pr),
            "solve_pattern": classify_pattern(sol, pr),
        }
    data["elapsed"] = time.perf_counter() - t0
    return data


EXPECTED_INVENTORY = {
    # regime -> (centers, boundary tags, alpha?, beta?)
    "I": (6, ("p", "q"), True, False),
    "II": (6, ("p", "q"), False, True),
    "III": (6, ("q",), True, True),
    "IV": (8, ("q",), False, False),
    "V": (8, (), True, False),
    "VI": (8, (), False, True),
}


def test_criterion_5_ed_bae_closure(regime_closure):
    worst_res = worst_de = 0.0
    tags_ok = True
    for regime in REGIME_POINTS:
        d = regime_closure[regime]
        worst_res = max(worst_res, d["solution"].residual)
        worst_de = max(worst_de, abs(d["solve_energy"] - d["ed_energy"]))
        tags_ok = tags_ok and d["solve_pattern"].regime == regime
    elapsed = regime_closure["elapsed"]
    ok = worst_res <= 1e-10 and worst_de <= 1e-8 and tags_ok and elapsed < 300.0
    _report("5", ok, f"six regimes at 2N=8: max residual {worst_res:.2e}, "
                     f"max |E_solve - E_ED| {worst_de:.2e}, inventories "
                     f"{'match' if tags_ok else 'MISMATCH'}; {elapsed:.0f}s")
    assert worst_res <= 1e-10
    assert worst_de <= 1e-8
    assert tags_ok
    assert elapsed < 300.0


def test_criterion_6_root_pattern_figures(regime_closure):
    all_ok = True
    details = []
    for regime, (centers, tags, has_alpha, has_beta) in EXPECTED_INVENTORY.items():
        d = regime_closure[regime]
        pr = d["params"]
        pat = d["ed_pattern"]
        ok = (pat.regime == regime
              and len(pat.pairs_n2) == centers
              and tuple(sorted(t for t, _ in pat.boundary_pairs)) == tuple(sorted(tags))
              and (pat.real_pair is not None) == has_alpha
              and (pat.imaginary_pair is not None) == has_beta)
        if has_beta and ok:
            ok = pat.imaginary_pair > min(abs(pr.p), abs(pr.q_bar))
        all_ok = all_ok and ok
        details.append(f"{regime}:{'ok' if ok else 'BAD'}")
    _report("6", all_ok, "ED ground scatters reproduce the six inventories "
                         f"({', '.join(details)})")
    assert all_ok


# ---------------------------------------------------------------------------
# 7. string-excitation cancellation
# ---------------------------------------------------------------------------

def test_criterion_7_string_cancellation():
    worst = 0.0
    for n in (3, 4):
        for z_tilde in (0.0, 0.5, 1.7):
            for a_bar in (0.0, 0.66, 0.8):
                pr = ModelParams(two_n=8, a_bar=a_bar, p=1.0, q=1.0, xi=0.0)
                worst = max(worst, abs(string_excitation_energy(n, z_tilde, pr)))
    ok = worst <= 1e-8
    _report("7", ok, f"|n-string excitation energy| <= {worst:.2e} on the "
                     "n x z x a grid (analytic zero)")
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# 8. surface-energy finite-size oracle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def finite_size_energies():
    t0 = time.perf_counter()
    base = ModelParams.from_q_bar(8, 0.6, 1.0, 0.8, 1.2)
    scan = ground_state_scan(base, [8, 10, 12, 14, 16])
    elapsed = time.perf_counter() - t0
    sizes = np.array([s for s, _, _ in scan], dtype=float)
    energies = np.array([e for _, e, _ in scan])
    analytic = surface_energy(base).value
    return sizes, energies, analytic, elapsed


CRITERION_8_XFAIL_REASON = (
    "the prescribed two-parameter fit E(2N) = 2N*eps + E_b omits the "
    "1/(2N) finite-size term that the solved energies demonstrably carry "
    "(gamma ~ 4.2); over 2N in {8..16} this biases the fitted intercept by "
    "+0.18*gamma ~ 38% of E_b, so no analytic formula can match it at 5%. "
    "The bias-corrected companion test below passes on the same data at the "
    "same tolerance; see notes/decisions.md.")


@pytest.mark.xfail(strict=True, reason=CRITERION_8_XFAIL_REASON)
def test_criterion_8_surface_energy_literal_fit(finite_size_energies):
    sizes, energies, analytic, elapsed = finite_size_energies
    design = np.column_stack([sizes, np.ones_like(sizes)])
    coeffs, *_ = np.linalg.lstsq(design, energies, rcond=None)
    eb_fit = coeffs[1]
    rel = abs(eb_fit - analytic) / abs(analytic)
    ok = rel <= 0.05 and elapsed < 600.0
    _report("8 (literal two-parameter fit)", ok,
            f"fitted E_b {eb_fit:.4f} vs analytic {analytic:.4f} "
            f"({rel:.1%} vs 5%); BAE energies in {elapsed:.0f}s")
    assert elapsed < 600.0
    assert rel <= 0.05, CRITERION_8_XFAIL_REASON


def test_criterion_8_surface_energy_bias_corrected(finite_size_energies):
    sizes, energies, analytic, elapsed = finite_size_energies
    design = np.column_stack([sizes, np.ones_like(sizes), 1.0 / sizes])
    coeffs, *_ = np.linalg.lstsq(design, energies, rcond=None)
    eb_fit = coeffs[1]
    rel = abs(eb_fit - analytic) / abs(analytic)
    ok = rel <= 0.05 and elapsed < 600.0
    _report("8 (bias-corrected extrapolation)", ok,
            f"fitted E_b {eb_fit:.4f} vs analytic {analytic:.4f} "
            f"({rel:.1%} vs 5%) over the same sizes; {elapsed:.0f}s")
    assert rel <= 0.05
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 9. qualitative curve properties
# ---------------------------------------------------------------------------

def test_criterion_9_qualitative_curves():
    # (i) plain-exchange surface energy: negative, monotone increasing in |p|
    vals = np.array([
        surface_energy(ModelParams.from_q_bar(8, 0.0, float(p), 0.5, 1.2)).value
        for p in np.linspace(0.2, 3.0, 12)])
    ok_i = bool(np.all(vals < 0.0) and np.all(np.diff(vals) > 0.0))

    # (ii) free-boundary piece by the closed form and by Gauss quadrature
    pr0 = ModelParams(two_n=8, a_bar=0.0, p=1.0, q=1.0, xi=0.0)
    eb0_a = surface_energy(pr0, QuadratureSpec(method="adaptive")).components["e_b0"]
    eb0_g = surface_energy(pr0, QuadratureSpec(method="gauss")).components["e_b0"]
    ok_ii = abs(eb0_a - eb0_g) <= 1e-10

    # (iii) bulk excitation peak structure
    grid = np.linspace(-4.0, 4.0, 161)
    v0 = np.array([bulk_excitation_energy(z, ModelParams(two_n=8, a_bar=0.0,
                                                         p=1.0, q=1.0)) for z in grid])
    peaks0 = [i for i in range(1, 160) if v0[i] > v0[i - 1] and v0[i] > v0[i + 1]]
    v8 = np.array([bulk_excitation_energy(z, ModelParams(two_n=8, a_bar=0.8,
                                                         p=1.0, q=1.0)) for z in grid])
    peaks8 = [i for i in range(1, 160) if v8[i] > v8[i - 1] and v8[i] > v8[i + 1]]
    ok_iii = peaks0 == [80] and len(peaks8) == 2 and sum(peaks8) == 160

    # (iv) boundary excitation: minimum at 0 for a = 0.66i, decreasing at a = 0
    pr66 = ModelParams(two_n=8, a_bar=0.66, p=1.0, q=1.0)
    grid_b = np.linspace(0.0, 0.45, 10)
    vb = [boundary_excitation_energy(float(b), pr66) for b in grid_b]
    ok_iv = int(np.argmin(vb)) == 0
    pr00 = ModelParams(two_n=8, a_bar=0.0, p=1.0, q=1.0)
    vh = [boundary_excitation_energy(float(b), pr00) for b in grid_b[1:]]
    ok_iv = ok_iv and all(x > y for x, y in zip(vh, vh[1:]))

    ok = ok_i and ok_ii and ok_iii and ok_iv
    _report("9", ok, f"(i) negative+monotone {ok_i}; (ii) closed form and Gauss agree "
                     f"to {abs(eb0_a - eb0_g):.1e} {ok_ii}; (iii) peak structure "
                     f"{ok_iii}; (iv) boundary excitation shapes {ok_iv}")
    assert ok_i and ok_ii and ok_iii and ok_iv


# ---------------------------------------------------------------------------
# 10. reproducibility
# ---------------------------------------------------------------------------

def test_criterion_10_reproducibility(tmp_path):
    commands = [
        ["verify", "--two-n", "4", "--a-bar", "0.6", "--p", "1.0", "--q", "0.5",
         "--xi", "1.2"],
        ["ed", "--two-n", "4", "--a-bar", "0.6", "--p", "1.0", "--q", "0.5",
         "--xi", "1.2"],
        ["bae", "--two-n", "8", "--a-bar", "0.66", "--p", "1.2",
         "--q", "1.0934349546269315", "--xi", "1.2"],
        ["thermo", "--two-n", "8", "--a-bar", "0.6", "--p", "1.0", "--q", "1.1",
         "--xi", "1.2"],
        ["scan", "--quantity", "surface", "--var", "p", "--grid", "0.5:2:4",
         "--two-n", "8", "--a-bar", "0.6", "--q", "1.0", "--xi", "1.2"],
    ]
    all_ok = True
    for i, cmd in enumerate(commands):
        if cmd[0] == "ed":
            base1, base2 = tmp_path / f"r1_{i}", tmp_path / f"r2_{i}"
            assert cli_main(cmd + ["--out", str(base1)]) == 0
            assert cli_main(cmd + ["--out", str(base2)]) == 0
            for suffix in ("_spectrum.csv", "_roots_hom.json", "_roots_hom.csv"):
                b1 = (tmp_path / f"r1_{i}{suffix}").read_bytes()
                b2 = (tmp_path / f"r2_{i}{suffix}").read_bytes()
                all_ok = all_ok and b1 == b2
        else:
            out1, out2 = tmp_path / f"o1_{i}", tmp_path / f"o2_{i}"
            assert cli_main(cmd + ["--out", str(out1)]) == 0
            assert cli_main(cmd + ["--out", str(out2)]) == 0
            all_ok = all_ok and out1.read_bytes() == out2.read_bytes()
    _report("10", all_ok, "repeated runs of verify/ed/bae/thermo/scan are "
                          "byte-identical")
    assert all_ok
