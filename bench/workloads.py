"""Workload definitions: seeded op lists and the checks applied to each result.

An op is one closed-loop call into the package.  Each workload builds its
batch of ops from a seed; the runner times ``op.fn()`` and afterwards calls
``op.check(result, results)`` with the results of the whole batch keyed by
op id, so that paired ops (an adaptive and a Gauss evaluation of the same
quantity) can be compared.  A check returns a list of problems; an empty
list means the op passed.

All library calls go through module attributes (``spectrum.diagonalize``,
not a bare imported name) so that the traced run, which rebinds those
attributes, sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from competing_chain import ModelParams, bae, cli, spectrum, thermo
from competing_chain.errors import DivergenceError

WORKLOADS = ("ed_roots", "bae_scan", "thermo_sweep")

# One representative (p, q̄) per ground-state regime, at ā = 0.66, ξ = 1.2:
# the regime points of the test suite, where the 2N=8 inventory is known to
# hold.
A_BAR = 0.66
XI = 1.2
REGIME_POINTS = {
    "I": (0.1, 0.35),
    "II": (0.05, -0.25),
    "III": (1.2, 0.3),
    "IV": (1.2, -0.3),
    "V": (1.2, 0.7),
    "VI": (1.2, -0.7),
}
REGIMES = tuple(REGIME_POINTS)

ED_STATES = 8                 # lowest eigenstates whose zero roots are extracted
ED_SIZES = (8, 10)
BAE_SIZES = tuple(range(8, 30, 2))
BAE_TOL = 1e-10

# seeded boxes
INH_SPREAD_BOX = (0.04, 0.16)   # θ̄_j = s (j - N - 1/2) + jitter
INH_JITTER = 0.01
THERMO_POINTS = 270
THERMO_TOLS = (1e-10, 1e-8)
# |p| and |q̄| stay >= 0.05: closer to the divergence at p = 0 or q = 0 the
# adaptive surface-energy quadrature cannot certify its tolerance (see NOTES.md)
THERMO_BOX = {
    "a_bar": (0.0, 1.2),
    "p": (0.05, 3.0),
    "q_bar": (0.05, 3.0),       # magnitude; odd points take the negative sign
    "xi": (0.0, 2.0),
    "z_bar": (-4.0, 4.0),
    "b": (-0.45, 0.45),
}
THERMO_TWO_N = 8

# check tolerances
ED_ENERGY_TOL = 1e-9
PAIR_TOL = 1e-8
INVERSION_TOL = 1e-8
ROOT_ENERGY_TOL = 1e-8
BAE_ENERGY_TOL = 1e-8
STRING_TOL = 1e-6


@dataclass
class Op:
    id: int
    kind: str
    fn: Callable[[], Any]
    check: Callable[[Any, dict], list]


def regime_params(regime: str, two_n: int) -> ModelParams:
    p, q_bar = REGIME_POINTS[regime]
    return ModelParams.from_q_bar(two_n, A_BAR, p, q_bar, XI)


def build_ops(workload: str, seed: int, refs: dict, limit: int | None = None) -> list:
    """The seeded batch of one workload, in execution order.

    ``limit`` keeps the first ops of the unshuffled batch (for short runs).
    """
    rng = np.random.default_rng(seed)
    builders = {"ed_roots": _ed_ops, "bae_scan": _bae_ops,
                "thermo_sweep": _thermo_ops}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    ops = builders[workload](rng, refs)[:limit]
    for i, op in enumerate(ops):
        op.id = i   # ids are fixed before shuffling: paired checks refer to them
    return [ops[i] for i in rng.permutation(len(ops))]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# ed_roots: exact diagonalization, Λ(u) zero roots, the verify command
# ---------------------------------------------------------------------------

def _ed_point(params: ModelParams):
    pairs = spectrum.diagonalize(params)
    roots = [spectrum.state_zero_roots(pairs[k], params) for k in range(ED_STATES)]
    return [pair.energy for pair in pairs[:ED_STATES]], roots


def _check_roots(roots, params: ModelParams, sites) -> list:
    problems = []
    for k, r in enumerate(roots):
        if r.residual > PAIR_TOL:
            problems.append(f"state {k}: pairing residual {r.residual:.2e}")
        worst = max(spectrum.inversion_identity_check(r, params, j) for j in sites)
        if worst > INVERSION_TOL:
            problems.append(f"state {k}: inversion identity defect {worst:.2e}")
    return problems


def _ed_check(params: ModelParams, ref_energies):
    def check(result, _results):
        energies, roots = result
        problems = [f"E_{k} = {e!r}, reference {r!r}"
                    for k, (e, r) in enumerate(zip(energies, ref_energies))
                    if not _close(e, r, ED_ENERGY_TOL)]
        # homogeneous chain: every node carries the same identity
        problems += _check_roots(roots, params, sites=(1,))
        for k, (e, r) in enumerate(zip(energies, roots)):
            e_roots = bae.energy_from_roots(r, params)
            if not _close(e_roots, e, ROOT_ENERGY_TOL):
                problems.append(f"state {k}: root energy {e_roots!r} vs ED {e!r}")
        return problems
    return check


def _inhomogeneous_op(params: ModelParams):
    reference = spectrum.diagonalize(params.at_homogeneous_point())[0].state
    return spectrum.transfer_state_roots(params, reference)


def _inhomogeneous_check(params: ModelParams):
    def check(roots, _results):
        return _check_roots([roots], params, sites=range(1, params.two_n + 1))
    return check


def _verify_op(params: ModelParams):
    argv = ["verify", "--two-n", str(params.two_n), f"--a-bar={params.a_bar!r}",
            f"--p={params.p!r}", f"--q={params.q!r}", f"--xi={params.xi!r}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _verify_check(result, _results):
    code, text = result
    report = json.loads(text)
    problems = [] if code == 0 else [f"verify exit code {code}"]
    problems += [f"verify check {c['name']} failed: {c['residual']:.2e}"
                 for c in report["checks"] if not c["pass"]]
    return problems


def _ed_ops(rng, refs) -> list:
    ops = []
    # one 2N=10 point keeps the batch near 10 s, so each op repeats at least
    # three times in a run and its median is not the mean of two samples
    big = (REGIMES[int(rng.integers(len(REGIMES)))],)
    for two_n, regimes in ((8, REGIMES), (10, big)):
        for regime in regimes:
            params = regime_params(regime, two_n)
            ops.append(Op(0, f"ed_point_{two_n}",
                          lambda pr=params: _ed_point(pr),
                          _ed_check(params, refs["ed"][str(two_n)][regime])))
    inh_regime = REGIMES[int(rng.integers(len(REGIMES)))]
    hom = regime_params(inh_regime, 8)
    scale = rng.uniform(*INH_SPREAD_BOX)
    n = hom.n
    theta = [scale * (j - n - 0.5) + rng.uniform(-INH_JITTER, INH_JITTER)
             for j in range(1, hom.two_n + 1)]
    inh = hom.with_theta_bar(theta)
    ops.append(Op(0, "transfer_state_roots", lambda: _inhomogeneous_op(inh),
                  _inhomogeneous_check(inh)))
    verify_params = regime_params(REGIMES[int(rng.integers(len(REGIMES)))], 8)
    ops.append(Op(0, "cli_verify", lambda: _verify_op(verify_params), _verify_check))
    return ops


# ---------------------------------------------------------------------------
# bae_scan: regime-seeded cold start at 2N=8 continued to 2N=28
# ---------------------------------------------------------------------------

def _bae_check(regime: str, ref: dict, ed_refs: dict):
    def check(result, _results):
        sizes = [two_n for two_n, _, _ in result]
        if sizes != list(BAE_SIZES):
            return [f"scan returned sizes {sizes}"]
        problems = []
        for (two_n, energy, roots), e_ref, tag_ref in zip(
                result, ref["energies"], ref["regimes"]):
            params = regime_params(regime, two_n)
            if not _close(energy, e_ref, BAE_ENERGY_TOL):
                problems.append(f"2N={two_n}: E={energy!r}, reference {e_ref!r}")
            tag = bae.classify_pattern(roots, params).regime
            if tag != tag_ref:
                problems.append(f"2N={two_n}: regime {tag}, reference {tag_ref}")
            if roots.residual > BAE_TOL:
                problems.append(f"2N={two_n}: certified residual {roots.residual:.2e}")
            ed = ed_refs.get(str(two_n))
            if ed is not None and not _close(energy, ed[regime][0], BAE_ENERGY_TOL):
                problems.append(f"2N={two_n}: E={energy!r}, ED ground {ed[regime][0]!r}")
        return problems
    return check


def _bae_ops(rng, refs) -> list:
    ops = []
    for regime in REGIMES:
        base = regime_params(regime, BAE_SIZES[0])
        ops.append(Op(0, "ground_state_scan",
                      lambda b=base: bae.ground_state_scan(b, BAE_SIZES, tol=BAE_TOL),
                      _bae_check(regime, refs["bae"][regime], refs["ed"])))
    return ops


# ---------------------------------------------------------------------------
# thermo_sweep: single-point quadrature evaluations over seeded boxes
# ---------------------------------------------------------------------------

def _surface(params, spec):
    try:
        return thermo.surface_energy(params, spec)
    except DivergenceError:
        return "divergent"  # the in-band outcome at p = 0 or q = 0


def _agree(partner_id: int, tol: float, value=lambda r: r):
    """Check that this op matches its partner op's result within tol."""
    def check(result, results):
        other = results.get(partner_id)
        if other is None:
            return []  # the partner failed and is counted already
        a, b = value(result), value(other)
        return [] if abs(a - b) <= tol else [f"methods differ by {abs(a - b):.2e} > {tol:.0e}"]
    return check


def _surface_check(partner_id, spec, params, refs):
    tol = spec.abs_tol
    divergent = params.p == 0.0 or params.q == 0.0

    def check(result, results):
        if divergent or result == "divergent":
            return [] if divergent and result == "divergent" else [
                f"divergence flag {result == 'divergent'} at p={params.p}, q={params.q}"]
        problems = _agree(partner_id, tol, lambda r: r.value)(result, results)
        comps = result.components
        if abs(params.p) == abs(params.q_bar) and abs(comps["e_b_p"] - comps["e_b_q"]) > tol:
            problems.append(f"e_b(p) - e_b(q) = {comps['e_b_p'] - comps['e_b_q']:.2e} "
                            "at |p| = |q̄|")
        if params.a_bar == 0.0 and abs(comps["e_b0"] - refs["surface_free_a0"]) > tol:
            problems.append(f"e_b0 = {comps['e_b0']!r} at ā=0, anchor "
                            f"{refs['surface_free_a0']!r}")
        return problems
    return check


def _bulk_energy_check(partner_id, spec, params, refs):
    tol = spec.abs_tol

    def check(result, results):
        problems = _agree(partner_id, tol)(result, results)
        if params.a_bar == 0.0 and abs(result - refs["bulk_a0"]) > tol:
            problems.append(f"bulk energy {result!r} at ā=0, anchor {refs['bulk_a0']!r}")
        return problems
    return check


def _string_check(result, _results):
    return [] if abs(result) <= STRING_TOL else [
        f"n-string cancellation defect {result:.2e}"]


def _stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """One draw in each of n equal strata of [lo, hi], in random order.

    Stratifying keeps the spread of the costly small-|p|, small-|q̄| points
    the same for every seed, so seeds vary the inputs but not the work.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


def _thermo_point(index: int, box: dict, beta_frac: float):
    a_bar, p, q_bar = box["a_bar"][index], box["p"][index], box["q_bar"][index]
    if index % 2:
        q_bar = -q_bar
    if index % 10 == 0:
        a_bar = 0.0             # plain-exchange anchors
    if index % 5 == 2:
        q_bar = math.copysign(p, q_bar)   # e_b(p) = e_b(q) when |p| = |q̄|
    if index % 20 == 7:
        p = 0.0                 # divergent surface energy (ā > 0 keeps H finite)
    params = ModelParams.from_q_bar(THERMO_TWO_N, a_bar, p, q_bar, box["xi"][index])
    tol = THERMO_TOLS[index % len(THERMO_TOLS)]
    string_n = 3 + index % 3
    # β just above the boundary heights, as in the regime-II/VI inventories
    beta = min(abs(p), abs(q_bar)) + 0.2 + 0.3 * beta_frac
    return params, tol, box["z_bar"][index], box["b"][index], string_n, beta


def _thermo_point_ops(ops: list, point, anchors: dict) -> None:
    """Append the ops of one sweep point; ids are positions in ``ops``."""
    params, tol, z_bar, b, string_n, beta = point
    spec_a = thermo.QuadratureSpec(abs_tol=tol)
    spec_g = thermo.QuadratureSpec(abs_tol=tol, method="gauss")

    def rho1(k):
        return thermo.density_regime1(k, params)

    def rho2(k):
        return thermo.density_regime2(k, params, beta)

    def pair(kind, fn, make_check):
        """An adaptive op and its Gauss partner, each checked against the other."""
        ia, ig = len(ops), len(ops) + 1
        ops.append(Op(ia, kind, lambda: fn(spec_a), make_check(ig, spec_a)))
        ops.append(Op(ig, kind + "_gauss", lambda: fn(spec_g), make_check(ia, spec_g)))

    def agree(pid, spec):
        return _agree(pid, spec.abs_tol)

    pair("surface_energy", lambda s: _surface(params, s),
         lambda pid, s: _surface_check(pid, s, params, anchors))
    pair("bulk_energy_per_site", lambda s: thermo.bulk_energy_per_site(params, s),
         lambda pid, s: _bulk_energy_check(pid, s, params, anchors))
    pair("bulk_excitation_energy",
         lambda s: thermo.bulk_excitation_energy(z_bar, params, s), agree)
    pair("boundary_excitation_energy",
         lambda s: thermo.boundary_excitation_energy(b, params, s), agree)
    pair("ground_energy_density_1",
         lambda s: thermo.ground_energy_density(params, rho1, s), agree)
    pair("ground_energy_density_2",
         lambda s: thermo.ground_energy_density(params, rho2, s), agree)
    ops.append(Op(len(ops), "string_excitation_energy",
                  lambda: thermo.string_excitation_energy(string_n, z_bar, params, spec_a),
                  _string_check))


def _thermo_ops(rng, refs) -> list:
    box = {k: _stratified(rng, lo, hi, THERMO_POINTS) for k, (lo, hi) in THERMO_BOX.items()}
    beta_frac = rng.uniform(size=THERMO_POINTS)
    ops: list = []
    for index in range(THERMO_POINTS):
        _thermo_point_ops(ops, _thermo_point(index, box, beta_frac[index]), refs["thermo"])
    return ops
