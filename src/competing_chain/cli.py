"""Command-line front end: verification suites, ED runs, solves, scans.

Commands
--------
verify    residual checks of the algebraic identities and the two
          Hamiltonian constructions; JSON report; exit 1 on any failure
ed        exact diagonalization: spectrum CSV plus ground-state zero-root
          JSON/CSV (homogeneous, and inhomogeneous when θ̄ is supplied)
bae       ground-state zero roots: the ED ground state at min(2N, 8),
          continued in size, then ramped to θ̄ when θ̄ is supplied
classify  structural classification of a stored root set
thermo    surface-energy decomposition at one parameter point
scan      parameter sweeps of the thermodynamic formulas (CSV)

All numeric output is written with 17 significant digits and fixed row
ordering, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import algebra, bae, spectrum, thermo
from .errors import CompetingChainError, ParameterError
from .hamiltonian import hamiltonian_direct
from .params import ModelParams, config_values
from .transfer import (hamiltonian_from_transfer, transfer_commutator_residual,
                       crossing_residual, transfer_identity_residual)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
VERIFY_SAMPLES = 100      # random spectral points per algebraic identity


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _build_params(args) -> ModelParams:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            fields = config_values(fh.read())
    else:
        fields = {"two_n": 8}
    fields.update((key, getattr(args, key)) for key in ("two_n", "a_bar", "p", "q", "xi")
                  if getattr(args, key) is not None)
    theta = _parse_theta(args.theta)
    if theta is not None:
        fields["theta_bar"] = theta
    return ModelParams(**fields)


def _parse_theta(text):
    if text is None or text == "":
        return None
    return tuple(float(v) for v in text.split(","))


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _identity_samples():
    """verify's seeded samples, drawn one point at a time in a fixed order.

    Returns the Yang–Baxter points (u1, u2, u3), the reflection points
    (λ, u) and the boundary parameters (p, q, ξ), each as rows of
    VERIFY_SAMPLES values.
    """
    rng = np.random.default_rng(20240801)
    yb = [rng.uniform(-5, 5, 3) + 1j * rng.uniform(-5, 5, 3) for _ in range(VERIFY_SAMPLES)]
    spectral, boundary = [], []
    for _ in range(VERIFY_SAMPLES):
        # moderate spectral points keep the absolute max-norm thresholds
        # meaningful (entries grow like the fourth power of the arguments)
        spectral.append(rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(-1.5, 1.5, 2))
        boundary.append(rng.uniform(-3, 3, 3))
    return np.array(yb).T, np.array(spectral).T, np.array(boundary).T


def _verify_checks(params: ModelParams):
    checks = []

    def add(name, residual, threshold):
        checks.append({
            "name": name,
            "residual": float(residual),
            "threshold": float(threshold),
            "pass": bool(residual <= threshold),
        })

    yb, (lam, u), (pb, qb, xib) = _identity_samples()
    add("yang_baxter", np.max(algebra.yang_baxter_residual(*yb)), 1e-12)
    add("reflection", np.max(algebra.reflection_residual(lam, u, p=pb)), 1e-12)
    add("dual_reflection", np.max(algebra.reflection_residual(lam, u, dual=True, q=qb, xi=xib)),
        1e-12)

    h = hamiltonian_direct(params)
    add("hamiltonian_hermitian", algebra.max_norm(h - h.conj().T), 1e-12)
    ht = hamiltonian_from_transfer(params.at_homogeneous_point())
    add("hamiltonian_equivalence", algebra.max_norm(h - ht), 1e-9)

    u1, u2 = 0.31, -0.77
    add("transfer_commutativity", transfer_commutator_residual(u1, u2, params), 1e-10)
    add("transfer_crossing", crossing_residual(0.123, params), 1e-10)

    # nodes with equal θ̄_j carry the same equation: one site per value
    sites = dict(zip(params.theta_bar, range(1, params.two_n + 1))).values()
    worst_id = max(transfer_identity_residual(j, params) for j in sites)
    add("transfer_fusion_identity", worst_id, 1e-8)

    return checks


def cmd_verify(args) -> int:
    params = _build_params(args)
    if params.two_n > 8:
        raise ParameterError("verify is limited to two_n <= 8 (operator identities)")
    checks = _verify_checks(params)
    report = {
        "params": params.to_dict(),
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK if report["all_pass"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# ed
# ---------------------------------------------------------------------------

def cmd_ed(args) -> int:
    params = _build_params(args)
    if params.two_n > 12:
        raise ParameterError("ed is limited to two_n <= 12")
    hom = params.at_homogeneous_point()
    pairs = spectrum.diagonalize(hom)
    lines = ["index,energy"]
    for i, pair in enumerate(pairs):
        lines.append(f"{i},{_fmt(pair.energy)}")
    base = args.out or "ed"
    _emit("\n".join(lines) + "\n", base + "_spectrum.csv")

    gs_roots = spectrum.state_zero_roots(pairs[0], hom)
    _emit(spectrum.roots_to_json(gs_roots, hom) + "\n", base + "_roots_hom.json")
    _emit(spectrum.roots_to_csv(gs_roots), base + "_roots_hom.csv")
    written = [base + "_spectrum.csv", base + "_roots_hom.json", base + "_roots_hom.csv"]

    for k in range(1, min(args.states, len(pairs))):
        roots_k = spectrum.state_zero_roots(pairs[k], hom)
        path = f"{base}_roots_hom_state{k}.json"
        _emit(spectrum.roots_to_json(roots_k, hom) + "\n", path)
        written.append(path)

    if not params.homogeneous():
        inh_roots = spectrum.transfer_state_roots(params, pairs[0].state)
        _emit(spectrum.roots_to_json(inh_roots, params) + "\n", base + "_roots_inh.json")
        _emit(spectrum.roots_to_csv(inh_roots), base + "_roots_inh.csv")
        written += [base + "_roots_inh.json", base + "_roots_inh.csv"]
    sys.stdout.write("\n".join(written) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bae / classify
# ---------------------------------------------------------------------------

def cmd_bae(args) -> int:
    params = _build_params(args)
    [(_, _, sol)] = bae.ground_state_scan(params.at_homogeneous_point(), [params.two_n],
                                          tol=args.tol)
    if not params.homogeneous():
        target = np.asarray(params.theta_bar)
        for k in range(1, bae.HOMOTOPY_STEPS + 1):
            sol = bae.solve_bae(sol, params.with_theta_bar(target * k / bae.HOMOTOPY_STEPS),
                                homotopy=None, tol=args.tol)
    pattern = bae.classify_pattern(sol, params)
    doc = json.loads(spectrum.roots_to_json(sol, params))
    doc["regime"] = pattern.regime
    if params.homogeneous():
        doc["energy"] = bae.energy_from_roots(sol, params)
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    with open(args.roots, "r", encoding="utf-8") as fh:
        roots, params = spectrum.roots_from_json(fh.read())
    pattern = bae.classify_pattern(roots, params)
    doc = {
        "regime": pattern.regime,
        "pairs_n2": [float(c) for c in pattern.pairs_n2],
        "boundary_pairs": [[tag, float(b)] for tag, b in pattern.boundary_pairs],
        "real_pair": pattern.real_pair,
        "imaginary_pair": pattern.imaginary_pair,
        "extra_strings": [[int(n), float(c)] for n, c in pattern.extra_strings],
        "boundary_strings": [float(b) for b in pattern.boundary_strings],
        "extra_real": [float(v) for v in pattern.extra_real],
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# thermo / scan
# ---------------------------------------------------------------------------

def cmd_thermo(args) -> int:
    params = _build_params(args)
    result = thermo.surface_energy(params)
    doc = {"params": params.to_dict()}
    doc.update(result.to_dict())
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


_SCAN_HEADERS = {
    "surface": ["E_b", "e_b_p", "e_b_q", "e_b0", "est_error"],
    "eb0": ["e_b0", "est_error"],
    "bulk_excitation": ["delta_e1", "est_error"],
    "boundary_excitation": ["delta_ep", "est_error"],
}
SCAN_QUANTITIES = tuple(_SCAN_HEADERS)
SCAN_VARIABLES = ("p", "q", "xi", "a_bar", "z_bar")


def _scan_row(quantity, var, value, params):
    if var != "z_bar":
        pr = ModelParams.from_dict({**params.to_dict(), var: value})
    else:
        pr = params
    try:
        if quantity == "surface":
            res = thermo.surface_energy(pr)
            return ([res.value, res.components["e_b_p"], res.components["e_b_q"],
                     res.components["e_b0"], res.est_error], "ok")
        if quantity == "eb0":
            res = thermo.surface_energy(
                ModelParams(two_n=pr.two_n, a_bar=pr.a_bar, p=1.0, q=1.0, xi=0.0))
            return ([res.components["e_b0"], res.est_error], "ok")
        if quantity == "bulk_excitation":
            z_bar = value if var == "z_bar" else 0.0
            return (list(thermo._bulk_excitation(z_bar, pr)), "ok")
        b = pr.q_bar if var == "q" else pr.p
        return (list(thermo._boundary_excitation(b, pr)), "ok")
    except CompetingChainError:
        return (None, "divergent")


def cmd_scan(args) -> int:
    params = _build_params(args)
    try:
        lo, hi, num = args.grid.split(":")
        grid = np.linspace(float(lo), float(hi), int(num))
    except ValueError as exc:
        raise ParameterError(f"malformed grid spec {args.grid!r}") from exc
    ncols = len(_SCAN_HEADERS[args.quantity])
    lines = [",".join([args.var] + _SCAN_HEADERS[args.quantity] + ["status"])]
    for value in grid:
        row, status = _scan_row(args.quantity, args.var, float(value), params)
        if row is None:
            row = [float("nan")] * ncols
        lines.append(",".join([_fmt(float(value))] + [_fmt(v) for v in row] + [status]))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value parameter file")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--two-n", dest="two_n", type=int)
    parser.add_argument("--a-bar", dest="a_bar", type=float)
    parser.add_argument("--p", type=float)
    parser.add_argument("--q", type=float)
    parser.add_argument("--xi", type=float)
    parser.add_argument("--theta", help="comma separated theta_bar values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="competing-chain",
        description="competing spin chain: integrability checks, zero-root "
                    "solves and thermodynamic-limit quantities")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the residual check suite")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_ed = sub.add_parser("ed", help="exact diagonalization and root extraction")
    _add_common(p_ed)
    p_ed.add_argument("--states", type=int, default=1,
                      help="emit zero-root files for the lowest k eigenstates")
    p_ed.set_defaults(func=cmd_ed)

    p_bae = sub.add_parser("bae", help="solve the zero-root equations")
    _add_common(p_bae)
    p_bae.add_argument("--tol", type=float, default=1e-10)
    p_bae.set_defaults(func=cmd_bae)

    p_cls = sub.add_parser("classify", help="classify a stored root set")
    p_cls.add_argument("--roots", required=True, help="root-set JSON file")
    p_cls.add_argument("--out")
    p_cls.set_defaults(func=cmd_classify)

    p_th = sub.add_parser("thermo", help="surface-energy decomposition")
    _add_common(p_th)
    p_th.set_defaults(func=cmd_thermo)

    p_scan = sub.add_parser("scan", help="sweep a thermodynamic quantity")
    _add_common(p_scan)
    p_scan.add_argument("--quantity", required=True, choices=SCAN_QUANTITIES)
    p_scan.add_argument("--var", required=True, choices=SCAN_VARIABLES)
    p_scan.add_argument("--grid", required=True, help="start:stop:num")
    p_scan.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        sys.stderr.write(f"parameter error: {exc}\n")
        return EXIT_USAGE
    except CompetingChainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
