import json
import os
import pathlib
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

from competing_chain import (ModelParams, boundary_excitation_energy, c2_constant,
                             diagonalize, energy_from_roots, ground_state_scan, transfer)
from competing_chain.cli import main
from competing_chain.spectrum import roots_from_json


def run(args):
    return main(args)


def test_verify_passes(tmp_path):
    out = tmp_path / "verify.json"
    code = run(["verify", "--two-n", "4", "--a-bar", "0.6", "--p", "1.0",
                "--q", "0.5", "--xi", "1.2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["all_pass"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"yang_baxter", "reflection", "dual_reflection",
            "hamiltonian_equivalence", "transfer_crossing"} <= names
    for c in doc["checks"]:
        assert c["residual"] <= c["threshold"]


def test_verify_broken_c2_fails(tmp_path, monkeypatch):
    # a sign-flipped c2 must fail the equivalence check and only it
    monkeypatch.setattr(transfer, "c2_constant", lambda pr: -c2_constant(pr))
    out = tmp_path / "verify.json"
    code = run(["verify", "--two-n", "4", "--a-bar", "0.6", "--p", "1.0",
                "--q", "0.5", "--xi", "1.2", "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    failing = {c["name"] for c in doc["checks"] if not c["pass"]}
    assert failing == {"hamiltonian_equivalence"}


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["scan", "--quantity", "nonsense", "--var", "p", "--grid", "0:1:3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["verify", "--tol-scale", "2.0"],
    ["verify", "--break-c2-sign"],
    ["thermo", "--quad-method", "gauss"],
    ["scan", "--quantity", "eb0", "--var", "a_bar", "--grid", "0:1:3",
     "--quad-method", "gauss"],
    ["thermo", "--quad-tol", "1e-9"],
    ["scan", "--quantity", "eb0", "--var", "a_bar", "--grid", "0:1:3",
     "--quad-tol", "1e-9"],
    ["bae", "--regime", "V"],
    ["bae", "--homotopy-steps", "10"],
    ["bae", "--max-iter", "50"],
], ids=["verify-tol-scale", "verify-break-c2-sign", "thermo-quad-method",
        "scan-quad-method", "thermo-quad-tol", "scan-quad-tol", "bae-regime",
        "bae-homotopy-steps", "bae-max-iter"])
def test_removed_flags_are_usage_errors(capsys, args):
    with pytest.raises(SystemExit) as exc:
        run(args + ["--two-n", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parameter_error_exit_code(tmp_path):
    # two_n above the ed cap surfaces as a parameter error, exit 2
    code = run(["ed", "--two-n", "14", "--out", str(tmp_path / "x")])
    assert code == 2


def test_ed_outputs(tmp_path):
    base = tmp_path / "run"
    code = run(["ed", "--two-n", "4", "--a-bar", "0.6", "--p", "1.0",
                "--q", "0.5", "--xi", "1.2",
                "--theta=0.1,-0.1,0.2,-0.2", "--out", str(base)])
    assert code == 0
    spectrum = (tmp_path / "run_spectrum.csv").read_text().strip().splitlines()
    assert spectrum[0] == "index,energy"
    assert len(spectrum) == 17
    hom = json.loads((tmp_path / "run_roots_hom.json").read_text())
    assert hom["two_n"] == 4 and len(hom["roots"]) == 5
    inh = json.loads((tmp_path / "run_roots_inh.json").read_text())
    assert inh["params"]["theta_bar"] == [0.1, -0.1, 0.2, -0.2]


def test_ed_states_writes_one_root_file_per_excited_state(tmp_path):
    base = tmp_path / "run"
    code = run(["ed", "--two-n", "4", "--a-bar", "0.6", "--p", "1.0",
                "--q", "0.5", "--xi", "1.2", "--states", "3", "--out", str(base)])
    assert code == 0
    written = sorted(p.name for p in tmp_path.glob("run_roots_hom*.json"))
    assert written == ["run_roots_hom.json", "run_roots_hom_state1.json",
                       "run_roots_hom_state2.json"]
    energies = [float(line.split(",")[1]) for line in
                (tmp_path / "run_spectrum.csv").read_text().splitlines()[1:]]
    for k in (1, 2):
        roots, params = roots_from_json((tmp_path / f"run_roots_hom_state{k}.json").read_text())
        assert abs(energy_from_roots(roots, params) - energies[k]) <= 1e-8


def test_ed_empty_theta_defaults_to_zero(tmp_path):
    base = tmp_path / "run"
    code = run(["ed", "--two-n", "4", "--a-bar", "0.6", "--p", "1.0",
                "--q", "0.5", "--xi", "1.2", "--out", str(base)])
    assert code == 0
    assert not (tmp_path / "run_roots_inh.json").exists()


def test_bae_and_classify(tmp_path):
    roots = tmp_path / "roots.json"
    code = run(["bae", "--two-n", "8", "--a-bar", "0.66", "--p", "1.2",
                "--q", "1.0934349546269315", "--xi", "1.2", "--out", str(roots)])
    assert code == 0
    doc = json.loads(roots.read_text())
    assert doc["regime"] == "V"
    assert doc["residual"] <= 1e-10
    cls = tmp_path / "cls.json"
    assert run(["classify", "--roots", str(roots), "--out", str(cls)]) == 0
    cdoc = json.loads(cls.read_text())
    assert cdoc["regime"] == "V"
    assert len(cdoc["pairs_n2"]) == 8


def test_bae_solves_at_parameter_defaults(tmp_path):
    # ā=0, p=q=1, ξ=0
    roots = tmp_path / "roots.json"
    assert run(["bae", "--two-n", "8", "--out", str(roots)]) == 0
    doc = json.loads(roots.read_text())
    assert doc["regime"] == "V"
    assert doc["residual"] <= 1e-10
    assert abs(doc["energy"] - diagonalize(ModelParams(two_n=8))[0].energy) <= 1e-8


BAE_REGIME_II_AT_ZERO_A_BAR_XFAIL_REASON = (
    "known solver defect: at a_bar=0, p=0.05, q=-0.25, xi=0, where the ED ground "
    "state carries the regime-II inventory, `competing-chain bae --two-n 8` exits 1 "
    "with \"size continuation failed at 2N=8 (ED ground-state seed): direct solve "
    "failed: line search stalled at residual 1.455e-09\"")


@pytest.mark.xfail(strict=True, reason=BAE_REGIME_II_AT_ZERO_A_BAR_XFAIL_REASON)
def test_bae_solves_regime_ii_at_zero_a_bar(tmp_path):
    roots = tmp_path / "roots.json"
    assert run(["bae", "--two-n", "8", "--p", "0.05", "--q", "-0.25",
                "--out", str(roots)]) == 0
    doc = json.loads(roots.read_text())
    assert doc["regime"] == "II"
    gs = diagonalize(ModelParams(two_n=8, p=0.05, q=-0.25))[0]
    assert abs(doc["energy"] - gs.energy) <= 1e-8


def test_bae_reaches_the_ed_ground_state_in_regime_iii(tmp_path):
    # the ED ground state carries the regime-III inventory, and so does an
    # excited state at -15.867963969080519
    roots = tmp_path / "roots.json"
    assert run(["bae", "--two-n", "8", "--a-bar", "0.3231522811642001",
                "--p", "1.0840470232578954", "--q", "0.2559993797508324",
                "--xi", "0.40153790832243863", "--out", str(roots)]) == 0
    doc = json.loads(roots.read_text())
    assert doc["regime"] == "III"
    assert abs(doc["energy"] - (-16.343255643477967)) <= 1e-8


README_BAE_POINT = ["--a-bar", "0.66", "--p", "1.2", "--q", "1.09343", "--xi", "1.2"]


def test_bae_continues_in_size_past_the_ed_seed(tmp_path):
    roots = tmp_path / "roots.json"
    assert run(["bae", "--two-n", "16", *README_BAE_POINT, "--out", str(roots)]) == 0
    [(_, energy, _)] = ground_state_scan(
        ModelParams(two_n=16, a_bar=0.66, p=1.2, q=1.09343, xi=1.2), [16])
    assert json.loads(roots.read_text())["energy"] == energy


def test_bae_theta_ramp_reaches_the_ed_transfer_eigenstate(tmp_path):
    flags = ["--two-n", "4", *README_BAE_POINT, "--theta=0.1,-0.1,0.2,-0.2"]
    assert run(["bae", *flags, "--out", str(tmp_path / "roots.json")]) == 0
    assert run(["ed", *flags, "--out", str(tmp_path / "run")]) == 0
    solved, params = roots_from_json((tmp_path / "roots.json").read_text())
    ed_roots, ed_params = roots_from_json((tmp_path / "run_roots_inh.json").read_text())
    assert params == ed_params and not params.homogeneous()
    assert np.max(np.abs(np.array(solved.z) - np.array(ed_roots.z))) <= 1e-12


def test_thermo_json(tmp_path):
    out = tmp_path / "thermo.json"
    code = run(["thermo", "--two-n", "8", "--a-bar", "0.6", "--p", "1.0",
                "--q", "1.2496799588882023", "--xi", "1.2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"params", "value", "components", "est_error"}
    assert set(doc["components"]) == {"e_b_p", "e_b_q", "e_b0"}
    # the closed form's rounding bound
    assert 0.0 < doc["est_error"] <= 1e-12 * max(1.0, abs(doc["value"]))


def test_scan_rectangular_with_divergence_marker(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(["scan", "--quantity", "surface", "--var", "p",
                "--grid=-1:1:5", "--two-n", "8", "--a-bar", "0.6",
                "--q", "1.0", "--xi", "1.2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,E_b,e_b_p,e_b_q,e_b0,est_error,status"
    assert len(lines) == 6
    rows = [l.split(",") for l in lines[1:]]
    markers = [r[-1] for r in rows]
    assert markers == ["ok", "ok", "divergent", "ok", "ok"]  # p = 0 row flagged
    assert all(len(r) == 7 for r in rows)


@pytest.mark.parametrize("args", [
    ["--quantity", "bulk_excitation", "--var", "z_bar", "--grid=-3:3:7"],
    ["--quantity", "boundary_excitation", "--var", "p", "--grid=-0.4:0.4:5"],
], ids=["bulk_excitation", "boundary_excitation"])
def test_scan_excitation_reports_error_estimate(tmp_path, args):
    rows = _scan_error_estimates(tmp_path, args, "0.66")
    assert all(0.0 < e <= 1e-12 * max(1.0, abs(v)) for v, e in rows)
    assert len({e for _, e in rows}) > 1  # a bound per row, not a constant


@pytest.mark.parametrize("args", [
    ["--quantity", "bulk_excitation", "--var", "z_bar", "--grid=-3:3:7"],
    ["--quantity", "boundary_excitation", "--var", "p", "--grid=-0.22:0.22:5"],
], ids=["bulk_excitation", "boundary_excitation"])
def test_scan_excitation_estimate_within_tolerance_at_large_a_bar(tmp_path, args):
    # the prefactor 0.5(1+4ā²) = 3.38 scales the bound along with the value
    assert all(0.0 < e <= 1e-12 * max(1.0, abs(v))
               for v, e in _scan_error_estimates(tmp_path, args, "1.2"))


def test_scan_boundary_excitation_over_q_takes_q_bar(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["scan", "--quantity", "boundary_excitation", "--var", "q",
                "--grid=-0.7:0.7:5", "--two-n", "8", "--a-bar", "0.66",
                "--xi", "1.2", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 5
    for row in rows:
        params = ModelParams(two_n=8, a_bar=0.66, q=float(row[0]), xi=1.2)
        assert row[-1] == "ok"
        assert float(row[1]) == boundary_excitation_energy(params.q_bar, params)


def _scan_error_estimates(tmp_path, args, a_bar):
    """(value, est_error) of every row of an excitation scan."""
    out = tmp_path / "scan.csv"
    assert run(["scan"] + args + ["--two-n", "8", "--a-bar", a_bar, "--q", "1.0",
                                  "--xi", "1.2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[-2:] == ["est_error", "status"]
    rows = [line.split(",") for line in lines[1:]]
    assert [r[-1] for r in rows] == ["ok"] * len(rows)
    return [(float(r[1]), float(r[-2])) for r in rows]


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("two_n = 4\na_bar = 0.6\np = 1.0\nq = 0.5\nxi = 1.2\n"
                   "theta_bar = 0.0,0.0,0.0,0.0\n")
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["thermo", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["thermo", "--config", str(cfg), "--p", "2.0", "--out", str(out2)]) == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert d1["params"]["p"] == 1.0
    assert d2["params"]["p"] == 2.0
    assert d1["value"] != d2["value"]


def test_config_with_two_n_only_matches_flag_defaults(tmp_path):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("two_n = 6\n")
    out1 = tmp_path / "config.json"
    out2 = tmp_path / "flags.json"
    assert run(["thermo", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["thermo", "--two-n", "6", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("args", [
    ["verify", "--two-n", "4", "--a-bar", "0.6", "--p", "1.0", "--q", "0.5",
     "--xi", "1.2"],
    ["thermo", "--two-n", "8", "--a-bar", "0.6", "--p", "1.0", "--q", "1.1",
     "--xi", "1.2"],
    ["scan", "--quantity", "eb0", "--var", "a_bar", "--grid", "0:0.8:4",
     "--two-n", "8"],
    ["bae", "--two-n", "8", "--a-bar", "0.66", "--p", "1.2",
     "--q", "1.0934349546269315", "--xi", "1.2"],
])
def test_reproducibility_byte_identical(tmp_path, args):
    out1 = tmp_path / "one.out"
    out2 = tmp_path / "two.out"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The competing-chain command lines of README's Command line section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = [part.split("```", 1)[0] for part in section.split("```sh\n")[1:]]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("competing-chain ")]


def test_readme_command_line_examples(tmp_path, monkeypatch):
    # in README order and one directory: classify reads the file bae writes
    commands = readme_commands()
    assert commands
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert run(shlex.split(command)[1:]) == 0, command


@pytest.mark.skipif(shutil.which("competing-chain") is None,
                    reason="package not installed, so no console script")
def test_console_script_entry_point():
    done = subprocess.run(["competing-chain", "--help"], capture_output=True, text=True)
    assert done.returncode == 0
    assert "verify" in done.stdout


def test_the_package_never_loads_scipy_integrate():
    # the closed forms and the hard-coded Gauss–Kronrod rule need no
    # scipy.integrate: importing the package, running verify, thermo and
    # every scan, then one adaptive ground_energy_density and one
    # half_line_integral call never load it
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import numpy as np\n"
        "import competing_chain as cc\n"
        "from competing_chain import cli\n"
        "loaded = ['scipy.integrate' in sys.modules]\n"
        "commands = [['verify', '--two-n', '4', '--a-bar', '0.6'], ['thermo']]\n"
        "commands += [['scan', '--quantity', q, '--var', 'p', '--grid', '0.1:0.3:2']\n"
        "             for q in cli.SCAN_QUANTITIES]\n"
        "codes = []\n"
        "for args in commands:\n"
        "    codes.append(cli.main(args + ['--out', sys.argv[1]]))\n"
        "    loaded.append('scipy.integrate' in sys.modules)\n"
        "pr = cc.ModelParams.from_q_bar(8, 0.66, 1.2, 0.7, 1.2)\n"
        "cc.ground_energy_density(pr, lambda k: cc.density_regime1(k, pr))\n"
        "loaded.append('scipy.integrate' in sys.modules)\n"
        "cc.half_line_integral(lambda k: np.exp(-k) * np.cos(k), decay=1.0)\n"
        "loaded.append('scipy.integrate' in sys.modules)\n"
        "print(codes, loaded, sep='\\n')\n")
    done = subprocess.run([sys.executable, "-c", script, os.devnull],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    codes, loaded = done.stdout.splitlines()[:2]
    assert codes == str([0] * 6)
    assert loaded == str([False] * 9)
