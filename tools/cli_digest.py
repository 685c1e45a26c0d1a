"""SHA-256 digests of the files the command-line examples write.

Runs README's command-line examples (the list that
``tests/test_cli.py::readme_commands`` parses, in README order and in one
directory, so ``classify`` reads the file ``bae`` writes) and then
``ed --two-n 10 --states 8``, ``ed --two-n 4 --states 16 --out
degenerate`` (the default parameters, whose spectrum has three degenerate
pairs; its own file prefix keeps the 2N=10 files), ``verify --two-n 8``
at ā=0.66, p=1.2, q=1.09343, ξ=1.2 (the size the benchmark verifies, so
the 2N=8 dense t(u) and t'(u) residuals are recorded), an ``eb0`` scan
over ā (a scan quantity no README example writes) and ``ed --two-n 10``
at the same point with ten inhomogeneities ``--out inh10`` (the
inhomogeneous t(u*) eigenstate at 2N=10), then ``bae --two-n 16`` (size
continuation past the 2N=8 ED seed) and ``bae --two-n 4 --theta=...`` (the
θ̄ ramp) at the same point, ``bae --two-n 8`` at q=0.46861 (q̄=0.3, regime
III, whose solver coordinates carry a boundary pair, the imaginary pair β
and the real pair α), and ``ed --two-n 10 --states 40 --out ed40`` (states
past the first LEADING_BLOCK of 32, which the 2N=10 eigensolve
back-transforms in a second block), all inside a temporary directory.
Each command's standard output and standard error are saved beside the
files it writes.  Prints one ``sha256  file`` line per file, sorted by
name, so two trees that compute the same numbers print the same list.

    python3 tools/cli_digest.py

Exit status 1 if any command exits non-zero (its line is reported on
standard error); the digests are printed either way.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXTRA_COMMANDS = ["competing-chain ed --two-n 10 --states 8",
                  "competing-chain ed --two-n 4 --states 16 --out degenerate",
                  "competing-chain verify --two-n 8 --a-bar 0.66 --p 1.2 --q 1.09343 --xi 1.2",
                  "competing-chain scan --quantity eb0 --var a_bar --grid=0:1.2:7 --two-n 8",
                  "competing-chain ed --two-n 10 --a-bar 0.66 --p 1.2 --q 1.09343 --xi 1.2 "
                  "--theta=-0.45,-0.35,-0.25,-0.15,-0.05,0.05,0.15,0.25,0.35,0.45 --out inh10",
                  "competing-chain bae --two-n 16 --a-bar 0.66 --p 1.2 --q 1.09343 --xi 1.2 "
                  "--out bae16.json",
                  "competing-chain bae --two-n 4 --a-bar 0.66 --p 1.2 --q 1.09343 --xi 1.2 "
                  "--theta=0.1,-0.1,0.2,-0.2 --out bae_inh4.json",
                  "competing-chain bae --two-n 8 --a-bar 0.66 --p 1.2 --q 0.46861 --xi 1.2 "
                  "--out bae_iii.json",
                  "competing-chain ed --two-n 10 --states 40 --out ed40"]


def _readme_commands() -> list:
    spec = importlib.util.spec_from_file_location("test_cli", ROOT / "tests" / "test_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.readme_commands()


def _run(command: str, index: int, cli_main) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(shlex.split(command)[1:])
    Path(f"cmd{index:02d}.stdout").write_text(out.getvalue(), encoding="utf-8")
    Path(f"cmd{index:02d}.stderr").write_text(err.getvalue(), encoding="utf-8")
    return code


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from competing_chain.cli import main as cli_main

    commands = _readme_commands() + EXTRA_COMMANDS
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for index, command in enumerate(commands):
                code = _run(command, index, cli_main)
                if code != 0:
                    failed += 1
                    sys.stderr.write(f"exit {code}: {command}\n")
            for path in sorted(Path(tmp).iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                sys.stdout.write(f"{digest}  {path.name}\n")
        finally:
            os.chdir(cwd)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
