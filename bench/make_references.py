"""Regenerate bench/references.json from the package as it stands.

Usage (from the repository root):

    python3 bench/make_references.py

The references pin the results of one commit so that a later change which
alters them shows up as failed ops in the benchmark:

* ed: the 8 lowest energies from ``spectrum.diagonalize`` at 2N=8 and
  2N=10 for each regime point.  At 2N=8 they are cross-checked against the
  eigenvalues of the independently built ``hamiltonian_from_transfer``.
* bae: ``ground_state_scan`` energies and ``classify_pattern`` regime tags
  at every 2N from 8 to 28, per regime point.  The 2N=8 and 2N=10 energies
  are cross-checked against the ED ground energies.
* thermo: the plain-exchange (ā=0) anchors 1 - 4 ln 2 (bulk energy per
  site) and π - 1 - 2 ln 2 (free-boundary surface energy), in closed form.

Regenerate only when a change is meant to alter these results, and say so
in the change.
"""

from __future__ import annotations

import datetime
import json
import math
import platform
import subprocess
import sys
from run import BENCH_DIR, ROOT, SRC, cap_threads

cap_threads()
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from competing_chain import bae, spectrum, transfer  # noqa: E402
from workloads import (BAE_SIZES, BAE_TOL, ED_SIZES, ED_STATES, REGIMES,  # noqa: E402
                       regime_params)

CROSS_CHECK_TOL = 1e-9


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def ed_references() -> dict:
    out = {}
    for two_n in ED_SIZES:
        out[str(two_n)] = {}
        for regime in REGIMES:
            params = regime_params(regime, two_n)
            energies = [pair.energy for pair in spectrum.diagonalize(params)[:ED_STATES]]
            if two_n == 8:
                other = np.linalg.eigvalsh(transfer.hamiltonian_from_transfer(params))
                dev = float(np.max(np.abs(other[:ED_STATES] - energies)))
                if dev > CROSS_CHECK_TOL:
                    raise SystemExit(f"ED cross-check failed at {regime}: {dev:.2e}")
            out[str(two_n)][regime] = energies
            print(f"ed 2N={two_n} {regime}: E0={energies[0]!r}", flush=True)
    return out


def bae_references(ed: dict) -> dict:
    out = {}
    for regime in REGIMES:
        scan = bae.ground_state_scan(regime_params(regime, BAE_SIZES[0]), BAE_SIZES,
                                     tol=BAE_TOL)
        energies, tags = [], []
        for two_n, energy, roots in scan:
            energies.append(energy)
            tags.append(bae.classify_pattern(roots, regime_params(regime, two_n)).regime)
            e_ed = ed.get(str(two_n), {}).get(regime, [None])[0]
            if e_ed is not None and abs(energy - e_ed) > 1e-8:
                raise SystemExit(f"BAE/ED mismatch at {regime} 2N={two_n}")
        out[regime] = {"sizes": list(BAE_SIZES), "energies": energies, "regimes": tags}
        print(f"bae {regime}: E(28)={energies[-1]!r} tags={sorted(set(tags))}", flush=True)
    return out


def main() -> int:
    ed = ed_references()
    doc = {
        "provenance": {
            "generated_by": "python3 bench/make_references.py",
            "commit": _commit(),
            "date": datetime.date.today().isoformat(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "ed": "spectrum.diagonalize, 8 lowest energies; 2N=8 cross-checked "
                  f"against eigvalsh(hamiltonian_from_transfer) to {CROSS_CHECK_TOL:g}",
            "bae": "ground_state_scan(regime point at 2N=8, sizes 8..28, tol 1e-10); "
                   "tags from classify_pattern; 2N=8,10 checked against ED at 1e-8",
            "thermo": "closed-form plain-exchange anchors",
        },
        "ed": ed,
        "bae": bae_references(ed),
        "thermo": {
            "bulk_a0": 1.0 - 4.0 * math.log(2.0),
            "surface_free_a0": math.pi - 1.0 - 2.0 * math.log(2.0),
        },
    }
    path = BENCH_DIR / "references.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
