"""How far the ground-state size continuation reaches before it fails.

Prints two measurements of ``ground_state_scan``:

* the first failing 2N, walking up to MAX_TWO_N = 160, at the six regime
  points of ``tests/conftest.py`` (ā=0.66, ξ=1.2), with the wall time of
  each scan and the failure it raised;
* how many of 72 seeded box points reach 2N = TARGET_TWO_N = 48:
  12 per regime box, drawn by ``tests/conftest.py::box_points`` with numpy
  seed 2026, p and q̄ at least 0.05 inside the box, the open sides closed
  at ±1.5, ā ∈ [0.2, 1.2] and ξ ∈ [0.2, 2].

    python3 tools/scan_ceilings.py

The last line of standard output is the same result as JSON.  Takes a few
minutes on one core; it is a measurement, not a test.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from competing_chain import ModelParams, ground_state_scan  # noqa: E402
from competing_chain.errors import SolverError  # noqa: E402
from conftest import REGIME_POINTS, box_points  # noqa: E402

MAX_TWO_N = 160
TARGET_TWO_N = 48


def first_failure(params: ModelParams, max_two_n: int):
    """(first failing 2N or None, seconds, failure message or "") of one scan."""
    start = time.perf_counter()
    try:
        ground_state_scan(params, [params.two_n, max_two_n])
    except SolverError as exc:
        size = int(re.search(r"2N=(\d+)", str(exc)).group(1))
        return size, time.perf_counter() - start, str(exc).split(": ", 1)[-1]
    return None, time.perf_counter() - start, ""


def main() -> int:
    ceilings = {}
    print(f"first failing 2N up to {MAX_TWO_N} (ā=0.66, ξ=1.2)")
    for regime, (p, q_bar) in REGIME_POINTS.items():
        size, seconds, why = first_failure(
            ModelParams.from_q_bar(8, 0.66, p, q_bar, 1.2), MAX_TWO_N)
        shown = f">{MAX_TWO_N}" if size is None else str(size)
        ceilings[regime] = shown
        print(f"  {regime:>3}  {shown:>5}  {seconds:6.2f} s  {why}")

    reached = {}
    points = box_points(12, close=1.5)
    for regime, a_bar, p, q_bar, xi in points:
        size, _, _ = first_failure(ModelParams.from_q_bar(8, a_bar, p, q_bar, xi),
                                   TARGET_TWO_N)
        reached[regime] = reached.get(regime, 0) + (size is None)
    total = sum(reached.values())
    per_box = ", ".join(str(n) for n in reached.values())
    print(f"box points reaching 2N={TARGET_TWO_N}: {total} of {len(points)} "
          f"(per box I-VI: {per_box})")
    print(json.dumps({"first_failing_two_n": ceilings, "max_two_n": MAX_TWO_N,
                      "reach_target": {"two_n": TARGET_TWO_N, "count": total,
                                       "per_box": reached}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
