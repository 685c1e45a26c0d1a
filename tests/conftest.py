import numpy as np
import pytest

from competing_chain import ModelParams


@pytest.fixture(scope="session")
def params_small():
    """Generic admissible parameters at the smallest bulk size."""
    return ModelParams(two_n=4, a_bar=0.6, p=1.0, q=0.5, xi=1.2)


@pytest.fixture(scope="session")
def params_fig4():
    """Chain at the reference point a=0.66i, p=1.2, q-bar=0.7, xi=1.2."""
    return ModelParams.from_q_bar(8, 0.66, 1.2, 0.7, 1.2)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240810)


# one representative parameter point per ground-state regime at 2N=8;
# chosen deep enough in each box that the asymptotic inventory is already
# realized at this size (boundary pairs separate, no hybridized quadruples)
REGIME_POINTS = {
    "I": (0.1, 0.35),
    "II": (0.05, -0.25),
    "III": (1.2, 0.3),
    "IV": (1.2, -0.3),
    "V": (1.2, 0.7),
    "VI": (1.2, -0.7),
}


@pytest.fixture(scope="session")
def regime_points():
    return dict(REGIME_POINTS)


# (p, q̄) rectangles of the six regime boxes; the open sides of III-VI are
# closed at ±2
REGIME_BOXES = {"I": ((0.0, 0.5), (0.0, 0.5)), "II": ((0.0, 0.5), (-0.5, 0.0)),
                "III": ((0.5, 2.0), (0.0, 0.5)), "IV": ((0.5, 2.0), (-0.5, 0.0)),
                "V": ((0.5, 2.0), (0.5, 2.0)), "VI": ((0.5, 2.0), (-2.0, -0.5))}


def box_points(per_box: int, close: float = 2.0) -> list:
    """(regime, ā, p, q̄, ξ) draws of numpy seed 2026, per_box in each regime box.

    p and q̄ lie at least 0.05 inside the box, whose open sides are closed
    at ±close; ā ∈ [0.2, 1.2] and ξ ∈ [0.2, 2].
    """
    rng = np.random.default_rng(2026)
    points = []
    for regime, ((p0, p1), (q0, q1)) in REGIME_BOXES.items():
        p1, q0, q1 = min(p1, close), max(q0, -close), min(q1, close)
        for _ in range(per_box):
            p, q_bar = rng.uniform(p0 + 0.05, p1 - 0.05), rng.uniform(q0 + 0.05, q1 - 0.05)
            a_bar = rng.uniform(0.2, 1.2)
            points.append((regime, a_bar, p, q_bar, rng.uniform(0.2, 2.0)))
    return points
