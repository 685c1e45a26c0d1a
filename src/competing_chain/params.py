"""Model parameters and derived coupling constants.

The chain has 2N sites.  Hermiticity requires the bulk parameter a to be
pure imaginary and the boundary parameters p, q, xi real, so internally we
store ā = -i a and the inhomogeneities θ̄_j = -i θ_j as plain reals; complex
values are formed only at evaluation sites.  The reduced right-boundary
field is q̄ = q / sqrt(1 + ξ²).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError

_DEGENERACY_EPS = 1e-12


@dataclass(frozen=True)
class ModelParams:
    two_n: int
    a_bar: float = 0.0
    p: float = 1.0
    q: float = 1.0
    xi: float = 0.0
    theta_bar: tuple = ()

    def __post_init__(self):
        if self.two_n < 4 or self.two_n % 2 != 0:
            raise ParameterError(f"two_n must be an even integer >= 4, got {self.two_n}")
        tb = tuple(float(t) for t in self.theta_bar) if self.theta_bar else tuple([0.0] * self.two_n)
        if len(tb) != self.two_n:
            raise ParameterError(f"theta_bar needs {self.two_n} entries, got {len(tb)}")
        object.__setattr__(self, "theta_bar", tb)
        for name in ("a_bar", "p", "q", "xi"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ParameterError(f"{name} must be finite, got {v}")
        if self.p ** 2 + self.a_bar ** 2 < _DEGENERACY_EPS:
            raise ParameterError("degenerate left boundary: p^2 + a_bar^2 = 0")
        if self.a_bar ** 2 * (1 + self.xi ** 2) + self.q ** 2 < _DEGENERACY_EPS:
            raise ParameterError("degenerate right boundary: a^2 xi^2 + a^2 - q^2 = 0")

    # -- derived quantities ------------------------------------------------

    @property
    def n(self) -> int:
        return self.two_n // 2

    @property
    def a(self) -> complex:
        """Bulk spectral shift a = i ā."""
        return 1j * self.a_bar

    @property
    def q_bar(self) -> float:
        return self.q / math.sqrt(1.0 + self.xi ** 2)

    @property
    def thetas(self) -> np.ndarray:
        """Inhomogeneities θ_j = i θ̄_j (complex array of length 2N)."""
        return 1j * np.asarray(self.theta_bar, dtype=float)

    def homogeneous(self) -> bool:
        return all(t == 0.0 for t in self.theta_bar)

    def with_theta_bar(self, theta_bar) -> "ModelParams":
        return replace(self, theta_bar=tuple(float(t) for t in theta_bar))

    def at_homogeneous_point(self) -> "ModelParams":
        return self.with_theta_bar([0.0] * self.two_n)

    @staticmethod
    def from_q_bar(two_n, a_bar, p, q_bar, xi, theta_bar=()) -> "ModelParams":
        """Build parameters from the reduced field q̄ instead of q."""
        q = q_bar * math.sqrt(1.0 + xi ** 2)
        return ModelParams(two_n=two_n, a_bar=a_bar, p=p, q=q, xi=xi, theta_bar=theta_bar)

    # -- flat key-value config round trip ----------------------------------

    def to_config_text(self) -> str:
        lines = [
            f"two_n = {self.two_n}",
            f"a_bar = {self.a_bar!r}",
            f"p = {self.p!r}",
            f"q = {self.q!r}",
            f"xi = {self.xi!r}",
            "theta_bar = " + ",".join(repr(t) for t in self.theta_bar),
        ]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_config_text(text: str) -> "ModelParams":
        values = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"malformed config line: {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key] = val
        try:
            two_n = int(values["two_n"])
        except KeyError as exc:
            raise ParameterError("config is missing key 'two_n'") from exc
        theta = values.get("theta_bar", "").strip()
        theta_bar = tuple(float(t) for t in theta.split(",") if t.strip()) if theta else ()
        return ModelParams(
            two_n=two_n,
            a_bar=float(values.get("a_bar", 0.0)),
            p=float(values.get("p", 1.0)),
            q=float(values.get("q", 1.0)),
            xi=float(values.get("xi", 0.0)),
            theta_bar=theta_bar,
        )

    def to_dict(self) -> dict:
        return {
            "two_n": self.two_n,
            "a_bar": self.a_bar,
            "p": self.p,
            "q": self.q,
            "xi": self.xi,
            "theta_bar": list(self.theta_bar),
        }

    @staticmethod
    def from_dict(d) -> "ModelParams":
        return ModelParams(
            two_n=int(d["two_n"]),
            a_bar=float(d["a_bar"]),
            p=float(d["p"]),
            q=float(d["q"]),
            xi=float(d["xi"]),
            theta_bar=tuple(d.get("theta_bar", ())),
        )


@dataclass(frozen=True)
class Couplings:
    """Bulk and bond coupling constants of the spin Hamiltonian.

    The nearest-neighbour coefficient is 1 on every bond except the first
    and last, which carry 1+c1 and 1+c_{2N-1}.
    """

    J1_bulk: float
    J2: float
    J3: float
    c1: float
    c2Nm1: float


def couplings(params: ModelParams) -> Couplings:
    ab2 = params.a_bar ** 2
    denom_l = params.p ** 2 + ab2
    denom_r = ab2 * params.xi ** 2 + ab2 + params.q ** 2
    # c1 = a^2 (1 - 2a^2 - 2p^2)/(p^2 - a^2) with a^2 = -ā^2
    c1 = -ab2 * (1.0 + 2.0 * ab2 - 2.0 * params.p ** 2) / denom_l
    # c_{2N-1} = 2a^2 + a^2 (4q^2 - xi^2 - 1)/(a^2 xi^2 + a^2 - q^2)
    c2nm1 = -2.0 * ab2 + ab2 * (4.0 * params.q ** 2 - params.xi ** 2 - 1.0) / denom_r
    return Couplings(J1_bulk=1.0, J2=2.0 * ab2, J3=-params.a_bar, c1=c1, c2Nm1=c2nm1)


def c0_constant(params: ModelParams) -> float:
    """Additive constant relating the spin Hamiltonian to the transfer family.

    c0 = -(2N-1)(2a^2-1) - (2a^4 - 6a^2 + 1)/(a^2 - 1), real for a = i ā.
    """
    ab2 = params.a_bar ** 2
    return (params.two_n - 1) * (2.0 * ab2 + 1.0) + (2.0 * ab2 ** 2 + 6.0 * ab2 + 1.0) / (1.0 + ab2)


def c2_constant(params: ModelParams) -> float:
    """Normalisation c2 = 8 (1-4a^2)^{2N-2} (p^2-a^2)(a^2-1)(a^2 xi^2 + a^2 - q^2).

    Positive in the whole admissible (hermitian, non-degenerate) region.
    """
    ab2 = params.a_bar ** 2
    value = (
        8.0
        * (1.0 + 4.0 * ab2) ** (params.two_n - 2)
        * (params.p ** 2 + ab2)
        * (1.0 + ab2)
        * (ab2 * params.xi ** 2 + ab2 + params.q ** 2)
    )
    if value == 0.0:
        raise ParameterError("c2 vanished: degenerate parameters")
    return value
