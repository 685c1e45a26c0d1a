"""Zero-root Bethe equations: seeds, solver, classification, energies.

The 2N+1 sign-pair representatives z_l satisfy, at each inhomogeneity node
x_j = θ_j + a,

    4 ∏_l (x_j - z_l ± 1/2)(x_j + z_l ± 1/2) = a(x_j) d(x_j - 1),

closed by the value constraint Λ(0) = 2 p q ∏_j (1-θ_j-a)(1+θ_j+a) = a(0).
The factors of a(u) are read from the zero/pole table transfer.a_table.

Solver internals
----------------
Unknowns are positive reals read straight off the rotated roots z̄: the
centers c_m and heights d_m of the string pairs c_m ± i d_m, the heights b
of the imaginary pairs ± i b and the positions α of the real pairs ± α.
Every root set closed under sign and conjugation has 2N+1 of them, so the
symmetry holds exactly and the system is square; no regime inventory enters
the coordinates (only classify_pattern knows those).  The representatives
are a linear map of the coordinates, z = M |y|.

At coalescing inhomogeneity values the pointwise equations degenerate, so
Newton works on confluent residuals: with L(u) the log of the fused-identity
ratio Λ(u)Λ(u-1)/(a(u)d(u-1)), each distinct θ value of multiplicity μ
contributes the principal-branch L(x) and the scaled derivatives
L^(r)(x) s^r / r!, r = 1..μ-1.  For distinct θ this reduces to the ordinary
equations; at the homogeneous point it is their exact confluent limit.  The
raw ratio residual is still what gets certified at the end.

Every residual row is a sum of logs or inverse powers of (x - t) over the
points t = ±z ∓ 1/2 and the zeros and pole of a(u), so the Jacobian is
closed-form: d/dz of a row is a sum of simple poles at r = 0 and of
(r+1)-th inverse powers for the jets, chained through M.  No finite
differences enter the solver; Gauss-Newton either reaches its tolerance or
raises SolverError.

Everything in these rows that does not depend on the roots is built once per
θ̄ stage (_Stage, _JetRows): the node columns, the r = 0 and r > 0 masks, the
log c column, the signs and integer exponents of the jets and of their
gradients, and the a(u) rows.  A residual or Jacobian call forms only the
differences x - t and their logs or powers.  The certificate evaluates the
same tables at the raw nodes θ_j + a.

Energies come from E = π(1+4ā²) Σ_l [a_1(z̄_l-ā) + a_1(z̄_l+ā)] - c0 and are
defined at the homogeneous point only.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (ConsistencyError, DegeneracyError, DomainError,
                     ParameterError, SolverError)
from .params import ModelParams, c0_constant
from .spectrum import (ZeroRootSet, canonical_root, ground_state, state_zero_roots,
                       _sorted_roots)
from .thermo import a_kernel
from .transfer import a_table

REGIMES = ("I", "II", "III", "IV", "V", "VI")

SEED_Z_MAX = 2.0
SEED_ALPHA = 3.0
SEED_BETA_OFFSET = 0.2
JET_SCALE = 0.5
HOMOTOPY_STEPS = 10
MAX_ITER = 200                # Gauss-Newton iterations per θ̄ stage
COLLISION_TOL = 1e-8          # minimum separation of the solved roots
CLASSIFY_TOL_SCALE = 1e-4     # axis tolerance per root, times (1 + |root|)
STRING_TOL = 0.35             # |2 Im z̄ - n| for an n-string member
BOUNDARY_TOL = 0.1            # distance to the asymptotic boundary-pair heights
ENERGY_IMAG_TOL = 1e-8        # largest imaginary part of a consistent root energy
HALF_MARGIN = 0.02            # least distance of a pure-imaginary seed from z̄ = i/2
THETA_GROUP_TOL = 1e-12       # θ̄ values closer than this form one confluent group
SPREAD_SCALE_FLOOR = 0.1      # smallest seed-matched homotopy start scale
ED_SEED_TWO_N = 8             # largest scan start size: its ED ground state costs a few ms

_log = logging.getLogger(__name__)


def regime_of(p: float, q_bar: float) -> str:
    """Ground-state regime tag from the half-open boxes in the (p, q̄) plane."""
    if p < 0.0:
        raise DomainError("regime boxes are defined for p >= 0; mirror negative p first")
    if p < 0.5:
        if 0.0 <= q_bar < 0.5:
            return "I"
        if -0.5 <= q_bar < 0.0:
            return "II"
        return "III" if q_bar >= 0.5 else "IV"
    if 0.0 <= q_bar < 0.5:
        return "III"
    if -0.5 <= q_bar < 0.0:
        return "IV"
    return "V" if q_bar >= 0.5 else "VI"


@dataclass(frozen=True)
class PatternSpec:
    """Ground-state root inventory of one regime."""

    n_centers: int              # number of 2-string centers (both signs counted)
    boundary: tuple             # subset of ("p", "q") carrying a boundary pair
    has_alpha: bool
    has_beta: bool


def _min_boundary_tag(params: ModelParams) -> str:
    return "p" if abs(params.p) <= abs(params.q_bar) else "q"


def pattern_spec(regime: str, params: ModelParams) -> PatternSpec:
    two_n = params.two_n
    if regime == "I":
        return PatternSpec(two_n - 2, ("p", "q"), True, False)
    if regime == "II":
        return PatternSpec(two_n - 2, ("p", "q"), False, True)
    if regime == "III":
        return PatternSpec(two_n - 2, (_min_boundary_tag(params),), True, True)
    if regime == "IV":
        return PatternSpec(two_n, (_min_boundary_tag(params),), False, False)
    if regime == "V":
        return PatternSpec(two_n, (), True, False)
    if regime == "VI":
        return PatternSpec(two_n, (), False, True)
    raise ParameterError(f"unknown regime {regime!r}")


def boundary_height(tag: str, params: ModelParams) -> float:
    return (abs(params.p) if tag == "p" else abs(params.q_bar)) + 0.5


@dataclass
class RootPattern:
    """Structural classification of one root set (rotated z̄ plane)."""

    pairs_n2: list = field(default_factory=list)          # string centers (both signs)
    boundary_pairs: list = field(default_factory=list)     # (tag, height)
    real_pair: float | None = None                         # α of the ± real pair
    imaginary_pair: float | None = None                    # β of the ± i β pair
    extra_strings: list = field(default_factory=list)      # (n, center), n > 2
    boundary_strings: list = field(default_factory=list)   # heights 1/2 - |p|, 1/2 - |q̄|
    extra_real: list = field(default_factory=list)         # additional real pairs
    unmatched: list = field(default_factory=list)
    regime: str = "unclassified"


@dataclass
class _Pattern:
    """Reduced solver coordinates in the rotated z̄ plane: every entry is a positive real."""

    centers: np.ndarray          # string pairs c ± i d: the centers c
    heights: np.ndarray          # and their imaginary offsets d
    imag: np.ndarray             # imaginary pairs ± i b: the heights b
    real: np.ndarray             # real pairs ± α: the positions α

    def encode(self) -> np.ndarray:
        return np.concatenate([self.centers, self.heights, self.imag, self.real])

    def decode(self, x: np.ndarray) -> "_Pattern":
        x = np.abs(np.asarray(x, dtype=float))
        m = len(self.centers)
        return _Pattern(*np.split(x, [m, 2 * m, 2 * m + len(self.imag)]))

    def z_map(self) -> np.ndarray:
        """Linear map M from encode() coordinates to z_reps(), z = i z̄."""
        m, k = len(self.centers), len(self.encode())
        zm = np.zeros((k, k), dtype=complex)
        for i in range(m):
            zm[2 * i, i] = zm[2 * i + 1, i] = 1j   # z̄ = c ± i d
            zm[2 * i, m + i], zm[2 * i + 1, m + i] = -1.0, 1.0
        axis = np.arange(2 * m, k)
        zm[axis, axis] = np.where(axis < 2 * m + len(self.imag), 1.0, 1j)  # z̄ = i b, z̄ = α
        return zm

    def z_reps(self) -> np.ndarray:
        """Sign-pair representatives in the z variable (z = i z̄)."""
        return self.z_map() @ self.encode()

    def root_set(self, two_n: int, residual: float = 0.0) -> ZeroRootSet:
        reps = [canonical_root(z) for z in self.z_reps()]
        return ZeroRootSet(two_n=two_n, z=_sorted_roots(reps), residual=residual)


def seed_roots(regime: str, params: ModelParams) -> ZeroRootSet:
    """Root-set seed carrying the regime's ground-state inventory."""
    return _seed_pattern(regime, params).root_set(params.two_n)


def _seed_pattern(regime, params) -> _Pattern:
    spec = pattern_spec(regime, params)
    m = spec.n_centers // 2
    centers = np.array([SEED_Z_MAX * (2 * k - 1) / (2 * m) for k in range(1, m + 1)])
    imag = [boundary_height(tag, params) for tag in spec.boundary]
    if spec.has_beta:
        imag.append(min(abs(params.p), abs(params.q_bar)) + SEED_BETA_OFFSET)
    return _Pattern(centers, np.ones(m), np.array([_avoid_half(b) for b in imag]),
                    np.array([SEED_ALPHA] if spec.has_alpha else []))


def _avoid_half(value: float) -> float:
    """Nudge a pure-imaginary seed off z̄ = i/2, a zero of the Λ(0) factors."""
    if abs(value - 0.5) < HALF_MARGIN:
        return 0.5 + HALF_MARGIN if value >= 0.5 else 0.5 - HALF_MARGIN
    return value


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _JetRows:
    """The root-independent part of the Taylor rows of log f at orders r.

    For f(u) = c ∏_k (u - t_k)^{w_k}, row i is (1/r_i!) d^{r_i}/du^{r_i} log f
    at the node u_i: log f itself for r = 0, Σ_k w_k (-1)^{r-1} (u - t_k)^{-r} / r
    for r >= 1.  Everything but the nodes and the points t is built once;
    rows() and grad() take the nodes as a column and expect the caller to hold
    np.errstate(divide="ignore", invalid="ignore").
    """

    log: np.ndarray          # r = 0 rows
    jet: np.ndarray | None   # r > 0 rows, None if there are none
    log_c: np.ndarray        # log c on r = 0 rows, 0 on the others
    sign: np.ndarray         # (-1)^(r-1) on the jet rows
    power: np.ndarray        # -r on the jet rows, an integer array
    order: np.ndarray        # r on the jet rows
    grad_sign: np.ndarray    # w_k (-1)^(r+1)
    grad_power: np.ndarray   # -(r+1), an integer array
    w: np.ndarray

    @classmethod
    def of(cls, r: np.ndarray, c, w: np.ndarray) -> "_JetRows":
        jet = r > 0
        rr = r[:, None]
        rj = r[jet, None]
        return cls(~jet, jet if jet.any() else None, np.where(r == 0, np.log(c), 0.0),
                   (-1.0) ** (rj - 1), -rj, rj, w * (-1.0) ** (rr + 1), -(rr + 1), w)

    def rows(self, u: np.ndarray, t: np.ndarray) -> np.ndarray:
        d = u - t
        if self.jet is None:
            terms = np.log(d)
        else:
            terms = np.empty_like(d)
            terms[self.log] = np.log(d[self.log])
            terms[self.jet] = self.sign * d[self.jet] ** self.power / self.order
        return self.log_c + terms @ self.w

    def grad(self, u: np.ndarray, t: np.ndarray) -> np.ndarray:
        """t-gradient of the rows: entry [i, k] is w_k (-1)^{r_i+1} (u_i - t_k)^{-r_i-1}."""
        return self.grad_sign * (u - t) ** self.grad_power


def _lambda_points(z: np.ndarray) -> np.ndarray:
    """The zeros t of Λ(u) = 2 ∏_l (u - z_l + 1/2)(u + z_l + 1/2) = 2 ∏_k (u - t_k)."""
    return np.concatenate([z - 0.5, -z - 0.5])


def _log_a_rows(nodes, r: np.ndarray, params: ModelParams) -> list:
    """Taylor rows of log a at each node array of nodes, from transfer.a_table."""
    c, zeta, mult = a_table(params)
    table = _JetRows.of(r, c, mult)
    with np.errstate(divide="ignore", invalid="ignore"):
        return [table.rows(u[:, None], zeta) for u in nodes]


_ZERO = np.zeros(1, dtype=int)


def _theta_groups(theta_bar):
    """Distinct inhomogeneity values with multiplicities, in sorted order."""
    vals = sorted(theta_bar)
    groups = []
    for v in vals:
        if groups and abs(v - groups[-1][0]) <= THETA_GROUP_TOL:
            groups[-1][1] += 1
        else:
            groups.append([v, 1])
    return [(v, m) for v, m in groups]


def _principal_log(value):
    """Reduce log-ratios to the branch nearest zero (solutions sit at 2πik)."""
    return value - 2.0j * np.pi * np.rint(value.imag / (2.0 * np.pi))


@dataclass(frozen=True)
class _Stage:
    """The root-independent part of the zero-root system at fixed nodes.

    Row i sits at the node x_i with Taylor order r_i, scaled by JET_SCALE^r.
    lam evaluates the Λ rows at the nodes x and x - 1, lam0 the Λ(0) row;
    rhs holds the Taylor rows of log a(x)a(-x) and a0 = log a(0).
    """

    x: np.ndarray
    r: np.ndarray
    scale: np.ndarray
    jet: np.ndarray              # indices of the r > 0 rows
    rhs: np.ndarray
    a0: complex
    nodes: tuple                 # x, x - 1 and 0 as columns
    lam: _JetRows                # Λ at the orders r
    lam0: _JetRows               # Λ at the single order 0

    @classmethod
    def at(cls, x: np.ndarray, r: np.ndarray, params: ModelParams) -> "_Stage":
        ax, amx = _log_a_rows((x, -x), r, params)
        w = np.ones(2 * (params.two_n + 1))
        return cls(x, r, JET_SCALE ** r, np.flatnonzero(r), ax + (-1.0) ** r * amx,
                   _log_a_rows((_ZERO,), _ZERO, params)[0][0],
                   (x[:, None], (x - 1.0)[:, None], _ZERO[:, None]),
                   _JetRows.of(r, 2.0, w), _JetRows.of(_ZERO, 2.0, w))

    @classmethod
    def of(cls, params: ModelParams) -> "_Stage":
        """The confluent system at params.theta_bar.

        Per distinct θ value of multiplicity μ there are rows r = 0..μ-1 at
        the node x = iθ̄ + a.
        """
        groups = _theta_groups(params.theta_bar)
        x = np.asarray([1j * v + params.a for v, mult in groups for _ in range(mult)])
        r = np.asarray([k for _, mult in groups for k in range(mult)], dtype=int)
        return cls.at(x, r, params)

    def lambda_logs(self, z: np.ndarray):
        """Taylor rows of log Λ(x)Λ(x-1) at the nodes, and log Λ(0)."""
        x, x1, zero = self.nodes
        t = _lambda_points(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.lam.rows(x, t) + self.lam.rows(x1, t), self.lam0.rows(zero, t)[0]

    def residual(self, z: np.ndarray) -> np.ndarray:
        """Solver residual in logarithmic form.

        The principal-branch log ratio L(x) and the scaled jets
        L^(r)(x) s^r / r!, then the log-form Λ(0) defect.  The raw ratio
        form is used only for the final certification.
        """
        lhs, lam0 = self.lambda_logs(z)
        m = len(lhs)
        diff = np.empty(m + 1, dtype=complex)
        np.subtract(lhs, self.rhs, out=diff[:m])
        diff[m] = lam0 - self.a0
        out = _principal_log(diff)
        if len(self.jet):
            out[self.jet] = self.scale[self.jet] * diff[self.jet]
        return out

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """Exact z-derivative of residual(z)."""
        x, x1, zero = self.nodes
        t = _lambda_points(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            gx, gx1, g0 = self.lam.grad(x, t), self.lam.grad(x1, t), self.lam0.grad(zero, t)
        n = len(z)
        out = np.empty((len(self.r) + 1, n), dtype=complex)
        np.multiply(self.scale[:, None], (gx[:, :n] - gx[:, n:]) + (gx1[:, :n] - gx1[:, n:]),
                    out=out[:-1])
        np.subtract(g0[:, :n], g0[:, n:], out=out[-1:])
        return out


def bae_residual(roots: ZeroRootSet, params: ModelParams) -> np.ndarray:
    """Raw certification residual: 2N ratio defects plus the Λ(0) defect.

    Component j is (LHS-RHS)/RHS of the node-j equation; if the RHS
    vanishes the component falls back to the unnormalized difference and a
    warning is emitted.
    """
    stage = _Stage.at(params.thetas + params.a, np.zeros(params.two_n, dtype=int), params)
    lhs, lam0 = stage.lambda_logs(np.asarray(roots.z, dtype=complex))
    rhs = stage.rhs
    out = np.exp(lhs - rhs) - 1.0
    vanishing = ~np.isfinite(rhs)
    if np.any(vanishing):
        warnings.warn("vanishing equation RHS; using unnormalized residual")
        out[vanishing] = np.exp(lhs[vanishing]) - np.exp(rhs[vanishing])
    return np.append(out, np.exp(lam0 - stage.a0) - 1.0)


# ---------------------------------------------------------------------------
# damped Gauss-Newton with line search
# ---------------------------------------------------------------------------

def _stack_real(c: np.ndarray) -> np.ndarray:
    return np.concatenate([c.real, c.imag])


def _reduced_jacobian(stage: _Stage, z_map: np.ndarray, y: np.ndarray, z: np.ndarray):
    """Real Jacobian at reduced coordinates y, or None if it is not finite.

    z = M |y| with M = _Pattern.z_map(), so dF/dy = (dF/dz M) sign(y); F is
    holomorphic in z and y is real, so the real Jacobian stacks the real and
    imaginary parts.
    """
    jac = (stage.jacobian(z) @ z_map) * np.where(y < 0.0, -1.0, 1.0)
    if not np.all(np.isfinite(jac)):
        return None  # a root hit a logarithmic singularity
    return _stack_real(jac)


def _gauss_newton(pattern: _Pattern, params: ModelParams, tol: float,
                  history: list, stage_cache: dict) -> _Pattern:
    """Damped Gauss-Newton at one θ̄ stage.

    Line-search trials evaluate the residual only; the Jacobian is built at
    the trial the Armijo test accepts, and a non-finite one rejects it.  The
    stage's counts and wall time go to the module logger at DEBUG level.
    stage_cache maps θ̄ to its _Stage at the other parameters of params; a
    missing stage is built and stored.
    """
    start = time.perf_counter()
    stage = stage_cache.get(params.theta_bar)
    if stage is None:
        stage = stage_cache[params.theta_bar] = _Stage.of(params)
    z_map = pattern.z_map()
    y = pattern.encode()
    iterations, residual_evals, jacobian_evals = 0, 1, 1
    fnorm, outcome = math.inf, "failed"
    try:
        z = z_map @ np.abs(y)
        f = stage.residual(z)
        jac = _reduced_jacobian(stage, z_map, y, z)
        if jac is None or not np.all(np.isfinite(f)):
            outcome = "non-finite seed"
            raise SolverError("seed evaluates to a non-finite residual", history=history)
        fnorm = np.max(np.abs(f))
        for _ in range(MAX_ITER):
            history.append(fnorm)
            if fnorm <= tol:
                break
            iterations += 1
            step, *_ = np.linalg.lstsq(jac, -_stack_real(f), rcond=None)
            base = np.linalg.norm(_stack_real(f))
            t = 1.0
            while True:
                y_new = y + t * step
                z_new = z_map @ np.abs(y_new)
                f_new = stage.residual(z_new)
                residual_evals += 1
                # a non-finite residual fails the Armijo test
                if np.linalg.norm(_stack_real(f_new)) <= (1.0 - 1e-4 * t) * base:
                    jacobian_evals += 1
                    jac_new = _reduced_jacobian(stage, z_map, y_new, z_new)
                    if jac_new is not None:
                        break
                t *= 0.5
                if t < 2.0 ** -40:
                    outcome = "line search stalled"
                    raise SolverError(
                        f"line search stalled at residual {fnorm:.3e}",
                        best_roots=pattern.decode(y).root_set(params.two_n, fnorm),
                        history=history)
            y, f, jac = y_new, f_new, jac_new
            fnorm = np.max(np.abs(f))
        if fnorm <= tol:
            outcome = "converged"
            return pattern.decode(y)
        outcome = "iteration limit"
        raise SolverError(
            f"no convergence in {MAX_ITER} iterations (residual {fnorm:.3e})",
            best_roots=pattern.decode(y).root_set(params.two_n, fnorm),
            history=history)
    finally:
        _log.debug("Gauss-Newton stage at 2N=%(two_n)d: %(outcome)s after %(iterations)d "
                   "iterations, %(residual_evals)d residual and %(jacobian_evals)d "
                   "Jacobian evaluations, residual %(residual).3e, %(seconds).3g s",
                   {"two_n": params.two_n, "outcome": outcome, "iterations": iterations,
                    "residual_evals": residual_evals, "jacobian_evals": jacobian_evals,
                    "residual": fnorm, "seconds": time.perf_counter() - start})


def default_spread_profile(two_n: int, scale: float = 0.1) -> tuple:
    """Spread inhomogeneity profile θ̄_j = scale (j - N - 1/2)."""
    n = two_n // 2
    return tuple(scale * (j - n - 0.5) for j in range(1, two_n + 1))


def _matched_spread_scale(pattern: _Pattern) -> float:
    """Homotopy start scale matched to the seed's center ladder.

    Strong inhomogeneity pins each string center to its θ̄ node, so starting
    the ramp where the node ladder coincides with the seed centers puts the
    seed inside the ground-state basin; a uniform ladder c_m = z(2m-1)/(2M)
    corresponds to scale z/M.  A seed without strings starts at the floor.
    """
    m = len(pattern.centers)
    if m == 0:
        return SPREAD_SCALE_FLOOR
    return max(SPREAD_SCALE_FLOOR, float(np.max(pattern.centers)) / (m - 0.5))


RETRY_SPREAD_SCALE = 0.4       # the homotopy start scale tried after the seed-matched one
RETRY_BETA_SEED = 1.12         # the β seed tried after the seed's own, for β patterns


def solve_bae(seed: ZeroRootSet, params: ModelParams,
              homotopy: int | None = HOMOTOPY_STEPS, tol: float = 1e-10) -> ZeroRootSet:
    """Damped Gauss-Newton solve from any seed closed under sign and conjugation.

    An integer homotopy k (default 10) first converges at a spread
    inhomogeneity profile and ramps to the target θ̄ in k steps,
    re-converging at every step.  The equations are satisfied by every
    transfer eigenstate, so a converged solve may land on an excited state
    or off the seed's inventory: the solver tries at most four starts, the
    seed-matched spread scale and RETRY_SPREAD_SCALE, each with the seed's β
    and, for β-carrying ground-state seeds, RETRY_BETA_SEED (β sits just
    above the 2-string line), and returns the first certified solution that
    matches the seed's inventory.  A seed that classifies as no ground-state
    inventory is solved as it is, with no inventory check and no β retry.
    homotopy=None attempts a single direct solve at params.theta_bar; an
    integer homotopy below 1 raises ParameterError, and so does a seed that
    is not closed under sign and conjugation.  Returned roots carry a
    certified raw residual <= tol.
    On failure the SolverError carries the residual history of the last
    attempt.  Each Gauss-Newton stage logs its iteration and evaluation
    counts at DEBUG level on the "competing_chain.bae" logger.
    """
    if len(seed.z) != params.two_n + 1:
        raise ParameterError(f"seed carries {len(seed.z)} representatives, "
                             f"expected {params.two_n + 1}")
    if homotopy is not None and homotopy < 1:
        raise ParameterError(f"homotopy needs at least one step, got {homotopy}")
    pattern = _pattern_from_roots(seed)
    seed_cls = classify_pattern(seed, params)
    seed_tag = seed_cls.regime

    attempts = []  # (starting pattern, θ̄ stages)
    if homotopy is None:
        attempts.append((pattern, [params.theta_bar]))
    else:
        target = np.asarray(params.theta_bar, dtype=float)
        starts = [pattern]
        if seed_tag in REGIMES and seed_cls.imaginary_pair is not None:
            imag = pattern.imag.copy()
            imag[np.argmin(np.abs(imag - seed_cls.imaginary_pair))] = RETRY_BETA_SEED
            starts.append(replace(pattern, imag=imag))
        for s0 in (_matched_spread_scale(pattern), RETRY_SPREAD_SCALE):
            start = np.asarray(default_spread_profile(params.two_n, scale=s0))
            stages = [tuple(start + (target - start) * k / homotopy)
                      for k in range(homotopy + 1)]
            attempts.extend((p0, stages) for p0 in starts)

    last_error: Exception | None = None
    stage_cache: dict = {}  # θ̄ -> _Stage: attempts revisit the same θ̄ lists
    for start_pattern, stages in attempts:
        trial = start_pattern
        history: list = []
        try:
            for theta in stages:
                stage_params = params.with_theta_bar(theta)
                trial = _gauss_newton(trial, stage_params, tol=tol / 10.0,
                                      history=history, stage_cache=stage_cache)
            roots = trial.root_set(params.two_n)
            raw = np.max(np.abs(bae_residual(roots, params)))
            if raw > tol:
                raise SolverError(
                    f"certification failed: raw residual {raw:.3e} > {tol:.1e}",
                    best_roots=roots, history=history)
            _check_collisions(roots)
            result = ZeroRootSet(two_n=roots.two_n, z=roots.z, residual=float(raw))
            if seed_tag in REGIMES and classify_pattern(result, params).regime != seed_tag:
                raise SolverError(
                    f"converged off-pattern (expected inventory {seed_tag})",
                    best_roots=result, history=history)
            return result
        except (SolverError, DegeneracyError) as exc:
            last_error = exc
    failed = "direct solve failed" if homotopy is None else "all homotopy schedules failed"
    raise SolverError(f"{failed}: {last_error}",
                      best_roots=getattr(last_error, "best_roots", None),
                      history=getattr(last_error, "history", None))


def _check_collisions(roots: ZeroRootSet) -> None:
    full = roots.full_multiset()
    diffs = np.abs(full[:, None] - full[None, :])
    np.fill_diagonal(diffs, np.inf)
    if np.min(diffs) < COLLISION_TOL:
        raise DegeneracyError(f"root collision: minimum separation {np.min(diffs):.3e}")


def _pattern_from_roots(roots: ZeroRootSet) -> _Pattern:
    """Read the reduced coordinates off a root set closed under sign and conjugation.

    A rotated root within CLASSIFY_TOL_SCALE (1+|z̄|) of the real or the
    imaginary axis is a real or an imaginary pair.  Any other root is a member
    of a string pair c ± i d, up to sign; the member c + i d gives the center
    and the height, and its conjugate partner adds nothing.  A set that is
    not closed under sign and conjugation has a coordinate count other than
    2N+1 and raises ParameterError.
    """
    centers, heights, imag, real = [], [], [], []
    for w in np.asarray(roots.z_bar, dtype=complex):
        eps = CLASSIFY_TOL_SCALE * (1.0 + abs(w))
        if abs(w.imag) <= eps:
            real.append(abs(w.real))
        elif abs(w.real) <= eps:
            imag.append(abs(w.imag))
        elif (w.imag > 0.0) == (w.real > 0.0):
            centers.append(abs(w.real))
            heights.append(abs(w.imag))
    pattern = _Pattern(*(np.asarray(v, dtype=float) for v in (centers, heights, imag, real)))
    count = len(pattern.encode())
    if count != roots.two_n + 1:
        raise ParameterError(f"seed root set is not closed under sign and conjugation: "
                             f"{count} coordinates, expected {roots.two_n + 1}")
    return pattern


def _extend_pattern(pattern: _Pattern, new_m: int) -> _Pattern:
    """Grow a solved pattern to a larger chain by quantile resampling.

    The solved centers sit near the quantiles (m-1/2)/M of the limiting
    center density, so the seed for M' > M strings resamples the empirical
    quantile curve at (k-1/2)/M' (linear extrapolation past the outermost
    point).  The resulting seeds land inside the direct Newton basin of the
    larger chain's ground state.
    """
    order = np.argsort(pattern.centers)
    c = pattern.centers[order]
    h = pattern.heights[order]
    m = len(c)
    q_old = (np.arange(1, m + 1) - 0.5) / m
    q_new = (np.arange(1, new_m + 1) - 0.5) / new_m
    cn = np.interp(q_new, q_old, c)
    mask = q_new > q_old[-1]
    if np.any(mask):
        slope = (c[-1] - c[-2]) / (q_old[-1] - q_old[-2]) if m > 1 else c[-1] / q_old[-1]
        cn[mask] = c[-1] + slope * (q_new[mask] - q_old[-1])
    hn = np.interp(q_new, q_old, h)
    return _Pattern(cn, hn, pattern.imag.copy(), pattern.real.copy())


def ground_state_scan(base_params: ModelParams, sizes, tol: float = 1e-10):
    """Ground-state roots across chain sizes by size continuation.

    The walk starts at min(smallest size, ED_SEED_TWO_N), where the ED
    ground state (spectrum.ground_state) is cheap: its zero roots
    (spectrum.state_zero_roots) seed one direct solve.  Each larger size is
    seeded from the previous solution with new outer string centers
    appended and takes one direct homogeneous solve.  No size runs the
    homotopy.  A failed
    solve, a solution that is not a ground-state inventory, or one that
    lands on an excited branch raises SolverError naming 2N at once (and
    the ED seed at the first size), chained from the solve's error and
    carrying its best_roots and history.  Errors of the ED itself
    propagate unchanged.  Returns a list of (two_n, energy, roots) at
    θ̄ = 0 for the requested sizes only.
    """
    sizes = sorted(set(int(s) for s in sizes))
    if any(s % 2 or s < 4 for s in sizes):
        raise ParameterError("sizes must be even and >= 4")
    requested = set(sizes)
    # walk every even size up to the largest: continuation is reliable in
    # steps of one added string pair
    walk = list(range(min(sizes[0], ED_SEED_TWO_N), sizes[-1] + 1, 2))
    results = []
    prev = None
    for two_n in walk:
        pr = ModelParams(two_n=two_n, a_bar=base_params.a_bar, p=base_params.p,
                         q=base_params.q, xi=base_params.xi)
        if prev is None:
            where = f"2N={two_n} (ED ground-state seed)"
            seed = state_zero_roots(ground_state(pr), pr)
        else:
            where = f"2N={two_n}"
            prev_pattern, prev_two_n, prev_energy = prev
            extra = (two_n - prev_two_n) // 2
            seed = _extend_pattern(prev_pattern,
                                   len(prev_pattern.centers) + extra).root_set(two_n)
        try:
            sol = solve_bae(seed, pr, homotopy=None, tol=tol)
        except (SolverError, DegeneracyError, ParameterError) as exc:
            raise SolverError(
                f"size continuation failed at {where}: {exc}",
                best_roots=getattr(exc, "best_roots", None),
                history=getattr(exc, "history", None)) from exc
        cls = classify_pattern(sol, pr)
        if cls.regime not in REGIMES:
            raise SolverError(f"size continuation failed at {where}: solution is not a "
                              f"ground-state inventory ({cls.regime})", best_roots=sol)
        energy = energy_from_roots(sol, pr)
        if prev is not None:
            # the bulk gain per added site is about E_prev / 2N_prev < 0; a
            # candidate gaining much less has jumped to an excited branch
            min_gain = 0.25 * (two_n - prev_two_n) * (prev_energy / prev_two_n)
            if energy > prev_energy + min_gain:
                raise SolverError(
                    f"size continuation lost the ground state at 2N={two_n}",
                    best_roots=sol)
        prev = (_pattern_from_roots(sol), two_n, energy)
        if two_n in requested:
            results.append((two_n, energy, sol))
    return results


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify_pattern(roots: ZeroRootSet, params: ModelParams) -> RootPattern:
    """Assign the rotated roots to the structural categories of the model.

    Category tolerance per root is ε = CLASSIFY_TOL_SCALE (1+|root|) for the
    real/imaginary-axis tests; strings match Im ≈ n/2 within STRING_TOL.
    Boundary pairs sit at i(|p|+1/2), i(|q̄|+1/2) only asymptotically — at
    2N = 8 the measured offsets reach a few 1e-2 — so matching against the
    asymptotic heights uses the looser BOUNDARY_TOL, resolved per candidate
    regime with the (p, q̄) box of the parameters tried first.

    Returns regime I..VI when the inventory matches a ground-state pattern,
    "excited" for known excitation signatures (n > 2 strings, extra real
    pairs, boundary strings at i(1/2-|p|) or i(1/2-|q̄|)) and "unclassified"
    otherwise.
    """
    zb = np.asarray(roots.z_bar, dtype=complex)
    full = np.concatenate([zb, -zb])
    pat = RootPattern()

    imag_pos: list = []
    real_pos: list = []
    for w in full:
        eps = CLASSIFY_TOL_SCALE * (1.0 + abs(w))
        if abs(w.imag) <= eps and abs(w.real) > 10.0 * eps:
            if w.real > 0:
                real_pos.append(w.real)
        elif abs(w.real) <= eps and w.imag > 10.0 * eps:
            imag_pos.append(w.imag)
        elif w.imag > eps and abs(w.real) > eps:
            n_est = int(round(2.0 * w.imag))
            if n_est >= 2 and abs(2.0 * w.imag - n_est) <= STRING_TOL:
                if n_est == 2:
                    pat.pairs_n2.append(w.real)
                else:
                    pat.extra_strings.append((n_est, w.real))
            else:
                pat.unmatched.append(complex(w))
        elif w.imag < -eps:
            continue  # conjugate partners are counted on the upper half plane
        else:
            pat.unmatched.append(complex(w))

    real_pos = sorted(set(round(v, 12) for v in real_pos))
    imag_pos.sort()

    # ground-state inventories take precedence over excitation signatures:
    # a free β may coincide with the boundary-string height 1/2-|b|
    assigned = _match_ground_inventory(pat, imag_pos, real_pos, params)
    if assigned is not None and not pat.extra_strings:
        pat.regime = assigned
        pat.pairs_n2.sort()
        return pat

    # excitation signatures: boundary strings at i(1/2-|p|), i(1/2-|q̄|)
    for target in (0.5 - abs(params.p), 0.5 - abs(params.q_bar)):
        if target <= 0:
            continue
        for b in list(imag_pos):
            if abs(b - target) <= min(BOUNDARY_TOL, 0.5 * target):
                pat.boundary_strings.append(b)
                imag_pos.remove(b)
                break
    pat.boundary_pairs = []
    for tag in ("p", "q"):
        target = boundary_height(tag, params)
        for b in list(imag_pos):
            if abs(b - target) <= BOUNDARY_TOL:
                pat.boundary_pairs.append((tag, b))
                imag_pos.remove(b)
                break
    if real_pos:
        pat.real_pair = real_pos[-1]
        pat.extra_real = real_pos[:-1]
    if imag_pos:
        pat.imaginary_pair = imag_pos[-1]
        for b in imag_pos[:-1]:
            pat.unmatched.append(complex(0.0, b))
    if pat.extra_strings or pat.boundary_strings or pat.extra_real:
        pat.regime = "excited"
    else:
        pat.regime = "unclassified"
    pat.pairs_n2.sort()
    pat.extra_strings.sort()
    return pat


def _match_ground_inventory(pat: RootPattern, imag_pos, real_pos, params):
    """Try each regime's inventory against the categorized roots.

    The regime of the parameter box is tried first: a lone imaginary pair
    close to min(|p|,|q̄|)+1/2 is a boundary pair in regime IV but a free β
    in regime VI, and only the box disambiguates the two.
    """
    if pat.unmatched:
        return None
    order = [regime_of(abs(params.p), params.q_bar)]
    order += [r for r in REGIMES if r not in order]
    for regime in order:
        spec = pattern_spec(regime, params)
        if len(pat.pairs_n2) != spec.n_centers:
            continue
        if len(real_pos) != (1 if spec.has_alpha else 0):
            continue
        expected_imag = len(spec.boundary) + (1 if spec.has_beta else 0)
        if len(imag_pos) != expected_imag:
            continue
        remaining = list(imag_pos)
        boundary_pairs = []
        ok = True
        for tag in spec.boundary:
            target = boundary_height(tag, params)
            dists = [abs(b - target) for b in remaining]
            if not dists or min(dists) > BOUNDARY_TOL:
                ok = False
                break
            k = int(np.argmin(dists))
            boundary_pairs.append((tag, remaining.pop(k)))
        if not ok:
            continue
        if spec.has_beta:
            beta = remaining.pop()
            if beta <= min(abs(params.p), abs(params.q_bar)):
                continue
            pat.imaginary_pair = beta
        pat.boundary_pairs = sorted(boundary_pairs)
        if spec.has_alpha:
            pat.real_pair = real_pos[0]
        return regime
    return None


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def energy_from_roots(roots: ZeroRootSet, params: ModelParams) -> float:
    """Energy of the homogeneous chain from the zero-root representatives."""
    if not params.homogeneous():
        raise ParameterError(
            "the root-energy formula is defined for the homogeneous chain; "
            "supply theta_bar = 0")
    a_bar = params.a_bar
    total = 0.0 + 0.0j
    for z in roots.z:
        w = -1j * z  # rotated root z̄
        total += a_kernel(w - a_bar, 1) + a_kernel(w + a_bar, 1)
    energy = math.pi * (1.0 + 4.0 * a_bar ** 2) * total - c0_constant(params)
    if abs(energy.imag) > ENERGY_IMAG_TOL:
        raise ConsistencyError(
            f"energy has imaginary part {energy.imag:.3e}; root set is inconsistent")
    return float(energy.real)
