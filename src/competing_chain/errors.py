"""Exception types shared across the package."""


class CompetingChainError(Exception):
    """Base class for all package errors."""


class ParameterError(CompetingChainError):
    """Inadmissible or degenerate model parameters."""


class SizeError(CompetingChainError):
    """A requested dense object exceeds the configured dimension cap."""


class ConsistencyError(CompetingChainError):
    """A numerical self-check failed (non-Hermitian input, complex energy, ...)."""


class DegeneracyError(CompetingChainError):
    """Degenerate eigenstates need explicit subspace resolution, or roots collided."""


class FitError(CompetingChainError):
    """The polynomial fitted to an eigenvalue curve has the wrong leading coefficient."""


class ExtractionError(CompetingChainError):
    """Zero roots of an eigenvalue polynomial did not converge on the exact curve."""


class EvaluationError(CompetingChainError):
    """Evaluation at a pole or otherwise invalid point."""


class DomainError(CompetingChainError):
    """Argument outside the admissible domain of a formula."""


class DivergenceError(CompetingChainError):
    """The requested quantity is divergent at these parameters."""


class QuadratureError(CompetingChainError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class SolverError(CompetingChainError):
    """Nonlinear root solver did not converge.

    Carries the best iterate and the residual history for diagnostics.
    """

    def __init__(self, message, best_roots=None, history=None):
        super().__init__(message)
        self.best_roots = best_roots
        self.history = list(history) if history is not None else []
