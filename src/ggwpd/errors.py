"""Exception hierarchy for numerically meaningful failure modes."""
from __future__ import annotations


class GgwpdError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GgwpdError):
    """Invalid experiment configuration or preset."""


class NumericalError(GgwpdError):
    """Base class for runtime numerical failures (exit code 3 in the CLI)."""


class RunawayError(NumericalError):
    """A complexified trajectory escaped toward infinity.

    Raised when an imaginary part of position or momentum exceeds the
    bound ``rotor._RUNAWAY_BOUND`` during propagation, or either one stops
    being finite, which signals a branch-cut crossing rather than a
    recoverable state.
    """

    def __init__(self, step: int, point: complex | tuple) -> None:
        super().__init__(f"trajectory ran away at step {step}: {point!r}")
        self.step = step
        self.point = point


class ConvergenceError(NumericalError):
    """Newton iteration failed to reach the requested residual."""

    def __init__(self, residual: float, iterations: int, message: str = "") -> None:
        text = message or (
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )
        super().__init__(text)
        self.residual = residual
        self.iterations = iterations


class CausticError(NumericalError):
    """A prefactor determinant vanished or the saddle system became singular."""
