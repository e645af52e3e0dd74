"""Exception types raised by the solvers and the scenario front end."""


class LqdrError(Exception):
    """Base class for all toolkit errors."""


class SolvabilityError(LqdrError):
    """A strict backward solve hit a gain matrix that is not positive definite.

    Also raised when the brute-force normal equations are singular, meaning
    the finite-horizon problem has no unique minimizer.
    """

    def __init__(self, message, step=None, min_eigenvalue=None):
        super().__init__(message)
        self.step = step
        self.min_eigenvalue = min_eigenvalue


class RegularityError(LqdrError):
    """The pseudo-inverse solve is inconsistent: Upsilon Upsilon^+ M != M.

    Also raised by the feedforward pass when Upsilon_k Upsilon_k^+ h_k != h_k:
    the stage cost is then linear along an input Upsilon_k does not weight.
    """

    def __init__(self, message, step=None, residual=None):
        super().__init__(message)
        self.step = step
        self.residual = residual


class ConvergenceError(LqdrError):
    """Fixed-point iteration failed to converge within the iteration budget."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class StabilizationError(LqdrError):
    """A stationary solution exists but its closed loop is not a contraction."""

    def __init__(self, message, spectral_radius=None):
        super().__init__(message)
        self.spectral_radius = spectral_radius


class ScenarioError(LqdrError):
    """A scenario file is malformed or internally inconsistent."""
