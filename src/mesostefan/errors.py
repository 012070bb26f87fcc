"""Exception types shared across the solver suite."""


class MesostefanError(Exception):
    """Base class for all package errors."""


class GridError(MesostefanError, ValueError):
    """Invalid grid or kernel construction parameters."""


class DomainError(MesostefanError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class InfeasibleError(MesostefanError, ValueError):
    """Requested domain reaches the end of the maximal solution's branch.

    ``ell_j`` carries that end (ell_j or ell_break).
    """

    def __init__(self, message, ell_j=None):
        super().__init__(message)
        self.ell_j = ell_j


class ConvergenceError(MesostefanError, RuntimeError):
    """An iterative solve failed to reach its tolerance."""

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class SaturationError(ConvergenceError):
    """Magnetization reached +-1 within floating tolerance during a solve."""
