"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid grid sizes, physical parameters, scenarios, or config files."""


class SolverError(RuntimeError):
    """A linear solve failed (non-convergence, zero pivot, or NaN) or a run blew up.

    ``best`` carries the last iterate when an iterative method gives up,
    so callers can inspect how far the solve got.
    """

    def __init__(self, message: str, *, best=None):
        super().__init__(message)
        self.best = best
