"""Exception types shared across the package."""


class FracsmoothError(Exception):
    """Base class for all package errors."""


class ConfigError(FracsmoothError):
    """Invalid configuration or out-of-range argument."""


class QuadratureError(FracsmoothError):
    """A quadrature failed its convergence or tail-control check."""


class SimulationError(FracsmoothError):
    """Path simulation aborted (non-finite coefficients, bad grid, ...)."""


class DegenerateCurveError(FracsmoothError):
    """A diagnostic curve is identically zero (constant payoff)."""


class DegeneratePathsError(FracsmoothError):
    """No spot moves: simulated paths that carry no hedging error, or a
    law of S_t whose quadrature spots all round to one value."""


class ExactHedgeError(FracsmoothError):
    """Rate fit refused: the hedge is exact and errors are zero."""
