"""Exception hierarchy shared across the package."""


class SafeAdpError(Exception):
    """Base class for all package-specific errors."""


class SingularGradient(SafeAdpError):
    """Safe-set gradient requested at (or numerically at) the set center."""


class BoundaryViolation(SafeAdpError):
    """Barrier evaluated at a point that left the numerically safe interior."""


class InputOutOfBox(SafeAdpError):
    """Control input exceeds the symmetric input box beyond tolerance."""


class QpInfeasible(SafeAdpError):
    """Box and CBF rows of the QP conflict; the relaxation cannot fix it."""


class QpSolverFailed(SafeAdpError):
    """The QP solver ended without a verified optimum: no convergence
    within its iteration limit, or a point failing the KKT check."""


class ConfigError(SafeAdpError):
    """Malformed configuration file or unknown key."""


class RunEnded(SafeAdpError):
    """Raised by an integrator hook to end the run; args[0] is the status."""
