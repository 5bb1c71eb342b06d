"""Exception types shared across the package."""


class ResdpError(Exception):
    """Base class for all package errors."""


class NotSkewHermitian(ResdpError):
    """Matrix fails the skew-Hermitian condition for the selected form."""


class SingularEmbed(ResdpError):
    """Point embeds to a singular matrix (null fiber of the hyperbolic case)."""


class FiberMismatch(ResdpError):
    """Requested group element between points on different fibers."""


class NotInImage(ResdpError):
    """Conjugated matrix does not match the Lie algebra pattern."""


class OnAxis(ResdpError):
    """Operation requires both complex components nonzero."""


class ZeroPoint(ResdpError):
    """Operation undefined at the origin."""


class OffDomain(ResdpError):
    """Point lies outside the domain of the requested structure."""


class NoConvergence(ResdpError):
    """Iterative solver exhausted its iteration budget."""


class EmptyFiber(ResdpError):
    """Requested fiber level contains no points."""


class DomainExit(ResdpError):
    """Trajectory left the structure domain.

    Carries the time at which the exit was detected.
    """

    def __init__(self, time, message=None):
        self.time = time
        super().__init__(message or f"trajectory left the domain at t={time}")


class StepRejected(ResdpError):
    """Integration step rejected (state norm blowup guard)."""


class BadParams(ResdpError):
    """Geometry parameters out of range."""
