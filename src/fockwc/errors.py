"""Exception types shared across the package.

Plain ``ValueError`` is raised for malformed arguments (wrong shapes,
non-finite entries, bad tolerances).  The classes below distinguish the
two failure modes the command line front end maps to its own exit codes.
"""

__all__ = ["PreconditionError", "NotApplicableError", "DegreeCapError"]


class PreconditionError(ValueError):
    """A documented mathematical precondition does not hold for the input."""


class NotApplicableError(PreconditionError):
    """A constructive procedure was invoked outside the class it serves."""


class DegreeCapError(RuntimeError):
    """Requested truncation degree exceeds the configured cap."""
