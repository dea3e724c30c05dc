"""Exception types shared across the package.

Plain ``ValueError`` is raised for malformed arguments (wrong shapes,
non-finite entries, bad tolerances).  The classes below are all
``ValueError``s too, so every refused input is one: the command line front
end exits 2 on each, except that a ``NotApplicableError`` from a
conjugation finder is its verdict "n/a" (exit 1).
"""

__all__ = ["PreconditionError", "NotApplicableError", "DegreeCapError"]


class PreconditionError(ValueError):
    """A documented mathematical precondition does not hold for the input."""


class NotApplicableError(PreconditionError):
    """A constructive procedure was invoked outside the class it serves."""


class DegreeCapError(PreconditionError):
    """Requested truncation degree exceeds the configured cap."""
