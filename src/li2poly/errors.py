"""Exception types shared across the package.

Everything that rejects an *input* (as opposed to a usage bug) derives from
InputError so the command line layer can map it to a single exit code.
"""


class LI2PolyError(Exception):
    """Base class for all package errors."""


class InputError(LI2PolyError):
    """A well-formed call was made on input data we must reject."""


class HRepParseError(InputError):
    """Malformed H-representation text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DivisibilityError(InputError):
    """Constructor parameters violate the divisibility assumption."""


class InfeasibleError(InputError):
    """The inequality system has no solution."""


class UnboundedInputError(InputError):
    """A bounded polytope was required but the input is unbounded."""


class NonPointedError(InputError):
    """The polyhedron has a nonzero lineality space (no vertices)."""


class RedundantInputError(InputError):
    """A nonredundant system was required but redundant rows are present."""


class NotSimpleError(InputError):
    """A simple polytope was required (vertices on exactly d facets)."""


class CapExceededError(InputError):
    """faces.check_caps's work estimate is over budget; raise it with --max-work."""


class GenericObjectiveError(InputError):
    """Could not draw a tie-free objective within the redraw limit."""
