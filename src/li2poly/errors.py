"""Exception types shared across the package: every rejected input is a
ValueError, and a subclass exists only where a caller tells it apart."""


class InputError(ValueError):
    """A well-formed call was made on input data we must reject."""


class HRepParseError(InputError):
    """Malformed H-representation text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonPointedError(InputError):
    """The polyhedron has a nonzero lineality space (no vertices)."""
