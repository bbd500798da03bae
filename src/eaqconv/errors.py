"""Exception hierarchy shared across the package."""


class EaqconvError(Exception):
    """Base class for all package errors."""


class PolyParseError(EaqconvError):
    """Raised when the polynomial / matrix text grammar cannot be parsed."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class DimensionMismatch(EaqconvError):
    """Operands have incompatible shapes."""


class ValidationError(EaqconvError):
    """A classical check matrix fails the admission requirements."""


class CatastrophicInput(ValidationError):
    """Some invariant factor of the check matrix is not a unit."""

    def __init__(self, which, factor):
        self.which = which
        self.factor = factor
        super().__init__(f"{which} is catastrophic: invariant factor {factor} != 1")


class NotDelayFree(ValidationError):
    """The check matrix has an entry with a negative exponent, or a pure-delay unit factor D^k with k != 0."""

    def __init__(self, which, factor=None, entry=None):
        self.which, self.factor, self.entry = which, factor, entry
        why = f"entry {entry} has a negative exponent" if entry else f"invariant factor {factor} is a proper delay"
        super().__init__(f"{which} is not delay-free: {why}")


class RankDeficient(ValidationError):
    """The check matrix does not have full row rank."""

    def __init__(self, which, rank, rows):
        self.which = which
        super().__init__(f"{which} is rank deficient: rank {rank} < {rows} rows")


class WindowTooSmall(EaqconvError):
    """The simulation window cannot hold the requested supports."""


class InternalError(EaqconvError):
    """An internal invariant of the construction failed on admitted input."""
