"""Exception types, and the base of the value classes, shared across the
package."""


class TwoRowError(Exception):
    """Base class for every error raised by this package."""


class FieldMismatch(TwoRowError):
    """Operands live over different field specs."""


class DivisionByZero(TwoRowError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class IndexOutOfRange(TwoRowError, IndexError):
    """A 1-based row/column index fell outside the matrix, or indices coincide."""


class NotSquare(TwoRowError):
    """The operation requires a square matrix."""


class SizeMismatch(TwoRowError):
    """Operand shapes are incompatible."""


class DegenerateMatrix(TwoRowError):
    """The matrix is too small for the requested construction."""


class DegenerateGraph(TwoRowError):
    """The graph is too small for the requested construction."""


class SizeBound(TwoRowError):
    """Input exceeds the configured enumeration bound."""


class IncompleteTrack(TwoRowError):
    """The track does not cover every column of the matrix."""


class ZeroEntryInString(TwoRowError):
    """The requested string hits a zero entry."""


class SingularBasis(TwoRowError):
    """The basis matrix is not invertible."""


class DimensionMismatch(TwoRowError):
    """Vector or basis dimensions do not match the pairing."""


class AssertionFailure(TwoRowError):
    """A sweep invariant failed; carries the offending matrix."""

    def __init__(self, message: str, matrix=None):
        super().__init__(message)
        self.matrix = matrix


class ParseError(TwoRowError, ValueError):
    """Malformed input text or document."""


class Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in __slots__ (a name with a leading
    underscore, such as __dict__ for a cached property, is not a field),
    sets them in its own __init__ through object.__setattr__, and returns
    them in the same order from _key.  Equality and hashing go by that
    field tuple and repr shows it as Name(field=value, ...), as for a
    frozen dataclass; assignment and deletion raise AttributeError.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        names = [name for name in type(self).__slots__ if name[0] != "_"]
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, self._key()))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
