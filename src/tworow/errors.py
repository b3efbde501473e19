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

    A subclass names its fields once, in __slots__; a name with a leading
    underscore, such as __dict__ for a cached property or _plan, is not a
    field.  When the class is made, _fields gets the field names and
    _setters the __set__ of every slot but __dict__, both in slot order.
    Its __init__ checks its arguments and hands every slot value, in slot
    order, to _set; _make builds an instance from trusted slot values
    without __init__.  Equality and hashing go by the field tuple, _key,
    repr shows it as Name(field=value, ...), as for a frozen dataclass, and
    pickling rebuilds through __init__ from it; assignment and deletion
    raise AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _setters: tuple

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__")
        if slots is not None:  # a subclass without slots keeps its base's
            cls._fields = tuple(name for name in slots if name[0] != "_")
            cls._setters = tuple(
                cls.__dict__[name].__set__ for name in slots if name != "__dict__"
            )

    def _set(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    @classmethod
    def _make(cls, *values):
        """The instance with these slot values, unchecked."""
        obj = object.__new__(cls)
        # _set's loop, inline: the graph kernels make their graphs here
        for setter, value in zip(cls._setters, values):
            setter(obj, value)
        return obj

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return other is self or self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
