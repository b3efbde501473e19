"""Exact scalar arithmetic over GF(2), GF(p), and the rationals.

Scalars are immutable and canonical on construction: GF values are stored as
residues in [0, p), rationals as reduced fractions with positive denominator.
Equality and hashing are therefore structural.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch, ParseError, Value

_MAX_PRIME = 1 << 31
# a Q literal: an integer or a/b, in ASCII digits
_RATIONAL_RE = re.compile(r"[-+]?[0-9]+(?:/[0-9]+)?\Z")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; bases (2,3,5,7) decide every n < 3.2e9."""
    if n < 2:
        return False
    for b in (2, 3, 5, 7):
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldKind(enum.Enum):
    GF2 = "gf2"
    GFP = "gfp"
    RATIONAL = "rational"


class FieldSpec(Value):
    """A supported coefficient field: GF(2), GF(p) for an odd prime p, or Q.

    GF(2) is its own kind (it admits bit-packed fast paths); ``gf(2)`` parses
    to it, so every field has exactly one spec value.
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: FieldKind, p: int | None = None) -> None:
        if kind is FieldKind.GF2:
            if p != 2:
                raise ParseError("GF2 spec must carry p=2; use FieldSpec.gf(2)")
        elif kind is FieldKind.GFP:
            if not isinstance(p, int) or not (2 < p < _MAX_PRIME) or not is_prime(p):
                raise ParseError(f"gf(p) needs an odd prime p below 2**31, got {p!r}")
        else:
            if p is not None:
                raise ParseError("rational spec carries no modulus")
        self._set(kind, p)

    @staticmethod
    def gf(p: int) -> "FieldSpec":
        if p == 2:
            return GF2
        return FieldSpec(FieldKind.GFP, p)

    @staticmethod
    def rationals() -> "FieldSpec":
        return QQ

    @property
    def characteristic(self) -> int:
        return 0 if self.kind is FieldKind.RATIONAL else self.p  # type: ignore[return-value]

    @property
    def name(self) -> str:
        if self.kind is FieldKind.GF2:
            return "gf2"
        if self.kind is FieldKind.GFP:
            return f"gf({self.p})"
        return "q"

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, 0)

    @property
    def one(self) -> "Scalar":
        return Scalar(self, 1)

    def scalar(self, value) -> "Scalar":
        return Scalar(self, value)

    def canonical(self, value):
        """The raw canonical value of a plain number: over GF(p) the residue
        in [0, p) of an int (a bool is one), over Q a Fraction.  Over GF(p)
        anything else raises FieldMismatch rather than be truncated: 3/2 is
        4 in GF(5), not 1.  Over Q a float is taken as the exact binary
        fraction it stores, not the decimal it prints as: 0.1 becomes
        3602879701896397/36028797018963968.  Whatever Fraction cannot take
        (None, a complex, nan, an infinity, a bad string) raises
        FieldMismatch over Q as well."""
        if self.kind is FieldKind.RATIONAL:
            if type(value) is Fraction:
                return value
            try:
                return Fraction(value)
            except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                raise FieldMismatch(f"cannot coerce {value!r} into {self.name}") from None
        if not isinstance(value, int):
            raise FieldMismatch(f"cannot coerce {value!r} into {self.name}")
        return value % self.p  # type: ignore[operator]

    def parse_raw(self, text: str):
        """Parse a canonical literal to its raw value: decimal residue for GF,
        a/b or int for Q.  Over Q nothing else is a literal: no decimal
        point, exponent or digit separator, so a short text cannot stand
        for a huge integer."""
        text = text.strip()
        try:
            if self.kind is FieldKind.RATIONAL:
                if not _RATIONAL_RE.match(text):
                    raise ValueError(text)
                return Fraction(text)
            return int(text) % self.p  # type: ignore[operator]
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad {self.name} scalar literal {text!r}") from exc

    def parse_scalar(self, text: str) -> "Scalar":
        return Scalar(self, self.parse_raw(text))


GF2 = FieldSpec(FieldKind.GF2, 2)
GF3 = FieldSpec(FieldKind.GFP, 3)
GF5 = FieldSpec(FieldKind.GFP, 5)
QQ = FieldSpec(FieldKind.RATIONAL)

_FIELD_NAME_RE = re.compile(r"gf\((\d+)\)\Z")


def parse_field(name: str) -> FieldSpec:
    """Parse a field name: "gf2", "gf(p)" such as "gf(5)", or "q"."""
    text = name.strip().lower()
    if text == "gf2":
        return GF2
    if text == "q":
        return QQ
    m = _FIELD_NAME_RE.match(text)
    if m:
        try:
            return FieldSpec.gf(int(m.group(1)))
        except ValueError:  # ParseError, or int() past its digit limit
            raise ParseError(f"field name {name!r} does not name a prime field")
    raise ParseError(f"unknown field name {name!r}; expected gf2, gf(p), or q")


class Scalar:
    """An immutable field element; arithmetic via operators, inverse via inv()."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        if isinstance(value, Scalar):
            if value.spec != spec:
                raise FieldMismatch(f"cannot coerce {value!r} into {spec.name}")
            value = value.value
        self.spec = spec
        self.value = spec.canonical(value)

    @staticmethod
    def _of(spec: FieldSpec, value) -> "Scalar":
        """The scalar of a value already canonical in spec, unchecked: a
        residue in [0, p) over GF(p), a reduced Fraction over Q."""
        s = object.__new__(Scalar)
        s.spec = spec
        s.value = value
        return s

    def _check(self, other: "Scalar") -> None:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.spec != self.spec:
            raise FieldMismatch(
                f"mixed fields {self.spec.name} and {other.spec.name}"
            )

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.spec, self.value + other.value)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.spec, self.value - other.value)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.spec, self.value * other.value)

    def __neg__(self) -> "Scalar":
        return Scalar(self.spec, -self.value)

    def inv(self) -> "Scalar":
        if not self.value:
            raise DivisionByZero(f"zero has no inverse in {self.spec.name}")
        if self.spec.kind is FieldKind.RATIONAL:
            return Scalar(self.spec, 1 / self.value)
        return Scalar(self.spec, pow(self.value, -1, self.spec.p))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return self * other.inv()

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.spec == other.spec and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.spec, self.value))

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.spec.name}, {self.value})"

