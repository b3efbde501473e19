"""Exact matrices, consecutive 2x2 minors, row permutations, determinants.

Rows and columns are 1-indexed throughout the public API; entry(i, j) is the
entry of row i in column j.  Matrices are immutable after construction.

determinant and rank are one elimination core behind a field dispatch:
_eliminate runs on int rows, modulo p over GF(p) and fraction-free
(Bareiss) over Q once _integer_rows has cleared each row's denominators,
and _eliminate_gf2 is its twin on rows packed into ints over GF(2).  Both
return (rank, det); harness.sample_gl calls them on the rows it draws.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    FieldMismatch,
    IndexOutOfRange,
    NotSquare,
    ParseError,
    SizeMismatch,
)
from .fields import FieldKind, FieldSpec, Scalar, parse_field


class ExactMatrix:
    """An immutable m x n matrix over a single FieldSpec.

    Entries are stored as canonical raw values (int residues over GF(p),
    Fractions over Q); Scalars are built only for entry, row and
    scalar_rows, on first use.
    """

    __slots__ = ("spec", "m", "n", "_raw", "_scalars")

    def __init__(self, spec: FieldSpec, rows) -> None:
        raw = []
        for row in rows:
            vals = []
            for v in row:
                if isinstance(v, Scalar):
                    if v.spec != spec:
                        raise FieldMismatch(f"cannot coerce {v!r} into {spec.name}")
                    vals.append(v.value)
                elif isinstance(v, str):
                    vals.append(spec.parse_raw(v))
                else:
                    vals.append(spec.canonical(v))
            raw.append(tuple(vals))
        self._init(spec, tuple(raw))

    def _init(self, spec: FieldSpec, raw: tuple) -> None:
        if not raw or not raw[0]:
            raise SizeMismatch("matrices need at least one row and one column")
        width = len(raw[0])
        if any(len(r) != width for r in raw):
            raise SizeMismatch("ragged rows: all rows must share one length")
        self.spec = spec
        self.m = len(raw)
        self.n = width
        self._raw = raw
        self._scalars = None

    @classmethod
    def _from_raw(cls, spec: FieldSpec, raw: tuple) -> "ExactMatrix":
        """Trusted constructor: raw is a tuple of equal-length tuples of
        canonical values over spec; only the shape is checked."""
        a = cls.__new__(cls)
        a._init(spec, raw)
        return a

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "ExactMatrix":
        return cls(spec, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, spec: FieldSpec, m: int, n: int) -> "ExactMatrix":
        return cls(spec, [[0] * n for _ in range(m)])

    @property
    def is_square(self) -> bool:
        return self.m == self.n

    def entry(self, i: int, j: int) -> Scalar:
        self._check_row(i)
        if not 1 <= j <= self.n:
            raise IndexOutOfRange(f"column {j} outside 1..{self.n}")
        return self.scalar_rows()[i - 1][j - 1]

    def row(self, i: int) -> tuple[Scalar, ...]:
        self._check_row(i)
        return self.scalar_rows()[i - 1]

    def scalar_rows(self) -> tuple[tuple[Scalar, ...], ...]:
        if self._scalars is None:
            spec = self.spec
            self._scalars = tuple(
                tuple(Scalar(spec, v) for v in r) for r in self._raw
            )
        return self._scalars

    def raw(self):
        """Row-major tuple of plain values (int residues or Fractions)."""
        return self._raw

    def _check_row(self, i: int) -> None:
        if not 1 <= i <= self.m:
            raise IndexOutOfRange(f"row {i} outside 1..{self.m}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.spec == other.spec and self._raw == other._raw

    def __hash__(self) -> int:
        return hash((self.spec, self._raw))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in r) for r in self._raw)
        return f"ExactMatrix({self.spec.name}, [{body}])"

    def to_json_dict(self) -> dict:
        return {
            "field": self.spec.name,
            "rows": [[str(v) for v in r] for r in self._raw],
        }

    @staticmethod
    def from_json_dict(obj) -> "ExactMatrix":
        if not isinstance(obj, dict) or "field" not in obj or "rows" not in obj:
            raise ParseError('matrix document needs "field" and "rows" keys')
        spec = parse_field(str(obj["field"]))
        rows = obj["rows"]
        if not isinstance(rows, list) or not rows:
            raise ParseError('"rows" must be a non-empty list of rows')
        parsed: dict[str, object] = {}  # literal -> raw value, for this document
        out = []
        for r, row in enumerate(rows, start=1):
            if not isinstance(row, list) or not row:
                raise ParseError(f"row {r} must be a non-empty list of entries")
            vals = []
            for c, cell in enumerate(row, start=1):
                if isinstance(cell, str):
                    v = parsed.get(cell)
                    if v is None:
                        try:
                            v = parsed[cell] = spec.parse_raw(cell)
                        except ParseError as exc:
                            raise ParseError(f"row {r}, column {c}: {exc}") from exc
                    vals.append(v)
                elif isinstance(cell, int):
                    vals.append(spec.canonical(cell))
                else:
                    raise ParseError(f"row {r}, column {c}: entries must be strings")
            out.append(tuple(vals))
        try:
            return ExactMatrix._from_raw(spec, tuple(out))
        except SizeMismatch as exc:
            raise ParseError(str(exc)) from exc


def matrix_from_csv_text(text: str, spec: FieldSpec) -> ExactMatrix:
    """Parse comma-separated entries; the field comes from the caller."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parsed = []
        for colno, cell in enumerate(line.split(","), start=1):
            try:
                parsed.append(spec.parse_scalar(cell))
            except ParseError as exc:
                raise ParseError(f"line {lineno}, column {colno}: {exc}") from exc
        rows.append(parsed)
    if not rows:
        raise ParseError("empty CSV matrix")
    try:
        return ExactMatrix(spec, rows)
    except SizeMismatch as exc:
        raise ParseError(str(exc)) from exc


def canonical_json(obj) -> str:
    """Canonical JSON rendering: sorted keys, compact separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@dataclass(frozen=True)
class RowPermutation:
    """A bijection sigma of {1..n}; image[i-1] = sigma(i)."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise SizeMismatch(f"not a permutation of 1..{n}: {self.image}")

    @property
    def n(self) -> int:
        return len(self.image)

    @staticmethod
    def identity(n: int) -> "RowPermutation":
        return RowPermutation(tuple(range(1, n + 1)))

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"index {i} outside 1..{self.n}")
        return self.image[i - 1]

    def sign(self) -> int:
        return image_sign(self.image)


def image_sign(image) -> int:
    """Sign (+1 or -1) of the permutation of 1..n with image[i-1] = sigma(i),
    from the parity of its even-length cycles."""
    n = len(image)
    seen = [False] * n
    sign = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = image[k] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def permute_rows(a: ExactMatrix, sigma: RowPermutation) -> ExactMatrix:
    """Row i of the result is row sigma(i) of a."""
    if sigma.n != a.m:
        raise SizeMismatch(f"permutation size {sigma.n} != row count {a.m}")
    raw = a.raw()
    return ExactMatrix._from_raw(a.spec, tuple(raw[k - 1] for k in sigma.image))


def consecutive_minor(a: ExactMatrix, i: int, j: int, k: int) -> Scalar:
    """det of the 2x2 minor on rows i, j and consecutive columns k, k+1."""
    if i == j:
        raise IndexOutOfRange("rows i and j must differ")
    if not 1 <= k < a.n:
        raise IndexOutOfRange(f"column window {k} outside 1..{a.n - 1}")
    return a.entry(i, k) * a.entry(j, k + 1) - a.entry(i, k + 1) * a.entry(j, k)


def wrap_minor(a: ExactMatrix, i: int, j: int) -> Scalar:
    """det of the wraparound 2x2 minor on rows i, j and columns (n, 1)."""
    if i == j:
        raise IndexOutOfRange("rows i and j must differ")
    if a.n < 2:
        raise IndexOutOfRange("wrap minor needs at least two columns")
    n = a.n
    return a.entry(i, n) * a.entry(j, 1) - a.entry(i, 1) * a.entry(j, n)


def _integer_rows(raw) -> tuple[list[list[int]], int]:
    """Rows of Fractions as integer rows, each multiplied by the lcm of its
    denominators, and scale, the product of those multipliers."""
    rows = []
    scale = 1
    for row in raw:
        d = lcm(*(f.denominator for f in row))
        scale *= d
        rows.append([f.numerator * (d // f.denominator) for f in row])
    return rows, scale


def _eliminate(rows, p: int) -> tuple[int, int]:
    """(rank, det) of int rows by forward elimination: modulo p for p > 0
    (entries must lie in [0, p)), fraction-free (Bareiss) over the integers
    for p = 0.  Columns without a pivot are skipped, so any shape works;
    det is 0 unless the matrix is square and of full rank.

    Below a pivot in column c only the columns right of c are updated; the
    rest is never read again.  Over the integers every updated entry is a
    minor of the input, so the division by the previous pivot is exact;
    that divisor carries over skipped columns.
    """
    mat = [list(row) for row in rows]
    m, n = len(mat), len(mat[0])
    r = 0
    sign = det = prev = 1
    for c in range(n):
        for piv in range(r, m):
            if mat[piv][c]:
                break
        else:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            sign = -sign
        top = mat[r]
        pivot = top[c]
        c1 = c + 1
        tail = top[c1:]
        if p:
            det = det * pivot % p
            neg_inv = p - pow(pivot, -1, p)
            for i in range(r + 1, m):
                row = mat[i]
                f = row[c] * neg_inv % p
                if f:
                    row[c1:] = [(x + f * y) % p for x, y in zip(row[c1:], tail)]
        else:
            for i in range(r + 1, m):
                row = mat[i]
                f = row[c]
                row[c1:] = [(x * pivot - f * y) // prev for x, y in zip(row[c1:], tail)]
            det = prev = pivot
        r += 1
        if r == m:
            break
    if r < n or m != n:
        return r, 0
    return r, sign * det % p if p else sign * det


def _eliminate_gf2(words, n: int) -> tuple[int, int]:
    """(rank, det) over GF(2) of rows packed into the low n bits of ints:
    the bit-packed twin of _eliminate.  Each nonzero row in turn is a
    pivot on its lowest set bit and is xored into the later rows holding
    that bit, so rows never swap; over GF(2) neither a swap nor the
    column order changes det."""
    rows = list(words)
    m = len(rows)
    r = 0
    for i in range(m):
        top = rows[i]
        if top:
            low = top & -top
            for j in range(i + 1, m):
                if rows[j] & low:
                    rows[j] ^= top
            r += 1
    return r, int(r == m == n)


def _rank_det(a: ExactMatrix) -> tuple[int, object]:
    """(rank, raw determinant) of a, by the elimination its field calls for."""
    raw = a.raw()
    spec = a.spec
    if spec.kind is FieldKind.GF2:
        words = []
        for row in raw:
            word = 0
            for v in row:
                word = word << 1 | v
            words.append(word)
        return _eliminate_gf2(words, a.n)
    if spec.kind is FieldKind.GFP:
        return _eliminate(raw, spec.p)
    rows, scale = _integer_rows(raw)
    r, det = _eliminate(rows, 0)
    return r, Fraction(det, scale)


def determinant(a: ExactMatrix) -> Scalar:
    """Exact determinant: bit-packed elimination over GF(2), modular
    elimination over GF(p), fraction-free (Bareiss) elimination over Q."""
    if not a.is_square:
        raise NotSquare(f"determinant of a {a.m}x{a.n} matrix")
    return a.spec.scalar(_rank_det(a)[1])


def rank(a: ExactMatrix) -> int:
    """Rank by the same exact elimination as determinant; over Q each row is
    first scaled to integers, which keeps the rank."""
    return _rank_det(a)[0]
