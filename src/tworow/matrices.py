"""Exact matrices, consecutive 2x2 minors, row permutations, determinants.

Rows and columns are 1-indexed throughout the public API; entry(i, j) is the
entry of row i in column j.  Matrices are immutable after construction.

determinant and rank are one elimination core behind a field dispatch.
_eliminate runs on int rows: modulo p on rows packed into ints, one lane
per column, so that clearing a column below its pivot costs one big-int
multiply-add per row; and fraction-free (Bareiss) over Q.  Over Q it reads
the rows with their denominators cleared, which each matrix computes once
and caches (ExactMatrix._int_rows; the null-connectedness kernel and the
track sums read the same cache).  _eliminate_gf2 is the twin on rows packed
into bits over GF(2).  Both return (rank, det); harness.sample_gl calls
them on the rows it draws.
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
    scalar_rows, and the integer rows only for _int_rows, on first use.
    """

    __slots__ = ("spec", "m", "n", "_raw", "_scalars", "_ints")

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
        self._ints = None

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

    def _int_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(rows, scale): the rows as int tuples and the product of the
        multipliers that cleared their denominators, so that a product
        taking one entry from each row is scale times the raw one.  Over
        GF(p) these are the raw rows and 1.  Computed once."""
        if self._ints is None:
            if self.spec.kind is FieldKind.RATIONAL:
                self._ints = _integer_rows(self._raw)
            else:
                self._ints = (self._raw, 1)
        return self._ints

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


def _integer_rows(raw) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rows of Fractions as integer rows, each multiplied by the lcm of its
    denominators, and scale, the product of those multipliers."""
    rows = []
    scale = 1
    for row in raw:
        d = lcm(*(f.denominator for f in row))
        scale *= d
        rows.append(tuple(f.numerator * (d // f.denominator) for f in row))
    return tuple(rows), scale


def _eliminate(rows, p: int) -> tuple[int, int]:
    """(rank, det) of int rows by forward elimination: modulo p for p > 0
    (entries must lie in [0, p)) by _eliminate_mod, fraction-free (Bareiss)
    over the integers for p = 0.  Columns without a pivot are skipped, so
    any shape works; det is 0 unless the matrix is square and of full rank.

    Below a pivot in column c only the columns right of c are updated; the
    rest is never read again.  Over the integers every updated entry is a
    minor of the input, so the division by the previous pivot is exact;
    that divisor carries over skipped columns.
    """
    if p:
        return _eliminate_mod(rows, p)
    mat = [list(row) for row in rows]
    m, n = len(mat), len(mat[0])
    r = 0
    sign = prev = 1
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
        for i in range(r + 1, m):
            row = mat[i]
            f = row[c]
            row[c1:] = [(x * pivot - f * y) // prev for x, y in zip(row[c1:], tail)]
        prev = pivot
        r += 1
        if r == m:
            break
    if r < n or m != n:
        return r, 0
    return r, sign * prev


def _eliminate_mod(rows, p: int) -> tuple[int, int]:
    """(rank, det) modulo p of int rows with entries in [0, p), on rows
    packed into ints: column k is the lane of bits [w*k, w*k + w).

    Clearing column c below its pivot adds f * tail to each row x whose
    lane c is nonzero mod p, with f = -x_c / pivot, and tail the pivot
    row's lanes right of c reduced mod p: one big-int multiply-add per row.
    Lane c itself and the lanes left of it are never read again, so they
    are left as they are.  Lanes are reduced only to test them for zero
    and to build a tail, never in place, so they grow: a lane starts below
    p and gains at most f * t <= (p-1)**2 once per pivot, of which there
    are at most min(m, n).  The lane width w is the bit length of that
    bound, (p-1) * (1 + min(m, n) * (p-1)), so lanes never carry into each
    other.
    """
    m, n = len(rows), len(rows[0])
    w = ((p - 1) * (1 + min(m, n) * (p - 1))).bit_length()
    lane = (1 << w) - 1
    packed = []
    for row in rows:
        x = 0
        for v in reversed(row):
            x = x << w | v
        packed.append(x)
    r = 0
    sign = det = 1
    for c in range(n):
        sh = w * c
        for piv in range(r, m):
            v = packed[piv] >> sh & lane
            if v and v % p:
                break
        else:
            continue
        top = packed[piv]
        if piv != r:
            packed[piv] = packed[r]
            packed[r] = top
            sign = -sign
        pivot = v % p
        det = det * pivot % p
        # lanes past the pivot row's last nonzero one add nothing
        tail = sum([(top >> t & lane) % p << t for t in range(sh + w, top.bit_length(), w)])
        if tail:
            neg_inv = p - pow(pivot, -1, p)
            # the rows between r and piv were tested above: zero mod p in lane c
            for i in range(piv + 1, m):
                x = packed[i]
                v = x >> sh & lane
                if v:
                    f = v * neg_inv % p
                    if f:
                        packed[i] = x + f * tail
        r += 1
        if r == m:
            break
    if r < n or m != n:
        return r, 0
    return r, sign * det % p


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
    spec = a.spec
    if spec.kind is FieldKind.GF2:
        words = []
        for row in a.raw():
            word = 0
            for v in row:
                word = word << 1 | v
            words.append(word)
        return _eliminate_gf2(words, a.n)
    p = spec.characteristic
    rows, scale = a._int_rows()
    r, det = _eliminate(rows, p)
    return r, det if p else Fraction(det, scale)


def determinant(a: ExactMatrix) -> Scalar:
    """Exact determinant: bit-packed elimination over GF(2), lane-packed
    modular elimination over GF(p), fraction-free (Bareiss) elimination
    over Q on the cached integer rows."""
    if not a.is_square:
        raise NotSquare(f"determinant of a {a.m}x{a.n} matrix")
    return a.spec.scalar(_rank_det(a)[1])


def rank(a: ExactMatrix) -> int:
    """Rank by the same exact elimination as determinant; over Q each row is
    first scaled to integers, which keeps the rank."""
    return _rank_det(a)[0]
