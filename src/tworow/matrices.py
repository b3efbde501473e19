"""Exact matrices, consecutive 2x2 minors, row permutations, determinants.

Rows and columns are 1-indexed throughout the public API; entry(i, j) is the
entry of row i in column j.  Matrices are immutable after construction.

Every fact derived from a matrix that is asked for more than once lives in
one dict per matrix, ExactMatrix._memo, filled on first use and gone with
the matrix.  Its keys are fixed: "ints", the integer rows (_int_rows);
"int_cols", the same rows read by column with the same scale (_int_cols),
the view that the track sums, the track list and det_by_tracks read;
"rank_det", the (rank, determinant) pair of _rank_det; "cols", one row
bitmask per column, bit i set where row i is nonzero, over every field
(_col_masks), which the null-mask scan, the GF(2) elimination, the
1-blocks and the track list read; and, filled by rowgraph, "plain" and
"wrap", the row null masks on the consecutive column windows and on the
wrap window (n, 1) alone, and "windows", the masks on the one window set
most recently passed to rowgraph.null_masks, with that set.  Only this
module and rowgraph read or write it, and only this module writes "cols".

determinant and rank are one elimination core behind a field dispatch.
_eliminate runs on int rows: modulo p on rows packed into ints, one lane
per column, so that clearing a column below its pivot costs one big-int
multiply-add per row; and fraction-free (Bareiss) over Q, on the rows with
their denominators cleared.  _eliminate_gf2 is the twin on rows packed
into bits over GF(2), which _rank_det hands the column masks: A and its
transpose share rank and determinant.  Both return (rank, det);
harness.sample_gl calls them on the rows it draws and hands the pair of
the draw it keeps to ExactMatrix._from_raw, so its matrix is eliminated
once.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from .errors import (
    FieldMismatch,
    IndexOutOfRange,
    NotSquare,
    ParseError,
    SizeMismatch,
    Value,
)
from .fields import FieldKind, FieldSpec, Scalar, parse_field

# byte 0 to the digit "0" and every other byte to "1", for int(..., 2)
_BINARY_DIGITS = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)


class ExactMatrix:
    """An immutable m x n matrix over a single FieldSpec.

    Entries are stored as canonical raw values (int residues over GF(p),
    Fractions over Q); Scalars are built only for entry, row and
    scalar_rows, on first use, and derived facts only as _memo's keys ask
    (module docstring).
    """

    __slots__ = ("spec", "m", "n", "_raw", "_scalars", "_memo")

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
        self._memo: dict = {}

    @classmethod
    def _from_raw(
        cls, spec: FieldSpec, raw: tuple, rank_det=None, cols=None
    ) -> "ExactMatrix":
        """Trusted constructor: raw is a tuple of equal-length tuples of
        canonical values over spec; only the shape is checked.  A caller
        that has eliminated raw already passes its (rank, raw determinant)
        as rank_det, and one that knows where raw is nonzero passes the
        column masks of _col_masks as cols; both go into _memo unchecked."""
        a = cls.__new__(cls)
        a._init(spec, raw)
        if rank_det is not None:
            a._memo["rank_det"] = rank_det
        if cols is not None:
            a._memo["cols"] = cols
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
        GF(p) these are the raw rows and 1.  Computed once, in _memo."""
        ints = self._memo.get("ints")
        if ints is None:
            if self.spec.kind is FieldKind.RATIONAL:
                ints = _integer_rows(self._raw)
            else:
                ints = (self._raw, 1)
            self._memo["ints"] = ints
        return ints

    def _int_cols(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(columns, scale): _int_rows read by column, so that columns[c][r]
        is rows[r][c], with the same scale.  Computed once, in _memo."""
        found = self._memo.get("int_cols")
        if found is None:
            rows, scale = self._int_rows()
            found = self._memo["int_cols"] = tuple(zip(*rows)), scale
        return found

    def _col_masks(self) -> tuple[int, ...]:
        """One row bitmask per column: bit i of mask c is set iff row i is
        nonzero in column c.  Each row becomes one byte per entry, nonzero
        where the entry is (over Q, on the integer rows), and the rows are
        joined last row first, so that column c, every n-th byte from c,
        reads as a binary number with row i at bit i.  Computed once, in
        _memo."""
        cols = self._memo.get("cols")
        if cols is None:
            rows = self._int_rows()[0]
            if 0 < self.spec.characteristic < 256:
                rows = map(bytearray, rows)
            else:
                rows = [bytearray(map(bool, row)) for row in rows]
            bits = b"".join(reversed(list(rows))).translate(_BINARY_DIGITS)
            n = self.n
            cols = self._memo["cols"] = tuple([int(bits[c::n], 2) for c in range(n)])
        return cols

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
        """Read {"field": name, "rows": [[literal, ...], ...]}.

        Each distinct literal is parsed once per document and kept in a
        cache.  Once the cache holds a literal, a row is first read in one
        pass of lookups; a row with any cell not in the cache (a new
        literal, an int, or a bad cell) is read cell by cell instead, with
        every check and message of that loop.
        """
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
            if parsed:
                try:
                    out.append(tuple(map(parsed.__getitem__, row)))
                    continue
                except (KeyError, TypeError):
                    pass  # a cell not in the cache: read the row cell by cell
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
                elif isinstance(cell, int) and not isinstance(cell, bool):
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
                parsed.append(spec.parse_raw(cell))
            except ParseError as exc:
                raise ParseError(f"line {lineno}, column {colno}: {exc}") from exc
        rows.append(tuple(parsed))
    if not rows:
        raise ParseError("empty CSV matrix")
    try:
        return ExactMatrix._from_raw(spec, tuple(rows))
    except SizeMismatch as exc:
        raise ParseError(str(exc)) from exc


def canonical_json(obj) -> str:
    """Canonical JSON rendering: sorted keys, compact separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class RowPermutation(Value):
    """A bijection sigma of {1..n}; image[i-1] = sigma(i)."""

    __slots__ = ("image",)

    def __init__(self, image: tuple[int, ...]) -> None:
        n = len(image)
        # 2.0 and True compare equal to ints, so the sorted test alone passes them
        if any(type(v) is not int for v in image) or sorted(image) != list(range(1, n + 1)):
            raise SizeMismatch(f"not a permutation of 1..{n}: {image}")
        self._set(tuple(image))

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
    """(rank, raw determinant) of a, by the elimination its field calls for;
    computed once, in a's _memo."""
    found = a._memo.get("rank_det")
    if found is not None:
        return found
    spec = a.spec
    if spec.kind is FieldKind.GF2:
        # the rows of the transpose, which has the rank and det of a
        found = _eliminate_gf2(a._col_masks(), a.m)
    else:
        p = spec.characteristic
        rows, scale = a._int_rows()
        r, det = _eliminate(rows, p)
        found = r, det if p else Fraction(det, scale)
    a._memo["rank_det"] = found
    return found


def determinant(a: ExactMatrix) -> Scalar:
    """Exact determinant: bit-packed elimination over GF(2), lane-packed
    modular elimination over GF(p), fraction-free (Bareiss) elimination
    over Q on the cached integer rows.  One elimination per matrix serves
    determinant and rank."""
    if not a.is_square:
        raise NotSquare(f"determinant of a {a.m}x{a.n} matrix")
    return a.spec.scalar(_rank_det(a)[1])


def rank(a: ExactMatrix) -> int:
    """Rank by the same exact elimination as determinant; over Q each row is
    first scaled to integers, which keeps the rank."""
    return _rank_det(a)[0]
