"""1-blocks, the unique block partition, 1-tracks, and track cancellation.

A 1-block is a maximal submatrix M on a row set I and an interval of
consecutive columns (cyclically consecutive when flagged) such that every
entry is nonzero, the submatrix has at least two rows and two columns, and
the null-connectedness graph restricted to I is connected.  Such blocks have
one-dimensional row space, are pairwise disjoint as entry sets, and induce a
unique partition of the matrix into blocks and 1x1 singletons.  That
partition is computed once, as an owner grid naming the block of each cell,
and the partition, the tracks and the CLI outline all read it.

A complete 1-track is an abutting chain of members (nonzero 1x1 cells or
minors inside a single block) covering all n columns, with no two consecutive
members inside a common block.  Grouping the nonzero strings of the
determinant expansion by their canonical track shows each track with a
multi-row member sums to zero, which re-derives the determinant.  A string
is narrow when no two consecutive cells (closed when cyclic) share a block,
so that its track has only 1x1 members, and wide otherwise.

det_by_tracks is a subset DP over the columns that sums the narrow and the
wide strings apart, returns the first and checks that the second is zero.
A track sum is a generalized Laplace product: the sign of one string of the
track times its member minors; it is the one sum of a track.  Only the track
list walks the strings one by one, in lexicographic order, carrying no
products or signs; a narrow string is a track of its own, and only the wide
ones are canonicalized.  The DP places row r with one sign flip per used row
of larger index, and track_sum takes one string's sign from image_sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AssertionFailure,
    DegenerateMatrix,
    IncompleteTrack,
    NotSquare,
    SizeBound,
    SizeMismatch,
    ZeroEntryInString,
)
from .fields import Scalar
from .matrices import ExactMatrix, RowPermutation, _eliminate, image_sign
from .rowgraph import row_null_masks

DEFAULT_TRACK_BOUND = 8


@dataclass(frozen=True)
class OneBlock:
    """Rows I (sorted, 1-based) on columns col_start..col_start+col_len-1,
    taken modulo n when cyclic."""

    rows: tuple[int, ...]
    col_start: int
    col_len: int
    cyclic: bool

    def columns(self, n: int) -> tuple[int, ...]:
        return tuple((self.col_start - 1 + t) % n + 1 for t in range(self.col_len))

    def cells(self, n: int) -> set[tuple[int, int]]:
        cols = self.columns(n)
        return {(i, c) for i in self.rows for c in cols}

    def to_json_dict(self) -> dict:
        return {
            "rows": list(self.rows),
            "cols": {"start": self.col_start, "len": self.col_len, "cyclic": self.cyclic},
        }


@dataclass(frozen=True)
class BlockPartition:
    """The unique split of all cells into 1-blocks and 1x1 singletons."""

    blocks: tuple[OneBlock, ...]
    nonzero_singletons: tuple[tuple[int, int], ...]
    zero_singletons: tuple[tuple[int, int], ...]
    # owner[i-1][c-1] is the index in blocks of the block holding cell
    # (i, c), or -1 for a singleton
    owner: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "blocks": [b.to_json_dict() for b in self.blocks],
            "nonzero_singletons": [list(c) for c in self.nonzero_singletons],
            "zero_singletons": [list(c) for c in self.zero_singletons],
        }


@dataclass(frozen=True)
class TrackMember:
    """One track member: a single nonzero cell (one row, one column) or a
    k x k minor inside a 1-block (k >= 2 sorted rows, k consecutive columns)."""

    rows: tuple[int, ...]
    col_start: int
    col_len: int

    @property
    def is_minor(self) -> bool:
        return self.col_len >= 2

    def columns(self, n: int) -> tuple[int, ...]:
        return tuple((self.col_start - 1 + t) % n + 1 for t in range(self.col_len))


@dataclass(frozen=True)
class OneTrack:
    members: tuple[TrackMember, ...]
    cyclic: bool

    @property
    def total_cols(self) -> int:
        return sum(m.col_len for m in self.members)

    def is_complete(self, n: int) -> bool:
        return self.total_cols == n

    @property
    def has_minor(self) -> bool:
        return any(m.is_minor for m in self.members)


@dataclass(frozen=True)
class TrackString:
    """The diagonal-style entry string picked by sigma: entry sigma(i) in column i."""

    sigma: RowPermutation
    entries: tuple[Scalar, ...]


def string_of(a: ExactMatrix, sigma: RowPermutation) -> TrackString:
    if not a.is_square:
        raise NotSquare("strings are defined for square matrices")
    if sigma.n != a.n:
        raise SizeMismatch(f"permutation size {sigma.n} != matrix size {a.n}")
    entries = tuple(a.entry(sigma(i), i) for i in range(1, a.n + 1))
    if not all(entries):
        raise ZeroEntryInString(f"string of {sigma.image} hits a zero entry")
    return TrackString(sigma, entries)


def _nonzero_runs(bits: int, n: int, cyclic: bool) -> list[tuple[int, int]]:
    """Maximal runs of set bits in the n-bit mask as (start0, length),
    length >= 2 only."""
    if cyclic and bits == (1 << n) - 1:
        return [(0, n)]
    starts = bits & ~(bits << 1)
    ends = bits & ~(bits >> 1)
    runs = []
    while starts:
        start = (starts & -starts).bit_length() - 1
        end = (ends & -ends).bit_length() - 1
        starts &= starts - 1
        ends &= ends - 1
        runs.append((start, end - start + 1))
    if cyclic and len(runs) >= 2 and bits & 1 and bits >> (n - 1) & 1:
        # merge the run touching column n into the one starting at column 1
        first = runs.pop(0)
        last = runs.pop()
        runs.append((last[0], last[1] + first[1]))
    return [r for r in runs if r[1] >= 2]


def _grow_block(
    rows: int,
    start0: int,
    length: int,
    bits: list[int],
    masks: list[int],
    n: int,
    cyclic: bool,
) -> tuple[tuple[int, ...], int, int]:
    """Close a valid seed (rows as a 0-based bitmask) under one-step
    extensions; the fixpoint is the unique maximal block containing it."""
    m = len(bits)
    full = (1 << n) - 1
    changed = True
    while changed:
        changed = False
        common = full
        for r in range(m):
            if rows >> r & 1:
                common &= bits[r]
        # widen columns while every current row stays nonzero
        while length < n:
            left = (start0 - 1) % n
            if (cyclic or start0 > 0) and common >> left & 1:
                start0, length = left, length + 1
                changed = True
                continue
            right = (start0 + length) % n
            if (cyclic or start0 + length < n) and common >> right & 1:
                length += 1
                changed = True
                continue
            break
        span = ((1 << length) - 1) << start0
        span = (span | span >> n) & full
        for cand in range(m):
            if rows >> cand & 1 or not masks[cand] & rows:
                continue
            if bits[cand] & span == span:
                rows |= 1 << cand
                changed = True
    if cyclic and length == n:
        start0 = 0
    return tuple(r + 1 for r in range(m) if rows >> r & 1), start0, length


def _one_blocks(
    a: ExactMatrix, cyclic: bool
) -> tuple[tuple[OneBlock, ...], tuple[tuple[int, ...], ...]]:
    """All maximal 1-blocks, sorted by smallest row then start column, and
    the m x n owner grid: owner[i][c] is the index in that tuple of the
    block holding cell (i+1, c+1), or -1 when the cell is a singleton.

    Seeds are (null-connected row pair, maximal all-nonzero column run);
    each seed is grown to its fixpoint under one-step extensions.  Distinct
    blocks are disjoint, so a seed grows into the one block holding its
    first cell: a seed whose first cell is owned already is skipped, and
    every other seed yields a new block.
    """
    if a.n < 2:
        raise DegenerateMatrix("1-blocks need at least two columns")
    m, n = a.m, a.n
    masks = row_null_masks(a, cyclic)
    bits = [sum(1 << k for k, v in enumerate(row) if v) for row in a.raw()]
    wrap = 1 | 1 << (n - 1)
    owner = [[-1] * n for _ in range(m)]
    found: list[OneBlock] = []

    def own(block: OneBlock, idx: int) -> None:
        for r in block.rows:
            row = owner[r - 1]
            for c in block.columns(n):
                row[c - 1] = idx

    for i in range(m):
        for j in range(i + 1, m):
            if not masks[i] >> j & 1:
                continue
            both = bits[i] & bits[j]
            if not both & both >> 1 and not (cyclic and both & wrap == wrap):
                continue  # no two adjacent columns nonzero in both rows
            for start0, length in _nonzero_runs(both, n, cyclic):
                if owner[i][start0] >= 0:
                    continue  # seed already inside a found block
                rows, s0, ln = _grow_block(
                    1 << i | 1 << j, start0, length, bits, masks, n, cyclic
                )
                block = OneBlock(rows, s0 + 1, ln, cyclic)
                own(block, len(found))
                found.append(block)
    found.sort(key=lambda b: (b.rows[0], b.col_start))
    for idx, block in enumerate(found):
        own(block, idx)
    return tuple(found), tuple(map(tuple, owner))


def find_one_blocks(a: ExactMatrix, cyclic: bool = False) -> list[OneBlock]:
    """All maximal 1-blocks, sorted by smallest row then start column."""
    return list(_one_blocks(a, cyclic)[0])


def block_partition(a: ExactMatrix, cyclic: bool = False) -> BlockPartition:
    blocks, owner = _one_blocks(a, cyclic)
    raw = a.raw()
    nonzero_single = []
    zero_single = []
    for i, row in enumerate(owner):
        for j, b in enumerate(row):
            if b < 0:
                single = nonzero_single if raw[i][j] else zero_single
                single.append((i + 1, j + 1))
    return BlockPartition(blocks, tuple(nonzero_single), tuple(zero_single), owner)


def _canonical_track(cells: list, image: list | tuple, cyclic: bool, n: int) -> OneTrack:
    """Greedy maximal same-block runs over the string's cells.

    cells[p] is the index of the block holding (image[p], p+1), or -1.
    merged[p] says column p+2 continues the run of column p+1.  The plain
    case is the cyclic one with no wrap merge, and so is a run all the way
    round, which starts at column 1.
    """
    merged = [cells[p] >= 0 and cells[p] == cells[p + 1] for p in range(n - 1)]
    wrap = cyclic and cells[-1] >= 0 and cells[-1] == cells[0]
    merged.append(wrap and not all(merged))
    # walk once around from the first column that starts a run
    first = merged.index(False) + 1 if merged[-1] else 0
    members = []
    rows: list[int] = []
    for q in range(first, first + n):
        p = q % n
        rows.append(image[p])
        if not merged[p]:
            k = len(rows)
            members.append(TrackMember(tuple(sorted(rows)), (p + 1 - k) % n + 1, k))
            rows = []
    return OneTrack(tuple(members), cyclic)


def track_of_string(
    a: ExactMatrix, sigma: RowPermutation, cyclic: bool = False
) -> OneTrack:
    """The canonical complete track of the string picked by sigma: extend a
    run while consecutive string cells share one block, else cut."""
    string_of(a, sigma)  # validates shape and nonzero entries
    owner = _one_blocks(a, cyclic)[1] if a.n >= 2 else ((-1,),)
    image = sigma.image
    cells = [owner[r - 1][p] for p, r in enumerate(image)]
    return _canonical_track(cells, image, cyclic, a.n)


def _check_enumerable(a: ExactMatrix, max_size: int) -> None:
    if not a.is_square:
        raise NotSquare("track enumeration needs a square matrix")
    if a.n > max_size:
        raise SizeBound(f"n={a.n} exceeds the track enumeration bound {max_size}")


def _strings(a: ExactMatrix, owner):
    """(rows, cells, wide) for each nonzero string of a, in lexicographic
    order: rows[c] is the 0-based row in column c and cells[c] the index of
    the block holding that cell, or -1 (both live lists); wide says two
    consecutive cells lie in one block (the wrap pair is left to the
    caller).  Depth first, smallest row first; stack[c] holds the nonzero
    rows column c has yet to try, wides[c] describes the first c cells."""
    n = a.n
    nonzero = [sum(1 << r for r, v in enumerate(col) if v) for col in zip(*a.raw())]
    rows: list[int] = []
    cells: list[int] = []
    wides = [False]
    used = 0
    stack = [nonzero[0]]
    while stack:
        free = stack[-1] & ~used
        if not free:
            stack.pop()
            if rows:
                used ^= 1 << rows.pop()
                cells.pop()
                wides.pop()
            continue
        bit = free & -free
        stack[-1] = free ^ bit
        r = bit.bit_length() - 1
        c = len(rows)
        b = owner[r][c]
        wide = wides[-1] or b >= 0 and c > 0 and cells[-1] == b
        rows.append(r)
        cells.append(b)
        if c + 1 < n:
            wides.append(wide)
            used |= bit
            stack.append(nonzero[c + 1])
            continue
        yield rows, cells, wide
        rows.pop()
        cells.pop()


def track_sum(a: ExactMatrix, track: OneTrack) -> Scalar:
    """Sum of sgn(sigma) * product(entries) over all strings belonging to the
    track.  Zero whenever some member is a true minor (>= 2 rows) inside a
    1-block, as in every canonical track.  SizeBound when the track has more
    strings than DEFAULT_TRACK_BOUND! (8 x 8).

    A string fits the track only when its members tile the columns: each
    column in exactly one member, each member with as many columns as rows.
    The sum is then the generalized Laplace product: the sign of one string
    of the track (each member's rows down its columns, in order) times the
    member minors, rows and columns taken in that same order.  Over Q the
    minors are taken on the cached integer rows, and since the members use
    each row once the product is divided by their scale once."""
    if not a.is_square:
        raise NotSquare("track sums are defined for square matrices")
    n = a.n
    if not track.is_complete(n):
        raise IncompleteTrack(
            f"track covers {track.total_cols} of {n} columns"
        )
    members = track.members
    if sorted([r for mb in members for r in mb.rows]) != list(range(1, n + 1)):
        return a.spec.zero  # no string can belong to such a track
    # the member sizes sum to n, so there are at most n! strings
    if n > DEFAULT_TRACK_BOUND:
        count = math.prod(math.factorial(len(mb.rows)) for mb in members)
        if count > math.factorial(DEFAULT_TRACK_BOUND):
            raise SizeBound(
                f"track has {count} strings, above the bound {DEFAULT_TRACK_BOUND}!"
            )
    ints, scale = a._int_rows()
    p = a.spec.characteristic
    image = [0] * n  # image[c]: the row taking column c, 0 while untaken
    value = 1
    for mb in members:
        rows = mb.rows
        start = mb.col_start - 1
        if mb.col_len == 1 == len(rows):  # a single cell, the common case
            c = start % n
            if image[c]:
                return a.spec.zero
            image[c] = rows[0]
            value *= ints[rows[0] - 1][c]
            continue
        if len(rows) != mb.col_len:
            return a.spec.zero
        cols = [(start + t) % n for t in range(mb.col_len)]
        for r, c in zip(rows, cols):
            if image[c]:
                return a.spec.zero
            image[c] = r
        if rows:
            value *= _eliminate([[ints[r - 1][c] for c in cols] for r in rows], p)[1]
    value *= image_sign(image)
    return a.spec.scalar(value % p if p else Fraction(value, scale))


def complete_tracks(
    a: ExactMatrix, cyclic: bool = False, max_size: int = DEFAULT_TRACK_BOUND
) -> list[OneTrack]:
    """Distinct canonical tracks of all nonzero strings, in first-seen order
    of the lexicographic string enumeration.

    A narrow string (no two consecutive cells, closed when cyclic, in one
    block) is a track of its own, all 1x1 members, so only wide strings go
    through _canonical_track and the seen set."""
    _check_enumerable(a, max_size)
    n = a.n
    owner = _one_blocks(a, cyclic)[1] if n >= 2 else ((-1,),)
    # single[r][c]: the 1x1 member on the nonzero cell (r+1, c+1)
    single = [
        [TrackMember((r + 1,), c + 1, 1) if v else None for c, v in enumerate(row)]
        for r, row in enumerate(a.raw())
    ]
    seen: set[OneTrack] = set()
    out = []
    for rows, cells, wide in _strings(a, owner):
        if wide or cyclic and cells[0] == cells[-1] >= 0:
            track = _canonical_track(cells, [r + 1 for r in rows], cyclic, n)
            if track in seen:
                continue
            seen.add(track)
        else:
            track = OneTrack(tuple([single[r][c] for c, r in enumerate(rows)]), cyclic)
        out.append(track)
    return out


def det_by_tracks(
    a: ExactMatrix, cyclic: bool = False, max_size: int = DEFAULT_TRACK_BOUND
) -> Scalar:
    """Determinant as the sum over the narrow strings, whose tracks have
    only 1x1 members; AssertionFailure unless the wide strings sum to zero.

    A subset DP over the columns, on states (used rows, behind, ahead).  In
    a narrow state ahead is the block of the last cell when that block goes
    on into the next column, else -1, so the next cell is wide exactly when
    it lies in block ahead; behind is the same for the first cell and the
    last column when cyclic, for the wrap pair, else -1.  A wide state has
    behind = ahead = WIDE, so it is keyed by its used rows alone.  Placing
    row r flips the sign by the parity of popcount(used >> r), the used rows
    of larger index.  Over Q the DP runs on the cached integer rows; every
    string uses each row once, so both totals are divided by their scale
    once at the end."""
    _check_enumerable(a, max_size)
    n = a.n
    rows, scale = a._int_rows()
    p = a.spec.characteristic
    blocks, owner = _one_blocks(a, cyclic) if n >= 2 else ((), ((-1,),))
    spans = [sum(1 << (c - 1) for c in block.columns(n)) for block in blocks]
    # cols[c]: (row, entry, block, ahead) for each nonzero cell of column c
    cols = []
    for c, column in enumerate(zip(*rows)):
        after = (c + 1) % n if cyclic else c + 1
        col = []
        for r, v in enumerate(column):
            if v:
                b = owner[r][c]
                col.append((r, v, b, b if b >= 0 and spans[b] >> after & 1 else -1))
        cols.append(col)
    WIDE = -2
    states: dict = {}
    for r, v, b, ahead in cols[0]:
        behind = b if cyclic and b >= 0 and spans[b] >> (n - 1) & 1 else -1
        states[1 << r, behind, ahead] = v
    for col in cols[1:]:
        sums: dict = {}
        for (used, behind, last), term in states.items():
            for r, v, b, ahead in col:
                bit = 1 << r
                if used & bit:
                    continue
                if last == WIDE or b == last >= 0:
                    key = (used | bit, WIDE, WIDE)
                else:
                    key = (used | bit, behind, ahead)
                t = -term * v if (used >> r).bit_count() & 1 else term * v
                sums[key] = sums.get(key, 0) + t
        if p:
            sums = {key: t % p for key, t in sums.items()}
        states = {key: t for key, t in sums.items() if t}
    total = wide = 0
    for (_, behind, ahead), term in states.items():
        if behind == ahead != -1:  # a wide state, or a wrap pair in one block
            wide += term
        else:
            total += term
    if p:
        wide %= p
    else:
        total, wide = Fraction(total, scale), Fraction(wide, scale)
    if wide:
        raise AssertionFailure(f"wide strings sum to {wide}, not 0")
    return a.spec.scalar(total)
