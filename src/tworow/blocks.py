"""1-blocks, the unique block partition, 1-tracks, and track cancellation.

A 1-block is a maximal submatrix M on a row set I and an interval of
consecutive columns (cyclically consecutive when flagged) such that every
entry is nonzero, the submatrix has at least two rows and two columns, and
the null-connectedness graph restricted to I is connected.  Such blocks have
one-dimensional row space, are pairwise disjoint as entry sets, and induce a
unique partition of the matrix into blocks and 1x1 singletons.  Null-connected
rows that are nonzero in a common column share their maximal nonzero run
there, so the blocks are the null-connected components, of two or more rows,
of the rows sharing a nonzero run of two or more columns.  That partition is
computed once, as an owner grid naming the block of each cell, and the
partition, the tracks and the CLI outline all read it.

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
track times its member minors; it is the one sum of a track.  All it needs
of the track, its plan, depends on the track alone; the track list hands each
narrow track out with its plan, so its sum only multiplies entries, and its
value, reduced already, becomes a Scalar through the trusted Scalar._of.
Only the track list walks strings, with no products.  Like the DP it goes
column by column, but it keeps every prefix, one list of them per column in
lexicographic order, where the DP merges prefixes on their used rows; it
meets each track once at its smallest string, closes the last column in its
final loop, hands a narrow string out as a track of its own and
canonicalizes only wide ones.  The DP and the walk place row r with one
sign flip per used row of larger index.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import getitem

from .errors import (
    AssertionFailure,
    DegenerateMatrix,
    IncompleteTrack,
    NotSquare,
    SizeBound,
    SizeMismatch,
    Value,
    ZeroEntryInString,
)
from .fields import Scalar
from .matrices import ExactMatrix, RowPermutation, _eliminate, image_sign
from .rowgraph import row_null_masks

DEFAULT_TRACK_BOUND = 8


class OneBlock(Value):
    """Rows I (sorted, 1-based) on columns col_start..col_start+col_len-1,
    taken modulo n when cyclic."""

    __slots__ = ("rows", "col_start", "col_len", "cyclic")

    def __init__(
        self, rows: tuple[int, ...], col_start: int, col_len: int, cyclic: bool
    ) -> None:
        self._set(rows, col_start, col_len, cyclic)

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


class BlockPartition(Value):
    """The unique split of all cells into 1-blocks and 1x1 singletons.

    owner[i-1][c-1] is the index in blocks of the block holding cell
    (i, c), or -1 for a singleton."""

    __slots__ = ("blocks", "nonzero_singletons", "zero_singletons", "owner")

    def __init__(
        self,
        blocks: tuple[OneBlock, ...],
        nonzero_singletons: tuple[tuple[int, int], ...],
        zero_singletons: tuple[tuple[int, int], ...],
        owner: tuple[tuple[int, ...], ...],
    ) -> None:
        self._set(blocks, nonzero_singletons, zero_singletons, owner)

    def to_json_dict(self) -> dict:
        return {
            "blocks": [b.to_json_dict() for b in self.blocks],
            "nonzero_singletons": [list(c) for c in self.nonzero_singletons],
            "zero_singletons": [list(c) for c in self.zero_singletons],
        }


class TrackMember(Value):
    """One track member: a single nonzero cell (one row, one column) or a
    k x k minor inside a 1-block (k >= 2 sorted rows, k consecutive columns)."""

    __slots__ = ("rows", "col_start", "col_len")

    def __init__(self, rows: tuple[int, ...], col_start: int, col_len: int) -> None:
        self._set(rows, col_start, col_len)

    @property
    def is_minor(self) -> bool:
        return self.col_len >= 2

    def columns(self, n: int) -> tuple[int, ...]:
        return tuple((self.col_start - 1 + t) % n + 1 for t in range(self.col_len))


class OneTrack(Value):
    """A chain of track members; complete on n columns when theirs sum to n.

    _plan is a slot but not a field, so equality, hashing, repr and pickling
    leave it out; __init__ sets it to None, and complete_tracks sets it,
    through OneTrack._setters, to _track_plan of each narrow track it hands
    out."""

    __slots__ = ("members", "cyclic", "_plan")

    def __init__(self, members: tuple[TrackMember, ...], cyclic: bool) -> None:
        self._set(members, cyclic, None)

    @property
    def total_cols(self) -> int:
        return sum(m.col_len for m in self.members)

    def is_complete(self, n: int) -> bool:
        return self.total_cols == n

    @property
    def has_minor(self) -> bool:
        return any(m.is_minor for m in self.members)


# OneTrack's slot setters, called directly: complete_tracks makes a track
# per leaf, and the generic loop of Value._make costs it measurably more.
_set_members, _set_cyclic, _set_plan = OneTrack._setters


def _planned_track(members: tuple, cyclic: bool, plan: tuple) -> OneTrack:
    """The track with its plan given, unchecked."""
    track = object.__new__(OneTrack)
    _set_members(track, members)
    _set_cyclic(track, cyclic)
    _set_plan(track, plan)
    return track


def _nonzero_runs(bits: int, n: int, cyclic: bool) -> list[tuple[int, int]]:
    """Maximal runs of set bits in the n-bit mask as (start0, length),
    length >= 2 only."""
    if cyclic and n > 1 and bits == (1 << n) - 1:
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


def _one_blocks(
    a: ExactMatrix, cyclic: bool
) -> tuple[tuple[OneBlock, ...], tuple[tuple[int, ...], ...]]:
    """All maximal 1-blocks, sorted by smallest row then start column, and
    the m x n owner grid: owner[i][c] is the index in that tuple of the
    block holding cell (i+1, c+1), or -1 when the cell is a singleton.

    Let rows i and j be null-connected and both nonzero in column c.  The
    minor on window (c, c+1) vanishes, i_c j_{c+1} = i_{c+1} j_c, so
    i_{c+1} = 0 exactly when j_{c+1} = 0; the same holds leftwards, and
    through the wrap window when cyclic.  So their maximal nonzero runs
    through c coincide, and by connectedness every row of a block has the
    same maximal run.  Maximality then makes the block's columns that whole
    run and its rows a whole null-connected component of the rows sharing
    it; conversely each such component of two or more rows, on a run of
    two or more columns, is a block.  A row null-connected to no other row
    is in no block.
    """
    m, n = a.m, a.n
    masks = row_null_masks(a, cyclic)
    raw = a.raw()
    sharing: dict[tuple[int, int], int] = {}  # run -> bitmask of its rows
    for i, mask in enumerate(masks):
        if mask:
            bits = sum(1 << k for k, v in enumerate(raw[i]) if v)
            for run in _nonzero_runs(bits, n, cyclic):
                sharing[run] = sharing.get(run, 0) | 1 << i
    found = []
    for (start0, length), rows in sharing.items():
        while rows:
            component = todo = rows & -rows
            while todo:
                low = todo & -todo
                reached = masks[low.bit_length() - 1] & rows & ~component
                component |= reached
                todo = (todo ^ low) | reached
            rows &= ~component
            if component & (component - 1):
                members = tuple(r + 1 for r in range(m) if component >> r & 1)
                found.append(OneBlock(members, start0 + 1, length, cyclic))
    found.sort(key=lambda b: (b.rows[0], b.col_start))
    owner = [[-1] * n for _ in range(m)]
    for idx, block in enumerate(found):
        cols = block.columns(n)
        for r in block.rows:
            row = owner[r - 1]
            for c in cols:
                row[c - 1] = idx
    return tuple(found), tuple(map(tuple, owner))


def find_one_blocks(a: ExactMatrix, cyclic: bool = False) -> list[OneBlock]:
    """All maximal 1-blocks, sorted by smallest row then start column."""
    if a.n < 2:
        raise DegenerateMatrix("1-blocks need at least two columns")
    return list(_one_blocks(a, cyclic)[0])


def block_partition(a: ExactMatrix, cyclic: bool = False) -> BlockPartition:
    if a.n < 2:
        raise DegenerateMatrix("1-blocks need at least two columns")
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
    if not a.is_square:
        raise NotSquare("strings are defined for square matrices")
    if sigma.n != a.n:
        raise SizeMismatch(f"permutation size {sigma.n} != matrix size {a.n}")
    image = sigma.image
    raw = a.raw()
    if not all(raw[r - 1][c] for c, r in enumerate(image)):
        raise ZeroEntryInString(f"string of {image} hits a zero entry")
    owner = _one_blocks(a, cyclic)[1]
    cells = [owner[r - 1][p] for p, r in enumerate(image)]
    return _canonical_track(cells, image, cyclic, a.n)


def _check_enumerable(a: ExactMatrix, max_size: int) -> None:
    if not a.is_square:
        raise NotSquare("track enumeration needs a square matrix")
    if a.n > max_size:
        raise SizeBound(f"n={a.n} exceeds the track enumeration bound {max_size}")


def _track_plan(track: OneTrack) -> tuple:
    """(n, rows, cols, minors, sign): what track_sum needs of the track, on
    its n columns.  Its 1x1 members sit on the 0-based cells (rows[k],
    cols[k]), listed in column order whatever the member order, so that
    when they fill all n columns cols is range(n); its other members sit on
    the 0-based (rows, cols) pairs of minors, and sign is that of one string
    of the track: each member's rows down its columns, in order.  rows is
    None when no string fits, and SizeBound when more than
    DEFAULT_TRACK_BOUND! strings would."""
    members = track.members
    n = track.total_cols
    misfit = (n, None, None, None, 0)
    if sorted([r for mb in members for r in mb.rows]) != list(range(1, n + 1)):
        return misfit  # no string can belong to such a track
    # the member sizes sum to n, so there are at most n! strings
    if n > DEFAULT_TRACK_BOUND:
        count = math.prod(math.factorial(len(mb.rows)) for mb in members)
        if count > math.factorial(DEFAULT_TRACK_BOUND):
            raise SizeBound(
                f"track has {count} strings, above the bound {DEFAULT_TRACK_BOUND}!"
            )
    image = [0] * n  # image[c]: the row taking column c, 0 while untaken
    cols, minors = [], []
    for mb in members:
        if len(mb.rows) != mb.col_len:
            return misfit
        span = [(mb.col_start - 1 + t) % n for t in range(mb.col_len)]
        for r, c in zip(mb.rows, span):
            if image[c]:
                return misfit
            image[c] = r
        if mb.col_len == 1:
            cols.append(span[0])
        elif span:
            minors.append((tuple(r - 1 for r in mb.rows), tuple(span)))
    cols.sort()
    rows = tuple([image[c] - 1 for c in cols])
    return n, rows, tuple(cols), tuple(minors), image_sign(image)


def track_sum(a: ExactMatrix, track: OneTrack) -> Scalar:
    """Sum of sgn(sigma) * product(entries) over all strings belonging to the
    track.  Zero whenever some member is a true minor (>= 2 rows) inside a
    1-block, as in every canonical track.  SizeBound when the track has more
    strings than DEFAULT_TRACK_BOUND! (8 x 8).

    A string fits the track only when its members tile the columns: each
    column in exactly one member, each member with as many columns as rows.
    The sum is then the generalized Laplace product: the sign of one string
    of the track times the member minors, rows and columns in member order.
    All of that but the entries is the track's plan, _track_plan, which
    complete_tracks hands out with each narrow track; other tracks derive
    it on every call.
    The 1x1 members are one product over the matrix's cached column view,
    _int_cols, each column's entry in its member's row: the whole view when
    they fill every column, as in every narrow track, else the columns
    they name.  Over Q the view and the minors hold the integer rows, and
    since the members use each row once the product is divided by their
    scale once."""
    n = a.n
    if a.m != n:
        raise NotSquare("track sums are defined for square matrices")
    plan = track._plan
    k = track.total_cols if plan is None else plan[0]
    if k != n:
        raise IncompleteTrack(f"track covers {k} of {n} columns")
    _, rows, cols, minors, sign = plan or _track_plan(track)
    spec = a.spec
    if rows is None:
        return spec.zero
    columns, scale = a._int_cols()
    view = columns if len(cols) == n else [columns[c] for c in cols]
    value = sign * math.prod(map(getitem, view, rows))
    p = spec.p
    for mrows, mcols in minors:
        value *= _eliminate([[columns[c][r] for c in mcols] for r in mrows], p or 0)[1]
    return Scalar._of(spec, value % p if p else Fraction(value, scale))


def complete_tracks(
    a: ExactMatrix, cyclic: bool = False, max_size: int = DEFAULT_TRACK_BOUND
) -> list[OneTrack]:
    """Distinct canonical tracks of all nonzero strings, each met once, at
    its lexicographically smallest string, in the order of those strings.

    A track's strings permute each member's rows over its columns, so the
    smallest has each member's rows ascending and, for a cyclic member
    wrapping past column n, its head rows (columns 1..j) below its tail rows
    (columns k..n).  The walk goes column by column, keeping one list of
    prefix states (used, rows, last, wide, odd): the used rows as a bitmask,
    the 0-based rows taken so far, the block (or -1) of the last cell,
    whether two consecutive cells share a block, and the parity of the
    inversions.  Each state, in order, is extended by the free nonzero rows
    of the next column, smallest first, so every list is in lexicographic
    order; a row below the previous one in the same block is never placed,
    which cuts every string under it.  The last column has one row left, so
    the final loop closes each state in place, and keeps a string whose wrap
    pair shares a block only if its last head row is below its first tail
    row or the run covers every column.  A narrow string (no two
    consecutive cells, closed when cyclic, in one block) is a track of its
    own, all 1x1 members, and leaves with its plan; only wide strings go
    through _canonical_track, and their track_sum derives their plan."""
    _check_enumerable(a, max_size)
    n = a.n
    owner = _one_blocks(a, cyclic)[1]
    # zero where the raw entries are zero, over Q too
    columns = a._int_cols()[0]
    blocks_by_column = tuple(zip(*owner))
    # single_by_column[c][r]: the 1x1 member on the nonzero cell (r+1, c+1),
    # made at the first narrow string
    single_by_column = None
    nonzero = a._col_masks()
    states = [(0, (), -1, False, 0)]
    for c in range(n - 1):
        col_blocks = blocks_by_column[c]
        col_nonzero = nonzero[c]
        extended = []
        push = extended.append
        for used, rows, last, wide, odd in states:
            free = col_nonzero & ~used
            while free:
                bit = free & -free
                free ^= bit
                r = bit.bit_length() - 1
                b = col_blocks[r]
                if b != last or b < 0:
                    push((used | bit, rows + (r,), b, wide, odd ^ (used >> r).bit_count() & 1))
                elif r > rows[-1]:  # in the last cell's block, rows ascend
                    push((used | bit, rows + (r,), b, True, odd ^ (used >> r).bit_count() & 1))
        states = extended
    col_blocks = blocks_by_column[-1]
    col_nonzero = nonzero[-1]
    full = (1 << n) - 1
    cols = tuple(range(n))
    out = []
    # popped in order, so that each state is freed as its track is made
    states.reverse()
    while states:
        used, rows, last, wide, odd = states.pop()
        r = (full ^ used).bit_length() - 1
        if not col_nonzero >> r & 1:
            continue
        b = col_blocks[r]
        same = b == last >= 0
        if same and r < rows[-1]:
            continue
        rows += (r,)
        wrap = cyclic and b >= 0 and owner[rows[0]][0] == b
        if not (wrap or same or wide):
            # the rows of larger index than r are all used: n - 1 - r of them
            plan = (n, rows, cols, (), -1 if odd ^ (n - 1 - r) & 1 else 1)
            if single_by_column is None:
                make = TrackMember._make
                single_by_column = [
                    [make((r + 1,), c, 1) if v else None for r, v in enumerate(col)]
                    for c, col in enumerate(columns, 1)
                ]
            members = tuple(map(getitem, single_by_column, rows))
            out.append(_planned_track(members, cyclic, plan))
        else:
            cells = [owner[r][c] for c, r in enumerate(rows)]
            # wrap pair in block b: head ends before other[0], tail starts after other[-1]
            other = [t for t, e in enumerate(cells) if e != b] if wrap else []
            if not other or rows[other[0] - 1] < rows[other[-1] + 1]:
                out.append(_canonical_track(cells, [r + 1 for r in rows], cyclic, n))
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
    columns, scale = a._int_cols()
    p = a.spec.characteristic
    blocks, owner = _one_blocks(a, cyclic)
    spans = [sum(1 << (c - 1) for c in block.columns(n)) for block in blocks]
    # cols[c]: (row, entry, block, ahead) for each nonzero cell of column c
    cols = []
    for c, column in enumerate(columns):
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
