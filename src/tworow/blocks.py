"""1-blocks, the unique block partition, 1-tracks, and track cancellation.

A 1-block is a maximal submatrix M on a row set I and an interval of
consecutive columns (cyclically consecutive when flagged) such that every
entry is nonzero, the submatrix has at least two rows and two columns, and
the null-connectedness graph restricted to I is connected.  Such blocks have
one-dimensional row space, are pairwise disjoint as entry sets, and induce a
unique partition of the matrix into blocks and 1x1 singletons.  Null-connected
rows that are nonzero in a common column share their maximal nonzero run
there, so the blocks are the null-connected components, of two or more rows,
of the rows sharing a nonzero run of two or more columns, read off the
matrix's column masks.  That partition is computed once, as an owner grid
naming the block of each cell; the partition, the tracks and the CLI read it.

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
of the track, its plan, depends on the track alone; the track list and
track_of_string hand every track out with its plan, built from the string
that met it, so its sum only multiplies entries and eliminates its minors,
and its value, reduced already, becomes a Scalar through the trusted
Scalar._of.  Only a track built by the caller derives its plan.
Only the track list walks strings, with no products.  Like the DP it goes
column by column, but it keeps every partial string, with its 1x1 members,
one list of them per column in lexicographic order, where the DP merges
prefixes on their used rows.  It meets in the middle: one walk from no rows
over the first columns gives the prefixes, the same walk over the last
ceil(n/2) columns, fewer where a cap on their number needs it, gives the
suffixes, and each prefix is joined with the suffixes on the rows it leaves
free, so that each completion is built once.  It meets each track once, at
its smallest string, hands a narrow string out as a track of its own and
canonicalizes only wide ones.  The DP and the walk place row r with one
sign flip per used row of larger index.

Every function taking the cyclic flag runs _one_blocks, which rejects a
flag that is not a bool with ParseError, and the enumerations reject a
max_size that is not an int, so that neither is stored or read as given;
the constructors of OneBlock, TrackMember and OneTrack check their types.
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
    ParseError,
    SizeBound,
    SizeMismatch,
    Value,
    ZeroEntryInString,
)
from .fields import Scalar
from .matrices import ExactMatrix, RowPermutation, _eliminate, image_sign
from .rowgraph import row_null_masks

DEFAULT_TRACK_BOUND = 8


def _check_cyclic(cyclic) -> None:
    if type(cyclic) is not bool:
        raise ParseError(f"cyclic must be a bool, got {cyclic!r}")


def _check_span(rows, col_start, col_len) -> None:
    # types only: whether a member fits the matrix is track_sum's to say
    ints = (*rows, col_start, col_len) if type(rows) is tuple else (rows,)
    if any(type(v) is not int for v in ints):
        raise ParseError(f"need a tuple of int rows and int columns, got {ints!r}")


class OneBlock(Value):
    """Rows I (sorted, 1-based) on columns col_start..col_start+col_len-1,
    taken modulo n when cyclic."""

    __slots__ = ("rows", "col_start", "col_len", "cyclic")

    def __init__(
        self, rows: tuple[int, ...], col_start: int, col_len: int, cyclic: bool
    ) -> None:
        _check_span(rows, col_start, col_len)
        _check_cyclic(cyclic)
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
        _check_span(rows, col_start, col_len)
        self._set(rows, col_start, col_len)

    @property
    def is_minor(self) -> bool:
        return self.col_len >= 2

    def columns(self, n: int) -> tuple[int, ...]:
        return tuple((self.col_start - 1 + t) % n + 1 for t in range(self.col_len))


class OneTrack(Value):
    """A chain of track members; complete on n columns when theirs sum to n.

    _plan is a slot but not a field, so equality, hashing, repr and pickling
    leave it out; __init__ sets it to None, and complete_tracks and
    track_of_string set it, through OneTrack._setters or OneTrack._make, to
    what _track_plan would derive for each track they hand out."""

    __slots__ = ("members", "cyclic", "_plan")

    def __init__(self, members: tuple[TrackMember, ...], cyclic: bool) -> None:
        if type(members) is not tuple or any(type(m) is not TrackMember for m in members):
            raise ParseError(f"members must be a tuple of TrackMembers, got {members!r}")
        _check_cyclic(cyclic)
        self._set(members, cyclic, None)

    @property
    def total_cols(self) -> int:
        return sum(m.col_len for m in self.members)

    def is_complete(self, n: int) -> bool:
        return self.total_cols == n

    @property
    def has_minor(self) -> bool:
        return any(m.is_minor for m in self.members)


# The slot setters, called directly per member and narrow leaf, cost half of
# Value._make (CPython 3.11 on a Xeon, timeit min of 7: TrackMember 0.40 against
# 0.85 us, OneTrack inline 0.32 against 0.92 us); wide tracks use OneTrack._make.
_set_rows, _set_col_start, _set_col_len = TrackMember._setters
_set_members, _set_cyclic, _set_plan = OneTrack._setters


def _member(rows: tuple, col_start: int, col_len: int) -> TrackMember:
    """The member with these fields, unchecked."""
    member = object.__new__(TrackMember)
    _set_rows(member, rows)
    _set_col_start(member, col_start)
    _set_col_len(member, col_len)
    return member


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
    is in no block.  The held rows' nonzero columns come off the column
    masks, which row_null_masks has just scanned.
    """
    _check_cyclic(cyclic)
    m, n = a.m, a.n
    masks = row_null_masks(a, cyclic)
    held = sum([1 << i for i, mask in enumerate(masks) if mask])
    sharing: dict[tuple[int, int], int] = {}  # run -> bitmask of its rows
    if held:  # else no row is in a block
        row_bits = [0] * m
        for c, col in enumerate(a._col_masks()):
            col &= held
            while col:
                low = col & -col
                row_bits[low.bit_length() - 1] |= 1 << c
                col ^= low
        for i, bits in enumerate(row_bits):
            if bits:
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
                found.append(OneBlock._make(members, start0 + 1, length, cyclic))
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


def _canonical_track(cells: list, rows, cyclic: bool, n: int, sign: int) -> OneTrack:
    """Greedy maximal same-block runs over the string's cells, as a track
    with its plan.

    rows[p] is the 0-based row of the string in column p+1, sign the
    string's sign, and cells[p] the index of the block holding that cell,
    or -1.  merged[p] says column p+2 continues the run of column p+1.  The
    plain case is the cyclic one with no wrap merge, and so is a run all the
    way round, which starts at column 1.  The plan's string puts each
    member's rows in ascending order down its columns, from col_start on;
    reordering a run's rows so flips the sign once per inversion among them,
    as they lie from col_start on.  A track on more than DEFAULT_TRACK_BOUND
    columns with a minor is left without a plan, so that track_sum derives
    it and checks the bound on its strings.
    """
    merged = [cells[p] >= 0 and cells[p] == cells[p + 1] for p in range(n - 1)]
    wrap = cyclic and cells[-1] >= 0 and cells[-1] == cells[0]
    merged.append(wrap and not all(merged))
    # walk once around from the first column that starts a run
    first = merged.index(False) + 1 if merged[-1] else 0
    members, singles, minors = [], [], []
    run: list[int] = []
    for q in range(first, first + n):
        p = q % n
        run.append(rows[p])
        if merged[p]:
            continue
        k = len(run)
        if k == 1:
            members.append(_member((run[0] + 1,), p + 1, 1))
            singles.append(p)
        else:
            ordered = tuple(sorted(run))
            if sum(later < r for t, r in enumerate(run) for later in run[t + 1:]) & 1:
                sign = -sign
            span = tuple((p + 1 - k + t) % n for t in range(k))
            members.append(_member(tuple(r + 1 for r in ordered), span[0] + 1, k))
            minors.append((ordered, span))
        run = []
    if minors and n > DEFAULT_TRACK_BOUND:
        return OneTrack._make(tuple(members), cyclic, None)
    singles.sort()
    plan = (n, tuple([rows[c] for c in singles]), tuple(singles), tuple(minors), sign)
    return OneTrack._make(tuple(members), cyclic, plan)


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
    rows = [r - 1 for r in image]
    cells = [owner[r][p] for p, r in enumerate(rows)]
    return _canonical_track(cells, rows, cyclic, a.n, sigma.sign())


def _check_enumerable(a: ExactMatrix, max_size: int) -> None:
    if type(max_size) is not int:
        raise ParseError(f"max_size must be an int, got {max_size!r}")
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
    None when no string fits, as when a member starts outside 1..n, and
    SizeBound when more than DEFAULT_TRACK_BOUND! strings would."""
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
        # a start outside 1..n names no column, whatever it is modulo n
        if len(mb.rows) != mb.col_len or not 0 < mb.col_start <= n:
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
    column in exactly one member, each member starting on one of the n
    columns, with as many columns as rows.  The sum is then the generalized
    Laplace product: the sign of one string of the track times the member
    minors, rows and columns in member order.
    All of that but the entries is the track's plan, _track_plan, which
    complete_tracks and track_of_string hand out with every track they make;
    a track built by the caller derives it on every call.
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
    if plan is None:
        k = track.total_cols
        # IncompleteTrack comes before the SizeBound _track_plan may raise
        plan = _track_plan(track) if k == n else (k, None, None, None, 0)
    k, rows, cols, minors, sign = plan
    if k != n:
        raise IncompleteTrack(f"track covers {k} of {n} columns")
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


def _singles(col_nonzero: int, c: int, n: int) -> list:
    """singles[r]: the 1x1 member on cell (r+1, c+1) when col_nonzero has
    row r, else None."""
    return [_member((r + 1,), c + 1, 1) if col_nonzero >> r & 1 else None for r in range(n)]


# The most complete suffixes complete_tracks may build: the 4-column strings
# of an 8 x 8 matrix, all of which a dense matrix at the default bound has.
_SUFFIX_CAP = math.perm(DEFAULT_TRACK_BOUND, DEFAULT_TRACK_BOUND // 2)


def _walk(states: list, cols: range, blocks_by_column: tuple, nonzero: tuple, n: int) -> list:
    """The partial strings in states, extended over the columns cols in order.

    A state (used, rows, members, last, wide, odd) holds the used rows as a
    bitmask, the 0-based rows taken so far, their 1x1 members, the block (or
    -1) of the last cell, whether two consecutive cells share a block, and
    the parity of the inversions.  Each state, in order, is extended by the
    free nonzero rows of the next column, smallest first, so that a list in
    lexicographic order stays so.  A row below the previous one in the same
    block is never placed, which cuts every string under it, and a row
    after one in the same block makes the string wide.  Placing row r flips
    odd once per used row of larger index.  A column's 1x1 members are made
    once, when the walk reaches it."""
    for c in cols:
        col_blocks = blocks_by_column[c]
        col_nonzero = nonzero[c]
        singles = _singles(col_nonzero, c, n)
        extended = []
        push = extended.append
        for used, rows, members, last, wide, odd in states:
            free = col_nonzero & ~used
            while free:
                bit = free & -free
                free ^= bit
                r = bit.bit_length() - 1
                b = col_blocks[r]
                if b != last or b < 0:
                    push((used | bit, rows + (r,), members + (singles[r],), b, wide,
                          odd ^ (used >> r).bit_count() & 1))
                elif r > rows[-1]:  # in the last cell's block, rows ascend
                    push((used | bit, rows + (r,), members + (singles[r],), b, True,
                          odd ^ (used >> r).bit_count() & 1))
        states = extended
        if not states:
            break
    return states


def complete_tracks(
    a: ExactMatrix, cyclic: bool = False, max_size: int = DEFAULT_TRACK_BOUND
) -> list[OneTrack]:
    """Distinct canonical tracks of all nonzero strings, each met once, at
    its lexicographically smallest string, in the order of those strings,
    each with its plan.

    A track's strings permute each member's rows over its columns, so the
    smallest has each member's rows ascending and, for a cyclic member
    wrapping past column n, its head rows (columns 1..j) below its tail rows
    (columns k..n).  The walk meets in the middle (Horowitz and Sahni): _walk
    extends the empty string over the first h columns into prefix states,
    and separately over the last n - h into suffix states, both lists in
    lexicographic order.  The complete suffixes are grouped by the rows
    they leave to a prefix, each group in order, so each completion is built
    once and shared by every prefix on those rows; each prefix, in order,
    is joined with its group in order, which lists the strings in order.
    The junction pair, the prefix's last cell and the suffix's first, keeps
    the rule of every consecutive pair: in one block only ascending rows
    are kept, and the string is wide.  A string whose wrap pair shares a
    block is kept only if its last head row is below its first tail row or
    the run covers every column.  The sign flips once per inversion in the
    prefix, in the suffix, and between the two; the last term depends on the
    prefix's rows alone, so it is added once per prefix.

    The suffix walk cannot see which rows the prefixes leave free, so it
    builds completions no prefix may use.  It spans ceil(n/2) columns, or
    fewer, so that no more than _SUFFIX_CAP strings can complete it: both
    n!/(n-k)! and the product of its columns' nonzero counts bound the
    strings on k columns.  A left half with one nonzero per column and a
    dense right half over n = 10 would otherwise build 30,240 suffixes for
    the 120 strings that use them.  Up to n = 8 the cap never binds.

    A narrow string (no two consecutive cells, closed when cyclic, in one
    block) is a track of its own, its prefix's 1x1 members and its
    suffix's, and its plan is its rows and sign; a wide string goes through
    _canonical_track, which builds its members and plan from the string and
    its sign."""
    _check_enumerable(a, max_size)
    n = a.n
    owner = _one_blocks(a, cyclic)[1]
    blocks_by_column = tuple(zip(*owner))
    nonzero = a._col_masks()
    k = (n + 1) // 2
    while math.perm(n, k) > _SUFFIX_CAP and math.prod(
            [nonzero[c].bit_count() for c in range(n - k, n)]) > _SUFFIX_CAP:
        k -= 1
    h = n - k
    empty = [(0, (), (), -1, False, 0)]
    suffixes = _walk(empty, range(h, n), blocks_by_column, nonzero, n)
    prefixes = _walk(empty, range(h), blocks_by_column, nonzero, n) if suffixes else []
    full = (1 << n) - 1
    firsts = blocks_by_column[h] if k else ()
    table: dict = {}  # the rows a prefix takes -> the suffixes on the others
    for used, rows, members, _, wide, odd in suffixes:
        group = table.get(full ^ used)
        if group is None:
            group = table[full ^ used] = []
        group.append((rows, members, firsts[rows[0]] if rows else -1, wide, odd))
    # a prefix row r comes before the suffix rows below it: the r rows below
    # it but the prefix rows below it, so sum(rows) - h(h-1)/2 in all
    base = h * (h - 1) // 2
    cols = tuple(range(n))
    lasts = blocks_by_column[-1]
    out = []
    add = out.append
    new = object.__new__
    for used, head_rows, head_members, last, head_wide, head_odd in prefixes:
        group = table.get(used)
        if group is None:
            continue
        # the block of the first cell, which a wrap pair shares
        first = owner[head_rows[0]][0] if cyclic and head_rows else -1
        head_odd ^= sum(head_rows) + base & 1
        for tail_rows, tail_members, tail_first, wide, odd in group:
            if tail_first == last >= 0:  # the junction pair: rows ascend in one block
                if tail_rows[0] < head_rows[-1]:
                    continue
                wide = True
            rows = head_rows + tail_rows
            sign = -1 if head_odd ^ odd else 1
            wrap = first >= 0 and lasts[rows[-1]] == first
            if not (wrap or wide or head_wide):
                track = new(OneTrack)
                _set_members(track, head_members + tail_members)
                _set_cyclic(track, cyclic)
                _set_plan(track, (n, rows, cols, (), sign))
                add(track)
            else:
                cells = [owner[r][c] for c, r in enumerate(rows)]
                # wrap pair in block first: head ends before other[0], tail starts after other[-1]
                other = [t for t, e in enumerate(cells) if e != first] if wrap else []
                if not other or rows[other[0] - 1] < rows[other[-1] + 1]:
                    add(_canonical_track(cells, rows, cyclic, n, sign))
    return out


def det_by_tracks(
    a: ExactMatrix, cyclic: bool = False, max_size: int = DEFAULT_TRACK_BOUND
) -> Scalar:
    """Determinant as the sum over the narrow strings, whose tracks have
    only 1x1 members; AssertionFailure unless the wide strings sum to zero.

    A subset DP over the columns, on states (used rows, first, last).  In a
    narrow state last is the block of the last cell, or -1, and first is
    that of the first cell when cyclic, else -1.  A block holds whole rows
    on a run of columns, so cells in adjacent columns share a block only
    inside its run: the next cell is wide exactly when it lies in block
    last, and a complete string's wrap pair when first == last >= 0.  A
    wide state has first = last = WIDE, so it is keyed by its used rows
    alone.  Placing row r flips the sign by the parity of popcount(used >>
    r), the used rows of larger index.  Over Q the DP runs on the cached
    integer rows; every string uses each row once, so both totals are
    divided by their scale once at the end."""
    _check_enumerable(a, max_size)
    columns, scale = a._int_cols()
    p = a.spec.characteristic
    owner = _one_blocks(a, cyclic)[1]
    # cols[c]: (row, entry, block) for each nonzero cell of column c
    cols = [[(r, v, owner[r][c]) for r, v in enumerate(column) if v]
            for c, column in enumerate(columns)]
    WIDE = -2
    states = {(1 << r, b if cyclic else -1, b): v for r, v, b in cols[0]}
    for col in cols[1:]:
        sums: dict = {}
        for (used, first, last), term in states.items():
            for r, v, b in col:
                bit = 1 << r
                if used & bit:
                    continue
                if last == WIDE or b == last >= 0:
                    key = (used | bit, WIDE, WIDE)
                else:
                    key = (used | bit, first, b)
                t = -term * v if (used >> r).bit_count() & 1 else term * v
                sums[key] = sums.get(key, 0) + t
        if p:
            sums = {key: t % p for key, t in sums.items()}
        states = {key: t for key, t in sums.items() if t}
    total = wide = 0
    for (_, first, last), term in states.items():
        if first == last != -1:  # a wide state, or a wrap pair in one block
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
