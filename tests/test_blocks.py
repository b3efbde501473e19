import copy
import hashlib
import itertools
import json
import math
import pickle
import random
import time
from fractions import Fraction

import pytest

from tworow import (
    GF2,
    GF3,
    QQ,
    AssertionFailure,
    DegenerateMatrix,
    ExactMatrix,
    FieldSpec,
    IncompleteTrack,
    NotSquare,
    OneTrack,
    ParseError,
    RowPermutation,
    SizeBound,
    SizeMismatch,
    ZeroEntryInString,
    block_partition,
    complete_tracks,
    det_by_tracks,
    determinant,
    find_one_blocks,
    track_of_string,
    track_sum,
)
import tworow.blocks as blocks
from tworow.blocks import OneBlock, TrackMember

from .conftest import ALL_SPECS, random_matrix
from .oracles import (
    brute_one_blocks,
    naive_determinant,
    nonzero_strings,
    perm_parity,
    rank_one_over_field,
)


def as_triples(blocks):
    return {(b.rows, b.col_start, b.col_len) for b in blocks}


def test_golden_plain_blocks(golden_7x7):
    blocks = find_one_blocks(golden_7x7)
    assert as_triples(blocks) == {((1, 3), 1, 3)}
    assert blocks[0].columns(7) == (1, 2, 3)
    assert not blocks[0].cyclic


def test_golden_cyclic_blocks(golden_7x7):
    blocks = find_one_blocks(golden_7x7, cyclic=True)
    # the {1,3} block extends through the wraparound to column 7; the pair
    # {6,7} forms the wrapped block on columns 7,1
    assert as_triples(blocks) == {((1, 3), 7, 4), ((6, 7), 7, 2)}
    assert ((6, 7), 7, 2) in as_triples(blocks)
    by_rows = {b.rows: b for b in blocks}
    assert by_rows[(6, 7)].columns(7) == (7, 1)
    assert by_rows[(1, 3)].columns(7) == (7, 1, 2, 3)


def test_identity_has_no_blocks():
    for n in (2, 4, 7):
        assert find_one_blocks(ExactMatrix.identity(GF2, n)) == []
        assert find_one_blocks(ExactMatrix.identity(GF2, n), cyclic=True) == []


def test_proportional_rows_single_block():
    a = ExactMatrix(QQ, [[1, 1], [2, 2]])
    assert as_triples(find_one_blocks(a)) == {((1, 2), 1, 2)}
    assert as_triples(find_one_blocks(a, cyclic=True)) == {((1, 2), 1, 2)}


def test_degenerate_matrix_guard():
    with pytest.raises(DegenerateMatrix):
        find_one_blocks(ExactMatrix(QQ, [[1], [2]]))
    with pytest.raises(DegenerateMatrix):
        block_partition(ExactMatrix(QQ, [[1], [2]]))


def test_abutting_blocks_have_disjoint_rows():
    a = ExactMatrix(QQ, [[1, 1, 0, 0], [2, 2, 0, 0], [0, 0, 1, 1], [0, 0, 3, 3]])
    for cyclic in (False, True):
        blocks = find_one_blocks(a, cyclic)
        assert as_triples(blocks) == {((1, 2), 1, 2), ((3, 4), 3, 2)}
        for b1, b2 in itertools.permutations(blocks, 2):
            end = (b1.col_start - 1 + b1.col_len) % a.n + 1
            if end == b2.col_start:
                assert not set(b1.rows) & set(b2.rows)


def planted_blocks(rng, spec, m, n):
    """A random m x n matrix (n >= 2), about a third of its cells zero, with
    zero to three planted rank-one blocks.  Each one puts multiples of one
    vector on a run of columns, wrapping or not, in two or three rows; the
    first of them is zero on the columns flanking the run and the others
    are zero off it, so the rows are null-connected until a later block
    overwrites some of their cells."""
    if spec is QQ:
        values = [Fraction(v) for v in ("1", "-1", "2", "1/2", "-3/4")]
    elif spec.p < 256:
        values = list(range(1, spec.p))
    else:  # entries on either side of one byte, and the largest residue
        values = [1, 2, 255, 256, 65537, spec.p - 1]
    rows = [[0 if rng.random() < 1 / 3 else rng.choice(values) for _ in range(n)]
            for _ in range(m)]
    for _ in range(rng.randint(0, 3) if m >= 2 else 0):
        start, length = rng.randrange(n), rng.randint(2, n)
        run = [(start + t) % n for t in range(length)]
        base = [rng.choice(values) for _ in run]
        lead, *rest = rng.sample(range(m), rng.randint(2, min(m, 3)))
        rows[lead][(start - 1) % n] = rows[lead][(start + length) % n] = 0
        for r in rest:
            rows[r] = [0] * n
        for r in (lead, *rest):
            factor = rng.choice(values)
            for c, v in zip(run, base):
                rows[r][c] = spec.canonical(factor * v)
    return ExactMatrix(spec, rows)


# entries of 256 and more, over the largest prime field, as well
@pytest.mark.parametrize("spec", ALL_SPECS + [FieldSpec.gf(2147483647)])
@pytest.mark.parametrize("cyclic", [False, True])
def test_blocks_match_brute_force(spec, cyclic):
    rng = random.Random(97 if cyclic else 96)
    matrices = []
    for _ in range(30):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        matrices.append(random_matrix(rng, spec, m, n))
    # uniform entries rarely make a block outside GF(2)
    for _ in range(30):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        matrices.append(planted_blocks(rng, spec, m, n))
    if spec is GF2:
        # every binary 3x3 and 3x4 matrix
        for n in (3, 4):
            for bits in range(2 ** (3 * n)):
                rows = [[bits >> (n * r + c) & 1 for c in range(n)] for r in range(3)]
                matrices.append(ExactMatrix(GF2, rows))
    for a in matrices:
        got = as_triples(find_one_blocks(a, cyclic))
        assert got == brute_one_blocks(a, cyclic), a.to_json_dict()


def test_block_partition_pinned():
    # block_partition and its owner grid, plain and cyclic, on 300 seeded
    # planted matrices up to 12 x 12 over every field, by one digest
    rng = random.Random(1301)
    digest = hashlib.sha256()
    for k in range(300):
        spec = ALL_SPECS[k % len(ALL_SPECS)]
        a = planted_blocks(rng, spec, rng.randint(1, 12), rng.randint(2, 12))
        for cyclic in (False, True):
            part = block_partition(a, cyclic)
            doc = [part.to_json_dict(), part.owner]
            digest.update(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "439ff5ea51177d227a1cdfc0af299d9f2cc5d56818157000dde77c24ccc9b566"
    )


@pytest.mark.parametrize("cyclic", [False, True])
def test_block_invariants_random(cyclic):
    rng = random.Random(11)
    # row 1 is in two blocks, {1,2} on columns 4-5 and {1,3} on columns
    # 1-2 when plain, so the start column breaks the tie on the smallest row
    matrices = [ExactMatrix(QQ, [[1, 1, 0, 1, 1], [0, 0, 0, 1, 1], [1, 1, 0, 0, 0]])]
    for _ in range(60):
        spec = rng.choice(ALL_SPECS)
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        matrices.append(random_matrix(rng, spec, m, n))
    for a in matrices:
        spec, m, n = a.spec, a.m, a.n
        blocks = find_one_blocks(a, cyclic)
        assert blocks == find_one_blocks(a, cyclic)  # deterministic
        order = [(b.rows[0], b.col_start) for b in blocks]
        assert order == sorted(order)
        seen_cells = set()
        for b in blocks:
            assert len(b.rows) >= 2 and b.col_len >= 2
            assert rank_one_over_field(a, b.rows, b.columns(n))
            cells = b.cells(n)
            assert not cells & seen_cells  # pairwise disjoint
            seen_cells |= cells
        part = block_partition(a, cyclic)
        cover = dict()
        for k, b in enumerate(part.blocks):
            for cell in b.cells(n):
                assert cell not in cover
                cover[cell] = k
        raw = a.raw()
        for i, j in part.nonzero_singletons:
            assert cell_free(cover, i, j)
            assert raw[i - 1][j - 1] != 0 if spec is QQ else raw[i - 1][j - 1] % spec.p != 0
        for i, j in part.zero_singletons:
            assert cell_free(cover, i, j)
        total = (
            sum(len(b.rows) * b.col_len for b in part.blocks)
            + len(part.nonzero_singletons)
            + len(part.zero_singletons)
        )
        assert total == m * n
        # the owner grid names each cell's block index, -1 for a singleton
        assert {
            (i, c): k
            for i, row in enumerate(part.owner, start=1)
            for c, k in enumerate(row, start=1)
        } == {cell: -1 if k == "single" else k for cell, k in cover.items()}


def cell_free(cover, i, j):
    if (i, j) in cover:
        return False
    cover[(i, j)] = "single"
    return True


def test_golden_partition_counts(golden_7x7):
    part = block_partition(golden_7x7)
    assert len(part.blocks) == 1
    assert len(part.nonzero_singletons) == 25 - 6
    assert len(part.zero_singletons) == 24
    doc = part.to_json_dict()
    assert doc["blocks"][0] == {
        "rows": [1, 3],
        "cols": {"start": 1, "len": 3, "cyclic": False},
    }


def test_zero_matrix_partition():
    part = block_partition(ExactMatrix.zeros(GF3, 3, 4))
    assert part.blocks == ()
    assert part.nonzero_singletons == ()
    assert len(part.zero_singletons) == 12


def test_track_of_string_validation(golden_7x7):
    sigma = RowPermutation((1, 4, 3, 2, 7, 5, 6))
    assert track_of_string(golden_7x7, sigma).total_cols == 7
    for cyclic in (False, True):  # (4,4) is zero
        with pytest.raises(ZeroEntryInString, match=r"string of \(1, 2, 3, 4, 5, 6, 7\) hits"):
            track_of_string(golden_7x7, RowPermutation.identity(7), cyclic)
    with pytest.raises(NotSquare, match="strings are defined for square matrices"):
        track_of_string(ExactMatrix(GF2, [[1, 0]]), RowPermutation.identity(1))
    with pytest.raises(SizeMismatch, match="permutation size 6 != matrix size 7"):
        track_of_string(golden_7x7, RowPermutation.identity(6))
    # the check reads raw entries: over Q a zero entry is Fraction(0)
    q_diag = ExactMatrix(QQ, [["1/2", "0"], ["0", "3"]])
    with pytest.raises(ZeroEntryInString):
        track_of_string(q_diag, RowPermutation((2, 1)))
    fresh = ExactMatrix(golden_7x7.spec, golden_7x7.raw())
    assert track_of_string(fresh, sigma) == track_of_string(golden_7x7, sigma)
    with pytest.raises(ZeroEntryInString):
        track_of_string(fresh, RowPermutation.identity(7))
    # the string is checked on raw entries: no cell of the matrix is boxed
    assert fresh._scalars is None


def test_track_of_identity_matrix():
    a = ExactMatrix.identity(GF2, 5)
    track = track_of_string(a, RowPermutation.identity(5))
    assert len(track.members) == 5
    assert all(m.col_len == 1 and len(m.rows) == 1 for m in track.members)
    assert track_sum(a, track) == GF2.one


def test_track_of_proportional_matrix():
    a = ExactMatrix(QQ, [[1, 1], [2, 2]])
    track = track_of_string(a, RowPermutation.identity(2))
    assert len(track.members) == 1
    assert track.members[0].rows == (1, 2)
    assert track.members[0].col_len == 2
    # 1*2 - 1*2 = 0: a true minor member forces cancellation
    assert track_sum(a, track) == QQ.zero
    assert det_by_tracks(a) == QQ.zero


def test_golden_track_enters_block(golden_7x7):
    track = track_of_string(golden_7x7, RowPermutation((3, 1, 6, 2, 4, 5, 7)))
    first = track.members[0]
    assert first.rows == (1, 3) and first.col_start == 1 and first.col_len == 2
    assert track_sum(golden_7x7, track) == GF2.zero


def test_singleton_members_inside_block(golden_7x7):
    # cells (1,1) and (3,3) are in the block, (4,2) is not: the greedy cut
    # leaves two singleton members sitting inside the block
    track = track_of_string(golden_7x7, RowPermutation((1, 4, 3, 2, 7, 5, 6)))
    members = track.members[:3]
    assert [m.col_len for m in members] == [1, 1, 1]
    assert members[0].rows == (1,) and members[2].rows == (3,)


def test_cyclic_track_canonical_rotation():
    a = ExactMatrix(QQ, [[1, 1], [2, 2]])
    track = track_of_string(a, RowPermutation.identity(2), cyclic=True)
    assert track.cyclic
    assert len(track.members) == 1
    assert track.members[0].col_start == 1 and track.members[0].col_len == 2


def test_track_sum_incomplete_raises(golden_7x7):
    track = track_of_string(golden_7x7, RowPermutation((1, 4, 3, 2, 7, 5, 6)))
    clipped = OneTrack(track.members[:-1], track.cyclic)
    with pytest.raises(IncompleteTrack):
        track_sum(golden_7x7, clipped)


def test_track_sum_disjoint_row_track_is_zero():
    a = ExactMatrix(QQ, [[1, 1], [2, 2]])
    weird = OneTrack((TrackMember((1,), 1, 1), TrackMember((1,), 2, 1)), False)
    assert track_sum(a, weird) == QQ.zero


def constrained_sum(a, allowed):
    """Signed sum over the strings whose column c takes its row from
    allowed[c - 1] (a set of 1-based rows)."""
    raw = a.raw()
    total = 0
    for image in nonzero_strings(a):
        if all(r in allowed[c] for c, r in enumerate(image)):
            total += perm_parity(image) * math.prod(raw[r - 1][c] for c, r in enumerate(image))
    return a.spec.scalar(total)


def members(*specs):
    return tuple(TrackMember(rows, start, length) for rows, start, length in specs)


# (n, members, expected): "zero", an exception class, or the allowed rows of
# each column whose constrained string sum is the track sum
MALFORMED_TRACKS = [
    # a repeated row
    (3, members(((1,), 1, 1), ((1,), 2, 1), ((3,), 3, 1)), "zero"),
    (3, members(((1, 1), 1, 2), ((3,), 3, 1)), "zero"),
    # a row 0 or n + 1
    (3, members(((0,), 1, 1), ((2,), 2, 1), ((3,), 3, 1)), "zero"),
    (3, members(((1,), 1, 1), ((2,), 2, 1), ((4,), 3, 1)), "zero"),
    # two members on one column, so another column is uncovered
    (3, members(((1,), 1, 1), ((2,), 1, 1), ((3,), 3, 1)), "zero"),
    (3, members(((1, 2), 1, 2), ((3,), 2, 1)), "zero"),
    # a member whose row count differs from its column count
    (3, members(((1, 2), 1, 1), ((3,), 2, 2)), "zero"),
    (3, members(((1,), 1, 2), ((2, 3), 3, 1)), "zero"),
    # wrapped cyclic minors, rows sorted or not
    (3, members(((1, 3), 3, 2), ((2,), 2, 1)), [{1, 3}, {2}, {1, 3}]),
    (3, members(((2,), 2, 1), ((3, 1), 3, 2)), [{1, 3}, {2}, {1, 3}]),
    (4, members(((1, 3, 4), 4, 3), ((2,), 3, 1)), [{1, 3, 4}, {1, 3, 4}, {2}, {1, 3, 4}]),
    (4, members(((2, 4), 4, 2), ((1, 3), 2, 2)), [{2, 4}, {1, 3}, {1, 3}, {2, 4}]),
    # members that do not tile the columns (one with no columns, one with
    # one row on two): no string fits, so no column allows any row
    (2, members(((2,), 2, 2), ((1,), 2, 1), ((), 1, -1)), [set(), set()]),
    # too few columns
    (3, members(((1, 2, 3), 1, 2),), IncompleteTrack),
    # a start outside 1..n, which names a column only modulo n: row 1 at
    # column 1 and the minor on columns 1..2 otherwise
    (2, members(((1,), -1, 1), ((2,), 2, 1)), "zero"),
    (2, members(((1,), 3, 1), ((2,), 2, 1)), "zero"),
    (2, members(((1,), 5, 1), ((2,), 2, 1)), "zero"),
    (2, members(((1, 2), 3, 2),), "zero"),
    (3, members(((1,), 0, 1), ((2,), 2, 1), ((3,), 1, 1)), "zero"),
    (3, members(((1, 2), 4, 2), ((3,), 3, 1)), "zero"),
]


@pytest.mark.parametrize("spec", ALL_SPECS + [FieldSpec.gf(2147483647)])
@pytest.mark.parametrize("n, mbs, expected", MALFORMED_TRACKS)
def test_track_sum_malformed_tracks(spec, n, mbs, expected):
    rng = random.Random(41)
    if spec is QQ:
        pool = ["2", "-1", "1/2", "3", "-7/3", "5/4"]
    else:
        pool = [rng.randrange(1, spec.p) for _ in range(6)]
    a = ExactMatrix(spec, [[rng.choice(pool) for _ in range(n)] for _ in range(n)])
    for cyclic in (False, True):
        track = OneTrack(mbs, cyclic)
        if expected == "zero":
            assert track_sum(a, track) == spec.zero
        elif isinstance(expected, list):
            assert track_sum(a, track) == constrained_sum(a, expected)
        else:
            with pytest.raises(expected):
                track_sum(a, track)


def test_track_sum_zero_before_size_bound():
    ones = ExactMatrix(GF3, [[1] * 9] * 9)
    # nine rows with a repeat: no string belongs, whatever the member sizes
    repeated = OneTrack(members(((1, 1, 2, 3, 4, 5, 6, 7, 8), 1, 9),), False)
    assert track_sum(ones, repeated) == GF3.zero
    # a partition of the rows with a 9-row member is over the 8! bound, even
    # though its single column leaves no string
    lopsided = OneTrack(members((tuple(range(1, 10)), 1, 1), ((), 2, 8)), False)
    with pytest.raises(SizeBound):
        track_sum(ones, lopsided)


def test_minor_tracks_sum_to_zero_exhaustive_gf2():
    for bits in range(2**9):
        rows = [[bits >> (3 * r + c) & 1 for c in range(3)] for r in range(3)]
        a = ExactMatrix(GF2, rows)
        for cyclic in (False, True):
            for track in complete_tracks(a, cyclic):
                if track.has_minor:
                    assert track_sum(a, track) == GF2.zero


def test_det_by_tracks_exhaustive_gf2_3x3():
    for bits in range(2**9):
        rows = [[bits >> (3 * r + c) & 1 for c in range(3)] for r in range(3)]
        a = ExactMatrix(GF2, rows)
        expected = naive_determinant(a)
        assert det_by_tracks(a).value == expected
        assert det_by_tracks(a, cyclic=True).value == expected


@pytest.mark.parametrize("spec", ALL_SPECS)
@pytest.mark.parametrize("cyclic", [False, True])
def test_det_by_tracks_random(spec, cyclic):
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(1, 5)
        a = random_matrix(rng, spec, n, n)
        assert det_by_tracks(a, cyclic) == determinant(a)


def planted_matrix(rng, spec, n, zero_share, values=None):
    """A random n x n matrix, about zero_share of its cells zero, in which
    (for n >= 4) two rows hold a 1-block, plain and cyclic: on a run of
    columns row j is a multiple of row i, elsewhere row j is zero, and row i
    is zero on the two columns flanking the run (cyclically).  Its nonzero
    entries come from values, a small pool drawn here unless given."""
    if values is None and spec is QQ:
        values = ["1", "-1", "2", "1/2", "-3/4"]
    elif values is None:
        values = [rng.randrange(1, spec.p) for _ in range(6)]
    rows = [
        [0 if rng.random() < zero_share else rng.choice(values) for _ in range(n)]
        for _ in range(n)
    ]
    if n >= 4:
        i, j = rng.sample(range(n), 2)
        start, length = rng.randrange(n), rng.randint(2, n - 2)
        factor = rng.choice(values)
        run = {(start + t) % n for t in range(length)}
        for c in range(n):
            if c in run:
                rows[i][c] = rows[i][c] or values[0]
                rows[j][c] = spec.canonical(spec.canonical(rows[i][c]) * spec.canonical(factor))
            else:
                rows[j][c] = 0
        rows[i][(start - 1) % n] = rows[i][(start + length) % n] = 0
    return ExactMatrix(spec, rows)


@pytest.mark.parametrize("spec", ALL_SPECS + [FieldSpec.gf(2147483647)], ids=lambda s: s.name)
@pytest.mark.parametrize("cyclic", [False, True])
def test_det_by_tracks_narrow_and_wide_sums(spec, cyclic):
    # the DP against the strings split by their tracks: the narrow strings
    # (tracks of 1x1 members) sum to det, the wide ones to zero
    rng = random.Random(53)
    sizes = [1, 2, 3, 4, 4, 5, 5, 6, 6, 7, 8]
    wide_strings = 0
    for n in sizes:
        a = planted_matrix(rng, spec, n, 0.5 if n >= 7 else 0.25)
        raw = a.raw()
        narrow = wide = 0
        for image in nonzero_strings(a):
            term = perm_parity(image) * math.prod(raw[r - 1][c] for c, r in enumerate(image))
            if track_of_string(a, RowPermutation(image), cyclic).has_minor:
                wide += term
                wide_strings += 1
            else:
                narrow += term
        assert a.spec.scalar(narrow) == determinant(a), a.to_json_dict()
        assert a.spec.scalar(wide) == a.spec.zero, a.to_json_dict()
        assert det_by_tracks(a, cyclic) == a.spec.scalar(narrow), a.to_json_dict()
    assert wide_strings


def test_det_by_tracks_raises_on_uncancelled_wide_strings(monkeypatch):
    # a partition that claims the whole of a rank-two matrix as one block:
    # every string is wide, and the wide strings sum to det = -2
    a = ExactMatrix(QQ, [[1, 2], [3, 4]])
    whole = ((OneBlock((1, 2), 1, 2, False),), ((0, 0), (0, 0)))
    monkeypatch.setattr(blocks, "_one_blocks", lambda *args: whole)
    for cyclic in (False, True):
        with pytest.raises(AssertionFailure):
            det_by_tracks(a, cyclic)
    # a claimed block on the wrap pair of columns 3 and 1 alone: the strings
    # through it sum to a22 * (a11 a33 - a13 a31) = 5 * -24
    a = ExactMatrix(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, -3]])
    wrap = ((OneBlock((1, 3), 3, 2, True),), ((0, -1, 0), (-1, -1, -1), (0, -1, 0)))
    monkeypatch.setattr(blocks, "_one_blocks", lambda *args: wrap)
    with pytest.raises(AssertionFailure):
        det_by_tracks(a, cyclic=True)


@pytest.mark.parametrize("spec", [GF2, GF3], ids=lambda s: s.name)
def test_det_by_tracks_scale_14(spec):
    # the subset DP checks the track identity far above the enumeration's
    # default bound
    rng = random.Random(14)
    n = 14
    cells = [(i, j) for i in range(n) for j in range(n)]
    zeros = set(rng.sample(cells, len(cells) // 3))
    uniform = ExactMatrix(spec, [
        [0 if (i, j) in zeros else rng.randrange(1, spec.p) for j in range(n)]
        for i in range(n)
    ])
    # an invertible matrix with a 1-block on columns 5..11, plain and cyclic
    planted = planted_matrix(random.Random(37), spec, n, 1 / 3)
    assert determinant(planted)
    start = time.perf_counter()
    for cyclic in (False, True):
        assert find_one_blocks(planted, cyclic)
        for a in (uniform, planted):
            assert det_by_tracks(a, cyclic, max_size=14) == determinant(a)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("cyclic", [False, True])
def test_string_partition_into_tracks(cyclic):
    rng = random.Random(31)
    matrices = []
    for _ in range(20):
        spec = rng.choice(ALL_SPECS)
        n = rng.randint(2, 5)
        matrices.append(random_matrix(rng, spec, n, n))
    # a large prime, and rationals with denominators: rows 1 and 2 are
    # proportional on columns 1..2 and zero together on columns 3 and 5, so
    # they are null-connected, plain and cyclic, and hold a 1-block
    big = FieldSpec.gf(2147483647)
    x, y, z = (rng.randrange(1, big.p) for _ in range(3))
    matrices.append(ExactMatrix(big, [
        [x, y, 0, z, 0],
        [2 * x, 2 * y, 0, 3 * z, 0],
        [rng.randrange(big.p) for _ in range(5)],
        [0, rng.randrange(big.p), 1, 2, 3],
        [4, 0, rng.randrange(big.p), 5, big.p - 1],
    ]))
    matrices.append(ExactMatrix(QQ, [
        ["1/2", "3/4", "0", "1", "0"],
        ["1", "3/2", "0", "5/3", "0"],
        ["0", "2/5", "1", "-1/3", "3"],
        ["7/2", "0", "1/9", "2", "-1"],
        ["-1", "1/3", "4", "0", "5/2"],
    ]))
    for a in matrices:
        raw = a.raw()
        strings = nonzero_strings(a)
        tracks = complete_tracks(a, cyclic)
        by_track = {}
        for image in strings:
            tr = track_of_string(a, RowPermutation(image), cyclic)
            by_track.setdefault(tr, []).append(image)
        # strings come in lexicographic order: tracks in first-seen order
        assert tracks == list(by_track)
        # member-wise bijection count: every track's string fiber is full
        for tr, members in by_track.items():
            expected = math.prod(math.factorial(len(m.rows)) for m in tr.members)
            assert len(members) == expected
            # each track's sum is the signed sum of its strings
            total = sum(
                perm_parity(image)
                * math.prod(raw[r - 1][c] for c, r in enumerate(image))
                for image in members
            )
            assert track_sum(a, tr) == a.spec.scalar(total)
        assert sum(len(v) for v in by_track.values()) == len(strings)


def plant_block(a, run, block_rows, rng):
    """a with a rank-one block on the 0-based columns run (consecutive
    modulo n) and the 1-based block_rows, as planted_blocks plants one: the
    first row zero on the columns flanking the run, the others zero off
    it."""
    n, spec = a.n, a.spec
    rows = [list(row) for row in a.raw()]
    values = [v for row in rows for v in row if v] or [1]
    base = [rng.choice(values) for _ in run]
    lead, *rest = (r - 1 for r in block_rows)
    rows[lead][(run[0] - 1) % n] = rows[lead][(run[-1] + 1) % n] = 0
    for r in rest:
        rows[r] = [0] * n
    for r in (lead, *rest):
        factor = rng.choice(values)
        for c, v in zip(run, base):
            rows[r][c] = spec.canonical(factor * v)
    return ExactMatrix(spec, rows)


def test_complete_tracks_match_string_oracle():
    # complete_tracks against every nonzero string grouped by its track, in
    # first-seen order, plain and cyclic: every binary 3x3 matrix, every 7th
    # binary 4x4 one, random and planted-block matrices up to 8x8, and
    # blocks planted across the junction of the walk's prefix (the first
    # n // 2 columns) and suffix, and across the wrap from the suffix into
    # the prefix
    rng = random.Random(1402)
    matrices = [
        ExactMatrix(GF2, [[bits >> (n * r + c) & 1 for c in range(n)] for r in range(n)])
        for n, step in ((3, 1), (4, 7))
        for bits in range(0, 2 ** (n * n), step)
    ]
    for spec in ALL_SPECS + [FieldSpec.gf(7)]:
        for _ in range(6):
            matrices.append(random_matrix(rng, spec, *[rng.randint(2, 7)] * 2))
            matrices.append(planted_blocks(rng, spec, *[rng.randint(2, 7)] * 2))
    for spec in (GF2, QQ):
        matrices.append(planted_blocks(rng, spec, 8, 8))
    # (matrix, 0-based junction columns, 1-based block rows): the runs are
    # two columns across the junction, three or four across it, and two or
    # four across the wrap, each leaving out a column to flank it; each
    # planted block holds both columns of its junction, the wrap junction
    # only when cyclic
    junctions = []
    for n in (4, 5, 6, 7, 8):
        h = n // 2
        runs = (range(h - 1, h + 1), range(h - 1 - (n > 5), h + 2),
                range(n - 1 - (n > 4), n + 1 + (n > 4)))
        for k, run in enumerate(runs * 2):
            spec = (GF2, GF3, FieldSpec.gf(7), QQ)[(n + k) % 4]
            run = [c % n for c in run]
            block_rows = tuple(sorted(rng.sample(range(1, n + 1), 2 + (n > 5))))
            a = plant_block(planted_blocks(rng, spec, n, n), run, block_rows, rng)
            matrices.append(a)
            junction = (n - 1, 0) if 0 in run and n - 1 in run else (h - 1, h)
            junctions.append((a, junction, block_rows))
    strings_of = {id(a): nonzero_strings(a) for a in matrices}
    met = set()  # (cyclic, junction at the wrap, rows ascending across it)
    for a, (left, right), block_rows in junctions:
        for cyclic in (False, True):
            assert (right == 0 and not cyclic) or any(
                set(block_rows) <= set(b.rows) and {left + 1, right + 1} <= set(b.columns(a.n))
                for b in find_one_blocks(a, cyclic)), (a.to_json_dict(), cyclic)
            met |= {(cyclic, right == 0, image[left] < image[right])
                    for image in strings_of[id(a)]
                    if {image[left], image[right]} <= set(block_rows)}
    assert len(met) == 8
    for a in matrices:
        strings = strings_of[id(a)]
        for cyclic in (False, True):
            first_seen = {}
            for image in strings:
                first_seen.setdefault(track_of_string(a, RowPermutation(image), cyclic))
            tracks = complete_tracks(a, cyclic)
            assert tracks == list(first_seen), a.to_json_dict()
            # track_of_string hands out the plan of the track, from any string
            assert [t._plan for t in tracks] == [t._plan for t in first_seen]


def T(cyclic, *members):
    """The track of members given as (rows, col_start, col_len)."""
    return OneTrack(tuple(TrackMember(*m) for m in members), cyclic)


def singles(cyclic, *rows):
    """The track of 1x1 members taking row rows[c] in column c + 1."""
    return T(cyclic, *(((r,), c, 1) for c, r in enumerate(rows, 1)))


# (matrix, plain tracks, cyclic tracks) at the edges of the column walk;
# test_det_by_tracks_1x1 has n = 1
EDGE_CASES = [
    # n = 2: two singletons each way, and one block holding both columns,
    # whose cyclic wrap pair lies inside it all the way round
    (ExactMatrix(GF2, [[1, 1], [1, 0]]), [singles(False, 2, 1)], [singles(True, 2, 1)]),
    (ExactMatrix(FieldSpec.gf(5), [[1, 2], [2, 1]]),
     [singles(False, 1, 2), singles(False, 2, 1)],
     [singles(True, 1, 2), singles(True, 2, 1)]),
    (ExactMatrix(QQ, [[1, 2], [3, 6]]), [T(False, ((1, 2), 1, 2))], [T(True, ((1, 2), 1, 2))]),
    # a cyclic block on columns 3, 1: the wrap pair is met at its string
    # with the head row (column 1) below the tail row (column 3) only
    (ExactMatrix(GF3, [[1, 0, 1], [2, 0, 2], [0, 1, 0]]),
     [singles(False, 1, 3, 2), singles(False, 2, 3, 1)],
     [T(True, ((3,), 2, 1), ((1, 2), 3, 2))]),
    # a zero last column: no string at all
    (ExactMatrix(GF3, [[1, 1, 0], [1, 2, 0], [2, 1, 0]]), [], []),
    # a last column with one nonzero, row 2
    (ExactMatrix(GF2, [[1, 1, 0], [0, 0, 1], [1, 0, 0]]),
     [singles(False, 3, 1, 2)], [singles(True, 3, 1, 2)]),
    # the same, where four of the six prefixes leave a row that is zero in
    # the last column
    (ExactMatrix(QQ, [[1, 2, 0], [3, 1, 1], [1, 5, 0]]),
     [singles(False, 1, 3, 2), singles(False, 3, 1, 2)],
     [singles(True, 1, 3, 2), singles(True, 3, 1, 2)]),
    # column 3's only nonzero row is row 1, which column 1 always takes
    (ExactMatrix(QQ, [[1, 1, 1], [0, 1, 0], [0, 1, 0]]), [], []),
    # column 2's only nonzero row, row 2, is used when column 1 takes it
    (ExactMatrix(GF3, [[1, 0, 1], [1, 1, 0], [0, 0, 1]]),
     [singles(False, 1, 2, 3)], [singles(True, 1, 2, 3)]),
    # n = 4, where the walk joins columns 1..2 to columns 3..4: the only
    # block, rows 1 and 2 on columns 2..3, straddles the junction, so the
    # strings (3, 2, 1, 4) and (4, 2, 1, 3) descend across it and are cut
    # there; rows 3 and 4 are null-connected only on the consecutive windows
    (ExactMatrix(GF3, [[0, 1, 1, 0], [0, 2, 2, 0], [1, 0, 0, 1], [1, 0, 0, 2]]),
     [T(False, ((3,), 1, 1), ((1, 2), 2, 2), ((4,), 4, 1)),
      T(False, ((4,), 1, 1), ((1, 2), 2, 2), ((3,), 4, 1))],
     [T(True, ((3,), 1, 1), ((1, 2), 2, 2), ((4,), 4, 1)),
      T(True, ((4,), 1, 1), ((1, 2), 2, 2), ((3,), 4, 1))]),
]


@pytest.mark.parametrize("case", range(len(EDGE_CASES)))
def test_complete_tracks_edge_cases(case):
    a, plain, cyclic_tracks = EDGE_CASES[case]
    strings = nonzero_strings(a)
    for cyclic, expected in ((False, plain), (True, cyclic_tracks)):
        tracks = complete_tracks(a, cyclic)
        assert tracks == expected
        # the same list as grouping every nonzero string by its track
        first_seen = {}
        for image in strings:
            first_seen.setdefault(track_of_string(a, RowPermutation(image), cyclic))
        assert tracks == list(first_seen)
        total = a.spec.zero
        for t in tracks:
            total = total + track_sum(a, t)
        assert total == determinant(a) == det_by_tracks(a, cyclic)


@pytest.mark.parametrize("spec", [GF3, QQ])
def test_complete_tracks_8x8_all_nonzero(spec):
    # every cell nonzero and no two rows null-connected: all 8! strings are
    # narrow tracks of their own, at the default bound, plain and cyclic
    a = ExactMatrix(spec, [[1 + (i == j) for j in range(8)] for i in range(8)])
    assert not find_one_blocks(a) and not find_one_blocks(a, True)
    for cyclic in (False, True):
        tracks = complete_tracks(a, cyclic)
        assert (len(tracks), sum(t.has_minor for t in tracks)) == (40320, 0)
        assert tracks[0] == singles(cyclic, *range(1, 9))
        assert tracks[-1] == singles(cyclic, *range(8, 0, -1))
        total = a.spec.zero
        for t in tracks:
            total = total + track_sum(a, t)
        # det(I + J) = 1 + 8: 0 over GF(3), 9 over Q
        assert total == determinant(a) == spec.scalar(9)


def lopsided(n, choices):
    """n x n over GF(13): in each of the first n / 2 columns c, rows c and,
    with two choices, c + n / 2 are 1 and the rest 0; the last n / 2 columns
    are dense, row i Vandermonde on i, so that no two rows are
    null-connected.  Its strings, 1-based and in lexicographic order, take
    each left column's row from its choices and the others in any order."""
    half = n // 2
    picks = [(c, c + half)[:choices] for c in range(half)]
    rows = [[0] * n for _ in range(n)]
    for c, pick in enumerate(picks):
        for r in pick:
            rows[r][c] = 1
    for i, row in enumerate(rows):
        row[half:] = [pow(i + 1, j, 13) for j in range(n - half)]
    strings = [
        tuple(r + 1 for r in left + right)
        for left in itertools.product(*picks)
        for right in itertools.permutations(sorted(set(range(n)) - set(left)))
    ]
    return ExactMatrix(FieldSpec.gf(13), rows), strings


@pytest.fixture
def suffix_walks(monkeypatch):
    """(suffix columns, complete suffixes) of each complete_tracks call
    from here on: its _walk call that ends at column n, after the
    prefix's."""
    calls, walks = [], []

    def walk(states, cols, *rest):
        extended = real_walk(states, cols, *rest)
        calls.append((cols, len(extended)))
        return extended

    def complete(*args, **kwargs):
        calls.clear()
        tracks = real_complete(*args, **kwargs)
        cols, count = max(calls, key=lambda call: (call[0].stop, call[0].start))
        walks.append((len(cols), count))
        return tracks

    real_walk, real_complete = blocks._walk, blocks.complete_tracks
    monkeypatch.setattr(blocks, "_walk", walk)
    monkeypatch.setattr(blocks, "complete_tracks", complete)
    return walks


def test_complete_tracks_lopsided_at_raised_bounds(suffix_walks):
    # the suffix walk cannot see which rows the prefixes leave free: here
    # the left half leaves n / 2 rows, one or 2 ** (n / 2) ways, to a dense
    # right half, and a suffix on the last n / 2 columns of n = 12 holds
    # 665,280 strings for the 720 that are used; the cap holds the suffix
    # table to _SUFFIX_CAP, and each call to a bound that an uncapped walk
    # (about 3 s and 280 MB a call at n = 12) fails
    for n in (6, 8):
        for choices in (1, 2):
            a, strings = lopsided(n, choices)
            assert nonzero_strings(a) == strings
    for n in (6, 8, 10, 12):
        for choices in (1, 2):
            a, strings = lopsided(n, choices)
            for cyclic in (False, True):
                assert not find_one_blocks(a, cyclic)
                start = time.perf_counter()
                tracks = blocks.complete_tracks(a, cyclic, max_size=n)
                assert time.perf_counter() - start < 1.0
                assert [tuple(m.rows[0] for m in t.members) for t in tracks] == strings
    assert len(suffix_walks) == 16
    assert max(count for _, count in suffix_walks) <= blocks._SUFFIX_CAP


def test_complete_tracks_same_at_every_split(suffix_walks, monkeypatch):
    # the split of the walk only moves work between its halves: with the
    # suffix cap lowered so that the suffix shrinks, down to no columns,
    # where the prefixes are whole strings, the list, its order and its
    # plans stay the same
    splits = set()  # (n, suffix columns)
    caps = [blocks._SUFFIX_CAP]
    rng = random.Random(1404)
    for n in range(2, 8):
        caps[1:] = [math.perm(n, j) for j in range(n // 2 + 1)]
        for spec, make in itertools.product((GF2, GF3, QQ), (random_matrix, planted_blocks)):
            a = make(rng, spec, n, n)
            for cyclic in (False, True):
                expected = None
                for cap in caps:
                    monkeypatch.setattr(blocks, "_SUFFIX_CAP", cap)
                    tracks = [(t, t._plan) for t in blocks.complete_tracks(a, cyclic)]
                    if expected is None:
                        expected = tracks
                    assert tracks == expected
                    splits.add((n, suffix_walks[-1][0]))
    assert {(n, k) for n in range(2, 8) for k in (0, (n + 1) // 2)} <= splits


def track_pin_matrices():
    """Every binary 3x3 matrix, every 7th binary 4x4 one, and 300 seeded
    random and planted-block matrices up to 7x7 over GF(2), GF(3), GF(7)
    and Q."""
    matrices = [
        ExactMatrix(GF2, [[bits >> (n * r + c) & 1 for c in range(n)] for r in range(n)])
        for n, step in ((3, 1), (4, 7))
        for bits in range(0, 2 ** (n * n), step)
    ]
    rng = random.Random(1701)
    specs = [GF2, GF3, FieldSpec.gf(7), QQ]
    for k in range(300):
        spec = specs[k % 4]
        if k // 4 % 2:
            matrices.append(planted_blocks(rng, spec, *[rng.randint(2, 7)] * 2))
        else:
            matrices.append(random_matrix(rng, spec, *[rng.randint(1, 7)] * 2))
    return matrices


def test_track_sums_pinned():
    # every track of complete_tracks with its sum, and det_by_tracks, plain
    # and cyclic, on track_pin_matrices, by one digest.  Every track comes
    # with its plan, which must be the one _track_plan derives for an equal
    # track; a narrow track's sign is that of its one string
    digest = hashlib.sha256()
    narrow = wide = 0
    for a in track_pin_matrices():
        for cyclic in (False, True):
            for t in complete_tracks(a, cyclic):
                assert t._plan == blocks._track_plan(OneTrack(t.members, t.cyclic))
                if t.has_minor:
                    wide += 1
                else:
                    assert t._plan[4] == perm_parity(tuple(m.rows[0] for m in t.members))
                    narrow += 1
                digest.update(json.dumps([repr(t), str(track_sum(a, t))]).encode())
            digest.update(str(det_by_tracks(a, cyclic)).encode())
    assert (narrow, wide) == (60010, 8673)
    assert digest.hexdigest() == (
        "ccb7079420ca705a3a5e5048b84bb49b873491346447c2f2e2552cae94de821b"
    )


def test_listed_tracks_sum_as_fresh_ones():
    # a listed track's plan is built by the walk, a fresh equal track's is
    # derived by track_sum: the two sums agree on every track, plain and
    # cyclic, wide ones included; and track_of_string hands out the same
    # plan at every string of the track, not only its smallest
    wide = 0
    for a in track_pin_matrices():
        for cyclic in (False, True):
            for t in complete_tracks(a, cyclic):
                wide += t.has_minor
                assert track_sum(a, t) == track_sum(a, OneTrack(t.members, t.cyclic))
        if a.n <= 3 or a.n == 4 and a.spec is not GF2:
            for image in nonzero_strings(a):
                for cyclic in (False, True):
                    t = track_of_string(a, RowPermutation(image), cyclic)
                    assert t._plan == blocks._track_plan(OneTrack(t.members, t.cyclic))
    assert wide


def test_wrap_member_plan():
    # a cyclic block on columns 3, 1: the walk meets its track at the string
    # (1, 3, 2), head row 1 in column 1 below tail row 2 in column 3, but the
    # plan's string puts the member's rows ascending from column 3 on, (2, 3,
    # 1), of the other sign; the sum is 2 * 1 * 1 - 1 * 1 * 2 = 0
    a = ExactMatrix(GF3, [[1, 0, 1], [2, 0, 2], [0, 1, 0]])
    (t,) = complete_tracks(a, True)
    assert t == T(True, ((3,), 2, 1), ((1, 2), 3, 2))
    assert t._plan == blocks._track_plan(OneTrack(t.members, True))
    assert t._plan[4] == perm_parity((2, 3, 1)) == -perm_parity((1, 3, 2))
    for image in ((1, 3, 2), (2, 3, 1)):
        assert track_of_string(a, RowPermutation(image), True)._plan == t._plan
    assert track_sum(a, t) == GF3.zero == det_by_tracks(a, True)


@pytest.mark.parametrize("flag", ["yes", "no", 0, 1, None, 1.0])
def test_non_bool_cyclic_rejected(golden_7x7, flag):
    # a flag stored as given would be written out as such, and "no" would
    # run the cyclic walk
    a = golden_7x7
    sigma = RowPermutation(nonzero_strings(a)[0])
    calls = [
        lambda: find_one_blocks(a, flag),
        lambda: block_partition(a, flag),
        lambda: track_of_string(a, sigma, flag),
        lambda: complete_tracks(a, flag),
        lambda: det_by_tracks(a, flag),
    ]
    for call in calls:
        with pytest.raises(ParseError, match="cyclic"):
            call()


ONE_GF3 = ExactMatrix(GF3, [[1]])


@pytest.mark.parametrize(
    "build",
    [
        lambda: OneTrack((TrackMember((1,), 1, 1),), "no"),
        lambda: OneTrack((TrackMember((1,), 1, 1),), 1),
        lambda: OneBlock((1, 2), 1, 2, "yes"),
        lambda: OneBlock((1, 2), 1, 2, None),
        lambda: TrackMember((1,), 1.5, True),
        lambda: TrackMember((1,), 1, True),
        lambda: TrackMember((True,), 1, 1),
        # track_sum raised a bare TypeError on these once they constructed
        lambda: track_sum(ONE_GF3, OneTrack((TrackMember((1,), 1.5, True),), False)),
        lambda: track_sum(ONE_GF3, OneTrack((TrackMember((1.0,), 1, 1),), False)),
        lambda: TrackMember([1], 1, 1),
        lambda: OneBlock((1, 2), 1, 2.0, False),
        lambda: OneBlock((1, "2"), 1, 2, False),
        lambda: OneTrack((((1,), 1, 1),), False),
        lambda: OneTrack([TrackMember((1,), 1, 1)], False),
        lambda: OneTrack((OneBlock((1,), 1, 1, False),), False),
    ],
)
def test_value_constructors_check_field_types(build):
    # a field stored as given would be written out or summed as such:
    # "cyclic": "yes" in JSON, or a bare TypeError out of track_sum; range
    # and fit stay track_sum's to judge, so MALFORMED_TRACKS construct
    with pytest.raises(ParseError):
        build()


@pytest.mark.parametrize("bound", [True, False, 2.5, 8.0, "8", None])
def test_non_int_track_bound_rejected(bound):
    a = ExactMatrix.identity(GF3, 3)
    for enumerate_tracks in (complete_tracks, det_by_tracks):
        with pytest.raises(ParseError, match="max_size"):
            enumerate_tracks(a, False, bound)


def test_track_sums_are_canonical():
    # a track sum is the Scalar its field would make of its value: a residue
    # in [0, p) over GF(p), a reduced Fraction over Q
    for a in track_pin_matrices():
        p = a.spec.characteristic
        for cyclic in (False, True):
            for t in complete_tracks(a, cyclic):
                s = track_sum(a, t)
                assert s.spec is a.spec and s == s.spec.scalar(s.value)
                if p:
                    assert type(s.value) is int and 0 <= s.value < p
                else:
                    assert type(s.value) is Fraction


def test_track_plan_belongs_to_the_track():
    rng = random.Random(1703)
    specs = [GF2, GF3, FieldSpec.gf(7), QQ]
    wide = 0
    for k in range(24):
        n = rng.randint(3, 5)
        a = planted_blocks(rng, specs[k % 4], n, n)
        # b: the same size, other entries, another field; c: one size larger
        b = random_matrix(rng, specs[(k + 1) % 4], n, n)
        c = random_matrix(rng, specs[(k + 2) % 4], n + 1, n + 1)
        for cyclic in (False, True):
            for t in complete_tracks(a, cyclic):
                wide += t.has_minor
                fresh = OneTrack(t.members, t.cyclic)
                assert track_sum(b, t) == track_sum(b, fresh)
                for track in (t, fresh):
                    with pytest.raises(IncompleteTrack):
                        track_sum(c, track)
                # the plan is no field: equality, hashing, repr, pickling
                # and copying all ignore it
                assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
                assert pickle.dumps(t) == pickle.dumps(OneTrack(t.members, t.cyclic))
                for back in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
                    assert back == t and back._plan is None
    assert wide
    # errors are raised on every call
    ones = ExactMatrix(GF3, [[1] * 9] * 9)
    over = track_of_string(ones, RowPermutation.identity(9))
    for _ in range(2):
        with pytest.raises(IncompleteTrack):
            track_sum(ExactMatrix.identity(GF3, 8), over)
        with pytest.raises(SizeBound):
            track_sum(ones, over)


def allowed_rows(track, n):
    """For each column, the rows of the member holding it: the strings of
    the track are the strings that take each column's row from its set."""
    allowed = [set() for _ in range(n)]
    for mb in track.members:
        for c in mb.columns(n):
            allowed[c - 1] |= set(mb.rows)
    return allowed


def differential_matrix(rng, spec, n):
    """A planted_matrix whose nonzero entries come from a fresh pool: over
    Q fractions with denominators 2 to 9, so that the rows are scaled to
    integers by more than 1."""
    if spec is QQ:
        values = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 9))
                  for _ in range(8)]
    else:
        values = [rng.randrange(1, spec.p) for _ in range(8)]
    return planted_matrix(rng, spec, n, 0.3, values)


def shuffled_track(rng, n, cyclic, minor_share):
    """A complete track of a random string: its columns cut into runs,
    starting anywhere when cyclic, each run one member (a 1x1 member, or
    with probability minor_share a minor on up to the rest of the columns),
    and the members listed in random order."""
    image = rng.sample(range(1, n + 1), n)  # image[c]: the row of column c + 1
    offset = rng.randrange(n) if cyclic else 0
    members = []
    c = 0
    while c < n:
        length = rng.randint(2, n - c) if c < n - 1 and rng.random() < minor_share else 1
        cols = [(offset + c + t) % n for t in range(length)]
        members.append(TrackMember(tuple(sorted(image[x] for x in cols)), cols[0] + 1, length))
        c += length
    rng.shuffle(members)
    return OneTrack(tuple(members), cyclic)


@pytest.mark.parametrize("spec", ALL_SPECS + [FieldSpec.gf(2147483647)], ids=lambda s: s.name)
def test_track_sum_matches_constrained_sum(spec):
    # track_sum against the signed sum of the strings each column's member
    # allows: every track of complete_tracks, plain and cyclic, and hand-built
    # tracks whose 1x1 members are out of column order or mixed with minors,
    # each summed on its own matrix and on a second one, so that a plan
    # carries nothing of the matrix it came from
    rng = random.Random(f"differential:{spec.name}")
    wide = narrow = out_of_order = mixed = 0
    for n in (1, 2, 3, 4, 4, 5, 5, 6):
        a, b = differential_matrix(rng, spec, n), differential_matrix(rng, spec, n)
        if spec is QQ and n > 1:
            assert any(v.denominator > 1 for row in a.raw() for v in row)
        for cyclic in (False, True):
            tracks = complete_tracks(a, cyclic)
            built = [shuffled_track(rng, n, cyclic, share) for share in (0, 0, 0.4, 0.4)]
            for t in tracks + built:
                allowed = allowed_rows(t, n)
                assert track_sum(a, t) == constrained_sum(a, allowed), (a, t)
                assert track_sum(b, t) == constrained_sum(b, allowed), (b, t)
            for t in tracks:
                wide += t.has_minor
                narrow += not t.has_minor
            for t in built:
                starts = [mb.col_start for mb in t.members if not mb.is_minor]
                out_of_order += starts != sorted(starts)
                mixed += t.has_minor and bool(starts)
                if not t.has_minor:
                    # the plan lists the 1x1 members in column order
                    assert blocks._track_plan(t)[2] == tuple(range(n))
    assert wide and narrow and out_of_order and mixed


def test_complete_tracks_bound():
    with pytest.raises(SizeBound):
        complete_tracks(ExactMatrix.identity(GF2, 9))
    with pytest.raises(SizeBound):
        det_by_tracks(ExactMatrix.identity(GF2, 9))
    assert det_by_tracks(ExactMatrix.identity(GF2, 9), max_size=9) == GF2.one
    # the enumeration is iterative: one column per level, no recursion limit
    assert det_by_tracks(ExactMatrix.identity(GF2, 1200), max_size=1200) == GF2.one
    with pytest.raises(NotSquare):
        complete_tracks(ExactMatrix(GF2, [[1, 0]]))
    # track_sum takes at most the 8! strings of an 8-row member; one string
    # per track stays accepted at any n
    for n in (8, 9, 10):
        ones = ExactMatrix(GF3, [[1] * n] * n)
        track = track_of_string(ones, RowPermutation.identity(n))
        assert [len(m.rows) for m in track.members] == [n]
        if n == 8:
            assert track_sum(ones, track) == GF3.zero
        else:
            with pytest.raises(SizeBound):
                track_sum(ones, track)
    # all-ones 8x8 and 2x2 blocks on the diagonal: the walk meets the one
    # track at its smallest string instead of walking its 8! * 2! strings
    diag = ExactMatrix(GF3, [[int((i < 8) == (j < 8)) for j in range(10)] for i in range(10)])
    for cyclic in (False, True):
        start = time.perf_counter()
        tracks = complete_tracks(diag, cyclic, max_size=10)
        assert time.perf_counter() - start < 0.1
        members = (TrackMember(tuple(range(1, 9)), 1, 8), TrackMember((9, 10), 9, 2))
        assert tracks == [OneTrack(members, cyclic)]
    n = 1200
    identity_track = OneTrack(tuple(TrackMember((c,), c, 1) for c in range(1, n + 1)), False)
    assert track_sum(ExactMatrix.identity(GF2, n), identity_track) == GF2.one


def test_det_by_tracks_1x1():
    assert det_by_tracks(ExactMatrix(QQ, [["7"]])) == QQ.scalar(7)
    # one column has no 1-blocks: [[1]] is one single-cell track
    for spec, cyclic in itertools.product([GF2, GF3, QQ], [False, True]):
        one, zero = ExactMatrix(spec, [[1]]), ExactMatrix(spec, [[0]])
        track = OneTrack((TrackMember((1,), 1, 1),), cyclic)
        assert complete_tracks(one, cyclic) == [track]
        assert track_of_string(one, RowPermutation.identity(1), cyclic) == track
        assert det_by_tracks(one, cyclic) == spec.one
        assert complete_tracks(zero, cyclic) == []
        assert det_by_tracks(zero, cyclic) == spec.zero


def test_singular_3x3_by_tracks(singular_3x3):
    assert det_by_tracks(singular_3x3) == GF2.zero
    assert determinant(singular_3x3) == GF2.zero
