import hashlib
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tworow import (
    GF2,
    GF3,
    GF5,
    QQ,
    ExactMatrix,
    FieldMismatch,
    IndexOutOfRange,
    NotSquare,
    ParseError,
    RowPermutation,
    SizeMismatch,
    canonical_json,
    consecutive_minor,
    determinant,
    matrix_from_csv_text,
    permute_rows,
    rank,
    two_row_graph,
    wrap_minor,
)
from tworow.fields import FieldSpec, Scalar
from tworow.harness import sample_gl
from tworow import matrices
from tworow.matrices import _eliminate, _eliminate_bytes, _eliminate_mod

from .conftest import ALL_SPECS, random_matrix
from .oracles import (
    brute_graph_edges,
    brute_rank,
    determinant_generic,
    naive_determinant,
    perm_parity,
    wedge_coefficient,
)


def test_construction_and_entry():
    a = ExactMatrix(GF3, [[1, 2, 0], [4, -1, 1]])
    assert (a.m, a.n) == (2, 3)
    assert a.entry(2, 1) == GF3.scalar(1)
    assert a.entry(2, 2) == GF3.scalar(2)
    with pytest.raises(IndexOutOfRange):
        a.entry(0, 1)
    with pytest.raises(IndexOutOfRange):
        a.entry(1, 4)
    with pytest.raises(IndexOutOfRange):
        a.entry(3, 1)


def test_construction_rejects_bad_shapes():
    with pytest.raises(SizeMismatch):
        ExactMatrix(GF2, [[1, 0], [1]])
    with pytest.raises(SizeMismatch):
        ExactMatrix(GF2, [])
    with pytest.raises(SizeMismatch):
        ExactMatrix(GF2, [[]])
    with pytest.raises(FieldMismatch):
        ExactMatrix(GF2, [[GF3.scalar(1)]])


def test_identity_and_zeros():
    i3 = ExactMatrix.identity(QQ, 3)
    assert determinant(i3) == QQ.one
    z = ExactMatrix.zeros(GF5, 2, 4)
    assert all(v == 0 for row in z.raw() for v in row)


def test_string_entries_parse():
    a = ExactMatrix(QQ, [["1/2", "-3"], [2, Fraction(1, 3)]])
    assert a.entry(1, 1) == QQ.scalar(Fraction(1, 2))
    assert a.entry(2, 2) == QQ.scalar(Fraction(1, 3))


def test_row_permutation_validation_and_sign():
    with pytest.raises(SizeMismatch):
        RowPermutation((1, 1, 3))
    with pytest.raises(SizeMismatch):
        RowPermutation((0, 1))
    assert RowPermutation.identity(4).sign() == 1
    assert RowPermutation((2, 1, 3)).sign() == -1
    assert RowPermutation((2, 3, 1)).sign() == 1


@given(st.permutations(list(range(1, 7))))
def test_sign_matches_parity_oracle(image):
    sigma = RowPermutation(tuple(image))
    assert sigma.sign() == perm_parity(tuple(image))


def test_permute_rows_semantics():
    a = ExactMatrix(QQ, [[1, 1], [2, 2], [3, 3]])
    sigma = RowPermutation((3, 1, 2))
    b = permute_rows(a, sigma)
    assert b.raw()[0][0] == 3 and b.raw()[1][0] == 1 and b.raw()[2][0] == 2
    with pytest.raises(SizeMismatch):
        permute_rows(a, RowPermutation((1, 2)))


def test_minor_formulas():
    a = ExactMatrix(QQ, [[1, 2, 3], [4, 5, 6]])
    assert consecutive_minor(a, 1, 2, 1) == QQ.scalar(1 * 5 - 2 * 4)
    assert consecutive_minor(a, 1, 2, 2) == QQ.scalar(2 * 6 - 3 * 5)
    assert consecutive_minor(a, 2, 1, 1) == -consecutive_minor(a, 1, 2, 1)
    assert wrap_minor(a, 1, 2) == QQ.scalar(3 * 4 - 1 * 6)
    with pytest.raises(IndexOutOfRange):
        consecutive_minor(a, 1, 1, 1)
    with pytest.raises(IndexOutOfRange):
        consecutive_minor(a, 1, 2, 3)
    with pytest.raises(IndexOutOfRange):
        wrap_minor(a, 2, 2)
    i3 = ExactMatrix.identity(GF3, 3)
    assert consecutive_minor(i3, 1, 2, 1) == GF3.one
    assert consecutive_minor(i3, 1, 3, 1) == GF3.zero
    assert consecutive_minor(i3, 2, 3, 2) == GF3.one


def test_alternating_square_matches_minor():
    """consecutive_minor(a, i, j, k) is the e_i ^ e_j coefficient of the
    alternating square of columns k and k+1, on square and wide inputs."""
    rng = random.Random(101)
    for spec, m, n in ((FieldSpec.gf(7), 4, 4), (QQ, 3, 5)):
        a = random_matrix(rng, spec, m, n)
        for k in range(1, n):
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    if i != j:
                        assert consecutive_minor(a, i, j, k).value == wedge_coefficient(
                            a, k, i, j
                        )
    with pytest.raises(IndexOutOfRange):
        consecutive_minor(ExactMatrix.identity(GF3, 3), 2, 2, 1)


def test_determinant_not_square():
    with pytest.raises(NotSquare):
        determinant(ExactMatrix(GF2, [[1, 0]]))


def test_determinant_gf2_exhaustive_3x3():
    for bits in range(2**9):
        rows = [[bits >> (3 * r + c) & 1 for c in range(3)] for r in range(3)]
        a = ExactMatrix(GF2, rows)
        assert determinant(a).value == naive_determinant(a)


BIG_PRIME = FieldSpec.gf(2147483647)


def random_entry(rng: random.Random, spec, density: float = 1.0):
    """A random raw entry, nonzero with probability about density; over Q
    it may be a fraction, so that rows need their denominators cleared."""
    if rng.random() >= density:
        return 0
    if spec is QQ:
        return Fraction(rng.choice([1, -1, 2, 3, -5, 7]), rng.choice([1, 1, 2, 3]))
    return rng.randrange(1, spec.p)


@pytest.mark.parametrize("spec", ALL_SPECS + [BIG_PRIME])
def test_determinant_matches_naive_random(spec):
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5):
        for _ in range(12):
            a = random_matrix(rng, spec, n, n)
            expected = naive_determinant(a)
            assert determinant(a).value == expected
            assert determinant_generic(a).value == expected
    # larger sparse inputs: zero pivots force row swaps, some are singular
    singular = 0
    for n in range(6, 21):
        for _ in range(2):
            a = ExactMatrix(
                spec, [[random_entry(rng, spec, 0.3) for _ in range(n)] for _ in range(n)]
            )
            d = determinant(a)
            assert d == determinant_generic(a)
            singular += not d
    assert 0 < singular < 30


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_determinant_row_swap_sign(spec):
    rng = random.Random(13)
    for _ in range(10):
        a = random_matrix(rng, spec, 4, 4)
        sigma = RowPermutation(tuple(rng.sample(range(1, 5), 4)))
        lhs = determinant(permute_rows(a, sigma)).value
        sign = spec.scalar(sigma.sign()).value
        rhs = (determinant(a) * spec.scalar(sign)).value
        assert lhs == rhs


@pytest.mark.parametrize("spec", ALL_SPECS + [BIG_PRIME])
def test_rank_properties(spec):
    rng = random.Random(29)
    for _ in range(10):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, spec, m, n)
        r = rank(a)
        assert 0 <= r <= min(m, n) and r == brute_rank(a)
        if m == n:
            assert (r == n) == bool(determinant(a))
    ones = ExactMatrix(spec, [[1, 1], [1, 1]])
    assert rank(ones) == 1
    assert rank(ExactMatrix.zeros(spec, 3, 2)) == 0
    # pivots in the first and the last column of a wide matrix, and its transpose
    assert rank(ExactMatrix(spec, [[1, 0, 0, 0, 0], [0, 0, 0, 0, 1]])) == 2
    assert rank(ExactMatrix(spec, [[1, 0], [0, 0], [0, 0], [0, 0], [0, 1]])) == 2
    # products U V with inner size k have rank at most k: wide, tall and
    # rank-deficient inputs against the largest nonzero minor
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        k = rng.randint(0, min(m, n))
        u = [[random_entry(rng, spec, 0.7) for _ in range(k)] for _ in range(m)]
        v = [[random_entry(rng, spec, 0.7) for _ in range(n)] for _ in range(k)]
        uv = [[sum(u[i][t] * v[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
        a = ExactMatrix(spec, uv)
        r = rank(a)
        assert r == brute_rank(a) and r <= k
        if m == n:
            assert (r == n) == bool(determinant(a))


def test_json_round_trip(golden_7x7):
    doc = golden_7x7.to_json_dict()
    again = ExactMatrix.from_json_dict(doc)
    assert again == golden_7x7
    assert canonical_json(again.to_json_dict()) == canonical_json(doc)
    q = ExactMatrix(QQ, [["1/2", "-3"], ["0", "22/7"]])
    assert ExactMatrix.from_json_dict(q.to_json_dict()) == q


def test_canonical_json_is_stable():
    s = canonical_json({"b": 1, "a": [2, 3]})
    assert s == '{"a":[2,3],"b":1}\n'
    assert json.loads(s) == {"a": [2, 3], "b": 1}


def test_from_json_errors_carry_positions():
    with pytest.raises(ParseError):
        ExactMatrix.from_json_dict({"rows": [["1"]]})
    with pytest.raises(ParseError, match="row 2, column 2"):
        ExactMatrix.from_json_dict({"field": "gf2", "rows": [["1", "0"], ["0", "x"]]})
    with pytest.raises(ParseError):
        ExactMatrix.from_json_dict({"field": "gf2", "rows": [["1"], ["0", "1"]]})


# a bad cell in a row after the first, where the first row has filled the
# document's literal cache: (field, rows, the exact message)
WARM_CACHE_ERRORS = [
    ("gf(5)", [["1", "0"], ["0", True]], "row 2, column 2: entries must be strings"),
    ("gf(5)", [["1", "0"], ["0", None]], "row 2, column 2: entries must be strings"),
    ("gf(5)", [["1", "0"], ["0", ["1"]]], "row 2, column 2: entries must be strings"),
    ("gf(5)", [["1", "0"], ["0", {"1": 1}]], "row 2, column 2: entries must be strings"),
    ("gf(5)", [["1", "0"], ["0", 1.0]], "row 2, column 2: entries must be strings"),
    ("gf(5)", [["1", "0"], ["0", "x"]], "row 2, column 2: bad gf(5) scalar literal 'x'"),
    # an uncached literal before the bad cell is read first
    ("gf(5)", [["1", "0"], ["3", "x"]], "row 2, column 2: bad gf(5) scalar literal 'x'"),
    ("gf(5)", [["1", "0"], ["0", "1"], ["1", False]],
     "row 3, column 2: entries must be strings"),
    ("gf2", [["1", "0"], ["0", "x"]], "row 2, column 2: bad gf2 scalar literal 'x'"),
    ("q", [["1/2", "0"], ["0", "1/0"]], "row 2, column 2: bad q scalar literal '1/0'"),
    ("q", [["1/2", "0"], [" 1/2", True]], "row 2, column 2: entries must be strings"),
    ("gf(5)", [["1", "0"], []], "row 2 must be a non-empty list of entries"),
    ("gf(5)", [["1", "0"], "10"], "row 2 must be a non-empty list of entries"),
    ("gf(5)", [["1", "0"], ["1"]], "ragged rows: all rows must share one length"),
]


@pytest.mark.parametrize("field, rows, message", WARM_CACHE_ERRORS)
def test_from_json_errors_on_a_warm_cache(field, rows, message):
    with pytest.raises(ParseError) as info:
        ExactMatrix.from_json_dict({"field": field, "rows": rows})
    assert str(info.value) == message


def test_from_json_values_on_a_warm_cache():
    # int cells and literals that differ from a cached one in text only
    # ("01", " 1" beside "1") parse as on a cold cache
    cases = [
        ("gf(5)", [["1", "0"], ["01", " 1"], [7, -1]], ((1, 0), (1, 1), (2, 4))),
        ("gf2", [["1", "0"], ["1", "01"], ["3", "0 "]], ((1, 0), (1, 1), (1, 0))),
        ("q", [["1/2", "-1"], ["2/4", " 1/2"], [3, "-3/1"]],
         ((Fraction(1, 2), Fraction(-1)), (Fraction(1, 2), Fraction(1, 2)),
          (Fraction(3), Fraction(-3)))),
    ]
    for field, rows, want in cases:
        a = ExactMatrix.from_json_dict({"field": field, "rows": rows})
        assert a.raw() == want
        kind = Fraction if field == "q" else int
        assert all(type(v) is kind for row in a.raw() for v in row)
        assert a == ExactMatrix(a.spec, rows)


def test_csv_parsing():
    a = matrix_from_csv_text("1,0,1\n0,1,1\n", GF2)
    assert a.raw() == ((1, 0, 1), (0, 1, 1)) or a.raw() == [[1, 0, 1], [0, 1, 1]]
    with pytest.raises(ParseError, match="line 2, column 3"):
        matrix_from_csv_text("1,0,1\n0,1,zebra\n", GF2)
    with pytest.raises(ParseError):
        matrix_from_csv_text("\n\n", GF2)
    with pytest.raises(ParseError, match="ragged rows"):
        matrix_from_csv_text("1,0\n1\n", GF2)
    # cells land on the canonical raw form, as through the constructor
    q = matrix_from_csv_text(" 1/2,-2/4\n3 , 0\n", QQ)
    assert q == ExactMatrix(QQ, [["1/2", "-1/2"], [3, 0]])
    assert all(type(v) is Fraction for row in q.raw() for v in row)
    assert matrix_from_csv_text("-1,7\n", GF5).raw() == ((4, 2),)


def test_raw_storage_boundary():
    # mixed Scalar / int / str / Fraction entries land on one canonical raw form
    a = ExactMatrix(QQ, [[QQ.scalar(Fraction(1, 2)), 3], ["-2/4", Fraction(6, 2)]])
    assert a.raw() == ((Fraction(1, 2), Fraction(3)), (Fraction(-1, 2), Fraction(3)))
    assert all(type(v) is Fraction for row in a.raw() for v in row)
    g = ExactMatrix(GF5, [[GF5.scalar(7), -1], ["12", True]])
    assert g.raw() == ((2, 4), (2, 1))
    # over GF(p) only an int (a bool is one) is a plain entry: int() would
    # truncate 3/2 to 1, where it is 4 in GF(5)
    for cell in (1.7, 2.0, Fraction(3, 2), Fraction(4)):
        with pytest.raises(FieldMismatch, match=re.escape(f"cannot coerce {cell!r} into gf(5)")):
            ExactMatrix(GF5, [[cell, 2], [1, 1]])
        with pytest.raises(FieldMismatch, match=re.escape(f"cannot coerce {cell!r} into gf2")):
            ExactMatrix(GF2, [[1, 0], [0, cell]])
    # equality and hashing follow the raw values and the field
    same = ExactMatrix(QQ, [["1/2", "3"], [Fraction(-1, 2), 3]])
    assert a == same and hash(a) == hash(same)
    assert a != ExactMatrix(QQ, [["1/2", "3"], ["1/2", "3"]])
    assert g != ExactMatrix(GF3, [[2, 1], [2, 1]])
    # the API boundary still hands out Scalars
    assert isinstance(a.entry(2, 1), Scalar) and a.entry(2, 1) == QQ.scalar(Fraction(-1, 2))
    assert a.row(1) == (QQ.scalar(Fraction(1, 2)), QQ.scalar(3))
    assert all(isinstance(v, Scalar) for row in g.scalar_rows() for v in row)
    # parse errors from JSON keep their row and column
    with pytest.raises(ParseError, match="row 1, column 2"):
        ExactMatrix.from_json_dict({"field": "q", "rows": [["1", "1/0"]]})
    with pytest.raises(ParseError, match="row 2, column 1: entries must be strings"):
        ExactMatrix.from_json_dict({"field": "gf(5)", "rows": [["1"], [1.5]]})


def test_matrix_equality_and_hash():
    a = ExactMatrix(GF2, [[1, 0], [0, 1]])
    b = ExactMatrix.identity(GF2, 2)
    assert a == b and hash(a) == hash(b)
    assert a != ExactMatrix(GF3, [[1, 0], [0, 1]])


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.randoms(use_true_random=False),
)
def test_raw_matches_scalar_rows(m, n, rnd):
    for spec in ALL_SPECS:
        a = random_matrix(rnd, spec, m, n)
        raw = a.raw()
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                assert a.entry(i, j).value == raw[i - 1][j - 1]


GF7 = FieldSpec.gf(7)
# GF(17) is the first field whose elimination takes the lane path
LANE_SPECS = [GF3, GF5, GF7, FieldSpec.gf(17), BIG_PRIME]


@pytest.mark.parametrize("spec", LANE_SPECS, ids=lambda s: s.name)
def test_lane_kernel_matches_oracles(spec):
    # every shape up to 6 x 6: dense, sparse, and products U V of inner size
    # k < min(m, n), so rank-deficient
    rng = random.Random(43)
    for m in range(1, 7):
        for n in range(1, 7):
            cases = [
                [[random_entry(rng, spec, density) for _ in range(n)] for _ in range(m)]
                for density in (1.0, 0.4)
            ]
            k = rng.randrange(min(m, n))
            u = [[random_entry(rng, spec) for _ in range(k)] for _ in range(m)]
            v = [[random_entry(rng, spec) for _ in range(n)] for _ in range(k)]
            cases.append(
                [[sum(u[i][t] * v[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
            )
            for rows in cases:
                a = ExactMatrix(spec, rows)
                assert rank(a) == brute_rank(a), rows
                if m == n:
                    assert determinant(a).value == naive_determinant(a), rows
            assert rank(ExactMatrix(spec, cases[-1])) <= k


@pytest.mark.parametrize("n", [64, 128])
def test_lane_kernel_matches_bareiss_mod_p(n):
    # Bareiss runs on small signed entries; the lane kernel on their
    # residues, which lie near 0 or near p
    p = BIG_PRIME.p
    rng = random.Random(n)
    small = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    r, det = _eliminate(small, 0)
    assert r == n and det
    assert _eliminate([[x % p for x in row] for row in small], p) == (r, det % p)
    # a rank-deficient product, and a wide and a tall slice of it
    k = n // 4
    u, v = small[:k], [row[:k] for row in small]
    prod = [[sum(v[i][t] * u[t][j] for t in range(k)) for j in range(n)] for i in range(n)]
    for rows in (prod, prod[: n // 2], [row[: n // 2] for row in prod]):
        residues = [[x % p for x in row] for row in rows]
        assert _eliminate(residues, p) == _eliminate(rows, 0) == (k, 0)


@pytest.mark.parametrize("spec", LANE_SPECS, ids=lambda s: s.name)
def test_lane_kernel_lane_bound_stress(spec):
    # entry (i, j) is -1-i above the diagonal and 1-j on and below it, so
    # at pivot t the pivot, and every entry below it, is 1 and the rest of
    # the pivot row is -1 mod p: each row is updated by every pivot above
    # it with a tail, and each update adds (p-1)**2 to every lane on the
    # right, the most it can.  Lanes then come within p of the bound the
    # lane width is taken from, and a lane one bit narrower fails on many
    # of these shapes.
    # _eliminate takes the byte lanes for p <= 16; the lane kernel is run
    # on those fields too
    p = spec.p
    for n in range(2, 25):
        for m in (n - 1, n, n + 2):
            rows = _stress_rows(p, m, n)
            want = (min(m, n), int(m == n))
            assert _eliminate(rows, p) == _eliminate_mod(rows, p) == want, (m, n)


def _stress_rows(p: int, m: int, n: int) -> list[list[int]]:
    """Entry (i, j) is -1-i above the diagonal and 1-j on and below it, mod p."""
    return [[(-1 - i) % p if j > i else (1 - j) % p for j in range(n)] for i in range(m)]


# the primes _eliminate hands to the byte lanes: every prime p <= 16, with
# p = 2 for the GF(2) minors of track_sum
BYTE_PRIMES = [2, 3, 5, 7, 11, 13]


def test_eliminate_takes_byte_lanes_up_to_16(monkeypatch):
    calls = []
    for name in ("_eliminate_bytes", "_eliminate_mod"):
        def spy(rows, p, name=name, real=getattr(matrices, name)):
            calls.append((name, p))
            return real(rows, p)
        monkeypatch.setattr(matrices, name, spy)
    lane_primes = [17, 19, BIG_PRIME.p]
    for p in BYTE_PRIMES + lane_primes:
        assert _eliminate([[1, 1], [0, 1]], p) == (2, 1)
    assert calls == ([("_eliminate_bytes", p) for p in BYTE_PRIMES]
                     + [("_eliminate_mod", p) for p in lane_primes])


def _byte_cases(rng: random.Random, p: int, m: int, n: int) -> list:
    """m x n rows over GF(p): dense, sparse, a product U V of inner size
    k < min(m, n), so rank-deficient, and the dense rows with one row and
    with one column set to zero."""
    dense = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
    sparse = [[rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(n)]
              for _ in range(m)]
    k = rng.randrange(min(m, n))
    u = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
    v = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
    low = [[sum(u[i][t] * v[t][j] for t in range(k)) % p for j in range(n)] for i in range(m)]
    zr, zc = rng.randrange(m), rng.randrange(n)
    zero_row = [[0] * n if i == zr else row for i, row in enumerate(dense)]
    zero_col = [[0 if j == zc else x for j, x in enumerate(row)] for row in dense]
    return [dense, sparse, low, zero_row, zero_col]


@pytest.mark.parametrize("p", BYTE_PRIMES)
def test_byte_lanes_match_lane_path_and_oracles(p):
    # every shape up to 5 x 5 against the brute-force oracles, and shapes
    # up to 69 x 64 against the lane path and, while square and small
    # enough, the Scalar elimination
    spec = FieldSpec.gf(p)
    rng = random.Random(p)
    for m in range(1, 6):
        for n in range(1, 6):
            for rows in _byte_cases(rng, p, m, n):
                got = _eliminate_bytes(rows, p)
                assert got == _eliminate_mod(rows, p), rows
                a = ExactMatrix(spec, rows)
                assert got[0] == brute_rank(a), rows
                if m == n:
                    assert got[1] == naive_determinant(a), rows
    for n in (8, 17, 33, 64):
        for m in (n - 3, n, n + 5):
            for rows in _byte_cases(rng, p, m, n):
                got = _eliminate_bytes(rows, p)
                assert got == _eliminate_mod(rows, p), (m, n)
                if m == n <= 17:
                    assert got[1] == determinant_generic(ExactMatrix(spec, rows)).value


@pytest.mark.parametrize("p", BYTE_PRIMES)
def test_byte_lanes_reduce_before_they_carry(p):
    # on the stress rows each row is updated by every pivot above it, and
    # each update adds (p-1)**2 to every lane right of its column.  A
    # reduced row has room for `fresh` updates; from n = fresh + 3 on some
    # lane reaches p-1 + fresh * (p-1)**2, the most a byte may hold without
    # one more update carrying, for every p.  So rows run out of room and
    # are reduced, and pivots come from rows updated since their last
    # reduction, whose tails must be reduced before they are added.
    fresh = (256 - p) // (p - 1) ** 2
    for n in [*range(2, 10), fresh + 2, fresh + 3, fresh + 4]:
        for m in (n - 1, n, n + 2):
            rows = _stress_rows(p, m, n)
            want = (min(m, n), int(m == n))
            assert _eliminate_bytes(rows, p) == _eliminate_mod(rows, p) == want, (m, n)


# digests of seeded sample_gl draws, n = 1..8 and seeds 0..5, as the
# list-based modular elimination drew them, and over GF(2) as the
# generator-based bit unpacking did
SAMPLE_GL_DIGESTS = {
    2: "bc14e600a2bd1120",
    3: "c28369714abfd67f",
    5: "4f36a67be052db80",
    7: "8268a66cbbfd0ce0",
}


@pytest.mark.parametrize("q", sorted(SAMPLE_GL_DIGESTS))
def test_sample_gl_draws_unchanged(q):
    digest = hashlib.sha256()
    for n in range(1, 9):
        for seed in range(6):
            digest.update(repr(sample_gl(n, q, random.Random(seed)).raw()).encode())
    assert digest.hexdigest()[:16] == SAMPLE_GL_DIGESTS[q]


def test_integer_row_cache_holds_tuples():
    a = ExactMatrix(QQ, [["1/2", "2/3", "0"], ["-3/4", "5", "7/6"], ["1", "-1/9", "2/5"]])
    raw = a.raw()
    d = determinant(a)
    rows, scale = a._int_rows()
    assert rows == ((3, 4, 0), (-9, 60, 14), (45, -5, 18)) and scale == 6 * 12 * 45
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert d.value == naive_determinant(a)
    cache = a._int_rows()
    assert determinant(a) == d and rank(a) == 3
    assert a.raw() is raw and a._int_rows() is cache
    # the column view: the same integers read by column, with the same scale
    view = a._int_cols()
    assert view == (((3, -9, 45), (4, 60, -5), (0, 14, 18)), scale)
    assert type(view[0]) is tuple and all(type(col) is tuple for col in view[0])
    assert a._int_cols() is view and a._int_rows() is cache
    # over GF(p) the raw rows are already integers
    g = ExactMatrix(GF5, [[1, 2], [3, 4]])
    assert g._int_rows() == (g.raw(), 1)
    assert g._int_cols() == (((1, 3), (2, 4)), 1)


def test_integer_row_cache_matches_oracles():
    # mixed denominators, so rows are scaled by different multipliers
    rng = random.Random(61)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = ExactMatrix(QQ, [[random_entry(rng, QQ, 0.7) for _ in range(n)] for _ in range(m)])
        for cyclic in (False, True):
            assert set(two_row_graph(a, cyclic).edges) == brute_graph_edges(a, cyclic)
        assert rank(a) == brute_rank(a)
        if m == n:
            assert determinant(a).value == naive_determinant(a)
