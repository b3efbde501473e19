"""The null-mask kernel against the brute-force oracle, on every field.

rowgraph._scan_masks is the one kernel behind every two-row, opposite and
support graph.  It works on the column masks of ExactMatrix._col_masks, one
row bitmask per column, and splits the rows nonzero in both columns of a
window by _projective_classes.  Its masks must agree with
oracles.brute_null_on pair by pair, over GF(2), where that split is one
class, and over every other field.  The GF(2) determinant and rank run on
the same column masks and are checked here against the oracles too.
"""

import itertools
import random
from fractions import Fraction

import pytest

from tworow import GF2, GF3, QQ, ExactMatrix, FieldSpec, determinant, rank
from tworow import rowgraph
from tworow.rowgraph import _scan_masks, row_null_masks

from . import test_memo, test_rowgraph
from .conftest import ALL_SPECS, load_fixture_matrix, random_matrix, sparse_invertible
from .oracles import brute_null_connected, brute_null_on, brute_rank, determinant_generic

# every field the tests use, and one whose residues do not fit in a byte
SPECS = ALL_SPECS + [FieldSpec.gf(2147483647)]


def plain_windows(n: int) -> list[tuple[int, int]]:
    return [(k, k + 1) for k in range(n - 1)]


def brute_masks(a: ExactMatrix, windows) -> tuple[int, ...]:
    return tuple(
        sum(1 << j for j in range(a.m) if j != i and brute_null_on(a, i + 1, j + 1, windows))
        for i in range(a.m)
    )


def check(a: ExactMatrix, windows) -> tuple[int, ...]:
    """The masks of a on windows, after checking the kernel against the
    oracle and the column masks against the entries."""
    windows = tuple(windows)
    raw = a.raw()
    assert a._col_masks() == tuple(
        sum(1 << r for r in range(a.m) if raw[r][c]) for c in range(a.n)
    ), a
    got = _scan_masks(a, windows)
    assert got == brute_masks(a, windows), (a, windows)
    return got


def every_matrix(spec, m: int, n: int):
    values = range(spec.p)
    for cells in itertools.product(values, repeat=m * n):
        yield ExactMatrix(spec, [cells[r * n:(r + 1) * n] for r in range(m)])


def check_every_matrix(spec, shapes, cyclic: bool) -> int:
    """Check the kernel and row_null_masks on every matrix of the shapes;
    the number of matrices."""
    count = 0
    for m, n in shapes:
        for a in every_matrix(spec, m, n):
            windows = plain_windows(n)
            if cyclic and n >= 2:
                windows.append((n - 1, 0))
            masks = check(a, windows)
            assert row_null_masks(a, cyclic) == list(masks)
            for i, j in itertools.combinations(range(a.m), 2):
                assert (masks[i] >> j & 1) == brute_null_connected(a, i + 1, j + 1, cyclic)
            count += 1
    return count


@pytest.mark.parametrize("cyclic", [False, True])
def test_every_binary_matrix_up_to_3x4_and_4x3(cyclic):
    shapes = [(m, n) for m, n in itertools.product(range(1, 5), repeat=2) if m * n <= 12]
    assert check_every_matrix(GF2, shapes, cyclic) == 9418


@pytest.mark.parametrize("cyclic", [False, True])
def test_every_ternary_matrix_2x3_and_3x2(cyclic):
    assert check_every_matrix(GF3, [(2, 3), (3, 2)], cyclic) == 2 * 3**6


def _scaled(rng: random.Random, spec, row):
    """row times a random nonzero scalar: a row of its projective classes."""
    if spec is QQ:
        f = Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 5]))
    else:
        f = rng.randrange(1, min(spec.p, 1 << 20))
    return [v * f for v in row]


def _random_matrix(rng: random.Random, spec) -> ExactMatrix:
    """A dense, sparse or rectangular matrix with scaled copies of some of
    its rows and zero rows, so that classes hold several rows."""
    kind = rng.choice(["dense", "sparse", "wide", "tall"])
    if kind == "sparse":
        rows = [list(r) for r in sparse_invertible(rng, spec, rng.randint(2, 12)).raw()]
    else:
        m, n = rng.randint(1, 6), rng.randint(2, 6)
        if kind == "wide":
            n += rng.randint(3, 8)
        elif kind == "tall":
            m += rng.randint(3, 8)
        rows = [list(r) for r in random_matrix(rng, spec, m, n).raw()]
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.7:
            rows.append(_scaled(rng, spec, rng.choice(rows)))
        else:
            rows.append([0] * len(rows[0]))
    rng.shuffle(rows)
    return ExactMatrix(spec, rows)


def test_random_matrices_and_window_sets():
    seen_wrap = seen_repeat = 0
    for spec in SPECS:
        rng = random.Random(f"scan:{spec.name}")
        for _ in range(150):
            a = _random_matrix(rng, spec)
            n = a.n
            pairs = list(itertools.permutations(range(n), 2))
            windows = rng.sample(pairs, rng.randint(0, min(len(pairs), 16)))
            if rng.random() < 0.5:
                windows.append((n - 1, 0))
            if windows and rng.random() < 0.5:
                windows.insert(rng.randrange(len(windows) + 1), rng.choice(windows))
            seen_wrap += (n - 1, 0) in windows
            seen_repeat += len(set(windows)) < len(windows)
            check(a, windows)
            check(a, plain_windows(n) + [(n - 1, 0)])
    assert seen_wrap > 150 and seen_repeat > 150


def test_gf2_rank_and_determinant_on_column_masks():
    # _rank_det eliminates the column masks, the rows of the transpose
    shapes = [(m, n) for m, n in itertools.product(range(1, 4), repeat=2)]
    for m, n in shapes:
        for a in every_matrix(GF2, m, n):
            assert rank(a) == brute_rank(a), a
            if m == n:
                assert determinant(a) == determinant_generic(a), a
    rng = random.Random("gf2 rank")
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [list(r) for r in random_matrix(rng, GF2, m, n).raw()]
        if rng.random() < 0.5:  # a repeated row makes it singular
            rows[rng.randrange(m)] = list(rng.choice(rows))
        a = ExactMatrix(GF2, rows)
        assert rank(a) == brute_rank(a), a
        if m == n:
            assert determinant(a) == determinant_generic(a), a


# the rowgraph and memo tests whose inputs the kernel must answer as the
# oracle does; golden_7x7 is a fresh copy, so its memo is cold
RERUN = {
    "rowgraph golden": lambda: test_rowgraph.test_golden_graphs(
        load_fixture_matrix("golden_7x7.json")),
    "rowgraph identity": test_rowgraph.test_identity_family_path_and_cycle,
    "rowgraph oracle plain": lambda: [
        test_rowgraph.test_graph_matches_oracle_and_complements_opp(spec, False)
        for spec in ALL_SPECS],
    "rowgraph oracle cyclic": lambda: [
        test_rowgraph.test_graph_matches_oracle_and_complements_opp(spec, True)
        for spec in ALL_SPECS],
    "rowgraph traceable": test_rowgraph.test_traceable_matches_graph_adjacency,
    "rowgraph equality": test_rowgraph.test_equality_ignores_how_a_graph_was_built,
    "memo plain-first": lambda: [
        test_memo.test_warm_matrix_answers_as_a_fresh_copy(spec, False) for spec in ALL_SPECS],
    "memo cyclic-first": lambda: [
        test_memo.test_warm_matrix_answers_as_a_fresh_copy(spec, True) for spec in ALL_SPECS],
    "memo masks": lambda: [
        test_memo.test_changing_a_returned_mask_list_changes_nothing_later(spec)
        for spec in ALL_SPECS],
}


@pytest.mark.parametrize("name", sorted(RERUN))
def test_inputs_of_the_rowgraph_and_memo_tests(name, monkeypatch):
    # every kernel call the test makes, plain, cyclic and on support
    # windows, goes through check on the way
    scanned = []
    scan = rowgraph._scan_masks

    def checked(a, windows):
        got = scan(a, windows)
        assert got == check(a, windows)
        scanned.append(a)
        return got

    monkeypatch.setattr(rowgraph, "_scan_masks", checked)
    RERUN[name]()
    assert scanned
