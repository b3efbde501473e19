"""The GF(2) branch of the null-mask kernel against the projective-class
kernel and the brute-force oracle.

rowgraph._scan_masks hands GF(2) matrices to _scan_bits, which works on one
row bitmask per column; _scan_classes, the kernel of every other field,
must give the same masks on the same matrix, and both must agree with
oracles.brute_null_on pair by pair.
"""

import itertools
import random

import pytest

from tworow import GF2, ExactMatrix
from tworow import rowgraph
from tworow.rowgraph import _scan_bits, _scan_classes, row_null_masks

from . import test_memo, test_rowgraph
from .conftest import load_fixture_matrix
from .oracles import brute_null_connected, brute_null_on


def plain_windows(n: int) -> list[tuple[int, int]]:
    return [(k, k + 1) for k in range(n - 1)]


def brute_masks(a: ExactMatrix, windows) -> tuple[int, ...]:
    return tuple(
        sum(1 << j for j in range(a.m) if j != i and brute_null_on(a, i + 1, j + 1, windows))
        for i in range(a.m)
    )


def check(a: ExactMatrix, windows) -> tuple[int, ...]:
    """The masks of a on windows, after checking that the two kernels and
    the oracle agree."""
    windows = tuple(windows)
    got = _scan_bits(a, windows)
    assert got == _scan_classes(a, windows), (a, windows)
    assert got == brute_masks(a, windows), (a, windows)
    return got


@pytest.mark.parametrize("cyclic", [False, True])
def test_every_binary_matrix_up_to_3x4_and_4x3(cyclic):
    count = 0
    for m, n in itertools.product(range(1, 5), repeat=2):
        if m * n > 12:
            continue
        for bits in range(1 << (m * n)):
            a = ExactMatrix(GF2, [[bits >> (r * n + c) & 1 for c in range(n)]
                                  for r in range(m)])
            windows = plain_windows(n)
            if cyclic and n >= 2:
                windows.append((n - 1, 0))
            masks = check(a, windows)
            assert row_null_masks(a, cyclic) == list(masks)
            for i, j in itertools.combinations(range(m), 2):
                assert (masks[i] >> j & 1) == brute_null_connected(a, i + 1, j + 1, cyclic)
            count += 1
    assert count == 9418


def test_random_matrices_and_window_sets():
    rng = random.Random(16)
    seen_wrap = seen_repeat = 0
    for _ in range(600):
        m, n = rng.randint(1, 12), rng.randint(2, 12)
        density = rng.choice([0.1, 0.3, 0.5, 0.8])
        rows = [[int(rng.random() < density) for _ in range(n)] for _ in range(m)]
        # copies and zero rows make classes of several rows
        for _ in range(rng.randint(0, 2)):
            rows.append(list(rng.choice(rows)) if rng.random() < 0.6 else [0] * n)
        rng.shuffle(rows)
        a = ExactMatrix(GF2, rows)
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
    assert seen_wrap > 100 and seen_repeat > 100


# the tests whose GF(2) inputs the branch must answer as the generic kernel
# does; golden_7x7 is a fresh copy, so its memo is cold
RERUN = {
    "rowgraph golden": lambda: test_rowgraph.test_golden_graphs(
        load_fixture_matrix("golden_7x7.json")),
    "rowgraph identity": test_rowgraph.test_identity_family_path_and_cycle,
    "rowgraph oracle plain": lambda: test_rowgraph.test_graph_matches_oracle_and_complements_opp(
        GF2, False),
    "rowgraph oracle cyclic": lambda: test_rowgraph.test_graph_matches_oracle_and_complements_opp(
        GF2, True),
    "rowgraph traceable": test_rowgraph.test_traceable_matches_graph_adjacency,
    "rowgraph equality": test_rowgraph.test_equality_ignores_how_a_graph_was_built,
    "memo plain-first": lambda: test_memo.test_warm_matrix_answers_as_a_fresh_copy(GF2, False),
    "memo cyclic-first": lambda: test_memo.test_warm_matrix_answers_as_a_fresh_copy(GF2, True),
    "memo masks": lambda: test_memo.test_changing_a_returned_mask_list_changes_nothing_later(GF2),
}


@pytest.mark.parametrize("name", sorted(RERUN))
def test_inputs_of_the_rowgraph_and_memo_tests(name, monkeypatch):
    # every kernel call the test makes, plain, cyclic and on support
    # windows, goes through check on the way
    scanned = []
    scan = rowgraph._scan_masks

    def checked(a, windows):
        got = scan(a, windows)
        if a.spec is GF2:
            assert got == check(a, windows)
            scanned.append(a)
        return got

    monkeypatch.setattr(rowgraph, "_scan_masks", checked)
    RERUN[name]()
    assert scanned
