"""Derived facts of a matrix do not depend on what was asked of it before.

Every result below is taken twice: on one warm matrix that has already
answered the calls before it, and on a fresh copy built from the same raw
entries.  The two must agree, whichever call order, field and size.
"""

import random
from fractions import Fraction

import pytest

from tworow import (
    QQ,
    BasisMatrix,
    ExactMatrix,
    SimplicialGraph,
    basis_hamiltonian_witness,
    basis_support_graph,
    block_partition,
    complete_tracks,
    cup_pairing,
    det_by_tracks,
    determinant,
    find_one_blocks,
    opp_graph,
    rank,
    sample_gl,
    track_sum,
    traceable_ordering,
    two_row_graph,
)
from tworow import matrices
from tworow.rowgraph import null_masks, row_null_masks

from .conftest import ALL_SPECS


def _entry(rng: random.Random, spec):
    if rng.random() < 0.35:
        return 0
    if spec is QQ:
        return Fraction(rng.choice([1, -1, 2, 3, -5]), rng.choice([1, 1, 2, 3]))
    return rng.randrange(1, spec.p)


def _matrix(rng: random.Random, spec, n: int, invertible: bool) -> ExactMatrix:
    """A random n x n matrix: an invertible one, or one in which some rows
    are multiples of earlier ones, so that null-connected pairs and
    1-blocks show up.  It is returned cold, as a copy of the matrix drawn."""
    while True:
        rows: list[list] = []
        for _ in range(n):
            if rows and not invertible and rng.random() < 0.4:
                base = rng.choice(rows)
                f = _entry(rng, spec) or 1
                rows.append([v * f for v in base])
            else:
                rows.append([_entry(rng, spec) for _ in range(n)])
        a = ExactMatrix(spec, rows)
        if not invertible or determinant(a):
            return ExactMatrix(spec, a.raw())


def _graphs(rng: random.Random, n: int) -> list[SimplicialGraph]:
    """The path, the cycle (n >= 3) and one random graph on n vertices:
    three window sets for the support graphs of one basis, the path
    again at the end."""
    path = SimplicialGraph.of(n, [(i, i + 1) for i in range(1, n)])
    out = [path]
    if n >= 3:
        out.append(SimplicialGraph.of(n, [(i, i + 1) for i in range(1, n)] + [(1, n)]))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out.append(SimplicialGraph.of(n, [e for e in pairs if rng.random() < 0.5]))
    out.append(path)
    return out


def _outcome(f, *args):
    """f's value, or the type and message of what it raised."""
    try:
        return "value", f(*args)
    except Exception as exc:  # each public error is part of the outcome
        return "raised", type(exc).__name__, str(exc)


def _calls(spec, n: int, rng: random.Random, first: bool):
    """(name, function of the matrix) in call order, with cyclic = first
    before cyclic = not first for every call that takes the flag.  The
    column view of the integer rows and the column masks are taken first,
    and again after the track calls and determinant."""
    views = [("int_cols", lambda a: a._int_cols()), ("cols", lambda a: a._col_masks())]
    out = list(views)
    for cyclic in (first, not first):
        out += [
            (f"row_null_masks {cyclic}", lambda a, c=cyclic: row_null_masks(a, c)),
            (f"two_row_graph {cyclic}", lambda a, c=cyclic: two_row_graph(a, c)),
            (f"opp_graph {cyclic}", lambda a, c=cyclic: opp_graph(a, c)),
            (f"block_partition {cyclic}", lambda a, c=cyclic: block_partition(a, c)),
            (f"find_one_blocks {cyclic}", lambda a, c=cyclic: find_one_blocks(a, c)),
            (f"traceable_ordering {cyclic}", lambda a, c=cyclic: traceable_ordering(a, c)),
            (f"complete_tracks {cyclic}", lambda a, c=cyclic: complete_tracks(a, c)),
            (f"track_sum {cyclic}",
             lambda a, c=cyclic: [track_sum(a, t) for t in complete_tracks(a, c)]),
            *views,
            (f"det_by_tracks {cyclic}", lambda a, c=cyclic: det_by_tracks(a, c)),
            *views,
        ]
        if cyclic == first:
            out += [("determinant", determinant), *views, ("rank", rank)]
    for k, g in enumerate(_graphs(rng, n)):
        t = cup_pairing(g, spec)
        out.append((f"basis_support_graph {k}",
                    lambda a, t=t: basis_support_graph(t, BasisMatrix(a))))
        for cyclic in (first, not first):
            out.append((f"basis_hamiltonian_witness {k} {cyclic}",
                        lambda a, t=t, c=cyclic: basis_hamiltonian_witness(
                            t, BasisMatrix(a), c)))
    return out


@pytest.mark.parametrize("first", [False, True], ids=["plain-first", "cyclic-first"])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_warm_matrix_answers_as_a_fresh_copy(spec, first):
    rng = random.Random(f"{spec.name}:{first}")
    for n in range(1, 8):
        for k in range(6):
            warm = _matrix(rng, spec, n, k % 2 == 1)
            for name, f in _calls(spec, n, rng, first):
                fresh = ExactMatrix(spec, warm.raw())
                assert _outcome(f, warm) == _outcome(f, fresh), (name, warm)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_changing_a_returned_mask_list_changes_nothing_later(spec):
    rng = random.Random(f"masks:{spec.name}")
    for n in range(1, 8):
        for k in range(4):
            warm = _matrix(rng, spec, n, k % 2 == 1)
            fresh = ExactMatrix(spec, warm.raw())
            windows = [(x, (x + 1) % n) for x in range(n)]
            for cyclic in (False, True, False):
                masks = row_null_masks(warm, cyclic)
                masks[0] ^= 1
                masks.append(7)
                got = null_masks(warm, windows)
                got[-1] = -1
                got.reverse()
            for cyclic in (False, True):
                assert row_null_masks(warm, cyclic) == row_null_masks(fresh, cyclic)
                assert two_row_graph(warm, cyclic) == two_row_graph(fresh, cyclic)
                assert opp_graph(warm, cyclic) == opp_graph(fresh, cyclic)
            assert null_masks(warm, windows) == null_masks(fresh, windows)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_sampled_matrix_answers_as_a_fresh_copy(q):
    # sample_gl hands its matrix the (rank, det) of the draw it kept
    rng = random.Random(f"sample:{q}")
    for n in range(1, 8):
        for _ in range(4):
            sampled = sample_gl(n, q, rng)
            fresh = ExactMatrix(sampled.spec, sampled.raw())
            calls = [("determinant", determinant), ("rank", rank)]
            for cyclic in (False, True):
                calls.append((f"two_row_graph {cyclic}",
                              lambda a, c=cyclic: two_row_graph(a, c)))
            for k, g in enumerate(_graphs(rng, n)):
                t = cup_pairing(g, sampled.spec)
                calls.append((f"basis_support_graph {k}",
                              lambda a, t=t: basis_support_graph(t, BasisMatrix(a))))
            for name, f in calls:
                assert _outcome(f, sampled) == _outcome(f, fresh), (name, sampled)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_sampled_matrix_is_not_eliminated_again(q, monkeypatch):
    a = sample_gl(6, q, random.Random(q))
    calls = []

    def counted(name):
        real = getattr(matrices, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(matrices, name, wrapper)

    counted("_eliminate")
    counted("_eliminate_gf2")
    t = cup_pairing(SimplicialGraph.of(6, [(i, i + 1) for i in range(1, 6)]), a.spec)
    assert determinant(a) and rank(a) == 6
    basis_support_graph(t, BasisMatrix(a))
    assert calls == []
    determinant(ExactMatrix(a.spec, a.raw()))
    assert len(calls) == 1
