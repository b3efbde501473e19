"""Acceptance suite: ten end-to-end checks, one test per criterion.

Each test name carries the criterion number, so `pytest -v` yields one
pass/fail line per criterion.  Criteria with a runtime budget assert the
elapsed wall-clock time as part of the test.
"""

import random
import time
from fractions import Fraction

from scipy.stats import chisquare

from tworow import (
    GF2,
    GF3,
    GF5,
    QQ,
    BasisMatrix,
    ExactMatrix,
    ExperimentConfig,
    ExperimentMode,
    SimplicialGraph,
    basis_hamiltonian_witness,
    basis_support_graph,
    block_partition,
    complete_tracks,
    consecutive_minor,
    cup_pairing,
    det_by_tracks,
    determinant,
    find_one_blocks,
    graph_hamiltonicity,
    pair_vectors,
    rank,
    realize,
    run_experiment,
    sample_gl,
    track_sum,
    two_row_graph,
    verify_realization,
)

from .conftest import load_fixture_matrix, random_invertible, random_matrix
from .oracles import all_graphs, graphs_isomorphic

SPECS = (GF2, GF3, GF5, QQ)


def _elapsed(t0):
    return time.perf_counter() - t0


def report(num, detail, t0, budget=None):
    elapsed = _elapsed(t0)
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s >= {budget}s"
    print(f"criterion {num}: PASS ({elapsed:.2f}s) - {detail}")


def random_graph(rng, n, p=0.5):
    pairs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < p
    ]
    return SimplicialGraph.of(n, pairs)


def test_criterion_01_golden_matrix_facts():
    t0 = time.perf_counter()
    a = load_fixture_matrix("golden_7x7.json")
    assert determinant(a) == GF2.one
    g = two_row_graph(a)
    complete = {(i, j) for i in range(1, 8) for j in range(i + 1, 8)}
    assert set(g.sorted_edges) == complete - {(1, 3), (6, 7)}
    plain = [(b.rows, b.col_start, b.col_len) for b in find_one_blocks(a)]
    assert plain == [((1, 3), 1, 3)]
    cyclic = [(b.rows, b.col_start, b.col_len) for b in find_one_blocks(a, cyclic=True)]
    assert ((6, 7), 7, 2) in cyclic
    assert cyclic == [((1, 3), 7, 4), ((6, 7), 7, 2)]
    assert graphs_isomorphic(g, two_row_graph(a, cyclic=True))
    report(1, "golden 7x7 determinant, graphs, and block lists", t0, budget=1.0)


def test_criterion_02_identity_family():
    t0 = time.perf_counter()
    for n in range(1, 13):
        g = two_row_graph(ExactMatrix.identity(GF2, n))
        assert set(g.sorted_edges) == {(i, i + 1) for i in range(1, n)}
    for n in range(3, 13):
        g = two_row_graph(ExactMatrix.identity(GF2, n), cyclic=True)
        cycle = {(i, i + 1) for i in range(1, n)} | {(1, n)}
        assert set(g.sorted_edges) == cycle
    report(2, "identity matrices give paths (plain) and cycles (cyclic)", t0)


def test_criterion_03_invertible_sweep():
    t0 = time.perf_counter()
    total = 0
    for n in range(2, 9):
        for q in (2, 3, 5):
            rep = run_experiment(
                ExperimentConfig(
                    n=n, q=q, trials=500, seed=1000 * n + q,
                    mode=ExperimentMode.HAMILTONICITY_SWEEP,
                )
            )
            assert rep.successes == rep.total == 500 and rep.failures == ()
            total += rep.total
    rng = random.Random(303)
    for _ in range(200):
        n = rng.randint(2, 8)
        a = random_invertible(rng, QQ, n)
        assert graph_hamiltonicity(two_row_graph(a)) is not None
        if n >= 3:
            assert graph_hamiltonicity(two_row_graph(a, cyclic=True), True) is not None
        total += 1
    report(3, f"{total} invertible samples all traceable", t0, budget=120.0)


def _tracks_agree_with_determinant(a, cyclic):
    total = a.spec.zero
    for t in complete_tracks(a, cyclic):
        s = track_sum(a, t)
        if t.has_minor:
            assert not s, "track with a wide member must cancel"
        total = total + s
    assert total == determinant(a)


def test_criterion_04_track_determinant_oracle():
    t0 = time.perf_counter()
    for n, sample_every in ((3, 16), (4, 1024)):
        for bits in range(1 << (n * n)):
            rows = [[bits >> (n * i + j) & 1 for j in range(n)] for i in range(n)]
            a = ExactMatrix(GF2, rows)
            _tracks_agree_with_determinant(a, cyclic=False)
            _tracks_agree_with_determinant(a, cyclic=True)
            if bits % sample_every == 0:
                assert det_by_tracks(a) == determinant(a)
    rng = random.Random(404)
    for k in range(200):
        spec = (GF3, GF5, QQ)[k % 3]
        n = rng.choice((5, 6))
        a = random_matrix(rng, spec, n, n)
        _tracks_agree_with_determinant(a, cyclic=bool(k % 2))
        assert det_by_tracks(a) == determinant(a)
    report(4, "track sums rebuild the determinant; wide tracks cancel", t0,
           budget=300.0)


def test_criterion_05_block_structure():
    t0 = time.perf_counter()
    rng = random.Random(505)
    for k in range(1000):
        spec = SPECS[k % 4]
        m, n = rng.randint(2, 8), rng.randint(2, 8)
        a = random_matrix(rng, spec, m, n)
        cyclic = bool(k % 2)
        part = block_partition(a, cyclic)
        assert part.blocks == tuple(find_one_blocks(a, cyclic)), "recomputation"
        seen = set()
        for b in part.blocks:
            cells = b.cells(n)
            assert not (seen & cells), "blocks must not overlap"
            seen |= cells
            sub = ExactMatrix(
                spec, [[a.raw()[i - 1][c - 1] for c in b.columns(n)] for i in b.rows]
            )
            assert all(v for row in sub.scalar_rows() for v in row)
            assert rank(sub) == 1
        singles = set(part.nonzero_singletons) | set(part.zero_singletons)
        assert not (seen & singles)
        assert len(singles) == len(part.nonzero_singletons) + len(part.zero_singletons)
        every = {(i, j) for i in range(1, m + 1) for j in range(1, n + 1)}
        assert seen | singles == every
    report(5, "1000 random block partitions: rank-1, disjoint, exact cover", t0)


def test_criterion_06_pairing_equivalence_desk_scale():
    t0 = time.perf_counter()
    rng = random.Random(606)
    graphs = bases = 0
    for n in range(1, 7):
        identity = BasisMatrix(ExactMatrix.identity(GF2, n))
        for gamma in all_graphs(n):
            graphs += 1
            triple = cup_pairing(gamma, GF2)
            path_ok = graph_hamiltonicity(gamma) is not None
            cycle_ok = graph_hamiltonicity(gamma, cyclic=True) is not None
            # At the identity basis the support graph is the graph itself,
            # so witness presence must match hamiltonicity exactly.
            support_id = basis_support_graph(triple, identity)
            assert set(support_id.edges) == set(gamma.edges)
            assert (basis_hamiltonian_witness(triple, identity) is not None) == path_ok
            assert (
                basis_hamiltonian_witness(triple, identity, cyclic=True) is not None
            ) == cycle_ok
            # A Hamiltonian graph must yield a witness for every invertible
            # basis; random bases sample that universal claim.
            if path_ok or cycle_ok:
                for _ in range(25):
                    b = BasisMatrix(sample_gl(n, 2, rng))
                    support = basis_support_graph(triple, b)
                    bases += 1
                    if path_ok:
                        assert graph_hamiltonicity(support) is not None
                    if cycle_ok:
                        assert graph_hamiltonicity(support, True) is not None
    assert graphs == 1 + 2 + 8 + 64 + 1024 + 32768
    report(6, f"{graphs} graphs x identity + {bases} random bases, zero mismatches",
           t0, budget=600.0)


def test_criterion_07_coefficient_identity():
    t0 = time.perf_counter()
    rng = random.Random(707)
    for k in range(300):
        spec = SPECS[k % 4]
        n = rng.randint(2, 7)
        j = rng.randint(1, n - 1)
        extra = {(x, y) for x, y in [(rng.randint(1, n), rng.randint(1, n))
                                     for _ in range(n)] if x < y}
        gamma = SimplicialGraph.of(n, sorted(extra | {(j, j + 1)}))
        triple = cup_pairing(gamma, spec)
        b = random_invertible(rng, spec, n)
        i = rng.randint(1, n - 1)
        coords = pair_vectors(triple, b.row(i), b.row(i + 1))
        k_edge = triple.edge_index[(j, j + 1)]
        assert coords[k_edge - 1] == consecutive_minor(b, i, i + 1, j)
    report(7, "300 random instances match the 2x2 window minor exactly", t0)


def test_criterion_08_realization():
    t0 = time.perf_counter()
    count = 0
    for gamma in all_graphs(5):
        assert verify_realization(gamma, realize(gamma))
        count += 1
    assert count == 1 << 10
    rng = random.Random(808)
    for _ in range(200):
        gamma = random_graph(rng, rng.randint(6, 10), rng.random())
        assert verify_realization(gamma, realize(gamma))
    report(8, "1024 five-vertex graphs + 200 random 6..10-vertex graphs realized",
           t0, budget=60.0)


def test_criterion_09_singular_counterexample():
    t0 = time.perf_counter()
    a = load_fixture_matrix("singular_3x3.json")
    assert graph_hamiltonicity(two_row_graph(a)) is not None
    assert not determinant(a)
    report(9, "traceable two-row graph despite determinant zero", t0)


def test_criterion_10_harness_determinism_and_uniformity():
    t0 = time.perf_counter()
    for mode, n, q in (
        (ExperimentMode.COMPLETENESS, 3, 2),
        (ExperimentMode.HAMILTONICITY_SWEEP, 4, 3),
    ):
        cfg = ExperimentConfig(n=n, q=q, trials=200, seed=11, mode=mode)
        assert run_experiment(cfg).to_json_dict() == run_experiment(cfg).to_json_dict()
    cfg = ExperimentConfig(
        n=2, q=2, trials=4000, seed=0, mode=ExperimentMode.COMPLETENESS
    )
    rep = run_experiment(cfg)
    assert rep.estimate == Fraction(1), "single-window completeness self-check"
    gl2 = []
    for bits in range(16):
        rows = [[bits >> 0 & 1, bits >> 1 & 1], [bits >> 2 & 1, bits >> 3 & 1]]
        a = ExactMatrix(GF2, rows)
        if determinant(a):
            gl2.append(a.raw())
    assert len(gl2) == 6
    index = {raw: k for k, raw in enumerate(gl2)}
    counts = [0] * 6
    rng = random.Random(10_001)
    draws = 60_000
    for _ in range(draws):
        counts[index[sample_gl(2, 2, rng).raw()]] += 1
    assert sum(counts) == draws
    result = chisquare(counts)
    assert result.pvalue > 0.001, f"chi-square p={result.pvalue}"
    report(10, f"deterministic reports; GL_2(F_2) uniform (p={result.pvalue:.3f})", t0)
