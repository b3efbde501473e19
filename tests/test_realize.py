import hashlib
import importlib
import random

import pytest

from tworow import (
    AssertionFailure,
    ExactMatrix,
    GF2,
    GF3,
    RealizationResult,
    SimplicialGraph,
    expected_columns,
    realize,
    two_row_graph,
    verify_realization,
)

from .oracles import all_graphs


def random_graph(rng, n, p=0.5):
    pairs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < p
    ]
    return SimplicialGraph.of(n, pairs)


def test_single_vertex():
    res = realize(SimplicialGraph.of(1, []))
    assert res.a == ExactMatrix(GF2, [[1, 0]])
    assert verify_realization(SimplicialGraph.of(1, []), res)


def test_two_vertices():
    edge = realize(SimplicialGraph.of(2, [(1, 2)]))
    assert [row[:2] for row in edge.a.raw()] == [(1, 0), (0, 1)]
    isolated = realize(SimplicialGraph.of(2, []))
    assert [row[:2] for row in isolated.a.raw()] == [(1, 0), (0, 0)]
    for g in (SimplicialGraph.of(2, [(1, 2)]), SimplicialGraph.of(2, [])):
        assert verify_realization(g, realize(g))


def test_expected_columns_formula():
    assert expected_columns(SimplicialGraph.of(1, [])) == 2
    assert expected_columns(SimplicialGraph.of(2, [])) == 3
    assert expected_columns(SimplicialGraph.of(2, [(1, 2)])) == 3
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7))
        assert realize(g).a.m == g.n
        assert realize(g).a.n == expected_columns(g)


def test_entries_are_bits():
    rng = random.Random(6)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 6))
        res = realize(g)
        assert res.a.spec is GF2
        assert all(v in (0, 1) for row in res.a.raw() for v in row)
        # realize hands its matrix the column masks a fresh copy builds
        assert res.a._col_masks() == ExactMatrix(GF2, res.a.raw())._col_masks()


def test_exhaustive_small_graphs():
    for n in range(1, 5):
        for g in all_graphs(n):
            res = realize(g)
            assert verify_realization(g, res)
            if n >= 2:
                assert set(two_row_graph(res.a).edges) == set(g.edges)


def test_random_larger_graphs():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng, rng.randint(6, 10), rng.random())
        assert verify_realization(g, realize(g))


def count_detected_flips(g):
    res = realize(g)
    rows = res.a.raw()
    detected = 0
    for i in range(res.a.m):
        for j in range(res.a.n):
            flipped = [list(row) for row in rows]
            flipped[i][j] ^= 1
            if not verify_realization(g, RealizationResult(ExactMatrix(GF2, flipped))):
                detected += 1
    return detected, res.a.m * res.a.n


def test_tamper_detection():
    # On a complete graph only edge-destroying flips are visible; on a path,
    # flips that fabricate a new adjacency are caught as well.
    k3 = SimplicialGraph.of(3, [(1, 2), (1, 3), (2, 3)])
    detected, total = count_detected_flips(k3)
    assert total == 3 * realize(k3).a.n
    assert detected >= 1
    p3 = SimplicialGraph.of(3, [(1, 2), (2, 3)])
    detected_p3, _ = count_detected_flips(p3)
    assert detected_p3 >= 1


def test_verify_rejects_entries_outside_0_1():
    # scaling a column keeps every minor's vanishing, so the two-row graph
    # stays the input graph and only the 0/1 check can reject the matrix
    rng = random.Random(8)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 7))
        rows = [list(row) for row in realize(g).a.raw()]
        c = rng.choice([c for c in range(len(rows[0])) if any(r[c] for r in rows)])
        for r in rows:
            r[c] *= 2
        scaled = ExactMatrix(GF3, rows)
        assert two_row_graph(scaled) == g
        assert not verify_realization(g, RealizationResult(scaled))


def test_verify_rejects_wrong_shape():
    g = SimplicialGraph.of(3, [(1, 2)])
    assert not verify_realization(g, RealizationResult(ExactMatrix.identity(GF2, 2)))


def test_result_json():
    g = SimplicialGraph.of(2, [(1, 2)])
    res = realize(g)
    d = res.to_json_dict()
    assert d["rows_are_vertices"] is True
    assert d["matrix"]["field"] == "gf2"
    assert res.n == res.a.m == 2


# sha256 of realize(g).a.raw() over pinned_graphs(), as the row-by-row
# construction built it
REALIZE_DIGEST = "e9ec2845824ec951594cb2260bb8806672911430b1ce5a968de1935386b83800"


def pinned_graphs():
    """All 1,099 graphs on at most 5 vertices, then 200 seeded random
    graphs on 7 to 16 vertices of random density."""
    for n in range(1, 6):
        yield from all_graphs(n)
    rng = random.Random(2021)
    for _ in range(200):
        yield random_graph(rng, rng.randint(7, 16), rng.random())


def test_realize_output_unchanged():
    digest = hashlib.sha256()
    count = 0
    for g in pinned_graphs():
        a = realize(g).a
        assert a.m == g.n and a.n == expected_columns(g)
        digest.update(repr(a.raw()).encode())
        count += 1
    assert count == 1299
    assert digest.hexdigest() == REALIZE_DIGEST


def test_column_count_postcondition_raises(monkeypatch):
    # the package re-exports realize(), which shadows the submodule name
    realize_module = importlib.import_module("tworow.realize")
    monkeypatch.setattr(realize_module, "expected_columns", lambda graph: -1)
    with pytest.raises(AssertionFailure):
        realize(SimplicialGraph.of(3, [(1, 2)]))
