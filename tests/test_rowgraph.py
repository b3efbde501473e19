import itertools
import random
import re
import time
from fractions import Fraction

import pytest

from tworow import (
    GF2,
    QQ,
    BasisMatrix,
    DegenerateMatrix,
    ExactMatrix,
    FieldSpec,
    IndexOutOfRange,
    ParseError,
    SimplicialGraph,
    basis_support_graph,
    cup_pairing,
    is_square_traceable,
    null_connected,
    opp_graph,
    permute_rows,
    RowPermutation,
    traceable_ordering,
    two_row_graph,
)
from .conftest import ALL_SPECS, NONZERO_Q, random_matrix, sparse_invertible
from .oracles import brute_graph_edges, brute_null_connected


def complete_edges(n):
    return {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}


def test_golden_null_connected_pairs(golden_7x7):
    pairs = {
        (i, j)
        for i in range(1, 8)
        for j in range(i + 1, 8)
        if null_connected(golden_7x7, i, j)
    }
    assert pairs == {(1, 3), (6, 7)}
    cyclic_pairs = {
        (i, j)
        for i in range(1, 8)
        for j in range(i + 1, 8)
        if null_connected(golden_7x7, i, j, cyclic=True)
    }
    assert cyclic_pairs == {(1, 3), (6, 7)}


def test_golden_graphs(golden_7x7):
    g = two_row_graph(golden_7x7)
    assert set(g.edges) == complete_edges(7) - {(1, 3), (6, 7)}
    gc = two_row_graph(golden_7x7, cyclic=True)
    assert set(gc.edges) == complete_edges(7) - {(1, 3), (6, 7)}


def test_null_connected_index_errors(golden_7x7):
    with pytest.raises(IndexOutOfRange):
        null_connected(golden_7x7, 1, 1)
    with pytest.raises(IndexOutOfRange):
        null_connected(golden_7x7, 0, 2)
    with pytest.raises(IndexOutOfRange):
        null_connected(golden_7x7, 1, 8)


def test_identity_family_path_and_cycle():
    for n in range(1, 13):
        g = two_row_graph(ExactMatrix.identity(GF2, n))
        expected = {(i, i + 1) for i in range(1, n)}
        assert set(g.edges) == expected, n
    for n in range(3, 13):
        gc = two_row_graph(ExactMatrix.identity(GF2, n), cyclic=True)
        expected = {(i, i + 1) for i in range(1, n)} | {(1, n)}
        assert set(gc.edges) == expected, n


def test_single_column_matrices_are_edgeless():
    a = ExactMatrix(QQ, [[1], [2], [3]])
    assert two_row_graph(a).edges == frozenset()
    assert two_row_graph(a, cyclic=True).edges == frozenset()
    assert set(opp_graph(a).edges) == complete_edges(3)


def edge_case_matrices(rng, spec):
    """Inputs that exercise every branch of the projective-class kernel:
    one row or one column, zero rows, row pairs scaled by negative or
    fractional constants (so they share a class), non-integer rationals."""
    if spec is QQ:
        scales = [Fraction(-1), Fraction(-3, 7), Fraction(1, 2), Fraction(5)]

        def entry():
            return Fraction(rng.choice([0, 0, 1, -1, 2, -5]), rng.choice([1, 2, 3, 7]))

    else:
        scales = [spec.p - 1] + [rng.randrange(1, spec.p) for _ in range(3)]

        def entry():
            return rng.choice([0, 0, rng.randrange(spec.p)])

    yield random_matrix(rng, spec, rng.randint(2, 5), 1)
    yield random_matrix(rng, spec, 1, rng.randint(1, 5))
    for _ in range(10):
        m, n = rng.randint(1, 5), rng.randint(2, 7)
        rows = [[entry() for _ in range(n)] for _ in range(m)]
        for _ in range(rng.randint(1, 3)):
            c = rng.choice(scales)
            rows.append([v * c for v in rows[rng.randrange(m)]])
        rows.insert(rng.randrange(len(rows) + 1), [0] * n)
        yield ExactMatrix(spec, rows)


@pytest.mark.parametrize("spec", ALL_SPECS + [FieldSpec.gf(2147483647)])
@pytest.mark.parametrize("cyclic", [False, True])
def test_graph_matches_oracle_and_complements_opp(spec, cyclic):
    rng = random.Random(37)
    randoms = [
        random_matrix(rng, spec, rng.randint(2, 6), rng.randint(2, 6)) for _ in range(25)
    ]
    for a in randoms + list(edge_case_matrices(rng, spec)):
        m = a.m
        g = two_row_graph(a, cyclic)
        o = opp_graph(a, cyclic)
        assert set(g.edges) == brute_graph_edges(a, cyclic)
        assert set(g.edges) | set(o.edges) == complete_edges(m)
        assert set(g.edges) & set(o.edges) == set()
        for i, j in o.edges:
            assert brute_null_connected(a, i, j, cyclic)


def test_square_traceable_definition(golden_7x7):
    reordered = permute_rows(golden_7x7, RowPermutation((1, 2, 3, 4, 6, 5, 7)))
    for cyclic in (False, True):
        assert is_square_traceable(ExactMatrix.identity(GF2, 5), cyclic)
        # rows 6,7 are consecutive in the printed order and null-connected
        assert not is_square_traceable(golden_7x7, cyclic)
        assert is_square_traceable(reordered, cyclic=cyclic)


def test_traceable_degenerate_guards():
    from tworow import NotSquare

    for cyclic in (False, True):
        with pytest.raises(NotSquare, match="defined for square matrices"):
            is_square_traceable(ExactMatrix(GF2, [[1, 0, 1], [0, 1, 1]]), cyclic)
    with pytest.raises(DegenerateMatrix, match="needs at least two columns"):
        is_square_traceable(ExactMatrix(GF2, [[1]]))
    # n = 2 is a path of two rows, but a cycle needs three
    assert is_square_traceable(ExactMatrix.identity(GF2, 2))
    for n in (1, 2):
        with pytest.raises(DegenerateMatrix, match="cyclic traceability needs n >= 3"):
            is_square_traceable(ExactMatrix.identity(GF2, n), cyclic=True)


def test_traceable_matches_graph_adjacency():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 5)
        a = random_matrix(rng, GF2, n, n)
        g = two_row_graph(a)
        expected = all(g.has_edge(i, i + 1) for i in range(1, n))
        assert is_square_traceable(a) == expected
        if n >= 3:
            gc = two_row_graph(a, cyclic=True)
            expected_c = all(gc.has_edge(i, i + 1) for i in range(1, n)) and gc.has_edge(
                1, n
            )
            assert is_square_traceable(a, cyclic=True) == expected_c


def row_check_matrices(rng, spec):
    """Square matrices for the raw-entry row checks at n = 2, 3, 4, 5 and
    9: identity, permutation, banded, sparse_invertible and dense random
    (over Q with negative, fractional and zero entries), then rows nonzero
    only in column 1, 2, n-1 or n, in columns 1 and n, zero rows, random
    rows and multiples of earlier rows, mixed."""

    def nonzero():
        return rng.choice(NONZERO_Q) if spec.p is None else rng.randrange(1, spec.p)

    def matrix(n, cell):
        return ExactMatrix(spec, [[cell(r, c) for c in range(n)] for r in range(n)])

    for n in (2, 3, 4, 5, 9):
        perm = rng.sample(range(n), n)
        width = rng.randint(1, 2)
        yield ExactMatrix.identity(spec, n)
        yield matrix(n, lambda r, c: nonzero() if c == perm[r] else 0)
        yield matrix(n, lambda r, c: nonzero() if abs(r - c) <= width else 0)
        yield sparse_invertible(rng, spec, n)
        yield matrix(n, lambda r, c: nonzero() if rng.random() < 0.8 else 0)
        yield matrix(n, lambda r, c: nonzero() if rng.random() < 0.4 else 0)
        shapes = [{0}, {1}, {n - 2}, {n - 1}, {0, n - 1}, set()]
        for _ in range(4):
            rows = []
            for _ in range(n):
                pick = rng.randrange(len(shapes) + 2)
                if pick < len(shapes):
                    rows.append([nonzero() if c in shapes[pick] else 0 for c in range(n)])
                elif pick == len(shapes) and rows:
                    scale = nonzero()
                    rows.append([v * scale for v in rng.choice(rows)])
                else:
                    rows.append([nonzero() if rng.random() < 0.5 else 0 for _ in range(n)])
            yield ExactMatrix(spec, rows)


def brute_traceable(a, cyclic):
    n = a.n
    pairs = [(k, k % n + 1) for k in range(1, n + 1)] if cyclic else [
        (k, k + 1) for k in range(1, n)]
    return all(not brute_null_connected(a, i, j, cyclic) for i, j in pairs)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_row_checks_match_brute_force(spec):
    # null_connected tests only the windows meeting the first row's support;
    # every ordered row pair, plain and cyclic, against every window
    rng = random.Random(53)
    for a in row_check_matrices(rng, spec):
        n = a.n
        for cyclic in (False, True):
            for i, j in itertools.permutations(range(1, n + 1), 2):
                want = brute_null_connected(a, i, j, cyclic)
                assert null_connected(a, i, j, cyclic) == want, (a, i, j, cyclic)
        orders = list(itertools.permutations(range(1, n + 1)))
        if n > 4:
            orders = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(24)]
        for cyclic in (False, True) if n >= 3 else (False,):
            sigma = traceable_ordering(a, cyclic)
            if sigma is not None:
                orders.append(sigma.image)
            for order in orders:
                b = permute_rows(a, RowPermutation(order))
                want = brute_traceable(b, cyclic)
                assert is_square_traceable(b, cyclic) == want, (b, cyclic)


def test_row_graph_helpers():
    g = SimplicialGraph.of(4, [(2, 1), (3, 4)])
    assert g.sorted_edges == [(1, 2), (3, 4)]
    assert g.edges == frozenset({(1, 2), (3, 4)})
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(1, 3)
    # vertices outside 1..n are never adjacent; adj[-1] must not wrap around
    assert not g.has_edge(0, 1) and not g.has_edge(1, 0)
    assert not g.has_edge(4, 5) and not g.has_edge(1, g.n + 1)
    assert g.adj == (0b10, 0b1, 0b1000, 0b100)
    assert g.adj[0].bit_count() == 1  # degree of vertex 1
    assert not g.is_complete
    assert SimplicialGraph.of(3, complete_edges(3)).is_complete
    assert SimplicialGraph.of(1, []).is_complete
    doc = g.to_json_dict()
    assert doc == {"n": 4, "edges": [[1, 2], [3, 4]]}
    assert SimplicialGraph(4, g.adj) == g
    assert SimplicialGraph(4, list(g.adj)) == g
    assert hash(SimplicialGraph(4, list(g.adj))) == hash(g)


def test_row_graph_validation():
    with pytest.raises(ParseError):
        SimplicialGraph.of(2, [(1, 3)])
    with pytest.raises(ParseError):
        SimplicialGraph.of(2, [(1, 1)])
    with pytest.raises(ParseError):
        SimplicialGraph.of(2, [(0, 1)])
    with pytest.raises(ParseError):
        SimplicialGraph.of(0, [])
    # the direct constructor checks the masks the same way
    with pytest.raises(ParseError, match="symmetric"):
        SimplicialGraph(3, (0b010, 0b000, 0b000))
    with pytest.raises(ParseError, match="loop"):
        SimplicialGraph(2, (0b11, 0b01))
    with pytest.raises(ParseError, match="outside"):
        SimplicialGraph(2, (0b110, 0b001))
    with pytest.raises(ParseError, match="outside"):
        SimplicialGraph(2, (-2, 0b01))
    with pytest.raises(ParseError):
        SimplicialGraph(3, (0b10, 0b01))
    with pytest.raises(ParseError):
        SimplicialGraph(0, ())
    # a bool is an int to Python, but no vertex count
    with pytest.raises(ParseError, match="at least one vertex, got True"):
        SimplicialGraph.of(True, [])
    with pytest.raises(ParseError, match="at least one vertex, got True"):
        SimplicialGraph(True, (0,))
    # nor an endpoint, as from_json_dict rejects [true, 2]
    with pytest.raises(ParseError, match=r"bad edge \(True,2\) for 3 vertices"):
        SimplicialGraph.of(3, [(True, 2)])
    with pytest.raises(ParseError, match=r"bad edge \(1,False\) for 3 vertices"):
        SimplicialGraph.of(3, [(1, 2), (1, False)])
    # any other non-integer is no endpoint or vertex count either
    for pairs, shown in [
        ([(1.0, 2)], "1.0,2"),
        ([(1, 2.0)], "1,2.0"),
        ([("1", 2)], "'1',2"),
        ([(1, 2), (2, 3), (None, 1)], "None,1"),
        ([(3, Fraction(1))], "Fraction(1, 1),3"),
    ]:
        with pytest.raises(ParseError, match=rf"bad edge \({re.escape(shown)}\) for 3 vertices"):
            SimplicialGraph.of(3, pairs)
    # an edge that is no pair, and pairs that are no iterable, fail in the
    # for statement itself, which names the pairs
    for pairs, shown in [
        ([5], "[5]"),
        ([(1, 2), (1, 2, 3)], "[(1, 2), (1, 2, 3)]"),
        ([(1,)], "[(1,)]"),
        (None, "None"),
    ]:
        with pytest.raises(ParseError, match=rf"bad edge in {re.escape(shown)} for 3 vertices"):
            SimplicialGraph.of(3, pairs)
    # a ParseError from the loop body keeps its own message
    with pytest.raises(ParseError, match=r"^bad edge \(1,4\) for 3 vertices$"):
        SimplicialGraph.of(3, [(1, 2), (1, 4)])
    with pytest.raises(ParseError, match=r"^loop at vertex 2 is not allowed$"):
        SimplicialGraph.of(3, iter([(2, 2)]))
    for n in (2.5, 2.0, "2", None):
        with pytest.raises(ParseError, match="at least one vertex, got " + re.escape(repr(n))):
            SimplicialGraph.of(n, [(1, 2)])
        with pytest.raises(ParseError, match="at least one vertex, got " + re.escape(repr(n))):
            SimplicialGraph(n, (0b10, 0b01))
    # the symmetry check reads only set bits: O(n + E) on the largest path
    path = SimplicialGraph.of(4096, [(i, i + 1) for i in range(1, 4096)])
    t0 = time.perf_counter()
    assert SimplicialGraph(4096, path.adj) == path
    with pytest.raises(ParseError, match="symmetric"):
        SimplicialGraph(4096, path.adj[:-1] + (0,))
    assert time.perf_counter() - t0 < 1.0


def test_equality_ignores_how_a_graph_was_built():
    for n in (1, 2, 5):
        path = [(i, i + 1) for i in range(1, n)]
        identity = ExactMatrix.identity(GF2, n)
        built = [
            two_row_graph(identity),
            SimplicialGraph.of(n, [(j, i) for i, j in reversed(path)]),
            SimplicialGraph.from_json_dict({"n": n, "edges": [list(e) for e in path]}),
            basis_support_graph(
                cup_pairing(SimplicialGraph.of(n, path), GF2), BasisMatrix(identity)
            ),
        ]
        for g in built:
            assert g == built[0] and hash(g) == hash(built[0]), n
            assert g.edges == frozenset(path), n
        opp = opp_graph(identity)
        assert opp.edges == frozenset(complete_edges(n) - set(path)), n
