import random

import pytest

from tworow import (
    GF2,
    GF3,
    QQ,
    BasisMatrix,
    DimensionMismatch,
    ExactMatrix,
    FieldMismatch,
    ParseError,
    RowPermutation,
    SimplicialGraph,
    SingularBasis,
    SizeBound,
    basis_hamiltonian_witness,
    basis_support_graph,
    consecutive_minor,
    cup_pairing,
    graph_from_text,
    graph_hamiltonicity,
    pair_vectors,
)
from tworow import matrices, rowgraph
from tworow.rowgraph import MAX_VERTICES

from .conftest import ALL_SPECS, random_invertible


def p_n(n):
    return SimplicialGraph.of(n, [(i, i + 1) for i in range(1, n)])


def c_n(n):
    return SimplicialGraph.of(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def standard_basis_vec(spec, n, i):
    return [spec.one if k == i else spec.zero for k in range(1, n + 1)]


def test_simplicial_graph_validation():
    with pytest.raises(ParseError):
        SimplicialGraph.of(3, [(1, 1)])
    with pytest.raises(ParseError):
        SimplicialGraph.of(2, [(1, 3)])
    g = SimplicialGraph.of(3, [(2, 1)])
    assert g.sorted_edges == [(1, 2)]
    assert g.has_edge(2, 1)


def test_graph_text_parsing():
    g = graph_from_text('{"n": 4, "edges": [[1,2],[3,4]]}')
    assert g.n == 4 and g.sorted_edges == [(1, 2), (3, 4)]
    g2 = graph_from_text("1 2\n2 3\n")
    assert g2.n == 3 and g2.sorted_edges == [(1, 2), (2, 3)]
    g3 = graph_from_text("5\n1 2\n")
    assert g3.n == 5 and g3.sorted_edges == [(1, 2)]
    g4 = graph_from_text("# comment\n1 2\n")
    assert g4.n == 2
    # a count line fixes n: edges must lie within it, and it must be >= 1
    for text, where in [
        ("2\n1 3\n", "line 2: bad edge"),
        ("3\n1 2\n0 2\n", "line 3: bad edge"),
        ("-4\n1 2\n", "line 1"),
        ("0\n", "line 1"),
        # without a count line a vertex below 1 still names its line
        ("0 1\n", "line 1"),
        ("1 2\n-1 3\n", "line 2"),
    ]:
        with pytest.raises(ParseError, match=where):
            graph_from_text(text)
    with pytest.raises(ParseError, match="bad edge"):
        graph_from_text('{"n": 2, "edges": [[1, 3]]}')
    assert graph_from_text("2\n1 2\n") == SimplicialGraph.of(2, [(1, 2)])
    with pytest.raises(ParseError, match="line 2"):
        graph_from_text("1 2\n3\n")
    with pytest.raises(ParseError):
        graph_from_text('{"n": "x", "edges": []}')
    with pytest.raises(ParseError):
        graph_from_text("")
    round_trip = SimplicialGraph.from_json_dict(g.to_json_dict())
    assert round_trip == g


def test_graph_size_bound():
    # inputs just past the bound, which stays above the 1500-vertex graphs
    # of the search tests
    assert MAX_VERTICES == 4096
    assert graph_from_text("4096\n").n == 4096
    for text in ["4097\n", '{"n": 4097, "edges": []}', "1 4097\n"]:
        with pytest.raises(SizeBound, match="above the bound 4096"):
            graph_from_text(text)


def test_cup_pairing_shapes():
    single = cup_pairing(SimplicialGraph.of(2, [(1, 2)]), GF2)
    assert single.n == 2 and len(single.edges) == 1
    assert single.edge_index == {(1, 2): 1}
    isolated = cup_pairing(SimplicialGraph.of(2, []), GF2)
    assert isolated.n == 2 and len(isolated.edges) == 0
    p3 = cup_pairing(p_n(3), GF3)
    assert p3.edges == ((1, 2), (2, 3))
    assert p3.q_basis(1, 3) is None
    k1, c1 = p3.q_basis(1, 2)
    k2, c2 = p3.q_basis(3, 2)
    assert (k1, c1) == (1, GF3.one)
    assert (k2, c2) == (2, -GF3.one)


def test_pair_vectors_on_standard_basis():
    t = cup_pairing(p_n(3), GF3)
    v1 = standard_basis_vec(GF3, 3, 1)
    v2 = standard_basis_vec(GF3, 3, 2)
    v3 = standard_basis_vec(GF3, 3, 3)
    assert [x.value for x in pair_vectors(t, v1, v2)] == [1, 0]
    assert [x.value for x in pair_vectors(t, v2, v1)] == [2, 0]  # -1 mod 3
    assert [x.value for x in pair_vectors(t, v1, v3)] == [0, 0]
    assert all(not x for x in pair_vectors(t, v2, v2))


def test_pair_vectors_antisymmetry_and_errors():
    rng = random.Random(19)
    for spec in ALL_SPECS:
        t = cup_pairing(c_n(4), spec)
        u = [spec.scalar(rng.randrange(5)) for _ in range(4)]
        w = [spec.scalar(rng.randrange(5)) for _ in range(4)]
        lhs = pair_vectors(t, u, w)
        rhs = pair_vectors(t, w, u)
        assert all(x == -y for x, y in zip(lhs, rhs))
        assert all(not x for x in pair_vectors(t, u, u))
    t = cup_pairing(p_n(3), GF2)
    with pytest.raises(DimensionMismatch):
        pair_vectors(t, [1, 0], [0, 1, 0])
    with pytest.raises(FieldMismatch):
        pair_vectors(t, [GF3.one, GF3.zero, GF3.zero], [1, 0, 0])


def test_coefficient_identity_consecutive_rows():
    rng = random.Random(43)
    for spec in ALL_SPECS:
        for _ in range(10):
            n = rng.randint(2, 6)
            pairs = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if rng.random() < 0.5
            ]
            gamma = SimplicialGraph.of(n, pairs)
            t = cup_pairing(gamma, spec)
            b = random_invertible(rng, spec, n)
            for i in range(1, n):
                out = pair_vectors(t, b.row(i), b.row(i + 1))
                for k, (x, y) in enumerate(t.edges):
                    if y == x + 1:
                        assert out[k] == consecutive_minor(b, i, i + 1, x)


def test_support_graph_identity_basis():
    for gamma in [p_n(5), c_n(6), SimplicialGraph.of(3, [])]:
        t = cup_pairing(gamma, GF2)
        b = BasisMatrix(ExactMatrix.identity(GF2, gamma.n))
        g = basis_support_graph(t, b)
        assert set(g.edges) == set(gamma.edges)


@pytest.mark.parametrize("spec", [GF3, QQ])
def test_support_graph_matches_pair_vectors(spec):
    rng = random.Random(53)
    for _ in range(15):
        n = rng.randint(1, 6)
        pairs = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.5
        ]
        gamma = SimplicialGraph.of(n, pairs)
        t = cup_pairing(gamma, spec)
        b = random_invertible(rng, spec, n)
        expected = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if any(pair_vectors(t, b.row(i), b.row(j)))
        }
        assert set(basis_support_graph(t, BasisMatrix(b)).edges) == expected


def test_support_graph_errors():
    t = cup_pairing(p_n(3), GF2)
    with pytest.raises(SingularBasis):
        basis_support_graph(t, BasisMatrix(ExactMatrix.zeros(GF2, 3, 3)))
    with pytest.raises(SingularBasis):
        BasisMatrix(ExactMatrix(GF2, [[1, 0]]))
    with pytest.raises(DimensionMismatch):
        basis_support_graph(t, BasisMatrix(ExactMatrix.identity(GF2, 4)))
    with pytest.raises(FieldMismatch):
        basis_support_graph(t, BasisMatrix(ExactMatrix.identity(GF3, 3)))


def test_witness_identity_basis():
    t = cup_pairing(p_n(4), GF2)
    b = BasisMatrix(ExactMatrix.identity(GF2, 4))
    assert basis_hamiltonian_witness(t, b) == RowPermutation.identity(4)
    assert basis_hamiltonian_witness(t, b, cyclic=True) is None
    tc = cup_pairing(c_n(4), GF2)
    assert basis_hamiltonian_witness(tc, b, cyclic=True) == RowPermutation.identity(4)


def test_witness_pairs_are_nonzero():
    rng = random.Random(53)
    for spec in (GF2, GF3, QQ):
        for _ in range(10):
            n = rng.randint(2, 6)
            pairs = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if rng.random() < 0.6
            ]
            gamma = SimplicialGraph.of(n, pairs)
            t = cup_pairing(gamma, spec)
            b = BasisMatrix(random_invertible(rng, spec, n))
            for cyclic in (False, True):
                sigma = basis_hamiltonian_witness(t, b, cyclic)
                if sigma is None:
                    continue
                order = [sigma(i) for i in range(1, n + 1)]
                pairs_to_check = list(zip(order, order[1:]))
                if cyclic:
                    pairs_to_check.append((order[-1], order[0]))
                for x, y in pairs_to_check:
                    coords = pair_vectors(t, b.a.row(x), b.a.row(y))
                    assert any(coords)


@pytest.mark.parametrize("spec", [GF2, GF3, QQ], ids=lambda s: s.name)
def test_support_and_witnesses_of_one_basis_eliminate_and_scan_once(spec, monkeypatch):
    # the support graph and both witnesses of one basis share one
    # elimination (the basis check) and one scan of its support masks;
    # the uncached helpers are counted, not the public names
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    a = random_invertible(random.Random(71), spec, 6)
    b = BasisMatrix(ExactMatrix(spec, a.raw()))
    counted(matrices, "_eliminate")
    counted(matrices, "_eliminate_gf2")
    counted(rowgraph, "_scan_masks")
    t = cup_pairing(c_n(6), spec)
    support = basis_support_graph(t, b)
    path = basis_hamiltonian_witness(t, b)
    cycle = basis_hamiltonian_witness(t, b, cyclic=True)
    elimination = "_eliminate_gf2" if spec is GF2 else "_eliminate"
    assert sorted(calls) == sorted([elimination, "_scan_masks"])
    assert path.image == graph_hamiltonicity(support).order
    assert cycle.image == graph_hamiltonicity(support, True).order
    # a second graph on the same basis scans its own windows once more
    tp = cup_pairing(p_n(6), spec)
    fresh = BasisMatrix(ExactMatrix(spec, a.raw()))
    want = basis_support_graph(tp, fresh), basis_hamiltonian_witness(tp, fresh)
    calls.clear()
    assert (basis_support_graph(tp, b), basis_hamiltonian_witness(tp, b)) == want
    assert calls == ["_scan_masks"]


def test_witness_equals_support_search():
    rng = random.Random(61)
    for _ in range(25):
        n = rng.randint(1, 6)
        pairs = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.5
        ]
        gamma = SimplicialGraph.of(n, pairs)
        t = cup_pairing(gamma, GF2)
        b = BasisMatrix(random_invertible(rng, GF2, n))
        support = basis_support_graph(t, b)
        w = basis_hamiltonian_witness(t, b)
        direct = graph_hamiltonicity(support)
        assert (w is None) == (direct is None)
        if w is not None:
            assert w.image == direct.order
        wc = basis_hamiltonian_witness(t, b, cyclic=True)
        if n >= 3:
            direct_c = graph_hamiltonicity(support, True)
            assert (wc is None) == (direct_c is None)
            if wc is not None:
                assert wc.image == direct_c.order
        else:
            assert wc is None


def test_graph_hamiltonicity_examples():
    assert graph_hamiltonicity(c_n(5)) is not None
    assert graph_hamiltonicity(c_n(5), cyclic=True) is not None
    star = SimplicialGraph.of(4, [(1, 2), (1, 3), (1, 4)])
    assert graph_hamiltonicity(star) is None
    assert graph_hamiltonicity(SimplicialGraph.of(1, [])) is not None
    assert graph_hamiltonicity(SimplicialGraph.of(2, [(1, 2)]), cyclic=True) is None


def test_petersen_anchor():
    edges = [
        (1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
        (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
        (6, 8), (8, 10), (10, 7), (7, 9), (9, 6),
    ]
    petersen = SimplicialGraph.of(10, edges)
    assert graph_hamiltonicity(petersen) is not None
    assert graph_hamiltonicity(petersen, cyclic=True) is None
