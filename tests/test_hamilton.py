import random

import pytest

from tworow import (
    GF2,
    QQ,
    AssertionFailure,
    DegenerateGraph,
    ExactMatrix,
    NotSquare,
    PathWitness,
    RowGraph,
    RowPermutation,
    SizeBound,
    graphs_isomorphic,
    hamiltonian_cycle,
    hamiltonian_path,
    is_cyclically_square_traceable,
    is_square_traceable,
    permute_rows,
    traceable_ordering,
    two_row_graph,
)

from .conftest import ALL_SPECS, random_invertible
from .oracles import brute_hamiltonian_cycle, brute_hamiltonian_path


def path_graph(n):
    return RowGraph.of(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n):
    return RowGraph.of(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def star_k13():
    return RowGraph.of(4, [(1, 2), (1, 3), (1, 4)])


def test_path_examples():
    w = hamiltonian_path(path_graph(5))
    assert w == PathWitness((1, 2, 3, 4, 5), False)
    assert hamiltonian_path(star_k13()) is None
    assert hamiltonian_path(RowGraph.of(1, [])) == PathWitness((1,), False)
    assert hamiltonian_path(RowGraph.of(3, [])) is None


def test_cycle_examples():
    w = hamiltonian_cycle(cycle_graph(4))
    assert w is not None and w.closed and w.order[0] == 1
    assert w.is_valid_for(cycle_graph(4))
    assert hamiltonian_cycle(path_graph(4)) is None
    with pytest.raises(DegenerateGraph):
        hamiltonian_cycle(RowGraph.of(2, [(1, 2)]))


def test_counterexample_graph_has_path(singular_3x3):
    g = two_row_graph(singular_3x3)
    w = hamiltonian_path(g)
    assert w is not None and w.is_valid_for(g)


def random_graph(rng, n, p=0.5):
    pairs = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p
    ]
    return RowGraph.of(n, pairs)


def test_path_matches_brute_force_and_is_lex_lowest():
    rng = random.Random(3)
    for _ in range(120):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        got = hamiltonian_path(g)
        expect = brute_hamiltonian_path(n, set(g.edges))
        if expect is None:
            assert got is None
        else:
            assert got is not None
            assert got.order == expect  # lexicographically first witness


def test_cycle_matches_brute_force_anchored():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(3, 7)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        got = hamiltonian_cycle(g)
        expect = brute_hamiltonian_cycle(n, set(g.edges))
        if expect is None:
            assert got is None
        else:
            assert got is not None
            assert got.order == expect


def test_witness_validation_helper():
    g = path_graph(3)
    assert PathWitness((1, 2, 3), False).is_valid_for(g)
    assert not PathWitness((1, 3, 2), False).is_valid_for(g)
    assert not PathWitness((1, 2), False).is_valid_for(g)
    assert not PathWitness((1, 2, 3), True).is_valid_for(g)
    assert PathWitness((1, 2, 3), True).is_valid_for(cycle_graph(3))


def test_traceable_ordering_identity():
    sigma = traceable_ordering(ExactMatrix.identity(GF2, 6))
    assert sigma == RowPermutation.identity(6)
    sigma_c = traceable_ordering(ExactMatrix.identity(GF2, 6), cyclic=True)
    assert sigma_c is not None
    assert is_cyclically_square_traceable(
        permute_rows(ExactMatrix.identity(GF2, 6), sigma_c)
    )


def test_traceable_ordering_edge_cases():
    with pytest.raises(NotSquare):
        traceable_ordering(ExactMatrix(GF2, [[1, 0]]))
    assert traceable_ordering(ExactMatrix.zeros(QQ, 2, 2)) is None
    assert traceable_ordering(ExactMatrix(QQ, [["5"]])) == RowPermutation.identity(1)
    assert traceable_ordering(ExactMatrix(QQ, [["5"]]), cyclic=True) is None
    assert traceable_ordering(ExactMatrix.identity(GF2, 2), cyclic=True) is None


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_invertible_always_traceable(spec):
    rng = random.Random(59)
    for _ in range(8):
        n = rng.randint(2, 6)
        a = random_invertible(rng, spec, n)
        sigma = traceable_ordering(a)
        assert sigma is not None
        assert is_square_traceable(permute_rows(a, sigma))
        if n >= 3:
            sigma_c = traceable_ordering(a, cyclic=True)
            assert sigma_c is not None
            assert is_cyclically_square_traceable(permute_rows(a, sigma_c))


def test_isomorphism_examples(golden_7x7):
    p3 = path_graph(3)
    relabeled = RowGraph.of(3, [(3, 2), (2, 1)])
    assert graphs_isomorphic(p3, relabeled)
    assert not graphs_isomorphic(p3, cycle_graph(3))
    assert graphs_isomorphic(
        two_row_graph(golden_7x7), two_row_graph(golden_7x7, cyclic=True)
    )
    with pytest.raises(SizeBound):
        graphs_isomorphic(path_graph(11), path_graph(11))


def test_isomorphism_random_relabelings():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        image = list(range(1, n + 1))
        rng.shuffle(image)
        h = RowGraph.of(n, [(image[i - 1], image[j - 1]) for i, j in g.edges])
        assert graphs_isomorphic(g, h)
    assert not graphs_isomorphic(path_graph(4), star_k13())
    assert not graphs_isomorphic(path_graph(4), path_graph(5))


def test_isomorphism_degree_refinement_not_fooled():
    # same degree multisets, non-isomorphic: C6 vs two triangles
    c6 = cycle_graph(6)
    two_triangles = RowGraph.of(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert not graphs_isomorphic(c6, two_triangles)


def test_postconditions_raise_on_invalid_search_result(monkeypatch):
    import tworow.hamilton as hamilton

    # a search that returns a vertex order missing an edge of the graph
    monkeypatch.setattr(hamilton, "_search", lambda *args, **kwargs: [1, 0, 2, 3])
    with pytest.raises(AssertionFailure):
        hamiltonian_path(path_graph(4))
    with pytest.raises(AssertionFailure):
        hamiltonian_cycle(cycle_graph(4))
    monkeypatch.undo()
    # a path witness that is not square-traceable in the matrix's own rows
    monkeypatch.setattr(
        hamilton, "hamiltonian_path", lambda g: PathWitness((2, 1, 3, 4), False)
    )
    with pytest.raises(AssertionFailure):
        traceable_ordering(ExactMatrix.identity(GF2, 4))
