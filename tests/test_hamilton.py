import hashlib
import random
import sys
import time

import pytest

from tworow import (
    GF2,
    GF5,
    QQ,
    AssertionFailure,
    ExactMatrix,
    NotSquare,
    PathWitness,
    SimplicialGraph,
    RowPermutation,
    SizeBound,
    graph_hamiltonicity,
    is_square_traceable,
    permute_rows,
    traceable_ordering,
    two_row_graph,
)
import tworow.hamilton as hamilton
from tworow.cli import main
from tworow.hamilton import MEMO_LIMIT, _reaches

from .conftest import ALL_SPECS, FIXTURES, random_invertible, sparse_invertible
from .oracles import (
    all_graphs,
    brute_hamiltonian_cycle,
    brute_hamiltonian_path,
    dfs_hamiltonian,
    graphs_isomorphic,
)


def path_graph(n):
    return SimplicialGraph.of(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n):
    return SimplicialGraph.of(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def star_k13():
    return SimplicialGraph.of(4, [(1, 2), (1, 3), (1, 4)])


def test_path_examples():
    w = graph_hamiltonicity(path_graph(5))
    assert w == PathWitness((1, 2, 3, 4, 5), False)
    assert graph_hamiltonicity(star_k13()) is None
    assert graph_hamiltonicity(SimplicialGraph.of(1, [])) == PathWitness((1,), False)
    assert graph_hamiltonicity(SimplicialGraph.of(3, [])) is None


def test_cycle_examples():
    w = graph_hamiltonicity(cycle_graph(4), True)
    assert w is not None and w.closed and w.order[0] == 1
    assert w.is_valid_for(cycle_graph(4))
    assert graph_hamiltonicity(path_graph(4), True) is None
    # a cycle needs three vertices
    assert graph_hamiltonicity(SimplicialGraph.of(2, [(1, 2)]), True) is None


def test_counterexample_graph_has_path(singular_3x3):
    g = two_row_graph(singular_3x3)
    w = graph_hamiltonicity(g)
    assert w is not None and w.is_valid_for(g)


def random_graph(rng, n, p=0.5):
    pairs = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p
    ]
    return SimplicialGraph.of(n, pairs)


def with_leaves(rng, g, leaves):
    """g with leaves new vertices, each joined to one earlier vertex."""
    pairs = list(g.edges)
    for v in range(g.n + 1, g.n + leaves + 1):
        pairs.append((rng.randint(1, v - 1), v))
    return SimplicialGraph.of(g.n + leaves, pairs)


def disjoint_union(g, h):
    shifted = [(i + g.n, j + g.n) for i, j in h.edges]
    return SimplicialGraph.of(g.n + h.n, list(g.edges) + shifted)


def hard_graphs(rng, lo):
    """Inputs on which the search meets dead ends, so its pruning runs:
    sparse graphs, graphs with leaves and disconnected graphs on lo..7
    vertices."""
    for _ in range(150):
        yield random_graph(rng, rng.randint(lo, 7), rng.choice([0.1, 0.2, 0.3]))
    for _ in range(100):
        core = rng.randint(max(lo - 2, 1), 5)
        yield with_leaves(rng, random_graph(rng, core, 0.7), rng.randint(1, 2))
    for _ in range(100):
        k = rng.randint(1, 6)
        yield disjoint_union(
            random_graph(rng, k, 0.8), random_graph(rng, rng.randint(1, 7 - k), 0.8)
        )


def test_path_matches_brute_force_and_is_lex_lowest():
    rng = random.Random(3)
    graphs = []
    for _ in range(120):
        n = rng.randint(2, 7)
        graphs.append(random_graph(rng, n, rng.choice([0.2, 0.4, 0.6])))
    graphs += [g for g in hard_graphs(rng, 2) if g.n >= 2]
    for g in graphs:
        got = graph_hamiltonicity(g)
        expect = brute_hamiltonian_path(g.n, set(g.edges))
        if expect is None:
            assert got is None
        else:
            assert got is not None
            assert got.order == expect  # lexicographically first witness


def test_cycle_matches_brute_force_anchored():
    rng = random.Random(5)
    graphs = []
    for _ in range(120):
        n = rng.randint(3, 7)
        graphs.append(random_graph(rng, n, rng.choice([0.3, 0.5, 0.7])))
    graphs += [g for g in hard_graphs(rng, 3) if g.n >= 3]
    for g in graphs:
        got = graph_hamiltonicity(g, True)
        expect = brute_hamiltonian_cycle(g.n, set(g.edges))
        if expect is None:
            assert got is None
        else:
            assert got is not None
            assert got.order == expect


def test_search_survives_1500_vertices():
    # the recursive search raised RecursionError on graphs this long
    assert graph_hamiltonicity(path_graph(1500)).order == tuple(range(1, 1501))
    rng = random.Random(11)
    labels = list(range(1, 1501))
    rng.shuffle(labels)
    shuffled = SimplicialGraph.of(1500, zip(labels, labels[1:]))
    smallest = labels if labels[0] < labels[-1] else labels[::-1]
    assert graph_hamiltonicity(shuffled).order == tuple(smallest)
    w = graph_hamiltonicity(cycle_graph(1500), True)
    assert w is not None and w.order == tuple(range(1, 1501))


def test_search_runs_under_a_low_recursion_limit():
    g = path_graph(1500)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        w = graph_hamiltonicity(g)
    finally:
        sys.setrecursionlimit(limit)
    assert w.order == tuple(range(1, 1501))


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
    assert is_square_traceable(
        permute_rows(ExactMatrix.identity(GF2, 6), sigma_c), cyclic=True
    )


def test_traceable_ordering_edge_cases():
    with pytest.raises(NotSquare):
        traceable_ordering(ExactMatrix(GF2, [[1, 0]]))
    assert traceable_ordering(ExactMatrix.zeros(QQ, 2, 2)) is None
    # a zero row is null-connected to no row; singular, so None stands
    zero_row = ExactMatrix(GF2, [[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert traceable_ordering(zero_row) is None
    assert traceable_ordering(zero_row, cyclic=True) is None
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
            assert is_square_traceable(permute_rows(a, sigma_c), cyclic=True)


@pytest.mark.parametrize("spec", [GF2, GF5])
def test_traceable_ordering_sparse_invertible(spec):
    # sparse two-row graphs make the search backtrack, with its memo off
    rng = random.Random(83)
    for _ in range(6):
        a = sparse_invertible(rng, spec, rng.randint(40, 48))
        sigma = traceable_ordering(a)
        assert sigma is not None
        assert is_square_traceable(permute_rows(a, sigma))
        sigma_c = traceable_ordering(a, cyclic=True)
        assert sigma_c is not None
        assert is_square_traceable(permute_rows(a, sigma_c), cyclic=True)


def witness_digest(matrices):
    """sha256 of the plain and cyclic traceable_ordering images, in order."""
    digest = hashlib.sha256()
    for a in matrices:
        for cyclic in (False, True):
            digest.update(repr(traceable_ordering(a, cyclic).image).encode())
    return digest.hexdigest()


def test_sparse_witnesses_pinned():
    # 400 n = 22 sparse matrices, GF(2) and GF(5) in turn, as sparse-trace
    # draws them: the search backtracks with its memo off, so any change to
    # its order or pruning that moves a witness shows here
    rng = random.Random(1922)
    matrices = [sparse_invertible(rng, (GF2, GF5)[k % 2], 22) for k in range(400)]
    assert witness_digest(matrices) == (
        "498c09680389551ce749916c9b9ec51daec0c71098cafae77cf0a6f7bea3bf68"
    )
    rng = random.Random(1964)
    matrices = [sparse_invertible(rng, (GF2, GF5)[k % 2], 64) for k in range(6)]
    assert witness_digest(matrices) == (
        "268d0e2013fdcc728cfd559a8b3038ce39c8d227aec64dc77752d444fc3313df"
    )


def complete_bipartite(a, b):
    return SimplicialGraph.of(
        a + b, [(i, j) for i in range(1, a + 1) for j in range(a + 1, a + b + 1)]
    )


def test_graph_witnesses_pinned():
    # random graphs above MEMO_LIMIT, where the search backtracks with its
    # dead-state memo off, and K_{a,a+2}, which has no path and no cycle
    # and so makes the search exhaust every pruned state
    rng = random.Random(22)
    graphs = [
        random_graph(rng, rng.randint(21, 26), rng.uniform(0.1, 0.4)) for _ in range(40)
    ]
    assert min(g.n for g in graphs) > MEMO_LIMIT
    graphs += [complete_bipartite(a, a + 2) for a in range(2, 6)]
    digest = hashlib.sha256()
    for g in graphs:
        for cyclic in (False, True):
            w = graph_hamiltonicity(g, cyclic)
            digest.update(repr(w and w.order).encode())
    assert digest.hexdigest() == (
        "6820478da31937764564e4b593f68965cbe13d3f39400facb34c90dae3da0765"
    )


def test_search_matches_brute_force_on_every_small_graph():
    for n in range(2, 6):
        for g in all_graphs(n):
            edges = set(g.edges)
            got = graph_hamiltonicity(g)
            assert (got and got.order) == brute_hamiltonian_path(n, edges), g
            if n >= 3:
                got = graph_hamiltonicity(g, True)
                assert (got and got.order) == brute_hamiltonian_cycle(n, edges), g


def trees_with_chords(rng, count):
    """count random trees on 8..11 vertices plus 1-3 chords, each left with
    one or two leaves: a start's ends are the graph's leaves."""
    while count:
        n = rng.randint(8, 11)
        pairs = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
        while len(pairs) < n - 1 + rng.randint(1, 3):
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            pairs.add((i, j))
        g = SimplicialGraph.of(n, pairs)
        if 1 <= sum(m.bit_count() == 1 for m in g.adj) <= 2:
            count -= 1
            yield g


@pytest.mark.parametrize("memo", [True, False])
def test_search_matches_unpruned_dfs(memo, monkeypatch):
    # graphs too large for brute_hamiltonian_path, searched with the
    # dead-state memo on (n <= MEMO_LIMIT) and off (MEMO_LIMIT below n):
    # pruning switches on at the first dead end and restarts the start in
    # both modes, and must leave the first witness where the plain DFS finds it
    if not memo:
        monkeypatch.setattr(hamilton, "MEMO_LIMIT", 7)
    rng = random.Random(23)
    graphs = [
        random_graph(rng, rng.randint(8, 11), rng.choice([0.2, 0.3, 0.4, 0.5, 0.6]))
        for _ in range(600)
    ]
    graphs += trees_with_chords(rng, 200)
    for g in graphs:
        assert (g.n <= hamilton.MEMO_LIMIT) == memo
        edges = set(g.edges)
        for cyclic in (False, True):
            got = graph_hamiltonicity(g, cyclic)
            assert (got and got.order) == dfs_hamiltonian(g.n, edges, cyclic), (g, cyclic)


def cliques(sizes, hub):
    """Disjoint cliques of the given sizes, all joined to one more vertex,
    vertex 1, when hub."""
    pairs, base = [], 2 if hub else 1
    for size in sizes:
        clique = range(base, base + size)
        base += size
        pairs += [(i, j) for i in clique for j in clique if i < j]
        if hub:
            pairs += [(1, v) for v in clique]
    return SimplicialGraph.of(base - 1, pairs)


def test_search_cuts_at_the_first_move_where_the_start_is_cut_off():
    # a start's children must reach every free vertex, not only the start's
    # other free neighbours, since no test showed that the start reaches
    # them: then a start beside a cut vertex, or in one component of a
    # disconnected graph, fails at its first move instead of the search
    # walking every path through its clique
    t0 = time.perf_counter()
    two = cliques([11, 11], False)
    assert two.n > MEMO_LIMIT
    assert graph_hamiltonicity(two) is None
    assert graph_hamiltonicity(two, True) is None
    # three K_7 sharing vertex 1, which is then a cut vertex
    three = SimplicialGraph.of(19, [
        (i, j) for k in range(3) for i in (1, *range(6 * k + 2, 6 * k + 8))
        for j in range(6 * k + 2, 6 * k + 8) if i < j
    ])
    assert graph_hamiltonicity(three) is None
    assert graph_hamiltonicity(three, True) is None
    w = graph_hamiltonicity(cliques([11, 11], True))
    assert w is not None and w.order[:2] == (2, 3) and w.order[11] == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_reaches_matches_closure():
    # _reaches(adj, free, last, want) is true exactly when every vertex of
    # want lies in the set reachable from last through free
    rng = random.Random(24)
    for _ in range(3000):
        n = rng.randint(1, 10)
        adj = random_graph(rng, n, rng.random()).adj
        free, last = rng.getrandbits(n), rng.randrange(n)
        want = free & rng.getrandbits(n) if rng.random() < 0.8 else rng.getrandbits(n)
        reached, todo = set(), [last]
        while todo:
            v = todo.pop()
            for w in range(n):
                if adj[v] >> w & 1 and free >> w & 1 and w not in reached:
                    reached.add(w)
                    todo.append(w)
        expect = all(w in reached for w in range(n) if want >> w & 1)
        assert _reaches(adj, free, last, want) == expect, (adj, free, last, want)


def test_none_on_an_invertible_matrix_raises(monkeypatch):
    # the paper's theorem: an invertible matrix has a row order, plain for
    # n >= 2 and cyclic for n >= 3, so a search that finds none has failed
    monkeypatch.setattr(hamilton, "_search", lambda adj, closed: None)
    for n, cyclic in ((2, False), (3, False), (3, True), (6, True)):
        a = ExactMatrix.identity(GF5, n)
        with pytest.raises(AssertionFailure, match="invertible") as info:
            traceable_ordering(a, cyclic)
        assert info.value.matrix is a
    # two rows close no cycle, invertible or not: no search, no failure
    assert traceable_ordering(ExactMatrix.identity(GF5, 2), cyclic=True) is None


@pytest.mark.parametrize("order", [[0, 0, 1, 2], [0, 1, 2, 7], [-2, 0, 1, 2]])
def test_faulty_search_order_is_an_assertion_failure(order, monkeypatch, capsys):
    # a repeated or out-of-range vertex is the search's fault, not the
    # input's: AssertionFailure with the matrix, and CLI exit code 1
    monkeypatch.setattr(hamilton, "_search", lambda adj, closed: list(order))
    a = ExactMatrix.identity(GF2, 4)
    for cyclic in (False, True):
        with pytest.raises(AssertionFailure, match="not a row order") as info:
            traceable_ordering(a, cyclic)
        assert info.value.matrix is a
        flag = ["--cyclic"] if cyclic else []
        assert main(["trace", "--matrix", str(FIXTURES / "id4.json"), *flag]) == 1
        assert "assertion failure" in capsys.readouterr().err


def test_isomorphism_examples(golden_7x7):
    p3 = path_graph(3)
    relabeled = SimplicialGraph.of(3, [(3, 2), (2, 1)])
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
        h = SimplicialGraph.of(n, [(image[i - 1], image[j - 1]) for i, j in g.edges])
        assert graphs_isomorphic(g, h)
    assert not graphs_isomorphic(path_graph(4), star_k13())
    assert not graphs_isomorphic(path_graph(4), path_graph(5))


def test_isomorphism_degree_refinement_not_fooled():
    # same degree multisets, non-isomorphic: C6 vs two triangles
    c6 = cycle_graph(6)
    two_triangles = SimplicialGraph.of(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert not graphs_isomorphic(c6, two_triangles)


def test_postconditions_raise_on_invalid_search_result(monkeypatch):
    # a search that returns a vertex order missing an edge of the graph
    monkeypatch.setattr(hamilton, "_search", lambda *args, **kwargs: [1, 0, 2, 3])
    with pytest.raises(AssertionFailure):
        graph_hamiltonicity(path_graph(4))
    with pytest.raises(AssertionFailure):
        graph_hamiltonicity(cycle_graph(4), True)
    # a row order (2, 1, 3, 4) that is not square-traceable in Id_4's rows
    with pytest.raises(AssertionFailure):
        traceable_ordering(ExactMatrix.identity(GF2, 4))
