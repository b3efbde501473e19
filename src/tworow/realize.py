"""Realize any finite simple graph as the two-row graph of a 0/1 matrix.

The construction is incremental.  Start from [1]; for two vertices take the
identity when {1,2} is an edge and [[1,0],[0,0]] otherwise.  Each later
vertex j+1 contributes a zero row and, sweeping a counter i = 1..j, a zero
separator column followed (when {i, j+1} is an edge) by a unit column on row
i and a unit column on row j+1; a final zero column terminates the sweep,
and one more zero column pads the whole matrix.  Unit columns are the only
nonzero columns, so the only invertible consecutive windows are the adjacent
unit-column pairs planted per edge, which makes rows i and j null-connected
exactly when {i,j} is a non-edge.  Every column holds at most one 1, so
realize lists the row of each unit column first, fills the rows once, and
hands the matrix its column masks, which verify_realization's two-row
graph then reads.

The result is deliberately non-square and never claimed invertible.
"""

from __future__ import annotations

from .errors import AssertionFailure, Value
from .fields import GF2
from .matrices import ExactMatrix
from .rowgraph import SimplicialGraph, two_row_graph


class RealizationResult(Value):
    """Matrix over GF(2) whose two-row graph is the input graph under the
    identity correspondence row i <-> vertex i."""

    __slots__ = ("a",)

    def __init__(self, a: ExactMatrix) -> None:
        self._set(a)

    @property
    def n(self) -> int:
        return self.a.m

    def to_json_dict(self) -> dict:
        return {"matrix": self.a.to_json_dict(), "rows_are_vertices": True}


def expected_columns(graph: SimplicialGraph) -> int:
    """Deterministic column count of realize(); shape regression anchor."""
    n = graph.n
    if n == 1:
        return 2
    first_edge = 2 if graph.has_edge(1, 2) else 0
    return n * (n + 1) // 2 + 2 * len(graph.edges) - first_edge


def realize(graph: SimplicialGraph) -> RealizationResult:
    n = graph.n
    adj = graph.adj
    # the row (0-based) of each unit column, -1 for a zero column
    unit = [0] if n == 1 else [0, 1 if adj[0] & 2 else -1]
    for new in range(2, n):
        nbrs = adj[new]
        for i in range(new):
            unit.append(-1)
            if nbrs >> i & 1:
                unit += (i, new)
        unit.append(-1)
    unit.append(-1)
    rows = [[0] * len(unit) for _ in range(n)]
    for c, r in enumerate(unit):
        if r >= 0:
            rows[r][c] = 1
    # the column masks of the two-row graph's scan, from the same list
    cols = tuple([1 << r if r >= 0 else 0 for r in unit])
    a = ExactMatrix._from_raw(GF2, tuple(map(tuple, rows)), cols=cols)
    if a.n != expected_columns(graph):
        raise AssertionFailure(
            f"realization has {a.n} columns, expected {expected_columns(graph)}",
            matrix=a,
        )
    return RealizationResult(a)


def verify_realization(graph: SimplicialGraph, result: RealizationResult) -> bool:
    """True iff the matrix is 0/1 and its two-row graph is the input graph
    under the identity row/vertex correspondence."""
    a = result.a
    if not all(map(frozenset((0, 1)).issuperset, a.raw())):
        return False
    return two_row_graph(a) == graph
