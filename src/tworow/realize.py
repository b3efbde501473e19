"""Realize any finite simple graph as the two-row graph of a 0/1 matrix.

The construction is incremental.  Start from [1]; for two vertices take the
identity when {1,2} is an edge and [[1,0],[0,0]] otherwise.  Each later
vertex j+1 contributes a zero row and, sweeping a counter i = 1..j, a zero
separator column followed (when {i, j+1} is an edge) by a unit column on row
i and a unit column on row j+1; a final zero column terminates the sweep,
and one more zero column pads the whole matrix.  Unit columns are the only
nonzero columns, so the only invertible consecutive windows are the adjacent
unit-column pairs planted per edge, which makes rows i and j null-connected
exactly when {i,j} is a non-edge.

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
        object.__setattr__(self, "a", a)

    def _key(self) -> tuple:
        return (self.a,)

    @property
    def n(self) -> int:
        return self.a.m

    def vertex_to_row(self, v: int) -> int:
        return v

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
    if n == 1:
        rows = [[1]]
    elif graph.has_edge(1, 2):
        rows = [[1, 0], [0, 1]]
    else:
        rows = [[1, 0], [0, 0]]

    def append_unit(col_row: int | None) -> None:
        for r, row in enumerate(rows, start=1):
            row.append(1 if r == col_row else 0)

    for new in range(3, n + 1):
        rows.append([0] * len(rows[0]))
        for i in range(1, new):
            append_unit(None)
            if graph.has_edge(i, new):
                append_unit(i)
                append_unit(new)
        append_unit(None)
    append_unit(None)
    a = ExactMatrix._from_raw(GF2, tuple(map(tuple, rows)))
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
    if any(v not in (0, 1) for row in a.raw() for v in row):
        return False
    return two_row_graph(a) == graph
