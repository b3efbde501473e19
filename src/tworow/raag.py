"""Degree-one cohomology pairing of a right-angled Artin group.

Given a finite simple graph, the pairing triple (V, W, q) has V spanned by
one dual vector per vertex, W by one per edge, and q(v_i*, v_j*) = +-e_k* on
edges, 0 otherwise.  A basis of V given by the rows of an invertible matrix
induces a support graph (which row pairs have nonvanishing pairing); the
basis admits a row order with all consecutive pairings nonzero exactly when
the underlying graph has a Hamiltonian path, and cyclically when it has a
Hamiltonian cycle.

The sign convention is q(v_i*, v_j*) = +e_k* for i < j; Hamiltonicity
questions only depend on nonvanishing, so any consistent orientation works.
Edges are numbered in lexicographic order.

Input graphs and support graphs are both rowgraph.SimplicialGraph, which
this module re-exports; it defines no graph type of its own.  Witnesses on
either graph come from hamilton.graph_hamiltonicity, also re-exported here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionMismatch, FieldMismatch, ParseError, SingularBasis
from .fields import FieldKind, FieldSpec, Scalar
from .hamilton import graph_hamiltonicity
from .matrices import ExactMatrix, RowPermutation, determinant
from .rowgraph import SimplicialGraph, non_null_graph, null_masks


def graph_from_text(text: str) -> SimplicialGraph:
    """Parse JSON {"n":..,"edges":[[i,j],..]} or flat edge-list lines "i j"
    (1-indexed; an optional single-integer first line pins the vertex count,
    and every edge must lie within it; otherwise the largest label wins)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        return SimplicialGraph.from_json_dict(obj)
    count = None
    n = 0
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) == 1 and lineno == 1:
            try:
                count = int(parts[0])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad vertex count {parts[0]!r}") from exc
            if count < 1:
                raise ParseError(f"line {lineno}: vertex count {count} is below 1")
            n = count
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'i j', got {body!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer vertex in {body!r}") from exc
        if i == j:
            raise ParseError(f"line {lineno}: loop at vertex {i}")
        if min(i, j) < 1:
            raise ParseError(f"line {lineno}: bad edge ({i},{j}): vertices start at 1")
        if count is not None and max(i, j) > count:
            raise ParseError(f"line {lineno}: bad edge ({i},{j}) for {count} vertices")
        pairs.append((i, j))
        n = max(n, i, j)
    if n < 1:
        raise ParseError("empty graph input")
    return SimplicialGraph.of(n, pairs)


@dataclass(frozen=True)
class PairingTriple:
    """V of dimension n, W of dimension |E|, and the edge-supported pairing."""

    spec: FieldSpec
    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def dim_v(self) -> int:
        return self.n

    @property
    def dim_w(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: k for k, e in enumerate(self.edges, start=1)}

    def q_basis(self, i: int, j: int) -> tuple[int, Scalar] | None:
        """(k, coefficient) with q(v_i*, v_j*) = coeff * e_k*, or None off edges."""
        if i == j:
            return None
        k = self.edge_index.get((min(i, j), max(i, j)))
        if k is None:
            return None
        coeff = self.spec.one if i < j else -self.spec.one
        return k, coeff


@dataclass(frozen=True)
class BasisMatrix:
    """Rows are coordinates of basis vectors w_i in the v_j* basis."""

    a: ExactMatrix

    def __post_init__(self):
        if not self.a.is_square:
            raise SingularBasis(f"basis matrix must be square, got {self.a.m}x{self.a.n}")

    @property
    def n(self) -> int:
        return self.a.n


def cup_pairing(graph: SimplicialGraph, spec: FieldSpec) -> PairingTriple:
    return PairingTriple(spec, graph.n, tuple(graph.sorted_edges))


def _coerce_vector(t: PairingTriple, vec) -> list:
    if len(vec) != t.n:
        raise DimensionMismatch(f"vector has dimension {len(vec)}, need {t.n}")
    out = []
    for v in vec:
        if isinstance(v, Scalar):
            if v.spec != t.spec:
                raise FieldMismatch(
                    f"vector over {v.spec.name}, pairing over {t.spec.name}"
                )
            out.append(v.value)
        else:
            out.append(t.spec.scalar(v).value)
    return out


def pair_vectors(t: PairingTriple, u, w) -> tuple[Scalar, ...]:
    """q(u, w) expanded in the e_k* basis: the e-coordinate on edge {i,j},
    i < j, is u_i w_j - u_j w_i."""
    uu = _coerce_vector(t, u)
    ww = _coerce_vector(t, w)
    spec = t.spec
    coords = []
    if spec.kind is FieldKind.RATIONAL:
        for i, j in t.edges:
            coords.append(spec.scalar(uu[i - 1] * ww[j - 1] - uu[j - 1] * ww[i - 1]))
    else:
        p = spec.p
        for i, j in t.edges:
            coords.append(
                spec.scalar((uu[i - 1] * ww[j - 1] - uu[j - 1] * ww[i - 1]) % p)
            )
    return tuple(coords)


def _check_basis(t: PairingTriple, basis: BasisMatrix) -> ExactMatrix:
    a = basis.a
    if a.spec != t.spec:
        raise FieldMismatch(f"basis over {a.spec.name}, pairing over {t.spec.name}")
    if a.n != t.n:
        raise DimensionMismatch(f"basis is {a.n}-dimensional, pairing needs {t.n}")
    if not determinant(a):
        raise SingularBasis("basis matrix is singular")
    return a


def _support_graph(t: PairingTriple, a: ExactMatrix) -> SimplicialGraph:
    """Support graph of an already checked basis: rows w_i, w_j are joined
    iff some edge {x, y} gives the nonzero coordinate of q(w_i, w_j), the
    2x2 minor of rows i, j on columns (x, y)."""
    windows = [(x - 1, y - 1) for x, y in t.edges]
    return non_null_graph(null_masks(a, windows))


def basis_support_graph(t: PairingTriple, basis: BasisMatrix) -> SimplicialGraph:
    """Graph on basis rows with an edge where the pairing does not vanish."""
    return _support_graph(t, _check_basis(t, basis))


def basis_hamiltonian_witness(
    t: PairingTriple, basis: BasisMatrix, cyclic: bool = False
) -> RowPermutation | None:
    """A row order sigma with q(w_sigma(i), w_sigma(i+1)) nonzero for every
    consecutive pair, closed cyclically when requested: a Hamiltonian
    witness of the support graph, by graph_hamiltonicity."""
    witness = graph_hamiltonicity(_support_graph(t, _check_basis(t, basis)), cyclic)
    if witness is None:
        return None
    return RowPermutation(witness.order)
