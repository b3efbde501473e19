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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionMismatch, FieldMismatch, ParseError, SingularBasis
from .fields import FieldKind, FieldSpec, Scalar
from .hamilton import PathWitness, hamiltonian_cycle, hamiltonian_path
from .matrices import ExactMatrix, RowPermutation, determinant
from .rowgraph import GraphFlavor, RowGraph, masks_graph, null_masks


@dataclass(frozen=True)
class SimplicialGraph:
    """A finite simple graph: no loops, no multi-edges, vertices 1..n."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ParseError(f"graph needs at least one vertex, got {self.n}")
        for i, j in self.edges:
            if not (1 <= i < j <= self.n):
                raise ParseError(f"bad edge ({i},{j}) for {self.n} vertices")

    @staticmethod
    def of(n: int, pairs) -> "SimplicialGraph":
        edges = set()
        for i, j in pairs:
            if i == j:
                raise ParseError(f"loop at vertex {i} is not allowed")
            edges.add((min(i, j), max(i, j)))
        return SimplicialGraph(n, frozenset(edges))

    @property
    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def to_row_graph(self) -> RowGraph:
        return RowGraph.of(self.n, self.edges, GraphFlavor.PLAIN)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges]}

    @staticmethod
    def from_json_dict(obj) -> "SimplicialGraph":
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise ParseError('graph JSON needs keys "n" and "edges"')
        n = obj["n"]
        if not isinstance(n, int):
            raise ParseError(f'"n" must be an integer, got {n!r}')
        edges = obj["edges"]
        if not isinstance(edges, list):
            raise ParseError('"edges" must be a list of pairs')
        pairs = []
        for pos, e in enumerate(edges, start=1):
            if (
                not isinstance(e, list)
                or len(e) != 2
                or not all(isinstance(v, int) for v in e)
            ):
                raise ParseError(f"edge #{pos}: expected a pair of integers, got {e!r}")
            pairs.append((e[0], e[1]))
        return SimplicialGraph.of(n, pairs)


def graph_from_text(text: str) -> SimplicialGraph:
    """Parse JSON {"n":..,"edges":[[i,j],..]} or flat edge-list lines "i j"
    (1-indexed; an optional single-integer first line pins the vertex count,
    otherwise the largest label wins)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        return SimplicialGraph.from_json_dict(obj)
    n = 0
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) == 1 and lineno == 1:
            try:
                n = int(parts[0])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad vertex count {parts[0]!r}") from exc
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'i j', got {body!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer vertex in {body!r}") from exc
        if i == j:
            raise ParseError(f"line {lineno}: loop at vertex {i}")
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


def _support_graph(t: PairingTriple, a: ExactMatrix) -> RowGraph:
    """Support graph of an already checked basis: rows w_i, w_j are joined
    iff some edge {x, y} gives the nonzero coordinate of q(w_i, w_j), the
    2x2 minor of rows i, j on columns (x, y)."""
    masks = null_masks(a.raw(), a.spec, [(x - 1, y - 1) for x, y in t.edges])
    return masks_graph(masks, False, GraphFlavor.PAIRING)


def basis_support_graph(t: PairingTriple, basis: BasisMatrix) -> RowGraph:
    """Graph on basis rows with an edge where the pairing does not vanish."""
    return _support_graph(t, _check_basis(t, basis))


def basis_hamiltonian_witness(
    t: PairingTriple, basis: BasisMatrix, cyclic: bool = False
) -> RowPermutation | None:
    """A row order sigma with q(w_sigma(i), w_sigma(i+1)) nonzero for every
    consecutive pair, closed cyclically when requested.  Degenerate cyclic
    sizes (n < 3) admit no closed witness."""
    a = _check_basis(t, basis)
    if a.n == 1:
        return None if cyclic else RowPermutation.identity(1)
    if cyclic and a.n < 3:
        return None
    g = _support_graph(t, a)
    witness = hamiltonian_cycle(g) if cyclic else hamiltonian_path(g)
    if witness is None:
        return None
    return RowPermutation(witness.order)


def graph_hamiltonicity(graph: SimplicialGraph, cyclic: bool = False) -> PathWitness | None:
    """Direct Hamiltonian search on the graph itself; the comparison target
    for the basis-level equivalence."""
    g = graph.to_row_graph()
    if cyclic:
        if g.n < 3:
            return None
        return hamiltonian_cycle(g)
    return hamiltonian_path(g)
