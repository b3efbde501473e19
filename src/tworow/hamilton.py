"""Exact Hamiltonian path/cycle search on small graphs, row-ordering
decisions for square matrices, and brute-force graph isomorphism.

Search is lexicographic depth-first with a dead-state memo on (visited
bitmask, last vertex): a state that admits no completion is never re-entered.
Within the memoized regime the returned witness is the lexicographically
smallest one, which golden tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AssertionFailure, DegenerateGraph, NotSquare, SizeBound
from .matrices import ExactMatrix, RowPermutation, permute_rows
from .rowgraph import (
    RowGraph,
    is_cyclically_square_traceable,
    is_square_traceable,
    two_row_graph,
)

MEMO_LIMIT = 20
ISO_LIMIT = 10


@dataclass(frozen=True)
class PathWitness:
    """A vertex order visiting every vertex once; closed means last-to-first
    adjacency is also required (cycle)."""

    order: tuple[int, ...]
    closed: bool

    def is_valid_for(self, g: RowGraph) -> bool:
        if sorted(self.order) != list(range(1, g.n + 1)):
            return False
        pairs = list(zip(self.order, self.order[1:]))
        if self.closed:
            pairs.append((self.order[-1], self.order[0]))
        return all(g.has_edge(i, j) for i, j in pairs)


def _adjacency_masks(g: RowGraph) -> list[int]:
    masks = [0] * g.n
    for i, j in g.edges:
        masks[i - 1] |= 1 << (j - 1)
        masks[j - 1] |= 1 << (i - 1)
    return masks


def _search(adj: list[int], n: int, start: int, want_cycle: bool) -> list[int] | None:
    """Lexicographic DFS from a fixed start vertex (0-based)."""
    full = (1 << n) - 1
    dead: set | None = set() if n <= MEMO_LIMIT else None
    order = [start]

    def extend(mask: int, last: int) -> bool:
        if mask == full:
            return adj[last] >> start & 1 == 1 if want_cycle else True
        if dead is not None and (mask, last) in dead:
            return False
        free = adj[last] & ~mask
        while free:
            bit = free & -free
            free ^= bit
            nxt = bit.bit_length() - 1
            order.append(nxt)
            if extend(mask | bit, nxt):
                return True
            order.pop()
        if dead is not None:
            dead.add((mask, last))
        return False

    if extend(1 << start, start):
        return order
    return None


def _checked(witness: PathWitness, g: RowGraph) -> PathWitness:
    """Postcondition of both searches, kept under python -O."""
    if not witness.is_valid_for(g):
        raise AssertionFailure(f"search returned {witness.order}, not a valid witness")
    return witness


def hamiltonian_path(g: RowGraph) -> PathWitness | None:
    if g.n == 1:
        return PathWitness((1,), False)
    if len(g.edges) < g.n - 1:
        return None  # too few edges for any spanning path
    adj = _adjacency_masks(g)
    for start in range(g.n):
        order = _search(adj, g.n, start, want_cycle=False)
        if order is not None:
            return _checked(PathWitness(tuple(v + 1 for v in order), False), g)
    return None


def hamiltonian_cycle(g: RowGraph) -> PathWitness | None:
    if g.n < 3:
        raise DegenerateGraph(f"cycles need at least 3 vertices, got {g.n}")
    adj = _adjacency_masks(g)
    if any(mask.bit_count() < 2 for mask in adj):
        return None
    # anchoring the start at vertex 1 kills rotational symmetry
    order = _search(adj, g.n, 0, want_cycle=True)
    if order is None:
        return None
    return _checked(PathWitness(tuple(v + 1 for v in order), True), g)


def traceable_ordering(a: ExactMatrix, cyclic: bool = False) -> RowPermutation | None:
    """A row order whose every consecutive pair (cyclically closed when
    requested) spans an invertible consecutive-column window after permuting,
    i.e. a Hamiltonian path (cycle) in the two-row graph.  Single-row
    matrices are vacuously orderable; cyclic closure needs at least 3 rows.
    """
    if not a.is_square:
        raise NotSquare(f"need a square matrix, got {a.m}x{a.n}")
    if a.n == 1:
        return None if cyclic else RowPermutation.identity(1)
    if cyclic and a.n < 3:
        return None
    g = two_row_graph(a, cyclic)
    witness = hamiltonian_cycle(g) if cyclic else hamiltonian_path(g)
    if witness is None:
        return None
    sigma = RowPermutation(witness.order)
    check = is_cyclically_square_traceable if cyclic else is_square_traceable
    if not check(permute_rows(a, sigma)):
        raise AssertionFailure(
            f"row order {sigma.image} is not square-traceable", matrix=a
        )
    return sigma


def graphs_isomorphic(g: RowGraph, h: RowGraph) -> bool:
    """Edge-preserving bijection test by degree-refined backtracking."""
    if g.n > ISO_LIMIT or h.n > ISO_LIMIT:
        raise SizeBound(f"isomorphism is brute force, limited to {ISO_LIMIT} vertices")
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    n = g.n
    gadj = _adjacency_masks(g)
    hadj = _adjacency_masks(h)
    gdeg = [mask.bit_count() for mask in gadj]
    hdeg = [mask.bit_count() for mask in hadj]
    if sorted(gdeg) != sorted(hdeg):
        return False
    image = [-1] * n

    def assign(v: int, used: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used >> w & 1 or hdeg[w] != gdeg[v]:
                continue
            ok = True
            for u in range(v):
                if (gadj[v] >> u & 1) != (hadj[w] >> image[u] & 1):
                    ok = False
                    break
            if ok:
                image[v] = w
                if assign(v + 1, used | 1 << w):
                    return True
        return False

    return assign(0, 0)
