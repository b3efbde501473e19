"""Exact Hamiltonian path/cycle search on small graphs and row-ordering
decisions for square matrices.

One iterative depth-first search on an explicit stack serves paths (start
vertices tried in order) and cycles (anchored at vertex 1).  It extends the
path by the smallest unvisited neighbour first, so the first witness found
is the lexicographically smallest one, which golden tests rely on.  Pruning
is lazy: once the search has met its first dead end, each new state
(visited bitmask, last vertex) must pass a bit-mask test (every unvisited
vertex reachable from the last one, and few enough forced path ends) before
it is entered.  A greedy run to the end pays nothing for it.  The test only
cuts states with no completion, so it never changes the witness.  Up to
MEMO_LIMIT vertices a dead-state memo on (visited bitmask, last vertex)
also skips states already known to fail, shared by all start vertices of a
path search.  No recursion is involved, so any graph size is safe from the
interpreter's recursion limit.  The search reads a SimplicialGraph's
adjacency masks as they are stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AssertionFailure, DegenerateGraph, NotSquare
from .matrices import ExactMatrix, RowPermutation, permute_rows
from .rowgraph import (
    SimplicialGraph,
    is_cyclically_square_traceable,
    is_square_traceable,
    two_row_graph,
)

MEMO_LIMIT = 20


@dataclass(frozen=True)
class PathWitness:
    """A vertex order visiting every vertex once; closed means last-to-first
    adjacency is also required (cycle)."""

    order: tuple[int, ...]
    closed: bool

    def is_valid_for(self, g: SimplicialGraph) -> bool:
        order = self.order
        n = g.n
        if len(order) != n:
            return False
        seen = 0
        for v in order:
            if not 1 <= v <= n:
                return False
            seen |= 1 << v
        if seen != (1 << n + 1) - 2:  # some vertex twice
            return False
        adj = g.adj
        ends = order[1:] + order[:1] if self.closed else order[1:]
        return all(adj[i - 1] >> (j - 1) & 1 for i, j in zip(order, ends))


def _search(adj: tuple[int, ...], closed: bool) -> list[int] | None:
    """The lexicographically smallest Hamiltonian path (closed=False), or
    cycle anchored at vertex 0 (closed=True), of the graph with adjacency
    masks adj on vertices 0..n-1, n >= 2, as a vertex list; None if there
    is none.  Pruning and memo are described in the module docstring.
    Whether a state can be completed to a path does not depend on where the
    path started, so all starts share one memo.
    """
    n = len(adj)
    full = (1 << n) - 1
    degrees = [m.bit_count() for m in adj]
    if closed:
        if min(degrees) < 2:
            return None
        starts: range | list[int] = [0]
    else:
        ends = [v for v, d in enumerate(degrees) if d < 2]
        if len(ends) > 2 or 0 in degrees:
            return None
        # a vertex of degree 1 ends every path; with two of them, a path
        # from the smaller exists iff its reverse does
        starts = ends[:1] if len(ends) == 2 else range(n)
    # a dead state's key is mask << 5 | last: unique, as last < MEMO_LIMIT < 32
    dead: set[int] | None = set() if n <= MEMO_LIMIT else None
    pruning = False
    for start in starts:
        mask = 1 << start
        order = [start]
        stack = [adj[start]]  # untried successors of each vertex on the path
        while stack:
            free = stack[-1]
            if not free:
                # every extension of the path failed: (mask, last) is dead
                stack.pop()
                last = order.pop()
                if dead is not None:
                    dead.add(mask << 5 | last)
                mask ^= 1 << last
                pruning = True
                continue
            bit = free & -free
            stack[-1] = free ^ bit
            nxt = bit.bit_length() - 1
            mask |= bit
            if mask == full:
                if not closed or adj[nxt] >> start & 1:
                    order.append(nxt)
                    return order
                pruning = True
            elif dead is not None and mask << 5 | nxt in dead:
                pass  # already known to fail
            elif pruning and not _completable(adj, full ^ mask, nxt, start, closed):
                if dead is not None:
                    dead.add(mask << 5 | nxt)
            else:
                order.append(nxt)
                stack.append(adj[nxt] & ~mask)
                continue
            mask ^= bit
    return None


def _completable(
    adj: tuple[int, ...], free: int, last: int, start: int, closed: bool
) -> bool:
    """Necessary condition for a path from last through every vertex of the
    nonempty set free (then back to start when closed).  Every free vertex
    must be reachable from last through free.  A free vertex with fewer
    than two neighbours among free, last (and start when closed) can only
    end the path, so a path allows one such vertex and a cycle none; a
    cycle also needs start to keep a free neighbour."""
    pool = free | 1 << last
    allowed = 1
    if closed:
        if not adj[start] & free:
            return False
        pool |= 1 << start
        allowed = 0
    seen = todo = adj[last] & free
    while todo:
        bit = todo & -todo
        todo ^= bit
        nbrs = adj[bit.bit_length() - 1]
        if (nbrs & pool).bit_count() < 2:
            if not allowed:
                return False
            allowed -= 1
        new = nbrs & free & ~seen
        seen |= new
        todo |= new
    return seen == free


def _checked(witness: PathWitness, g: SimplicialGraph) -> PathWitness:
    """Postcondition of both searches, kept under python -O."""
    if not witness.is_valid_for(g):
        raise AssertionFailure(f"search returned {witness.order}, not a valid witness")
    return witness


def hamiltonian_path(g: SimplicialGraph) -> PathWitness | None:
    if g.n == 1:
        return PathWitness((1,), False)
    order = _search(g.adj, closed=False)
    if order is None:
        return None
    return _checked(PathWitness(tuple(v + 1 for v in order), False), g)


def hamiltonian_cycle(g: SimplicialGraph) -> PathWitness | None:
    if g.n < 3:
        raise DegenerateGraph(f"cycles need at least 3 vertices, got {g.n}")
    order = _search(g.adj, closed=True)
    if order is None:
        return None
    return _checked(PathWitness(tuple(v + 1 for v in order), True), g)


def graph_hamiltonicity(graph: SimplicialGraph, cyclic: bool = False) -> PathWitness | None:
    """The lexicographically smallest Hamiltonian path of the graph, or
    cycle when cyclic.  This is the one home of the degenerate sizes of a
    Hamiltonian witness: one vertex is a path, and a cycle needs three."""
    if not cyclic:
        return hamiltonian_path(graph)
    return hamiltonian_cycle(graph) if graph.n >= 3 else None


def traceable_ordering(a: ExactMatrix, cyclic: bool = False) -> RowPermutation | None:
    """A row order whose every consecutive pair (cyclically closed when
    requested) spans an invertible consecutive-column window after permuting,
    i.e. a Hamiltonian path (cycle) in the two-row graph.  Single-row
    matrices are vacuously orderable; cyclic closure needs at least 3 rows.
    """
    if not a.is_square:
        raise NotSquare(f"need a square matrix, got {a.m}x{a.n}")
    if a.n == 1:  # no window, so nothing for the postcondition to check
        return None if cyclic else RowPermutation.identity(1)
    witness = graph_hamiltonicity(two_row_graph(a, cyclic), cyclic)
    if witness is None:
        return None
    sigma = RowPermutation(witness.order)
    check = is_cyclically_square_traceable if cyclic else is_square_traceable
    if not check(permute_rows(a, sigma)):
        raise AssertionFailure(
            f"row order {sigma.image} is not square-traceable", matrix=a
        )
    return sigma
