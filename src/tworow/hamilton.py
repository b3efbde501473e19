"""Exact Hamiltonian path/cycle search on small graphs and row-ordering
decisions for square matrices.

One iterative depth-first search on an explicit stack, _search, serves
paths (start vertices tried in order) and cycles (anchored at vertex 1).
It extends the path by the smallest unvisited neighbour first, so the first
witness found is the lexicographically smallest one, which golden tests rely
on.  Pruning is lazy: once the search has met its first dead end, each new
state (visited bitmask, last vertex) must pass one bit-mask test before it
is entered.  Every free (unvisited) vertex must be reachable from the last
vertex through free vertices.  A free vertex with fewer than two neighbours
among the free vertices, the last vertex and, for a cycle, the start can
only end the path; a path allows one such end and a cycle none, and a
cycle's start must keep a free neighbour.  A greedy run to the end pays
nothing for the test, and each tested state's ends carry over to its
children, so a forced move costs no search.  Reachability carries over too:
a tested parent reached every free vertex from its last vertex, and each
such path leaves that vertex through the child's last vertex or through one
of the parent's other free neighbours, so the child need only reach those
neighbours, and its search stops there.  Once pruning is on, every state
on the path has passed the test but the start, whose pool is every
vertex: its ends are the graph's leaves, and its children must reach
every free vertex.  Pruning switches on at the search's first dead end,
which for a cycle may follow a full path that does not close; the search
then walks the current start's greedy path again from the start, and the
test cuts it at its highest failing state instead of backtracking it
level by level.  Only the greedy path was explored before, and the test
only cuts states with no completion, so neither the restart nor the test
ever changes the witness.
Up to MEMO_LIMIT vertices a dead-state memo on (visited bitmask, last
vertex) also skips states already known to fail, shared by all start
vertices of a path search.  No recursion is involved, so any graph size is
safe from the interpreter's recursion limit.  The search reads a
SimplicialGraph's adjacency masks as they are stored.
"""

from __future__ import annotations

from .errors import AssertionFailure, NotSquare, Value
from .matrices import ExactMatrix, RowPermutation, _rank_det
from .rowgraph import SimplicialGraph, _rows_traceable, _vanishes_fn, two_row_graph

MEMO_LIMIT = 20


class PathWitness(Value):
    """A vertex order visiting every vertex once; closed means last-to-first
    adjacency is also required (cycle)."""

    __slots__ = ("order", "closed")

    def __init__(self, order: tuple[int, ...], closed: bool) -> None:
        self._set(order, closed)

    def is_valid_for(self, g: SimplicialGraph) -> bool:
        order = self.order
        if not _is_order(order, g.n):
            return False
        adj = g.adj
        ends = order[1:] + order[:1] if self.closed else order[1:]
        return all(adj[i - 1] >> (j - 1) & 1 for i, j in zip(order, ends))


def _is_order(order: tuple[int, ...], n: int) -> bool:
    """Whether order lists each of 1..n exactly once."""
    if len(order) != n:
        return False
    seen = 0
    for v in order:
        if not 1 <= v <= n:
            return False
        seen |= 1 << v
    return seen == (1 << n + 1) - 2  # else some vertex twice


def _search(adj: tuple[int, ...], closed: bool) -> list[int] | None:
    """The lexicographically smallest Hamiltonian path (closed=False), or
    cycle anchored at vertex 0 (closed=True), of the graph with adjacency
    masks adj on vertices 0..n-1, n >= 2, as a vertex list; None if there
    is none.  Pruning and memo are described in the module docstring.
    Whether a state can be completed to a path does not depend on where the
    path started, so all starts share one memo.

    A state on the path that passed the test keeps its ends.  A child of
    such a state takes the parent's last vertex out of the pool, so only
    that vertex's free neighbours can become ends; if the parent's last
    vertex had no other free neighbour, every path from it through the free
    vertices ran through the child, so the parent's reachability carries
    over.  Otherwise _reaches searches from the child only until it has
    met those other free neighbours (others): the parent reached each free
    vertex v by a path, and after the last vertex of that path that is the
    child or in others, the path runs through the child's free vertices
    alone, so a child that reaches others reaches v.

    There are no untested states.  A start's pool is every vertex, so its
    ends are the vertices of degree < 2 other than itself: leaves in a
    path search, and none in a cycle search, which rejects a graph with
    such a vertex before it starts.  Its
    children update those ends on the start's free neighbours like any
    other child, but no test showed that the start reaches its free
    vertices, so _reaches must take them from the child to every free
    vertex: this cuts the first move on a disconnected graph or past a cut
    vertex.  When a dead end switches pruning on, the search starts the
    current start again, so the greedy path it had walked meets the test
    from its first move on.  A cycle's full path that does not close is
    followed at once by such a dead end, since its last vertex had no
    other free neighbour.
    """
    n = len(adj)
    full = (1 << n) - 1
    if closed:
        if min(map(int.bit_count, adj)) < 2:
            return None
        starts: range | list[int] = [0]
        # free vertices that may end the path, the start's bit, which stays
        # in the pool of a cycle, and the vertices of degree < 2: none
        allowed, home, tips = 0, 1, 0
    else:
        allowed, home = 1, 0
        leaves = [v for v, m in enumerate(adj) if not m & m - 1]  # degree < 2
        if len(leaves) > 2 or 0 in adj:
            return None
        tips = sum(1 << v for v in leaves)
        # a vertex of degree 1 ends every path; with two of them, a path
        # from the smaller exists iff its reverse does
        starts = leaves[:1] if len(leaves) == 2 else range(n)
    # a dead state's key is mask << 5 | last: unique, as last < MEMO_LIMIT < 32
    dead: set[int] | None = set() if n <= MEMO_LIMIT else None
    # None until pruning switches on; then ends[v] is the ends of the state
    # on the path whose last vertex is v
    ends: list[int] | None = None
    for start in starts:
        mask = 1 << start
        order = [start]
        stack = [adj[start]]  # untried successors of each vertex on the path
        if ends is not None:
            ends[start] = tips & ~mask
        while stack:
            free = stack[-1]
            if not free:
                # every extension of the path failed: (mask, last) is dead
                stack.pop()
                last = order.pop()
                if dead is not None:
                    dead.add(mask << 5 | last)
                mask ^= 1 << last
                if ends is None:
                    # pruning switches on: walk the greedy path again from
                    # the start, so the test cuts it at its highest
                    # failing state
                    mask, order, stack = 1 << start, [start], [adj[start]]
                    ends = [0] * n
                    ends[start] = tips & ~mask
                continue
            bit = free & -free
            stack[-1] = free ^ bit
            nxt = bit.bit_length() - 1
            mask |= bit
            if mask == full:
                if not closed or adj[nxt] >> start & 1:
                    order.append(nxt)
                    return order
            elif dead is not None and mask << 5 | nxt in dead:
                pass  # already known to fail
            elif ends is not None:
                rest = full ^ mask
                last = order[-1]
                # the parent's last vertex leaves the pool.  The parent's
                # ends hold nxt only when the child fails anyway (an end
                # next to the last vertex has no free neighbour), so nxt
                # need not be taken out of them
                found = ends[last]
                others = adj[last] & rest
                pool = rest | bit | home
                left = others
                while left:
                    low = left & -left
                    left ^= low
                    if (adj[low.bit_length() - 1] & pool).bit_count() < 2:
                        found |= low
                # no test showed that the start reaches its free vertices
                want = rest if last == start else others
                if not (
                    found.bit_count() > allowed
                    or closed and not adj[start] & rest
                    or want and not _reaches(adj, rest, nxt, want)
                ):
                    order.append(nxt)
                    stack.append(adj[nxt] & ~mask)
                    ends[nxt] = found
                    continue
                if dead is not None:
                    dead.add(mask << 5 | nxt)
            else:
                order.append(nxt)
                stack.append(adj[nxt] & ~mask)
                continue
            mask ^= bit
    return None


def _reaches(adj: tuple[int, ...], free: int, last: int, want: int) -> bool:
    """Whether every vertex of want is reachable from last through free;
    the search stops once it has reached them all."""
    seen = todo = adj[last] & free
    while want & ~seen:
        if not todo:
            return False
        bit = todo & -todo
        todo ^= bit
        new = adj[bit.bit_length() - 1] & free & ~seen
        seen |= new
        todo |= new
    return True


def _witness(g: SimplicialGraph, cyclic: bool) -> PathWitness | None:
    """graph_hamiltonicity before its postcondition: the witness as the
    search returns it, unchecked, or None."""
    if g.n < (3 if cyclic else 2):
        return None if cyclic else PathWitness._make((1,), False)
    order = _search(g.adj, cyclic)
    if order is None:
        return None
    return PathWitness._make(tuple(v + 1 for v in order), cyclic)


def graph_hamiltonicity(graph: SimplicialGraph, cyclic: bool = False) -> PathWitness | None:
    """The lexicographically smallest Hamiltonian path of the graph, or
    cycle when cyclic, checked against the graph.  This (through _witness)
    is the one home of the degenerate sizes of a Hamiltonian witness: one
    vertex is a path, and a cycle needs three.  The check is a
    postcondition that python -O keeps."""
    witness = _witness(graph, cyclic)
    if witness is not None and not witness.is_valid_for(graph):
        raise AssertionFailure(f"search returned {witness.order}, not a valid witness")
    return witness


def traceable_ordering(a: ExactMatrix, cyclic: bool = False) -> RowPermutation | None:
    """A row order whose every consecutive pair (cyclically closed when
    requested) spans an invertible consecutive-column window after permuting,
    i.e. a Hamiltonian path (cycle) in the two-row graph.  Single-row
    matrices are vacuously orderable; cyclic closure needs at least 3 rows.
    By the paper's theorem every invertible matrix has such an order, so
    None on one is a failure of the search, raised as AssertionFailure;
    only a None answer pays for the determinant.  An order that is not a
    permutation of 1..n, or whose rows fail the raw-entry check, is a
    failure of the search too.
    """
    if not a.is_square:
        raise NotSquare(f"need a square matrix, got {a.m}x{a.n}")
    if a.n == 1:  # no window, so nothing for the postcondition to check
        return None if cyclic else RowPermutation.identity(1)
    witness = _witness(two_row_graph(a, cyclic), cyclic)
    if witness is None:
        if (a.n >= 3 or not cyclic) and _rank_det(a)[1]:
            raise AssertionFailure(
                f"no {'cyclic ' if cyclic else ''}row order found for an "
                f"invertible {a.n}x{a.n} matrix",
                matrix=a,
            )
        return None
    # checked on a's own rows in witness order: no permuted copy is built
    order = witness.order
    if not _is_order(order, a.m):
        raise AssertionFailure(f"search returned {order}, not a row order", matrix=a)
    raw = a.raw()
    if not _rows_traceable([raw[k - 1] for k in order], _vanishes_fn(a), cyclic):
        raise AssertionFailure(f"row order {order} is not square-traceable", matrix=a)
    return RowPermutation._make(order)
