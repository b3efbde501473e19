"""The one graph type, SimplicialGraph, and the two-row graphs of a matrix.

A SimplicialGraph stores one adjacency bitmask per vertex: the kernel below
produces such masks and the Hamiltonian search reads them, so the edge set
is built only when asked for.  Two-row graphs, opposite graphs, pairing
support graphs and input graphs are all SimplicialGraphs.

Vertices of a two-row graph are row indices 1..m.  Rows i and j are
null-connected when every 2x2 minor they span on consecutive columns is
singular; the cyclic variant additionally requires the wraparound minor on
columns (n, 1) to vanish.  The two-row graph joins exactly the pairs that
are not null-connected.

All row pairs at once come from one kernel, null_masks, which takes any set
of column windows; the pairing support graphs of raag use it with a graph's
edges as the windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .errors import DegenerateMatrix, IndexOutOfRange, NotSquare, ParseError, SizeBound
from .fields import FieldKind
from .matrices import ExactMatrix

# the largest vertex count SimplicialGraph.of accepts: its n masks of n bits
# then take at most 2 MiB
MAX_VERTICES = 4096


@dataclass(frozen=True)
class SimplicialGraph:
    """A finite simple graph on vertices 1..n: no loops, no multi-edges.

    Bit j-1 of adj[i-1] is set iff {i, j} is an edge.  The constructor
    checks the masks; SimplicialGraph.of builds a graph from edge pairs.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        n, adj = self.n, tuple(self.adj)
        object.__setattr__(self, "adj", adj)  # a list would not hash
        if n < 1:
            raise ParseError(f"graph needs at least one vertex, got {n}")
        if len(adj) != n:
            raise ParseError(f"{len(adj)} adjacency masks for {n} vertices")
        # the transpose, from the set bits of each mask's low n bits: bit j
        # of into[i] is set iff bit i of adj[j] is
        into = [0] * n
        for j, mask in enumerate(adj):
            rest = mask & (1 << n) - 1
            while rest:
                bit = rest & -rest
                into[bit.bit_length() - 1] |= 1 << j
                rest ^= bit
        for i, mask in enumerate(adj):
            if mask < 0 or mask >> n or mask >> i & 1:
                raise ParseError(f"vertex {i + 1}: loop or vertex outside 1..{n}")
            if into[i] != mask:
                raise ParseError(f"vertex {i + 1}: adjacency masks are not symmetric")

    @classmethod
    def _from_masks(cls, adj: tuple[int, ...]) -> "SimplicialGraph":
        """Trusted constructor: adj holds valid symmetric masks, unchecked."""
        g = cls.__new__(cls)
        object.__setattr__(g, "n", len(adj))
        object.__setattr__(g, "adj", adj)
        return g

    @staticmethod
    def of(n: int, pairs) -> "SimplicialGraph":
        if n < 1:
            raise ParseError(f"graph needs at least one vertex, got {n}")
        if n > MAX_VERTICES:
            raise SizeBound(f"graph has {n} vertices, above the bound {MAX_VERTICES}")
        adj = [0] * n
        for i, j in pairs:
            if i == j:
                raise ParseError(f"loop at vertex {i} is not allowed")
            i, j = min(i, j), max(i, j)
            if i < 1 or j > n:
                raise ParseError(f"bad edge ({i},{j}) for {n} vertices")
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
        return SimplicialGraph._from_masks(tuple(adj))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as pairs (i, j) with i < j."""
        return frozenset(
            (i + 1, j + 1)
            for i, mask in enumerate(self.adj)
            for j in range(i + 1, self.n)
            if mask >> j & 1
        )

    @property
    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        n = self.n
        return 1 <= i <= n and 1 <= j <= n and self.adj[i - 1] >> (j - 1) & 1 == 1

    @property
    def is_complete(self) -> bool:
        return all(mask.bit_count() == self.n - 1 for mask in self.adj)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [[i, j] for i, j in self.sorted_edges]}

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


def _vanishes_fn(a: ExactMatrix):
    """2x2 determinant vanishing test on raw entry values."""
    if a.spec.kind is FieldKind.RATIONAL:
        return lambda x, y, z, w: x * w == y * z
    p = a.spec.p
    return lambda x, y, z, w: (x * w - y * z) % p == 0


def null_connected(a: ExactMatrix, i: int, j: int, cyclic: bool = False) -> bool:
    """True iff every consecutive-column 2x2 minor of rows i, j vanishes
    (plus the wraparound minor when cyclic)."""
    if i == j:
        raise IndexOutOfRange("rows i and j must differ")
    if not (1 <= i <= a.m and 1 <= j <= a.m):
        raise IndexOutOfRange(f"rows ({i},{j}) outside 1..{a.m}")
    raw = a.raw()
    return _null_connected_raw(raw[i - 1], raw[j - 1], _vanishes_fn(a), cyclic)


def _null_connected_raw(ri, rj, vanishes, cyclic: bool) -> bool:
    for k in range(len(ri) - 1):
        if not vanishes(ri[k], ri[k + 1], rj[k], rj[k + 1]):
            return False
    if cyclic and not vanishes(ri[-1], ri[0], rj[-1], rj[0]):
        return False
    return True


def _projective_classes(a: ExactMatrix):
    """Rows to classify and the class key of a nonzero pair (u, v) of their
    entries: v/u mod p over GF(p) (p itself when u = 0); over Q, the pair
    divided by its gcd with a sign fixed, on the rows with their
    denominators cleared.  Two nonzero pairs span a singular 2x2 minor
    exactly when their keys agree."""
    rows = a._int_rows()[0]
    if a.spec.kind is FieldKind.RATIONAL:

        def key(u, v):
            g = gcd(u, v)
            if u < 0 or (not u and v < 0):
                g = -g
            return u // g, v // g

        return rows, key
    p = a.spec.p
    inverse: dict[int, int] = {}

    def key(u, v):
        if not u:
            return p
        inv = inverse.get(u)
        if inv is None:
            inv = inverse[u] = pow(u, -1, p)
        return v * inv % p

    return rows, key


def null_masks(a: ExactMatrix, windows) -> list[int]:
    """Null-connectedness of the rows of a on a set of column windows.

    Bit j of mask i is set iff rows i != j (0-based) span a singular 2x2
    minor on every column pair (x, y) in windows (0-based).  In each window
    a row with both entries zero is singular with every row, and any other
    row exactly with the rows of its projective class, so a window costs
    O(m).  Rows with an empty mask drop out, and the scan stops once every
    mask is empty.
    """
    m = a.m
    masks = [((1 << m) - 1) ^ (1 << i) for i in range(m)]
    rows, key = _projective_classes(a)
    live = range(m)
    for x, y in windows:
        live = [i for i in live if masks[i]]
        if not live:
            break
        classes: dict = {}
        zero = 0
        keyed = []
        for i in live:
            r = rows[i]
            u, v = r[x], r[y]
            if u or v:
                k = key(u, v)
                classes[k] = classes.get(k, 0) | 1 << i
                keyed.append((i, k))
            else:
                zero |= 1 << i
        for i, k in keyed:
            masks[i] &= classes[k] | zero
    return masks


def non_null_graph(null: list[int]) -> SimplicialGraph:
    """The graph joining rows i != j whose bit is clear in null_masks: the
    complement of null-connectedness."""
    full = (1 << len(null)) - 1
    return SimplicialGraph._from_masks(
        tuple(full ^ 1 << i ^ mask for i, mask in enumerate(null))
    )


def row_null_masks(a: ExactMatrix, cyclic: bool = False) -> list[int]:
    """null_masks of a's rows on its consecutive column windows, plus the
    wraparound window (n, 1) when cyclic."""
    windows = [(k, k + 1) for k in range(a.n - 1)]
    if cyclic and a.n > 1:
        windows.append((a.n - 1, 0))
    return null_masks(a, windows)


def two_row_graph(a: ExactMatrix, cyclic: bool = False) -> SimplicialGraph:
    """The (cyclic) two-row graph of a: rows adjacent iff not null-connected.

    Single-column matrices have no 2x2 windows, so every row pair is
    null-connected and the graph is edgeless; Id_1 gives the 1-vertex path.
    """
    return non_null_graph(row_null_masks(a, cyclic))


def opp_graph(a: ExactMatrix, cyclic: bool = False) -> SimplicialGraph:
    """Null-connectedness as the edge relation; complements two_row_graph."""
    return SimplicialGraph._from_masks(tuple(row_null_masks(a, cyclic)))


def is_square_traceable(a: ExactMatrix) -> bool:
    """True iff rows in their given order form a path in the two-row graph:
    every consecutive row pair spans some nonzero consecutive minor."""
    if not a.is_square:
        raise NotSquare("square-traceability is defined for square matrices")
    if a.n < 2:
        raise DegenerateMatrix("needs at least two columns")
    raw = a.raw()
    vanishes = _vanishes_fn(a)
    return all(
        not _null_connected_raw(raw[i], raw[i + 1], vanishes, False)
        for i in range(a.m - 1)
    )


def is_cyclically_square_traceable(a: ExactMatrix) -> bool:
    """True iff rows in cyclic order form a cycle in the cyclic two-row graph."""
    if not a.is_square:
        raise NotSquare("square-traceability is defined for square matrices")
    if a.n < 3:
        raise DegenerateMatrix("cyclic traceability needs n >= 3")
    raw = a.raw()
    vanishes = _vanishes_fn(a)
    for i in range(a.m):
        j = (i + 1) % a.m
        if _null_connected_raw(raw[i], raw[j], vanishes, True):
            return False
    return True
