"""The one graph type, SimplicialGraph, and the two-row graphs of a matrix.

A SimplicialGraph stores one adjacency bitmask per vertex: the kernel below
produces such masks and the Hamiltonian search reads them, so the edge set
is built only when asked for.  Two-row graphs, opposite graphs, pairing
support graphs and input graphs are all SimplicialGraphs; graph_from_text
parses the input graphs.

Vertices of a two-row graph are row indices 1..m.  Rows i and j are
null-connected when every 2x2 minor they span on consecutive columns is
singular; the cyclic variant additionally requires the wraparound minor on
columns (n, 1) to vanish.  The two-row graph joins exactly the pairs that
are not null-connected.

All row pairs at once come from one kernel, _scan_masks, which takes any
set of column windows and serves every field.  It works on the matrix's
column masks, one row bitmask per column (ExactMatrix._col_masks, kept in
its memo, ExactMatrix._memo, under "cols"; see matrices), so a window
touches only the rows nonzero in it; _projective_classes splits the rows
nonzero in both of its columns.  Its results are kept in the memo too:
row_null_masks keeps the masks on the consecutive windows under "plain"
and those on the wrap window (n, 1) alone under "wrap", and null_masks,
with a graph's edges as the windows for the pairing support graphs of
raag, keeps the masks of the one window set it was last given, with that
set, under "windows".  Rows are null-connected on every window
of a set exactly when they are on each window, so the cyclic masks are the
plain masks ANDed row by row with the wrap masks: the cyclic graph costs
one window more than the plain one.  Cached masks are tuples; callers get
a new list each time.

null_connected and is_square_traceable, the one traceability check (plain
or cyclic) that traceable_ordering runs on its answer, read raw entries
only, never the kernel or the memo, so they stay an independent check of
both.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from functools import cached_property
from itertools import compress
from math import gcd

from .errors import (
    DegenerateMatrix,
    IndexOutOfRange,
    NotSquare,
    ParseError,
    SizeBound,
    Value,
)
from .fields import FieldKind
from .matrices import ExactMatrix

# the largest vertex count SimplicialGraph.of accepts: its n masks of n bits
# then take at most 2 MiB
MAX_VERTICES = 4096


class SimplicialGraph(Value):
    """A finite simple graph on vertices 1..n: no loops, no multi-edges.

    Bit j-1 of adj[i-1] is set iff {i, j} is an edge.  The constructor
    checks the masks; SimplicialGraph.of builds a graph from edge pairs.
    """

    __slots__ = ("n", "adj", "__dict__")

    def __init__(self, n: int, adj: tuple[int, ...]) -> None:
        adj = tuple(adj)  # a list would not hash
        if type(n) is not int or n < 1:
            raise ParseError(f"graph needs at least one vertex, got {n!r}")
        if len(adj) != n:
            raise ParseError(f"{len(adj)} adjacency masks for {n} vertices")
        for i, mask in enumerate(adj):
            if type(mask) is not int:
                raise ParseError(f"vertex {i + 1}: adjacency mask {mask!r} is not an int")
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
        self._set(n, adj)

    @staticmethod
    def of(n: int, pairs) -> "SimplicialGraph":
        if type(n) is not int or n < 1:
            raise ParseError(f"graph needs at least one vertex, got {n!r}")
        if n > MAX_VERTICES:
            raise SizeBound(f"graph has {n} vertices, above the bound {MAX_VERTICES}")
        adj = [0] * n
        # from CPython 3.11 a try costs nothing until it catches
        try:
            for i, j in pairs:
                # a bool passes every step below, and any other endpoint that
                # is no integer raises TypeError in one
                try:
                    if isinstance(i, bool) or isinstance(j, bool):
                        raise ParseError(f"bad edge ({i},{j}) for {n} vertices")
                    if i == j:
                        raise ParseError(f"loop at vertex {i} is not allowed")
                    if i > j:
                        i, j = j, i
                    if i < 1 or j > n:
                        raise ParseError(f"bad edge ({i},{j}) for {n} vertices")
                    adj[i - 1] |= 1 << (j - 1)
                    adj[j - 1] |= 1 << (i - 1)
                except TypeError:
                    raise ParseError(f"bad edge ({i!r},{j!r}) for {n} vertices") from None
        except ParseError:
            raise
        except (TypeError, ValueError) as exc:
            # the for statement failed: pairs is no iterable, or an edge of
            # it no pair
            from reprlib import repr as short

            raise ParseError(f"bad edge in {short(pairs)} for {n} vertices: {exc}") from None
        return SimplicialGraph._make(n, tuple(adj))

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
        if not isinstance(n, int) or isinstance(n, bool):
            raise ParseError(f'"n" must be an integer, got {n!r}')
        edges = obj["edges"]
        if not isinstance(edges, list):
            raise ParseError('"edges" must be a list of pairs')
        pairs = []
        for pos, e in enumerate(edges, start=1):
            if (
                not isinstance(e, list)
                or len(e) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in e)
            ):
                raise ParseError(f"edge #{pos}: expected a pair of integers, got {e!r}")
            pairs.append((e[0], e[1]))
        return SimplicialGraph.of(n, pairs)


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


def _vanishes_fn(a: ExactMatrix):
    """2x2 determinant vanishing test on raw entry values: x*w == y*z.
    Over Q it cross-multiplies the entries' numerators and denominators,
    which builds no Fraction."""
    if a.spec.kind is FieldKind.RATIONAL:

        def vanishes(x, y, z, w):
            xn, xd = x.as_integer_ratio()
            yn, yd = y.as_integer_ratio()
            zn, zd = z.as_integer_ratio()
            wn, wd = w.as_integer_ratio()
            return xn * wn * yd * zd == yn * zn * xd * wd

        return vanishes
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
    """null_connected on two raw rows, from their entries alone.

    A window whose two entries in ri are both zero has a vanishing minor,
    so only the windows meeting ri's nonzero columns are tested: the first
    window, where dense rows decide, then for each nonzero column the
    windows ending and starting there, each once and in increasing order,
    then the wrap window (n, 1) when cyclic.  A sparse row costs two or
    three windows, not n-1.
    """
    last = len(ri) - 1  # 0-based windows (k, k+1) for k < last
    if last > 0:
        if not vanishes(ri[0], ri[1], rj[0], rj[1]):
            return False
        k = 0  # the last window tested
        for s in compress(range(last + 1), ri):
            if s > k + 1:
                k = s - 1
                if not vanishes(ri[k], ri[s], rj[k], rj[s]):
                    return False
            if k < s < last:
                k = s
                if not vanishes(ri[s], ri[s + 1], rj[s], rj[s + 1]):
                    return False
    if cyclic and not vanishes(ri[-1], ri[0], rj[-1], rj[0]):
        return False
    return True


def _projective_classes(a: ExactMatrix):
    """split(both, x, y): the rows of the bitmask both, each nonzero in
    columns x and y, as bitmasks of the classes whose pairs span singular
    2x2 minors on (x, y).  The class key of a row (u, v) is v/u mod p over
    GF(p); over Q, the pair divided by its gcd with the sign of u, on the
    rows with their denominators cleared.  Over GF(2) every such row reads
    11, so both is one class and there is no split: None."""
    if a.spec.kind is FieldKind.GF2:
        return None
    rows = a._int_rows()[0]
    if a.spec.kind is FieldKind.RATIONAL:

        def key(u, v):
            g = gcd(u, v)
            if u < 0:
                g = -g
            return u // g, v // g

    else:
        p = a.spec.p
        inverse: dict[int, int] = {}

        def key(u, v):
            inv = inverse.get(u)
            if inv is None:
                inv = inverse[u] = pow(u, -1, p)
            return v * inv % p

    def split(both, x, y):
        classes: dict = {}
        while both:
            low = both & -both
            row = rows[low.bit_length() - 1]
            k = key(row[x], row[y])
            classes[k] = classes.get(k, 0) | low
            both ^= low
        return classes.values()

    return split


def _scan_masks(a: ExactMatrix, windows: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Null-connectedness of the rows of a on a set of column windows.

    Bit j of mask i is set iff rows i != j (0-based) span a singular 2x2
    minor on every column pair (x, y) in windows (0-based).  It works on
    the column masks of a, one row bitmask per column.  In a window with
    column masks X and Y on the live rows, the rows nonzero in x only form
    one class, those nonzero in y only another, and _projective_classes
    splits those nonzero in both; the zero rows, live ^ (X | Y), are
    singular with every row.  Each row of a class ANDs the class and the
    zero rows into its mask, so a window costs what its nonzero rows do.
    A row whose mask empties leaves the live rows.  Uncached: null_masks
    and row_null_masks keep what it returns.
    """
    m = a.m
    full = (1 << m) - 1
    masks = [full ^ 1 << i for i in range(m)]
    cols = a._col_masks()
    split = _projective_classes(a)
    live = full
    for x, y in windows:
        if not live:
            break
        xs, ys = cols[x] & live, cols[y] & live
        if not (xs and ys):
            continue  # a column zero on the live rows: every minor vanishes
        both = xs & ys
        zero = live ^ (xs | ys)
        # nonzero in x only, in y only, and in both: one class unless split
        if split is not None and both & both - 1:
            classes = (xs ^ both, ys ^ both, *split(both, x, y))
        else:
            classes = (xs ^ both, ys ^ both, both)
        for rest in classes:
            keep = rest | zero
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                masks[i] &= keep
                if not masks[i]:
                    live ^= low
                rest ^= low
    return tuple(masks)


def null_masks(a: ExactMatrix, windows: Sequence[tuple[int, int]]) -> list[int]:
    """_scan_masks of a on windows, a sequence of 0-based column pairs, as
    a new list.  The masks of the window set last passed for a are kept in
    its memo, so asking again for the same set scans nothing."""
    key = tuple(windows)
    memo = a._memo
    found = memo.get("windows")
    if found is None or found[0] != key:
        found = memo["windows"] = key, _scan_masks(a, key)
    return list(found[1])


def non_null_graph(null: Sequence[int]) -> SimplicialGraph:
    """The graph joining rows i != j whose bit is clear in null, masks as
    null_masks and row_null_masks return them: the complement of
    null-connectedness."""
    full = (1 << len(null)) - 1
    return SimplicialGraph._make(
        len(null), tuple(full ^ 1 << i ^ mask for i, mask in enumerate(null))
    )


def row_null_masks(a: ExactMatrix, cyclic: bool = False) -> list[int]:
    """The masks of null_masks on a's consecutive column windows, ANDed row
    by row with those on the wrap window (n, 1) when cyclic, as a new list.
    Both mask sets are scanned once per matrix and kept in its memo."""
    memo = a._memo
    plain = memo.get("plain")
    if plain is None:
        plain = memo["plain"] = _scan_masks(a, [(k, k + 1) for k in range(a.n - 1)])
    if not cyclic or a.n < 2:
        return list(plain)
    wrap = memo.get("wrap")
    if wrap is None:
        wrap = memo["wrap"] = _scan_masks(a, [(a.n - 1, 0)])
    return [x & y for x, y in zip(plain, wrap)]


def two_row_graph(a: ExactMatrix, cyclic: bool = False) -> SimplicialGraph:
    """The (cyclic) two-row graph of a: rows adjacent iff not null-connected.

    Single-column matrices have no 2x2 windows, so every row pair is
    null-connected and the graph is edgeless; Id_1 gives the 1-vertex path.
    """
    return non_null_graph(row_null_masks(a, cyclic))


def opp_graph(a: ExactMatrix, cyclic: bool = False) -> SimplicialGraph:
    """Null-connectedness as the edge relation; complements two_row_graph."""
    return SimplicialGraph._make(a.m, tuple(row_null_masks(a, cyclic)))


def is_square_traceable(a: ExactMatrix, cyclic: bool = False) -> bool:
    """True iff rows in their given order form a path in the two-row graph,
    or a cycle in the cyclic one when cyclic: every consecutive row pair,
    and the pair (m, 1) when cyclic, spans some nonzero consecutive minor."""
    if not a.is_square:
        raise NotSquare("square-traceability is defined for square matrices")
    if cyclic and a.n < 3:
        raise DegenerateMatrix("cyclic traceability needs n >= 3")
    if a.n < 2:
        raise DegenerateMatrix("needs at least two columns")
    raw = a.raw()
    vanishes = _vanishes_fn(a)
    # i = 0 pairs row m with row 1, which closes the cycle
    return all(
        not _null_connected_raw(raw[i - 1], raw[i], vanishes, cyclic)
        for i in range(0 if cyclic else 1, a.m)
    )
