"""Independent brute-force references the real implementations are tested
against.  Everything here works on plain Python values (ints mod p,
Fractions) and uses exhaustive enumeration, never the library's algorithms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from tworow import (
    ExactMatrix,
    FieldKind,
    NotSquare,
    Scalar,
    SimplicialGraph,
    SizeBound,
)


def _is_zero_fn(a: ExactMatrix):
    if a.spec.kind is FieldKind.RATIONAL:
        return lambda v: v == 0
    p = a.spec.p
    return lambda v: v % p == 0


def perm_parity(image) -> int:
    """+1 for even, -1 for odd; image is a 1-based tuple."""
    n = len(image)
    seen = [False] * n
    sign = 1
    for s in range(n):
        if seen[s]:
            continue
        k, length = s, 0
        while not seen[k]:
            seen[k] = True
            k = image[k] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def naive_determinant(a: ExactMatrix):
    """Signed permutation expansion over raw values; returns a plain value
    (canonical residue or Fraction)."""
    raw = a.raw()
    n = a.n
    total = Fraction(0) if a.spec.kind is FieldKind.RATIONAL else 0
    for image in itertools.permutations(range(1, n + 1)):
        term = perm_parity(image)
        for c in range(n):
            term *= raw[image[c] - 1][c]
            if not term:
                break
        total += term
    if a.spec.kind is FieldKind.RATIONAL:
        return total
    return total % a.spec.p


def brute_rank(a: ExactMatrix) -> int:
    """Largest k with a nonzero k x k minor, each by naive_determinant."""
    raw = a.raw()
    for k in range(min(a.m, a.n), 0, -1):
        for rows in itertools.combinations(range(a.m), k):
            for cols in itertools.combinations(range(a.n), k):
                sub = ExactMatrix(a.spec, [[raw[i][j] for j in cols] for i in rows])
                if naive_determinant(sub):
                    return k
    return 0


def wedge_coefficient(a: ExactMatrix, k: int, i: int, j: int):
    """Coefficient of e_i ^ e_j (1-based rows i != j) in the alternating
    square c_k ^ c_{k+1} of columns k and k+1, collected from the full
    expansion sum_{r,s} a[r][k] a[s][k+1] e_r ^ e_s; a plain value."""
    raw = a.raw()
    total = Fraction(0) if a.spec.kind is FieldKind.RATIONAL else 0
    for r in range(a.m):
        for s in range(a.m):
            if {r + 1, s + 1} != {i, j}:
                continue
            term = raw[r][k - 1] * raw[s][k]
            total += term if (r + 1, s + 1) == (i, j) else -term
    if a.spec.kind is FieldKind.RATIONAL:
        return total
    return total % a.spec.p


def determinant_generic(a: ExactMatrix) -> Scalar:
    """Reference determinant: textbook partial-pivot elimination on Scalars.

    Field-agnostic; the Scalar-level cross-check for the raw fast paths.
    """
    if not a.is_square:
        raise NotSquare(f"determinant of a {a.m}x{a.n} matrix")
    n = a.n
    spec = a.spec
    rows = [list(r) for r in a.scalar_rows()]
    det = spec.one
    negate = False
    for c in range(n):
        piv = None
        for r in range(c, n):
            if rows[r][c]:
                piv = r
                break
        if piv is None:
            return spec.zero
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            negate = not negate
        pivot = rows[c][c]
        det = det * pivot
        inv = pivot.inv()
        for r in range(c + 1, n):
            f = rows[r][c] * inv
            if f:
                top = rows[c]
                rows[r] = [x - f * y for x, y in zip(rows[r], top)]
    return -det if negate else det


def brute_null_connected(a: ExactMatrix, i: int, j: int, cyclic: bool) -> bool:
    n = a.n
    windows = [(k, k + 1) for k in range(n - 1)]
    if cyclic and n >= 2:
        windows.append((n - 1, 0))
    return brute_null_on(a, i, j, windows)


def brute_null_on(a: ExactMatrix, i: int, j: int, windows) -> bool:
    """True iff rows i, j (1-based) span a singular 2x2 minor on every
    column pair (x, y) in windows (0-based)."""
    raw = a.raw()
    zero = _is_zero_fn(a)
    ri, rj = raw[i - 1], raw[j - 1]
    return all(zero(ri[x] * rj[y] - ri[y] * rj[x]) for x, y in windows)


def brute_graph_edges(a: ExactMatrix, cyclic: bool) -> set[tuple[int, int]]:
    return {
        (i, j)
        for i in range(1, a.m + 1)
        for j in range(i + 1, a.m + 1)
        if not brute_null_connected(a, i, j, cyclic)
    }


def _connected(vertices: tuple[int, ...], adj: set[tuple[int, int]]) -> bool:
    todo = [vertices[0]]
    seen = {vertices[0]}
    while todo:
        v = todo.pop()
        for w in vertices:
            if w not in seen and ((min(v, w), max(v, w)) in adj):
                seen.add(w)
                todo.append(w)
    return len(seen) == len(vertices)


def brute_one_blocks(a: ExactMatrix, cyclic: bool) -> set[tuple[tuple[int, ...], int, int]]:
    """All maximal (rows, col_start, col_len) by exhaustive candidate
    enumeration plus a containment maximality filter."""
    raw = a.raw()
    zero = _is_zero_fn(a)
    m, n = a.m, a.n
    null_pairs = {
        (i, j)
        for i in range(1, m + 1)
        for j in range(i + 1, m + 1)
        if brute_null_connected(a, i, j, cyclic)
    }

    def cols_of(start: int, length: int) -> tuple[int, ...]:
        return tuple((start - 1 + t) % n + 1 for t in range(length))

    candidates: dict[frozenset, tuple[tuple[int, ...], int, int]] = {}
    starts = range(1, n + 1) if cyclic else range(1, n)
    for rows in itertools.chain.from_iterable(
        itertools.combinations(range(1, m + 1), k) for k in range(2, m + 1)
    ):
        for start in starts:
            max_len = n if cyclic else n - start + 1
            for length in range(2, max_len + 1):
                cols = cols_of(start, length)
                if any(zero(raw[r - 1][c - 1]) for r in rows for c in cols):
                    continue
                if not _connected(rows, null_pairs):
                    continue
                cells = frozenset((r, c) for r in rows for c in cols)
                canon_start = 1 if length == n else start
                candidates.setdefault(cells, (rows, canon_start, length))
    keep = set()
    for cells, desc in candidates.items():
        if not any(cells < other for other in candidates if other != cells):
            keep.add(desc)
    return keep


def all_graphs(n: int):
    """Every labelled simple graph on vertices 1..n."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield SimplicialGraph.of(n, [p for k, p in enumerate(pairs) if bits >> k & 1])


def brute_hamiltonian_path(n: int, edges: set[tuple[int, int]]):
    """Lexicographically first Hamiltonian path, or None."""
    if n == 1:
        return (1,)
    for perm in itertools.permutations(range(1, n + 1)):
        if all(
            (min(x, y), max(x, y)) in edges for x, y in zip(perm, perm[1:])
        ):
            return perm
    return None


def brute_hamiltonian_cycle(n: int, edges: set[tuple[int, int]]):
    """Lexicographically first Hamiltonian cycle anchored at vertex 1."""
    for rest in itertools.permutations(range(2, n + 1)):
        perm = (1,) + rest
        closed = all(
            (min(x, y), max(x, y)) in edges
            for x, y in zip(perm, perm[1:] + (1,))
        )
        if closed:
            return perm
    return None


def dfs_hamiltonian(n: int, edges: set[tuple[int, int]], cyclic: bool):
    """Lexicographically first Hamiltonian path, or cycle anchored at
    vertex 1 when cyclic, found by a depth-first search without pruning or
    memo: smallest neighbour first, every start in order.  None if there
    is none.  For graphs too large to try every permutation."""
    nbrs = {v: [] for v in range(1, n + 1)}
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    for v in nbrs:
        nbrs[v].sort()

    def extend(path: list[int]):
        if len(path) == n:
            closes = not cyclic or path[0] in nbrs[path[-1]]
            return tuple(path) if closes else None
        for w in nbrs[path[-1]]:
            if w not in path:
                found = extend(path + [w])
                if found:
                    return found
        return None

    for start in [1] if cyclic else range(1, n + 1):
        found = extend([start])
        if found:
            return found
    return None


def rank_one_over_field(a: ExactMatrix, rows, cols) -> bool:
    """Every 2x2 subdeterminant of the submatrix vanishes in the field."""
    raw = a.raw()
    zero = _is_zero_fn(a)
    for r1, r2 in itertools.combinations(rows, 2):
        for c1, c2 in itertools.combinations(cols, 2):
            d = (
                raw[r1 - 1][c1 - 1] * raw[r2 - 1][c2 - 1]
                - raw[r1 - 1][c2 - 1] * raw[r2 - 1][c1 - 1]
            )
            if not zero(d):
                return False
    return True


def nonzero_strings(a: ExactMatrix) -> list[tuple[int, ...]]:
    """All permutation images with a fully nonzero string."""
    raw = a.raw()
    zero = _is_zero_fn(a)
    n = a.n
    out = []
    for image in itertools.permutations(range(1, n + 1)):
        if all(not zero(raw[image[c] - 1][c]) for c in range(n)):
            out.append(image)
    return out


ISO_LIMIT = 10


def graphs_isomorphic(g: SimplicialGraph, h: SimplicialGraph) -> bool:
    """Edge-preserving bijection test by degree-refined backtracking."""
    if g.n > ISO_LIMIT or h.n > ISO_LIMIT:
        raise SizeBound(f"isomorphism is brute force, limited to {ISO_LIMIT} vertices")
    if g.n != h.n:
        return False
    n = g.n
    gadj, hadj = g.adj, h.adj
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
