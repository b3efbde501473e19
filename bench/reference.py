"""Independent references the benchmark checks tworow's outputs against.

Everything here works on plain Python values (ints reduced mod p, or
Fractions when ``p == 0``) and uses algorithms other than the library's:
edge sets come from grouping rows by the projective class of each column
window, determinants from textbook elimination, Hamiltonicity from
exhaustive permutation search.  Nothing here imports tworow.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd


class Mismatch(Exception):
    """An output of the program disagrees with the reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def det(rows, p: int):
    """Determinant: elimination mod p for a prime p (on bit rows for p = 2),
    fraction-free elimination on the row-scaled integer matrix for p == 0.
    Returns a residue or a Fraction."""
    if p == 2:
        return _det_bits([sum(1 << c for c, v in enumerate(r) if v % 2) for r in rows])
    if p == 0:
        return _det_rational(rows)
    mat = [[v % p for v in r] for r in rows]
    n = len(mat)
    acc = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if mat[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            acc = -acc
        top = mat[c]
        acc = acc * top[c] % p
        inv = pow(top[c], -1, p)
        for r in range(c + 1, n):
            f = mat[r][c] * inv % p
            if f:
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], top)]
    return acc % p


def _det_bits(rows: list[int]) -> int:
    rows = list(rows)
    for c in range(len(rows)):
        piv = next((r for r in range(c, len(rows)) if rows[r] >> c & 1), None)
        if piv is None:
            return 0
        rows[c], rows[piv] = rows[piv], rows[c]
        for r in range(c + 1, len(rows)):
            if rows[r] >> c & 1:
                rows[r] ^= rows[c]
    return 1


def _det_rational(rows) -> Fraction:
    scale = 1
    mat = []
    for r in rows:
        r = [Fraction(v) for v in r]
        d = 1
        for v in r:
            d = d * v.denominator // gcd(d, v.denominator)
        scale *= d
        mat.append([int(v * d) for v in r])
    n = len(mat)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if mat[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        top, pkk = mat[k], mat[k][k]
        for r in range(k + 1, n):
            row, f = mat[r], mat[r][k]
            mat[r] = [(x * pkk - f * y) // prev for x, y in zip(row, top)]
        prev = pkk
    return Fraction(sign * prev, scale)


def minor_nonzero(ri, rj, a: int, b: int, p: int) -> bool:
    """Is the 2x2 minor of rows ri, rj on columns a, b (0-based) nonzero?"""
    d = ri[a] * rj[b] - ri[b] * rj[a]
    return bool(d % p) if p else d != 0


def _windows(n: int, cyclic: bool) -> list[tuple[int, int]]:
    wins = [(k, k + 1) for k in range(n - 1)]
    if cyclic:
        wins.append((n - 1, 0))
    return wins


def _projective_class(x, y, p: int):
    """Class of the vector (x, y) up to a nonzero scalar; None for zero."""
    if p:
        if x % p:
            return y * pow(x, -1, p) % p
        return "inf" if y % p else None
    if x:
        return Fraction(y) / x
    return "inf" if y else None


def two_row_edges(rows, p: int, cyclic: bool) -> frozenset:
    """Edge set (1-based pairs i < j) of the (cyclic) two-row graph.

    Rows i and j are null-connected when every window's 2x2 minor vanishes,
    i.e. in every window one of the two vectors is zero or both share a
    projective class.  Per window that is a bitset union, so the whole graph
    costs O(rows * windows) big-integer operations.
    """
    m = len(rows)
    full = (1 << m) - 1
    null = [full] * m
    for a, b in _windows(len(rows[0]), cyclic):
        zero = 0
        groups: dict = {}
        classes = []
        for i, r in enumerate(rows):
            c = _projective_class(r[a], r[b], p)
            classes.append(c)
            if c is None:
                zero |= 1 << i
            else:
                groups[c] = groups.get(c, 0) | 1 << i
        for i, c in enumerate(classes):
            if c is not None:
                null[i] &= zero | groups[c]
    edges = []
    for i in range(m):
        later = full & ~null[i] & ~((2 << i) - 1)
        while later:
            bit = later & -later
            later ^= bit
            edges.append((i + 1, bit.bit_length()))
    return frozenset(edges)


def check_order(rows, p: int, order, cyclic: bool) -> None:
    """Window-minor check of a row order: each consecutive pair of rows
    (closed when cyclic) has a nonzero minor on some consecutive window
    (the wrap window (n, 1) included when cyclic)."""
    m = len(rows)
    expect(sorted(order) == list(range(1, m + 1)), f"order {order} is not a permutation")
    wins = _windows(len(rows[0]), cyclic)
    pairs = list(zip(order, order[1:]))
    if cyclic:
        pairs.append((order[-1], order[0]))
    for i, j in pairs:
        ri, rj = rows[i - 1], rows[j - 1]
        expect(
            any(minor_nonzero(ri, rj, a, b, p) for a, b in wins),
            f"rows {i},{j} of the order span no invertible window",
        )


def check_walk(edges, n: int, order, closed: bool) -> None:
    """order visits 1..n once along edges (and back to its start if closed)."""
    expect(sorted(order) == list(range(1, n + 1)), f"witness {order} is not a permutation")
    pairs = list(zip(order, order[1:]))
    if closed:
        pairs.append((order[-1], order[0]))
    for i, j in pairs:
        expect((min(i, j), max(i, j)) in edges, f"witness steps along non-edge {i}-{j}")


def hamiltonian(n: int, edges, closed: bool) -> bool:
    """Exhaustive search over vertex orders; for graphs of a few vertices."""
    if closed and n < 3:
        return False
    for order in itertools.permutations(range(1, n + 1)):
        if closed and order[0] != 1:
            break
        pairs = list(zip(order, order[1:]))
        if closed:
            pairs.append((order[-1], order[0]))
        if all((min(i, j), max(i, j)) in edges for i, j in pairs):
            return True
    return False


def support_edges(rows, graph_edges, p: int) -> frozenset:
    """Rows i < j of a basis are adjacent when some graph edge {x, y} has
    a nonzero coordinate w_ix w_jy - w_iy w_jx of the pairing."""
    n = len(rows)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if any(minor_nonzero(rows[i], rows[j], x - 1, y - 1, p) for x, y in graph_edges):
                out.append((i + 1, j + 1))
    return frozenset(out)


def null_seed_windows(rows, p: int) -> list[tuple[int, int, int]]:
    """(i, j, k): null-connected rows i < j that are nonzero on both columns
    k, k+1 (0-based).  Such a 2x2 region is a seed, so a 1-block partition
    must put all four cells in one block."""
    m, n = len(rows), len(rows[0])
    edges = two_row_edges(rows, p, False)
    seeds = []
    for i in range(m):
        for j in range(i + 1, m):
            if (i + 1, j + 1) in edges:
                continue
            ri, rj = rows[i], rows[j]
            for k in range(n - 1):
                if ri[k] and ri[k + 1] and rj[k] and rj[k + 1]:
                    seeds.append((i, j, k))
    return seeds


def check_partition(rows, p: int, doc: dict, seeds) -> None:
    """A plain block partition (as its JSON document) covers every cell once,
    its blocks are all-nonzero rank-one regions of >= 2 rows and columns,
    its singletons are labelled by their value, and every seed region lies
    inside one block."""
    m, n = len(rows), len(rows[0])
    owner: dict[tuple[int, int], int] = {}

    def claim(cell, who) -> None:
        expect(cell not in owner, f"cell {cell} covered twice")
        owner[cell] = who

    for b, block in enumerate(doc["blocks"]):
        brows, cols = block["rows"], block["cols"]
        start, length = cols["start"], cols["len"]
        expect(len(brows) >= 2 and 2 <= length <= n, f"block {b} is too small")
        expect(not cols["cyclic"] and start + length - 1 <= n, f"block {b} wraps")
        span = range(start - 1, start - 1 + length)
        base = rows[brows[0] - 1]
        for r in brows:
            row = rows[r - 1]
            for c in span:
                expect(bool(row[c]), f"block {b} holds zero cell ({r},{c + 1})")
                expect(
                    not minor_nonzero(base, row, span[0], c, p),
                    f"block {b} is not rank one",
                )
                claim((r, c + 1), b)
    for r, c in doc["nonzero_singletons"]:
        expect(bool(rows[r - 1][c - 1]), f"nonzero singleton ({r},{c}) is zero")
        claim((r, c), None)
    for r, c in doc["zero_singletons"]:
        expect(not rows[r - 1][c - 1], f"zero singleton ({r},{c}) is nonzero")
        claim((r, c), None)
    expect(len(owner) == m * n, "partition misses cells")
    for i, j, k in seeds:
        who = {owner[(r + 1, c + 1)] for r in (i, j) for c in (k, k + 1)}
        expect(len(who) == 1 and None not in who, f"seed rows {i + 1},{j + 1} split")
