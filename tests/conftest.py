import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from tworow import GF2, GF3, GF5, QQ, ExactMatrix

FIXTURES = Path(__file__).parent / "fixtures"

ALL_SPECS = [GF2, GF3, GF5, QQ]


def load_fixture_matrix(name: str) -> ExactMatrix:
    return ExactMatrix.from_json_dict(json.loads((FIXTURES / name).read_text()))


@pytest.fixture(scope="session")
def golden_7x7() -> ExactMatrix:
    return load_fixture_matrix("golden_7x7.json")


@pytest.fixture(scope="session")
def singular_3x3() -> ExactMatrix:
    return load_fixture_matrix("singular_3x3.json")


def random_matrix(rng: random.Random, spec, m: int, n: int) -> ExactMatrix:
    """Entry-uniform random matrix.  Over Q the entries are small integers,
    zero with probability 2/7, so zero entries still show up; there are no
    denominators."""
    if spec is QQ:
        rows = [
            [rng.choice([0, 0, 1, -1, 2, 3, -2]) for _ in range(n)] for _ in range(m)
        ]
    else:
        rows = [[rng.randrange(spec.p) for _ in range(n)] for _ in range(m)]
    return ExactMatrix(spec, rows)


def random_invertible(rng: random.Random, spec, n: int) -> ExactMatrix:
    from tworow import determinant

    while True:
        a = random_matrix(rng, spec, n, n)
        if determinant(a):
            return a


# nonzero rationals for the entries of sparse_invertible over Q
NONZERO_Q = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7))


def sparse_invertible(rng: random.Random, spec, n: int) -> ExactMatrix:
    """The rows and columns of an upper-triangular matrix with nonzero
    diagonal and n/4 nonzeros above it, shuffled independently: a
    permutation matrix with planted entries, invertible by construction."""

    def nonzero():
        return rng.choice(NONZERO_Q) if spec.p is None else rng.randrange(1, spec.p)

    upper = [[0] * n for _ in range(n)]
    for i in range(n):
        upper[i][i] = nonzero()
    for _ in range(n // 4):
        i, j = sorted(rng.sample(range(n), 2))
        upper[i][j] = nonzero()
    rperm, cperm = list(range(n)), list(range(n))
    rng.shuffle(rperm)
    rng.shuffle(cperm)
    return ExactMatrix(spec, [[upper[rperm[i]][cperm[j]] for j in range(n)] for i in range(n)])
