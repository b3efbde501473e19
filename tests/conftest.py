import json
import random
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
