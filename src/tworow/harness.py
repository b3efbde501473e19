"""Randomized experiments: uniform GL_n(F_q) sampling, Hamiltonicity sweeps,
and completeness-probability estimation.

Sampling is by rejection: draw entries uniformly, keep the first invertible
matrix.  The acceptance probability prod_{i=1..n} (1 - q^-i) exceeds 0.288
for every n and q, so retries are cheap.  Each trial derives its own RNG
substream from sha256(seed, trial index); trials are therefore independent
of execution order and a report is a pure function of its config.
"""

from __future__ import annotations

import hashlib
import random
from decimal import Decimal
from enum import Enum
from fractions import Fraction

from .errors import AssertionFailure, ParseError, SizeMismatch, Value
from .fields import _MAX_PRIME, FieldSpec, is_prime
from .hamilton import graph_hamiltonicity
from .matrices import ExactMatrix, _eliminate, _eliminate_gf2
from .rowgraph import two_row_graph


class ExperimentMode(Enum):
    COMPLETENESS = "completeness"
    HAMILTONICITY_SWEEP = "hamiltonicity-sweep"


class ExperimentConfig(Value):
    __slots__ = ("n", "q", "trials", "seed", "mode")

    def __init__(
        self, n: int, q: int, trials: int, seed: int, mode: ExperimentMode
    ) -> None:
        # only an int will do: a bool or float equal to one would draw other
        # trials as a seed, be written out as 2.0 as q, and fail later as n
        if type(trials) is not int or trials < 1:
            raise SizeMismatch(f"trials must be >= 1, got {trials!r}")
        if type(seed) is not int:
            raise ParseError(f"seed must be an integer, got {seed!r}")
        # is_prime is exact only below 3.2e9, and gf(q) needs q < 2**31
        if type(q) is not int or q >= _MAX_PRIME or not is_prime(q):
            raise ParseError(f"field order must be prime, got {q!r}")
        if type(n) is not int or n < 2:
            raise SizeMismatch(f"experiments need n >= 2, got {n!r}")
        self._set(n, q, trials, seed, mode)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "trials": self.trials,
            "seed": self.seed,
            "mode": self.mode.value,
        }


class ExperimentReport(Value):
    __slots__ = ("config", "successes", "total", "failures")

    def __init__(
        self,
        config: ExperimentConfig,
        successes: int,
        total: int,
        failures: tuple[ExactMatrix, ...] = (),
    ) -> None:
        self._set(config, successes, total, failures)

    @property
    def estimate(self) -> Fraction:
        return Fraction(self.successes, self.total)

    def estimate_decimal(self, places: int = 6) -> str:
        quantum = Decimal(1).scaleb(-places)
        return str(
            (Decimal(self.successes) / Decimal(self.total)).quantize(quantum)
        )

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "successes": self.successes,
            "total": self.total,
            "estimate": {
                "rational": f"{self.estimate.numerator}/{self.estimate.denominator}",
                "decimal": self.estimate_decimal(),
            },
            "failures": [a.to_json_dict() for a in self.failures],
        }


def trial_rng(seed: int, trial: int) -> random.Random:
    """Deterministic per-trial substream, independent of trial order."""
    digest = hashlib.sha256(f"{seed}:{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def sample_gl(n: int, q: int, rng: random.Random) -> ExactMatrix:
    """Uniform over GL_n(F_q) by rejection on uniform entry matrices."""
    spec = FieldSpec.gf(q)
    if q == 2:
        cols = range(n)
        while True:
            packed = [rng.getrandbits(n) for _ in cols]
            found = _eliminate_gf2(packed, n)
            if found[1]:
                return ExactMatrix._from_raw(
                    spec, tuple([tuple([row >> c & 1 for c in cols]) for row in packed]),
                    found,
                )
    while True:
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(n)]
        found = _eliminate(rows, q)
        if found[1]:
            return ExactMatrix._from_raw(spec, tuple(rows), found)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """COMPLETENESS counts samples whose two-row graph is complete;
    HAMILTONICITY_SWEEP requires a path in the plain graph and, for n >= 3,
    a cycle in the cyclic graph, raising on any violation (invertible
    matrices are guaranteed traceable, so a violation signals an
    implementation bug, with the counterexample attached)."""
    successes = 0
    for trial in range(cfg.trials):
        a = sample_gl(cfg.n, cfg.q, trial_rng(cfg.seed, trial))
        if cfg.mode is ExperimentMode.COMPLETENESS:
            if two_row_graph(a).is_complete:
                successes += 1
        else:
            if graph_hamiltonicity(two_row_graph(a)) is None:
                raise AssertionFailure(
                    f"invertible {cfg.n}x{cfg.n} over GF({cfg.q}) without a "
                    f"Hamiltonian path in its two-row graph (trial {trial})",
                    matrix=a,
                )
            if cfg.n >= 3 and graph_hamiltonicity(two_row_graph(a, True), True) is None:
                raise AssertionFailure(
                    f"invertible {cfg.n}x{cfg.n} over GF({cfg.q}) without a "
                    f"Hamiltonian cycle in its cyclic two-row graph (trial {trial})",
                    matrix=a,
                )
            successes += 1
    return ExperimentReport(cfg, successes, cfg.trials)
