import random
from fractions import Fraction

import pytest

from tworow import (
    ExperimentConfig,
    ExperimentMode,
    GF2,
    ParseError,
    SizeMismatch,
    FieldSpec,
    determinant,
    run_experiment,
    sample_gl,
    trial_rng,
)


def test_config_validation():
    with pytest.raises(SizeMismatch):
        ExperimentConfig(n=1, q=2, trials=10, seed=0, mode=ExperimentMode.COMPLETENESS)
    with pytest.raises(SizeMismatch):
        ExperimentConfig(n=3, q=2, trials=0, seed=0, mode=ExperimentMode.COMPLETENESS)
    with pytest.raises(ParseError):
        ExperimentConfig(n=3, q=4, trials=10, seed=0, mode=ExperimentMode.COMPLETENESS)
    with pytest.raises(ParseError):
        ExperimentConfig(n=3, q=1, trials=10, seed=0, mode=ExperimentMode.COMPLETENESS)
    # a bool is an int to Python, but no count
    with pytest.raises(SizeMismatch, match="trials must be >= 1, got True"):
        ExperimentConfig(3, 2, True, 0, ExperimentMode.COMPLETENESS)
    # nor a seed: True would equal seed 1 yet draw other trials
    with pytest.raises(ParseError, match="seed must be an integer, got True"):
        ExperimentConfig(3, 2, 20, True, ExperimentMode.COMPLETENESS)
    with pytest.raises(ParseError, match="seed must be an integer, got False"):
        ExperimentConfig(n=3, q=2, trials=20, seed=False, mode=ExperimentMode.COMPLETENESS)
    # nor anything else but an int: 1.0 would equal seed 1 yet draw other trials
    with pytest.raises(ParseError, match=r"seed must be an integer, got 1\.0"):
        ExperimentConfig(3, 2, 20, 1.0, ExperimentMode.COMPLETENESS)
    with pytest.raises(ParseError, match="seed must be an integer, got '1'"):
        ExperimentConfig(3, 2, 20, "1", ExperimentMode.COMPLETENESS)
    with pytest.raises(ParseError, match="seed must be an integer, got None"):
        ExperimentConfig(3, 2, 20, None, ExperimentMode.COMPLETENESS)
    # n, q and trials are ints too: 2.0 would pass is_prime and be written
    # out as "q": 2.0, and a float n or trials fails later in run_experiment
    with pytest.raises(SizeMismatch, match=r"experiments need n >= 2, got 2\.5"):
        ExperimentConfig(2.5, 2, 20, 0, ExperimentMode.COMPLETENESS)
    with pytest.raises(SizeMismatch, match=r"experiments need n >= 2, got 3\.0"):
        ExperimentConfig(3.0, 2, 20, 0, ExperimentMode.COMPLETENESS)
    with pytest.raises(ParseError, match=r"field order must be prime, got 2\.0"):
        ExperimentConfig(3, 2.0, 20, 0, ExperimentMode.COMPLETENESS)
    with pytest.raises(ParseError, match="field order must be prime, got True"):
        ExperimentConfig(3, True, 20, 0, ExperimentMode.COMPLETENESS)
    with pytest.raises(SizeMismatch, match=r"trials must be >= 1, got 2\.5"):
        ExperimentConfig(3, 2, 2.5, 0, ExperimentMode.COMPLETENESS)
    with pytest.raises(SizeMismatch, match=r"trials must be >= 1, got 2\.0"):
        ExperimentConfig(3, 2, 2.0, 0, ExperimentMode.COMPLETENESS)
    # a string count shows as a string, not as the number it spells
    with pytest.raises(SizeMismatch, match="experiments need n >= 2, got '3'"):
        ExperimentConfig("3", 2, 5, 0, ExperimentMode.COMPLETENESS)
    with pytest.raises(ParseError, match="field order must be prime, got '2'"):
        ExperimentConfig(3, "2", 5, 0, ExperimentMode.COMPLETENESS)
    with pytest.raises(SizeMismatch, match="trials must be >= 1, got '5'"):
        ExperimentConfig(3, 2, "5", 0, ExperimentMode.COMPLETENESS)


def test_trial_rng_determinism_and_independence():
    a = trial_rng(42, 0)
    b = trial_rng(42, 0)
    c = trial_rng(42, 1)
    d = trial_rng(43, 0)
    seq_a = [a.random() for _ in range(5)]
    assert seq_a == [b.random() for _ in range(5)]
    assert seq_a != [c.random() for _ in range(5)]
    assert seq_a != [d.random() for _ in range(5)]


def test_sample_gl_always_invertible():
    rng = random.Random(11)
    for q in (2, 3, 5):
        spec = FieldSpec.gf(q)
        for n in (2, 3, 4):
            for _ in range(20):
                a = sample_gl(n, q, rng)
                assert a.spec == spec and a.m == a.n == n
                assert bool(determinant(a))


def test_sample_gl_tiny():
    rng = random.Random(1)
    a = sample_gl(1, 2, rng)
    assert a.raw() == ((1,),)
    assert a.spec is GF2


def test_gl2_f2_has_six_elements():
    rng = random.Random(3)
    seen = {sample_gl(2, 2, rng).raw() for _ in range(500)}
    assert len(seen) == 6


def test_run_determinism():
    cfg = ExperimentConfig(n=3, q=3, trials=40, seed=7, mode=ExperimentMode.COMPLETENESS)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.to_json_dict() == r2.to_json_dict()
    assert r1.successes == r2.successes
    other = run_experiment(
        ExperimentConfig(n=3, q=3, trials=40, seed=8, mode=ExperimentMode.COMPLETENESS)
    )
    assert other.to_json_dict()["config"]["seed"] == 8


def test_completeness_two_by_two_binary():
    cfg = ExperimentConfig(n=2, q=2, trials=300, seed=0, mode=ExperimentMode.COMPLETENESS)
    rep = run_experiment(cfg)
    assert rep.successes == rep.total == 300
    assert rep.estimate == Fraction(1)


def test_sweep_mode_never_fails():
    for q in (2, 5):
        cfg = ExperimentConfig(
            n=4, q=q, trials=60, seed=21, mode=ExperimentMode.HAMILTONICITY_SWEEP
        )
        rep = run_experiment(cfg)
        assert rep.successes == rep.total == 60
        assert rep.failures == ()


def test_report_json_shape():
    cfg = ExperimentConfig(n=3, q=2, trials=50, seed=5, mode=ExperimentMode.COMPLETENESS)
    rep = run_experiment(cfg)
    d = rep.to_json_dict()
    assert d["config"]["mode"] == "completeness"
    assert d["config"]["n"] == 3 and d["config"]["q"] == 2
    assert d["config"]["trials"] == 50 and d["config"]["seed"] == 5
    assert d["successes"] == rep.successes
    assert d["failures"] == []
    num, _, den = d["estimate"]["rational"].partition("/")
    assert rep.estimate == Fraction(int(num), int(den))
    text = d["estimate"]["decimal"]
    assert len(text.split(".")[-1]) == 6
    assert abs(float(text) - float(rep.estimate)) < 1e-6


def test_estimate_decimal_rounding():
    cfg = ExperimentConfig(n=2, q=2, trials=3, seed=1, mode=ExperimentMode.COMPLETENESS)
    rep = run_experiment(cfg)
    assert rep.estimate_decimal(2) in {"1.00", "0.67", "0.33", "0.00"}
