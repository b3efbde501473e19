import hashlib
import json
import random
from fractions import Fraction

from tworow import ExperimentMode, canonical_json
import tworow.raag as raag
from tworow.blocks import DEFAULT_TRACK_BOUND
from tworow.cli import main

from .conftest import FIXTURES

GOLDEN = str(FIXTURES / "golden_7x7.json")
SINGULAR = str(FIXTURES / "singular_3x3.json")
STAR13 = str(FIXTURES / "star13.json")
ID4 = str(FIXTURES / "id4.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "--matrix", GOLDEN)
    assert code == 0
    assert out.startswith("graph ")
    assert "r1 -- r2;" in out
    assert "r1 -- r3;" not in out and "r6 -- r7;" not in out
    code, out, _ = run_cli(capsys, "graph", "--matrix", ID4)
    assert code == 0
    assert out == (
        "graph rowgraph {\n"
        "  // flavor=plain n=4\n"
        "  r1;\n  r2;\n  r3;\n  r4;\n"
        "  r1 -- r2;\n  r2 -- r3;\n  r3 -- r4;\n"
        "}\n"
    )


def test_graph_json_and_opp(capsys):
    code, out, _ = run_cli(capsys, "graph", "--matrix", GOLDEN, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 7 and len(doc["edges"]) == 19
    code, out, _ = run_cli(
        capsys, "graph", "--matrix", GOLDEN, "--opp", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["edges"] == [[1, 3], [6, 7]]


def test_graph_text(capsys):
    code, out, _ = run_cli(capsys, "graph", "--matrix", ID4, "--format", "text")
    assert code == 0
    assert out == "n=4 flavor=plain edges: 1-2 2-3 3-4\n"
    code, out, _ = run_cli(
        capsys, "graph", "--matrix", ID4, "--format", "text", "--cyclic"
    )
    assert code == 0
    assert out == "n=4 flavor=cyclic edges: 1-2 1-4 2-3 3-4\n"
    code, out, _ = run_cli(
        capsys, "graph", "--matrix", ID4, "--format", "text", "--opp", "--cyclic"
    )
    assert code == 0
    assert out == "n=4 flavor=opp edges: 1-3 2-4\n"


def test_blocks_json_is_canonical(capsys):
    code, out, _ = run_cli(capsys, "blocks", "--matrix", GOLDEN)
    assert code == 0
    doc = json.loads(out)
    assert out == canonical_json(doc)
    assert doc["blocks"] == [
        {"cols": {"cyclic": False, "len": 3, "start": 1}, "rows": [1, 3]}
    ]
    code, out, _ = run_cli(capsys, "blocks", "--matrix", GOLDEN, "--cyclic")
    assert code == 0
    cyc = json.loads(out)["blocks"]
    assert {"cols": {"cyclic": True, "len": 2, "start": 7}, "rows": [6, 7]} in cyc


GOLDEN_OUTLINE = """\
+-----------+
| 1   1   1 | 0   0   0   1
+-----------+
  0   1   0   1   0   0   1
+-----------+
| 1   1   1 | 0   1   0   1
+-----------+
  0   1   0   0   1   0   1

  1   1   1   0   0   1   0

  1   0   1   0   0   0   1

  1   0   0   0   1   0   1

block 1: rows {1,3}, cols 1..3
"""

GOLDEN_CYCLIC_OUTLINE = """\
+-----------+           +---+
| 1   1   1 | 0   0   0 | 1 |
+-----------+           +---+
  0   1   0   1   0   0   1
+-----------+           +---+
| 1   1   1 | 0   1   0 | 1 |
+-----------+           +---+
  0   1   0   0   1   0   1

  1   1   1   0   0   1   0
+---+                   +---+
| 1 | 0   1   0   0   0 | 1 |
|   |                   |   |
| 1 | 0   0   0   1   0 | 1 |
+---+                   +---+
block 1: rows {1,3}, cols 7..3 (wraps)
block 2: rows {6,7}, cols 7..1 (wraps)
"""


def test_blocks_text_outline(capsys):
    code, out, _ = run_cli(capsys, "blocks", "--matrix", GOLDEN, "--format", "text")
    assert code == 0
    assert out == GOLDEN_OUTLINE
    code, out, _ = run_cli(
        capsys, "blocks", "--matrix", GOLDEN, "--cyclic", "--format", "text"
    )
    assert code == 0
    assert out == GOLDEN_CYCLIC_OUTLINE


def test_tracks_sigma(capsys):
    code, out, _ = run_cli(
        capsys, "tracks", "--matrix", GOLDEN, "--sigma", "3,1,6,2,4,5,7"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sum"] == "0"
    assert doc["members"][0] == {"rows": [1, 3], "cols": {"start": 1, "len": 2}}


def test_tracks_sigma_zero_entry(capsys):
    code, out, err = run_cli(
        capsys, "tracks", "--matrix", GOLDEN, "--sigma", "1,2,3,4,5,6,7"
    )
    assert code == 2
    assert err


def test_tracks_enumeration_and_bound(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "tracks", "--matrix", ID4)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["tracks"][0]["sum"] == "1"
    code, _, err = run_cli(capsys, "tracks", "--matrix", ID4, "--max-enum", "3")
    assert code == 2 and err
    # the whole stdout on the golden matrix, plain and cyclic, by its digest
    for extra, count, digest in [
        ((), 18, "9535f444cba13dac73314a6163abe070dc50cfac6a786bda5679c808d6d6f20a"),
        (
            ("--cyclic",),
            15,
            "5243537f002c97c620d9998e5927d7db7910aacb0354cb10dc88d7f00eb52797",
        ),
    ]:
        code, out, err = run_cli(capsys, "tracks", "--matrix", GOLDEN, *extra)
        assert code == 0 and err == ""
        assert json.loads(out)["count"] == count
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _seeded_track_matrices():
    """24 seeded 5x5 and 6x6 CSV matrices over GF(2), GF(3) and Q.  Every
    other one has a planted rank-one block: two or three rows proportional
    on a window of columns and zero together on every other column outside
    it, starting next to it, so the rows are null-connected and their
    tracks have minor members."""
    rng = random.Random(909)
    pools = {"gf2": [0, 1, 1], "gf(3)": [0, 1, 2, 2], "q": [0, 1, -1, 2, Fraction(1, 2)]}
    out = []
    for k in range(24):
        field = ("gf2", "gf(3)", "q")[k % 3]
        n = 5 + k // 12
        pool = pools[field]
        rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        if k % 2:
            size = rng.choice((2, 3))
            i, j = rng.randrange(n - size + 1), rng.randrange(n - size)
            nonzero = [v for v in pool if v]
            base = [rng.choice(nonzero) for _ in range(n)]
            for c in [*range(j), *range(j + size, n)]:
                # an odd distance to the window j..j+size-1 means zero
                if (j - c if c < j else c - j - size + 1) % 2:
                    base[c] = 0
            for s in range(size):
                u = rng.choice(nonzero)
                rows[i + s] = [u * x for x in base]
        if field != "q":
            p = 2 if field == "gf2" else 3
            rows = [[x % p for x in row] for row in rows]
        out.append((field, "\n".join(",".join(map(str, row)) for row in rows) + "\n"))
    return out


def test_tracks_output_pinned(capsys, tmp_path):
    # the whole stdout of `tworow tracks`, plain and cyclic, on seeded
    # matrices with and without 1-blocks, by one digest
    digest = hashlib.sha256()
    for k, (field, text) in enumerate(_seeded_track_matrices()):
        path = tmp_path / f"m{k}.csv"
        path.write_text(text)
        for extra in ((), ("--cyclic",)):
            code, out, err = run_cli(
                capsys, "tracks", "--matrix", str(path), "--field", field, *extra
            )
            assert code == 0 and err == ""
            digest.update(out.encode())
    assert digest.hexdigest() == (
        "df7cdf020e32cad87724fdf47c9fce6352589ef07740306b7bc240126a51c03c"
    )


def test_tracks_over_bound_track(capsys, tmp_path):
    # all-ones 8x8 and 2x2 blocks on the diagonal: the one track has
    # 8! * 2! strings, above track_sum's bound, listed or picked by --sigma
    path = tmp_path / "diag.csv"
    path.write_text("".join(
        ",".join("1" if (i < 8) == (j < 8) else "0" for j in range(10)) + "\n"
        for i in range(10)
    ))
    base = ("tracks", "--matrix", str(path), "--field", "gf(3)")
    for extra in (("--max-enum", "10"), ("--sigma", "1,2,3,4,5,6,7,8,9,10")):
        code, out, err = run_cli(capsys, *base, *extra)
        assert code == 2 and out == ""
        assert err == "error: track has 80640 strings, above the bound 8!\n"


def test_track_bound_defaults_to_the_library_bound(capsys, tmp_path):
    # --max-enum falls back to DEFAULT_TRACK_BOUND in both subcommands
    n = DEFAULT_TRACK_BOUND + 1
    path = tmp_path / "id.csv"
    path.write_text("".join(
        ",".join("1" if i == j else "0" for j in range(n)) + "\n" for i in range(n)
    ))
    want = f"error: n={n} exceeds the track enumeration bound {DEFAULT_TRACK_BOUND}\n"
    for argv in (("tracks",), ("det", "--method", "tracks")):
        code, out, err = run_cli(capsys, *argv, "--matrix", str(path))
        assert (code, out, err) == (2, "", want)
    code, out, _ = run_cli(
        capsys, "det", "--method", "tracks", "--matrix", str(path), "--max-enum", str(n)
    )
    assert code == 0 and json.loads(out)["determinant"] == "1"


def test_experiment_mode_choices_are_the_experiment_modes(capsys):
    # the parser lists the modes without importing the harness
    code, out, err = run_cli(
        capsys, "experiment", "--mode", "bogus", "--n", "2", "--q", "2", "--trials", "1"
    )
    choices = ", ".join(repr(m.value) for m in ExperimentMode)
    assert code == 2 and out == ""
    assert err.endswith(f"invalid choice: 'bogus' (choose from {choices})\n")


def test_det_methods(capsys):
    for method, path, want, extra in [
        ("elimination", GOLDEN, "1", ()),
        ("tracks", GOLDEN, "1", ()),
        ("tracks", SINGULAR, "0", ()),
        ("tracks", GOLDEN, "1", ("--cyclic",)),
        ("tracks", SINGULAR, "0", ("--cyclic",)),
        ("tracks", ID4, "1", ("--cyclic",)),
    ]:
        code, out, err = run_cli(
            capsys, "det", "--matrix", path, "--method", method, *extra
        )
        assert code == 0 and err == ""
        assert out == '{"determinant":"%s","method":"%s"}\n' % (want, method)


def test_det_csv_rational(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0,1\n1,0\n")
    code, out, _ = run_cli(capsys, "det", "--matrix", str(path), "--field", "q")
    assert code == 0
    assert json.loads(out)["determinant"] == "-1"


def test_trace_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "trace", "--matrix", GOLDEN)
    assert code == 0
    assert out == "1 2 3 4 6 5 7\n"
    code, out, _ = run_cli(capsys, "trace", "--matrix", SINGULAR, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"order": [1, 2, 3], "closed": False}


def test_trace_absent(capsys, tmp_path):
    path = tmp_path / "star_rows.csv"
    path.write_text("1,1,1,1\n1,0,0,0\n0,0,1,0\n1,0,1,0\n")
    code, _, err = run_cli(capsys, "trace", "--matrix", str(path))
    assert code == 3 and "no traceable" in err


def test_trace_zero_row(capsys, tmp_path):
    # singular, so no order is an answer, not a failure of the search
    path = tmp_path / "zero_row.csv"
    path.write_text("1,0,0\n0,0,0\n0,0,1\n")
    for cyclic in ((), ("--cyclic",)):
        code, _, err = run_cli(capsys, "trace", "--matrix", str(path), *cyclic)
        assert code == 3 and "no traceable" in err


def test_trace_cyclic_identity(capsys):
    code, out, _ = run_cli(capsys, "trace", "--matrix", ID4, "--cyclic")
    assert code == 0
    assert out == "1 2 3 4\n"


def test_realize_command(capsys):
    code, out, _ = run_cli(capsys, "realize", "--graph", STAR13)
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["columns"] == len(doc["matrix"]["rows"][0])


def test_raag_direct(capsys):
    code, _, err = run_cli(capsys, "raag", "--graph", STAR13)
    assert code == 3 and "no Hamiltonian witness" in err


def test_raag_with_basis(capsys, tmp_path, monkeypatch):
    # the basis is checked (one _rank_det) and its support graph built
    # (one null_masks) once per call, and the witness searched on that graph
    calls = []

    def counted(name):
        real = getattr(raag, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(raag, name, wrapper)

    counted("_rank_det")
    counted("null_masks")
    p4 = tmp_path / "p4.txt"
    p4.write_text("1 2\n2 3\n3 4\n")
    code, out, err = run_cli(
        capsys, "raag", "--graph", str(p4), "--basis", ID4
    )
    assert code == 0 and err == ""
    assert out == (
        '{"closed":false,"support":{"edges":[[1,2],[2,3],[3,4]],"n":4},'
        '"witness":[1,2,3,4]}\n'
    )
    assert sorted(calls) == ["_rank_det", "null_masks"]
    calls.clear()
    code, out, err = run_cli(
        capsys, "raag", "--graph", str(p4), "--basis", ID4, "--cyclic"
    )
    assert (code, out, err) == (3, "", "no basis Hamiltonian witness\n")
    assert sorted(calls) == ["_rank_det", "null_masks"]


def test_experiment_deterministic(capsys):
    argv = [
        "experiment", "--mode", "completeness",
        "--n", "2", "--q", "2", "--trials", "50", "--seed", "3",
    ]
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["estimate"]["rational"] == "50/50" or doc["successes"] == 50


def test_error_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, "det", "--matrix", str(tmp_path / "nope.json"))
    assert code == 2 and err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "det", "--matrix", str(bad))
    assert code == 2 and err
    code, _, err = run_cli(capsys, "det", "--matrix", GOLDEN, "--field", "gf(3)")
    assert code == 2 and err
    huge = tmp_path / "huge.txt"
    huge.write_text("4097\n1 2\n")
    code, out, err = run_cli(capsys, "raag", "--graph", str(huge))
    assert code == 2 and out == "" and "above the bound 4096" in err
    # one 10-row track of 10! strings is above track_sum's bound of 8!
    ones = tmp_path / "ones.csv"
    ones.write_text("1,1,1,1,1,1,1,1,1,1\n" * 10)
    code, out, err = run_cli(
        capsys, "tracks", "--matrix", str(ones), "--field", "gf(3)",
        "--sigma", "1,2,3,4,5,6,7,8,9,10",
    )
    assert code == 2 and out == "" and "above the bound 8!" in err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_json_booleans_are_not_integers(capsys, tmp_path):
    # JSON true and false are Python bools, which isinstance(x, int) accepts
    cases = [
        (("det", "--matrix"), {"field": "gf2", "rows": [[True, False], [False, True]]},
         "error: row 1, column 1: entries must be strings\n"),
        (("raag", "--graph"), {"n": True, "edges": []},
         "error: \"n\" must be an integer, got True\n"),
        (("raag", "--graph"), {"n": 3, "edges": [[True, 2], [2, 3]]},
         "error: edge #1: expected a pair of integers, got [True, 2]\n"),
    ]
    for k, (argv, doc, want) in enumerate(cases):
        path = tmp_path / f"doc{k}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out, err) == (2, "", want)
