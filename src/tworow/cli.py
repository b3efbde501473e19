"""Command-line entry point.

One subcommand per pipeline: graph, blocks, tracks, det, trace, realize,
raag, experiment.  Machine-readable JSON goes to standard output (canonical
form: sorted keys, compact separators); diagnostics go to standard error.

Exit codes: 0 success / witness found; 3 decision negative (no path, cycle,
or witness); 2 input error (parse failures, size bounds, bad flags);
1 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import AssertionFailure, ParseError, TwoRowError

# Each handler imports the modules it runs, so that one call loads only its
# own part of the pipeline; these names serve the annotations alone.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .blocks import OneTrack
    from .matrices import ExactMatrix, RowPermutation
    from .rowgraph import SimplicialGraph

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_NEGATIVE = 3


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc


def load_matrix(path: str, field: str | None) -> ExactMatrix:
    """JSON documents carry their own field; CSV needs --field (default gf2)."""
    from .fields import GF2, parse_field
    from .matrices import ExactMatrix, matrix_from_csv_text

    text = _read_text(path)
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        a = ExactMatrix.from_json_dict(obj)
        if field is not None and parse_field(field) != a.spec:
            raise ParseError(
                f"--field {field} conflicts with matrix file field {a.spec.name}"
            )
        return a
    return matrix_from_csv_text(text, parse_field(field) if field else GF2)


def load_graph(path: str):
    from .rowgraph import graph_from_text

    return graph_from_text(_read_text(path))


def _parse_sigma(text: str) -> RowPermutation:
    from .matrices import RowPermutation

    parts = text.replace(",", " ").split()
    try:
        image = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"bad permutation {text!r}: integers expected") from exc
    return RowPermutation(image)


def _emit(doc: dict) -> None:
    from .matrices import canonical_json

    sys.stdout.write(canonical_json(doc))


def _track_json(track: OneTrack) -> dict:
    return {
        "cyclic": track.cyclic,
        "members": [
            {"rows": list(m.rows), "cols": {"start": m.col_start, "len": m.col_len}}
            for m in track.members
        ],
    }


def _render_graph(g: SimplicialGraph, flavor: str, fmt: str) -> int:
    """Write g as DOT, JSON or one text line; flavor names which graph of
    the matrix it is: plain, cyclic or opp."""
    if fmt == "dot":
        lines = ["graph rowgraph {", f"  // flavor={flavor} n={g.n}"]
        lines += [f"  r{i};" for i in range(1, g.n + 1)]
        lines += [f"  r{i} -- r{j};" for i, j in g.sorted_edges]
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
    elif fmt == "json":
        _emit(g.to_json_dict())
    else:
        edges = " ".join(f"{i}-{j}" for i, j in g.sorted_edges)
        sys.stdout.write(f"n={g.n} flavor={flavor} edges: {edges}\n")
    return EXIT_OK


def cmd_graph(args) -> int:
    from .rowgraph import opp_graph, two_row_graph

    a = load_matrix(args.matrix, args.field)
    if args.opp:
        return _render_graph(opp_graph(a, args.cyclic), "opp", args.format)
    flavor = "cyclic" if args.cyclic else "plain"
    return _render_graph(two_row_graph(a, args.cyclic), flavor, args.format)


def _block_outline_text(a: ExactMatrix, partition) -> str:
    """Matrix grid with ASCII boxes around 1-blocks; wrapped cyclic blocks
    show as two outlined regions, flagged in the legend."""
    n = a.n
    cells = [[str(v) for v in row] for row in a.raw()]
    width = max(len(s) for row in cells for s in row)
    cw = width + 2
    owner = partition.owner
    height = 2 * a.m + 1
    span = n * (cw + 1) + 1
    horiz: set[tuple[int, int]] = set()
    vert: set[tuple[int, int]] = set()
    for i, row in enumerate(owner):
        for j, b in enumerate(row):
            if b < 0:
                continue
            top, bottom = 2 * i, 2 * i + 2
            left, right = j * (cw + 1), (j + 1) * (cw + 1)
            if i == 0 or owner[i - 1][j] != b:
                horiz.update((top, c) for c in range(left, right + 1))
            if i + 1 == a.m or owner[i + 1][j] != b:
                horiz.update((bottom, c) for c in range(left, right + 1))
            if j == 0 or row[j - 1] != b:
                vert.update((r, left) for r in range(top, bottom + 1))
            if j + 1 == n or row[j + 1] != b:
                vert.update((r, right) for r in range(top, bottom + 1))
    canvas = [[" "] * span for _ in range(height)]
    for r, c in horiz:
        canvas[r][c] = "-"
    for r, c in vert:
        canvas[r][c] = "+" if (r, c) in horiz else "|"
    for i in range(1, a.m + 1):
        for j in range(1, n + 1):
            text = cells[i - 1][j - 1].rjust(width)
            start = (j - 1) * (cw + 1) + 2
            for k, ch in enumerate(text):
                canvas[2 * i - 1][start + k] = ch
    lines = ["".join(row).rstrip() for row in canvas]
    for k, b in enumerate(partition.blocks, start=1):
        last = (b.col_start - 1 + b.col_len - 1) % n + 1
        wraps = " (wraps)" if b.col_start + b.col_len > n + 1 else ""
        rows = ",".join(str(r) for r in b.rows)
        lines.append(f"block {k}: rows {{{rows}}}, cols {b.col_start}..{last}{wraps}")
    return "\n".join(lines) + "\n"


def cmd_blocks(args) -> int:
    from .blocks import block_partition

    a = load_matrix(args.matrix, args.field)
    partition = block_partition(a, args.cyclic)
    if args.format == "text":
        sys.stdout.write(_block_outline_text(a, partition))
    else:
        _emit(partition.to_json_dict())
    return EXIT_OK


def _track_bound(args) -> int:
    """--max-enum, or the library's bound when it is not given."""
    from .blocks import DEFAULT_TRACK_BOUND

    return DEFAULT_TRACK_BOUND if args.max_enum is None else args.max_enum


def cmd_tracks(args) -> int:
    from .blocks import complete_tracks, track_of_string, track_sum

    a = load_matrix(args.matrix, args.field)
    if args.sigma:
        sigma = _parse_sigma(args.sigma)
        track = track_of_string(a, sigma, args.cyclic)
        doc = _track_json(track)
        doc["sum"] = str(track_sum(a, track))
        _emit(doc)
        return EXIT_OK
    tracks = complete_tracks(a, args.cyclic, _track_bound(args))
    _emit(
        {
            "count": len(tracks),
            "tracks": [dict(_track_json(t), sum=str(track_sum(a, t))) for t in tracks],
        }
    )
    return EXIT_OK


def cmd_det(args) -> int:
    a = load_matrix(args.matrix, args.field)
    if args.method == "tracks":
        from .blocks import det_by_tracks

        value = det_by_tracks(a, args.cyclic, _track_bound(args))
    else:
        from .matrices import determinant

        value = determinant(a)
    _emit({"determinant": str(value), "method": args.method})
    return EXIT_OK


def cmd_trace(args) -> int:
    from .hamilton import traceable_ordering

    a = load_matrix(args.matrix, args.field)
    sigma = traceable_ordering(a, args.cyclic)
    if sigma is None:
        print("no traceable row ordering", file=sys.stderr)
        return EXIT_NEGATIVE
    if args.format == "json":
        _emit({"order": list(sigma.image), "closed": args.cyclic})
    else:
        sys.stdout.write(" ".join(str(v) for v in sigma.image) + "\n")
    return EXIT_OK


def cmd_realize(args) -> int:
    from .realize import realize, verify_realization

    graph = load_graph(args.graph)
    result = realize(graph)
    ok = verify_realization(graph, result)
    doc = result.to_json_dict()
    doc["columns"] = result.a.n
    doc["verified"] = ok
    _emit(doc)
    if not ok:
        print("realization failed verification", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_raag(args) -> int:
    from .hamilton import graph_hamiltonicity
    from .raag import BasisMatrix, basis_support_graph, cup_pairing

    graph = load_graph(args.graph)
    if args.basis is None:
        witness = graph_hamiltonicity(graph, args.cyclic)
        if witness is None:
            print("no Hamiltonian witness in the graph", file=sys.stderr)
            return EXIT_NEGATIVE
        _emit({"witness": list(witness.order), "closed": witness.closed})
        return EXIT_OK
    basis = BasisMatrix(load_matrix(args.basis, args.field))
    triple = cup_pairing(graph, basis.a.spec)
    support = basis_support_graph(triple, basis)
    witness = graph_hamiltonicity(support, args.cyclic)
    if witness is None:
        print("no basis Hamiltonian witness", file=sys.stderr)
        return EXIT_NEGATIVE
    _emit(
        {
            "witness": list(witness.order),
            "closed": args.cyclic,
            "support": support.to_json_dict(),
        }
    )
    return EXIT_OK


def cmd_experiment(args) -> int:
    from .harness import ExperimentConfig, ExperimentMode, run_experiment

    cfg = ExperimentConfig(
        n=args.n,
        q=args.q,
        trials=args.trials,
        seed=args.seed,
        mode=ExperimentMode(args.mode),
    )
    report = run_experiment(cfg)
    _emit(report.to_json_dict())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tworow",
        description="Two-row graphs of exact matrices: decomposition, "
        "traceability, realization, pairing checks, and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_flags(p):
        p.add_argument("--matrix", required=True, help="matrix file (JSON or CSV)")
        p.add_argument("--field", help="field name for CSV input: gf2, gf(p), q")
        p.add_argument("--cyclic", action="store_true", help="use the cyclic column order")

    p = sub.add_parser("graph", help="two-row graph of a matrix")
    add_matrix_flags(p)
    p.add_argument("--opp", action="store_true", help="null-connectedness graph")
    p.add_argument("--format", choices=["dot", "json", "text"], default="dot")
    p.set_defaults(handler=cmd_graph)

    p = sub.add_parser("blocks", help="1-block partition of a matrix")
    add_matrix_flags(p)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(handler=cmd_blocks)

    p = sub.add_parser("tracks", help="complete 1-tracks and their sums")
    add_matrix_flags(p)
    p.add_argument("--sigma", help="row permutation image, e.g. '2,1,3'")
    p.add_argument(
        "--max-enum",
        type=int,
        help="size bound for the factorial-cost enumeration",
    )
    p.set_defaults(handler=cmd_tracks)

    p = sub.add_parser("det", help="determinant, by elimination or by tracks")
    add_matrix_flags(p)
    p.add_argument("--method", choices=["elimination", "tracks"], default="elimination")
    p.add_argument("--max-enum", type=int)
    p.set_defaults(handler=cmd_det)

    p = sub.add_parser("trace", help="row order making the matrix square-traceable")
    add_matrix_flags(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(handler=cmd_trace)

    p = sub.add_parser("realize", help="matrix whose two-row graph is a given graph")
    p.add_argument("--graph", required=True, help="graph file (JSON or edge list)")
    p.set_defaults(handler=cmd_realize)

    p = sub.add_parser("raag", help="Hamiltonian witnesses through the pairing")
    p.add_argument("--graph", required=True, help="graph file (JSON or edge list)")
    p.add_argument("--basis", help="basis matrix file; omit for the direct search")
    p.add_argument("--field", help="field for a CSV basis file")
    p.add_argument("--cyclic", action="store_true", help="require a closed witness")
    p.set_defaults(handler=cmd_raag)

    p = sub.add_parser("experiment", help="randomized sampling experiments")
    p.add_argument(
        "--mode",
        choices=["completeness", "hamiltonicity-sweep"],  # ExperimentMode values
        required=True,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except AssertionFailure as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except TwoRowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
