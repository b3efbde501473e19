"""The benchmark's four workloads: seeded inputs, the timed item, its check.

Inputs are plain Python data made by ``random.Random`` seeded from the
workload name and ``--seed``; the program only ever sees them as canonical
JSON text (items parse it through ``ExactMatrix.from_json_dict``) or as CLI
input files.  Each workload class

* builds its pool of items and CLI cases in ``__init__`` (no tworow calls),
* computes the references and the expected CLI output in ``prepare``
  (untimed),
* runs one item through tworow's public API in ``run`` (timed), sending
  every layer call through ``call(span_name, fn, *args)`` so the traced run
  can put a span around it,
* checks an item's output against the references in ``check``, adding the
  per-layer work counts to ``counts`` when given, and raising
  ``reference.Mismatch`` on any disagreement.

Pools are spread so that every prefix has the same mix of families;
a run cycles through its pool for as long as it measures.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import reference as ref
from reference import expect


def field_name(p: int) -> str:
    return "gf2" if p == 2 else "q" if p == 0 else f"gf({p})"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def matrix_text(p: int, rows) -> str:
    return canonical({"field": field_name(p), "rows": [[str(v) for v in r] for r in rows]})


def graph_text(n: int, edges) -> str:
    return canonical({"n": n, "edges": [list(e) for e in sorted(edges)]})


@dataclass(eq=False)
class Matrix:
    """A generated square matrix: values reduced mod p, Fractions if p == 0."""

    family: str
    p: int
    rows: list
    text: str = ""

    def __post_init__(self) -> None:
        self.rows = [tuple(r) for r in self.rows]
        self.text = matrix_text(self.p, self.rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def det(self):
        return ref.det(self.rows, self.p)


def _nonzero(rng: random.Random, p: int):
    if p:
        return rng.randrange(1, p)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


def _entry(rng: random.Random, p: int):
    if p:
        return rng.randrange(p)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def gl_uniform(rng: random.Random, n: int, p: int, family: str) -> Matrix:
    """Uniform over invertible n x n matrices, by rejection."""
    while True:
        rows = [[_entry(rng, p) for _ in range(n)] for _ in range(n)]
        if ref.det(rows, p):
            return Matrix(family, p, rows)


def permutation(rng: random.Random, n: int, p: int, family: str) -> Matrix:
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, c in enumerate(perm):
        rows[i][c] = _nonzero(rng, p)
    return Matrix(family, p, rows)


def banded(rng: random.Random, n: int, p: int, family: str) -> Matrix:
    """Tridiagonal L*U with unit lower and nonzero-diagonal upper bidiagonal
    factors, so it is invertible by construction."""
    d = [_nonzero(rng, p) for _ in range(n)]
    u = [_nonzero(rng, p) for _ in range(n)]
    low = [_nonzero(rng, p) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = d[i] + (low[i] * u[i - 1] if i else 0)
        if i + 1 < n:
            rows[i][i + 1] = u[i]
            rows[i + 1][i] = low[i + 1] * d[i]
    if p:
        rows = [[v % p for v in r] for r in rows]
    return Matrix(family, p, rows)


def sparse_invertible(rng: random.Random, n: int, p: int, family: str) -> Matrix:
    """A permutation matrix with about n/4 planted nonzeros: the rows and
    columns of an upper-triangular matrix with nonzero diagonal and n/4
    nonzeros above it, shuffled independently, so it is invertible by
    construction."""
    upper = [[0] * n for _ in range(n)]
    for i in range(n):
        upper[i][i] = _nonzero(rng, p)
    for _ in range(n // 4):
        i, j = sorted(rng.sample(range(n), 2))
        upper[i][j] = _nonzero(rng, p)
    rperm, cperm = list(range(n)), list(range(n))
    rng.shuffle(rperm)
    rng.shuffle(cperm)
    rows = [[upper[rperm[i]][cperm[j]] for j in range(n)] for i in range(n)]
    return Matrix(family, p, rows)


def _nonzero_small(rng: random.Random, p: int):
    return rng.randrange(1, p) if p else Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))


def with_zero_row(a: Matrix) -> Matrix:
    return Matrix(a.family + "-singular", a.p, [[0] * a.n] + list(a.rows[1:]))


class CountingRandom(random.Random):
    """A ``random.Random`` that counts the matrix entries drawn from it:
    ``randrange`` draws one entry, ``getrandbits(k)`` called directly draws
    k one-bit entries.  Its stream is that of ``random.Random``."""

    def __init__(self, seed) -> None:
        self.entries = 0
        self._inside = False
        super().__init__(seed)

    def randrange(self, *args, **kwargs):
        self.entries += 1
        self._inside = True
        try:
            return super().randrange(*args, **kwargs)
        finally:
            self._inside = False

    def getrandbits(self, k: int) -> int:
        if not self._inside:
            self.entries += k
        return super().getrandbits(k)


@dataclass
class CliCase:
    """One ``tworow`` call.  ``args`` name input files as ``@name``; the
    expected stdout and exit code come from ``expect(lib)`` in-process."""

    args: list
    files: dict
    expect: object
    stdout: bytes = b""
    code: int = 0


def spread(*groups) -> list:
    """Merge the groups so each is spread evenly over the result: every
    prefix holds each group in about its overall proportion."""
    keyed = [((k + 0.5) / len(g), gi, x) for gi, g in enumerate(groups) for k, x in enumerate(g)]
    return [x for _, _, x in sorted(keyed, key=lambda t: t[:2])]


def _add(counts, **kw) -> None:
    if counts is not None:
        for key, v in kw.items():
            counts[key] = counts.get(key, 0) + v


def _parse(lib, call, text: str):
    return call("matrices.parse", lib.ExactMatrix.from_json_dict, json.loads(text))


def _check_parse(a, m: Matrix, counts) -> None:
    expect(a.m == a.n == m.n and a.raw() == tuple(m.rows), f"{m.family}: parsed matrix differs")
    _add(counts, cells=m.n * m.n)


def _graph_counts(counts, g, n_cols: int, cyclic: bool) -> None:
    pairs = g.n * (g.n - 1) // 2
    windows = n_cols - 1 + (1 if cyclic else 0)
    _add(counts, graph_pairs=pairs, graph_windows=pairs * windows, graph_edges=len(g.edges))


class Workload:
    """Base of the four workloads; ``tiny`` makes a few small items for the
    smoke test.  Every item has a ``family`` naming its kind."""

    name = ""
    # items in the traced pass of a --trace 1 run, and CLI calls after it
    trace_items = 100
    trace_cli = 30

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.items: list = []
        self.cli: list[CliCase] = []
        self.lib = None

    def prepare(self, lib) -> None:
        self.lib = lib
        for case in self.cli:
            stdout, case.code = case.expect(lib)
            case.stdout = stdout.encode()


def _from_text(lib, text: str):
    return lib.ExactMatrix.from_json_dict(json.loads(text))


COMMANDS = {
    "det": ["det"],
    "det-tracks": ["det", "--method", "tracks"],
    "graph": ["graph", "--format", "json"],
    "trace": ["trace", "--format", "json"],
    "blocks": ["blocks"],
    "tracks": ["tracks"],
}


def _matrix_doc(lib, command: str, m: Matrix, cyclic: bool):
    """The CLI's stdout and exit code for `command` on m, computed in-process."""
    a = _from_text(lib, m.text)
    if command == "det":
        return canonical({"determinant": str(lib.determinant(a)), "method": "elimination"}), 0
    if command == "det-tracks":
        return canonical({"determinant": str(lib.det_by_tracks(a, cyclic)), "method": "tracks"}), 0
    if command == "graph":
        return canonical(lib.two_row_graph(a, cyclic).to_json_dict()), 0
    if command == "blocks":
        return canonical(lib.block_partition(a, cyclic).to_json_dict()), 0
    if command == "trace":
        sigma = lib.traceable_ordering(a, cyclic)
        if sigma is None:
            return "", 3
        return canonical({"order": list(sigma.image), "closed": cyclic}), 0
    tracks = lib.complete_tracks(a, cyclic)
    return canonical({"count": len(tracks), "tracks": [{
        "cyclic": t.cyclic,
        "members": [{"rows": list(mb.rows), "cols": {"start": mb.col_start, "len": mb.col_len}}
                    for mb in t.members],
        "sum": str(lib.track_sum(a, t)),
    } for t in tracks]}), 0


def matrix_case(command: str, cyclic: bool, m: Matrix) -> CliCase:
    args = COMMANDS[command] + (["--cyclic"] if cyclic else []) + ["--matrix", "@m.json"]
    return CliCase(args, {"m.json": m.text}, lambda lib: _matrix_doc(lib, command, m, cyclic))


class LargeMatrix(Workload):
    """Large invertible matrices through parse, both two-row graphs, both
    traceable orderings, the block partition and the determinant."""

    name = "large-matrix"
    trace_items = 84
    copies = 6
    # family -> (generator, n, p); tiny runs use n = 6
    families = {
        "gl-gf2": (gl_uniform, 64, 2),
        "gl-gf5": (gl_uniform, 64, 5),
        "identity": (None, 40, 0),
        "perm-gf5": (permutation, 40, 5),
        "band-gf5": (banded, 40, 5),
        "gl-q": (gl_uniform, 32, 0),
        "band-q": (banded, 20, 0),
    }

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        groups = []
        for fam, (gen, n, p) in self.families.items():
            n = 6 if tiny else n
            if gen is None:  # identity over GF(2) and GF(5) in turn
                made = [
                    Matrix(fam, q, [[int(i == j) for j in range(n)] for i in range(n)])
                    for q in (2, 5) * (self.copies // 2)
                ]
            else:
                made = [gen(self.rng, n, p, fam) for _ in range(self.copies)]
            groups.append(made)
        self.items = spread(*groups)
        # every pool matrix through one command in rotation; 8 commands
        # against 7 families, so every family meets every command
        rotation = [("det", False), ("graph", False), ("graph", True), ("trace", False),
                    ("trace", True), ("blocks", False), ("det", False), ("trace", False)]
        self.cli = [matrix_case(*rotation[k % len(rotation)], m)
                    for k, m in enumerate(self.items)]
        # a zero row has degree 0, which the cycle search rejects at once;
        # a path search would instead run exhaustively
        self.cli.append(matrix_case("trace", True, with_zero_row(self.items[0])))

    def prepare(self, lib) -> None:
        super().prepare(lib)
        self.refs = {
            id(m): (
                ref.two_row_edges(m.rows, m.p, False),
                ref.two_row_edges(m.rows, m.p, True),
                ref.null_seed_windows(m.rows, m.p),
                m.det,
            )
            for m in self.items
        }

    def run(self, m: Matrix, call):
        lib = self.lib
        a = _parse(lib, call, m.text)
        return (
            a,
            call("rowgraph.graph", lib.two_row_graph, a, False),
            call("rowgraph.graph", lib.two_row_graph, a, True),
            call("hamilton.trace", lib.traceable_ordering, a, False),
            call("hamilton.trace", lib.traceable_ordering, a, True),
            call("blocks.partition", lib.block_partition, a, False),
            call("matrices.det", lib.determinant, a),
        )

    def check(self, m: Matrix, out, counts) -> None:
        a, g, gc, sigma, sigma_c, part, d = out
        edges, edges_c, seeds, det = self.refs[id(m)]
        _check_parse(a, m, counts)
        expect(g.edges == edges, f"{m.family}: two-row graph differs")
        expect(gc.edges == edges_c, f"{m.family}: cyclic two-row graph differs")
        for s, cyclic in ((sigma, False), (sigma_c, True)):
            expect(s is not None, f"{m.family}: invertible matrix reported untraceable")
            ref.check_order(m.rows, m.p, s.image, cyclic)
        ref.check_partition(m.rows, m.p, part.to_json_dict(), seeds)
        expect(d.value == det, f"{m.family}: determinant {d} != {det}")
        _graph_counts(counts, g, m.n, False)
        _graph_counts(counts, gc, m.n, True)
        _add(counts, found=2, blocks_found=len(part.blocks))

    def canonical(self, m: Matrix, out) -> object:
        _, g, gc, sigma, sigma_c, part, d = out
        return [g.sorted_edges, gc.sorted_edges, sigma.image, sigma_c.image,
                part.to_json_dict(), str(d)]


class SparseTrace(Workload):
    """Sparse invertible matrices whose Hamiltonian search dominates."""

    name = "sparse-trace"
    trace_items = 800
    # n = 22 keeps the memo off (above MEMO_LIMIT) and the search at about
    # 70 % of the time, with a tail light enough for a steady p90 over the
    # 2,500 or so items that one run reaches
    pool = 2600
    n = 22

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        n = 6 if tiny else self.n
        self.items = [
            sparse_invertible(self.rng, n, p, f"sparse-gf{p}")
            for p in (2, 5) * ((12 if tiny else self.pool) // 2)
        ]
        self.cli = [matrix_case("trace", k % 2 == 1, m) for k, m in enumerate(self.items[:50])]
        self.cli.append(matrix_case("trace", True, with_zero_row(self.items[0])))

    def run(self, m: Matrix, call):
        lib = self.lib
        a = _parse(lib, call, m.text)
        return (
            a,
            call("hamilton.trace", lib.traceable_ordering, a, False),
            call("hamilton.trace", lib.traceable_ordering, a, True),
        )

    def check(self, m: Matrix, out, counts) -> None:
        a, sigma, sigma_c = out
        _check_parse(a, m, counts)
        for s, cyclic in ((sigma, False), (sigma_c, True)):
            expect(s is not None, f"{m.family}: invertible matrix reported untraceable")
            ref.check_order(m.rows, m.p, s.image, cyclic)
        _add(counts, found=2)

    def canonical(self, m: Matrix, out) -> object:
        return [out[1].image, out[2].image]


@dataclass
class GraphCheck:
    family: str
    n: int
    edges: frozenset
    p: int
    identity: str
    q_basis: Matrix | None
    rng_seed: str
    ham: bool = False
    ham_c: bool = False


@dataclass
class Realization:
    family: str
    n: int
    edges: frozenset


@dataclass
class Experiment:
    family: str
    n: int
    q: int
    trials: int
    seed: int
    mode: str
    expected: int = -1


def all_graphs(max_n: int):
    """Every labelled simple graph on 1..n vertices, n = 1..max_n."""
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            yield n, frozenset(e for k, e in enumerate(pairs) if mask >> k & 1)


def _graph(lib, n: int, edges):
    return lib.SimplicialGraph.of(n, edges)


def random_graph(rng: random.Random, n: int, density: float) -> frozenset:
    return frozenset(e for e in combinations(range(1, n + 1), 2) if rng.random() < density)


class SmallSweep(Workload):
    """The paper's exhaustive-verification traffic: thousands of tiny calls."""

    name = "small-sweep"
    trace_items = 1620
    experiment_trials = 12

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        rng = self.rng
        checks, realizations, experiments = [], [], []
        for k, (n, edges) in enumerate(all_graphs(3 if tiny else 5)):
            p = 0 if k % 8 == 7 else 3 if k % 8 == 3 else 2
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            checks.append(GraphCheck(
                "graph-check", n, edges, p, matrix_text(p, ident),
                gl_uniform(rng, n, 0, "q-basis") if p == 0 else None,
                f"{self.name}:{seed}:{k}",
            ))
            # the random realizations are the heaviest items; at a sixth of
            # all items they hold p90 well inside their own spread of costs
            if k % 8 == 1:
                realizations.append(Realization("realize-small", n, edges))
            elif k % 4 == 3:
                big = 8 + len(realizations) % 9
                realizations.append(Realization("realize-random", big, random_graph(rng, big, 0.4)))
            if k % 10 == 9:
                j = k // 10
                experiments.append(Experiment(
                    "experiment", 3 + j % 6, (2, 3, 5)[j % 3], self.experiment_trials,
                    rng.randrange(1 << 30), ("completeness", "hamiltonicity-sweep")[j % 2],
                ))
        self.items = spread(checks, realizations, experiments)

        cycle = list(range(1, 6))
        rng.shuffle(cycle)
        ham5 = frozenset((min(a, b), max(a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        star = (4, frozenset({(1, 2), (1, 3), (1, 4)}))
        big = random_graph(rng, 12, 0.4)
        basis = gl_uniform(rng, 5, 2, "gf2-basis")
        files = {"g.json": graph_text(5, ham5)}
        exp = (4, 3, 20, rng.randrange(1 << 30))
        self.cli = [
            CliCase(["raag", "--graph", "@g.json"], files,
                    lambda lib: self._raag_doc(lib, 5, ham5, False)),
            CliCase(["raag", "--graph", "@g.json", "--cyclic"], files,
                    lambda lib: self._raag_doc(lib, 5, ham5, True)),
            CliCase(["raag", "--graph", "@g.json"], {"g.json": graph_text(*star)},
                    lambda lib: self._raag_doc(lib, *star, False)),
            CliCase(["raag", "--graph", "@g.json", "--basis", "@b.json"],
                    dict(files, **{"b.json": basis.text}),
                    lambda lib: self._basis_doc(lib, ham5, basis)),
            CliCase(["realize", "--graph", "@g.json"], {"g.json": graph_text(12, big)},
                    lambda lib: self._realize_doc(lib, 12, big)),
            CliCase(["experiment", "--mode", "completeness", "--n", str(exp[0]),
                     "--q", str(exp[1]), "--trials", str(exp[2]), "--seed", str(exp[3])], {},
                    lambda lib: (canonical(lib.run_experiment(lib.ExperimentConfig(
                        *exp, lib.ExperimentMode("completeness"))).to_json_dict()), 0)),
        ]

    def _raag_doc(self, lib, n, edges, cyclic):
        w = lib.graph_hamiltonicity(_graph(lib, n, edges), cyclic)
        if w is None:
            return "", 3
        return canonical({"witness": list(w.order), "closed": w.closed}), 0

    def _basis_doc(self, lib, edges, basis: Matrix):
        b = lib.BasisMatrix(_from_text(lib, basis.text))
        t = lib.cup_pairing(_graph(lib, basis.n, edges), b.a.spec)
        sigma = lib.basis_hamiltonian_witness(t, b, False)
        if sigma is None:
            return "", 3
        support = lib.basis_support_graph(t, b).to_json_dict()
        return canonical({"witness": list(sigma.image), "closed": False, "support": support}), 0

    def _realize_doc(self, lib, n, edges):
        g = _graph(lib, n, edges)
        r = lib.realize(g)
        doc = r.to_json_dict()
        doc["columns"] = r.a.n
        doc["verified"] = lib.verify_realization(g, r)
        return canonical(doc), 0

    def prepare(self, lib) -> None:
        super().prepare(lib)
        for item in self.items:
            if isinstance(item, GraphCheck):
                item.ham = ref.hamiltonian(item.n, item.edges, False)
                item.ham_c = ref.hamiltonian(item.n, item.edges, True)
            elif isinstance(item, Experiment) and item.mode == "completeness":
                full = item.n * (item.n - 1) // 2
                samples = [lib.sample_gl(item.n, item.q, lib.trial_rng(item.seed, t))
                           for t in range(item.trials)]
                item.expected = sum(
                    len(ref.two_row_edges(a.raw(), item.q, False)) == full for a in samples
                )
            elif isinstance(item, Experiment):
                item.expected = item.trials

    def run(self, item, call):
        lib = self.lib
        if isinstance(item, Realization):
            g = _graph(lib, item.n, item.edges)
            r = call("realize.realize", lib.realize, g)
            return r, call("realize.verify", lib.verify_realization, g, r)
        if isinstance(item, Experiment):
            cfg = lib.ExperimentConfig(item.n, item.q, item.trials, item.seed,
                                       lib.ExperimentMode(item.mode))
            return (call("harness.experiment", lib.run_experiment, cfg),)
        g = _graph(lib, item.n, item.edges)
        ident = _parse(lib, call, item.identity)
        spec = ident.spec
        bases = [(ident, None)]
        if item.q_basis is not None:
            bases.append((_parse(lib, call, item.q_basis.text), None))
        else:
            rng = CountingRandom(item.rng_seed)
            for _ in range(2):
                before = rng.entries
                a = call("harness.sample", lib.sample_gl, item.n, item.p, rng)
                bases.append((a, rng.entries - before))
        t = lib.cup_pairing(g, spec)
        per_basis = []
        for a, drawn in bases:
            b = lib.BasisMatrix(a)
            per_basis.append((
                a, drawn,
                call("raag.support", lib.basis_support_graph, t, b),
                call("raag.witness", lib.basis_hamiltonian_witness, t, b, False),
                call("raag.witness", lib.basis_hamiltonian_witness, t, b, True),
            ))
        return (
            per_basis,
            call("hamilton.search", lib.graph_hamiltonicity, g, False),
            call("hamilton.search", lib.graph_hamiltonicity, g, True),
        )

    def check(self, item, out, counts) -> None:
        if isinstance(item, Realization):
            r, verified = out
            a = r.a
            expect(verified is True, f"{item.family}: verify_realization rejected")
            expect(a.n == self.lib.expected_columns(_graph(self.lib, item.n, item.edges)),
                   f"{item.family}: column count differs from expected_columns")
            expect(a.m == item.n and all(v in (0, 1) for row in a.raw() for v in row),
                   f"{item.family}: realization is not a 0/1 matrix on n rows")
            if item.n > 1:
                expect(ref.two_row_edges(a.raw(), 2, False) == item.edges,
                       f"{item.family}: realized graph differs")
            _add(counts, columns=a.n)
            return
        if isinstance(item, Experiment):
            (rep,) = out
            expect(rep.total == item.trials and rep.successes == item.expected,
                   f"experiment {item.mode}: {rep.successes}/{rep.total}, "
                   f"expected {item.expected}/{item.trials}")
            _add(counts, trials=item.trials)
            return
        per_basis, w, w_c = out
        n = item.n
        for k, (a, drawn, support, sigma, sigma_c) in enumerate(per_basis):
            if k == 0:
                expect(a.raw() == tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
                       "identity basis parsed wrong")
                edges, ham, ham_c = item.edges, item.ham, item.ham_c
                expect(support.edges == edges, "support graph at the identity basis differs")
                _add(counts, cells=n * n)
            else:
                rows = a.raw()
                expect(a.m == a.n == n and ref.det(rows, item.p), "basis is not invertible")
                edges = ref.support_edges(rows, item.edges, item.p)
                expect(support.edges == edges, "support graph differs")
                ham, ham_c = ref.hamiltonian(n, edges, False), ref.hamiltonian(n, edges, True)
                # the paper: a Hamiltonian graph gives a witness at every basis
                expect(ham >= item.ham and ham_c >= item.ham_c,
                       "Hamiltonian graph lost its witness at a basis")
                if drawn is None:
                    expect(rows == tuple(item.q_basis.rows), "rational basis parsed wrong")
                    _add(counts, cells=n * n)
                else:
                    rounds, rest = divmod(drawn, n * n)
                    expect(rounds >= 1 and rest == 0, f"sample_gl drew {drawn} entries")
                    _add(counts, samples=1, rounds=rounds)
            for s, closed, exists in ((sigma, False, ham), (sigma_c, True, ham_c)):
                expect((s is not None) == exists, "basis witness disagrees with Hamiltonicity")
                if s is not None:
                    ref.check_walk(edges, n, s.image, closed)
            _add(counts, support_pairs=n * (n - 1) // 2, support_edges=len(support.edges))
        for s, closed, exists in ((w, False, item.ham), (w_c, True, item.ham_c)):
            expect((s is not None) == exists, "graph witness disagrees with Hamiltonicity")
            if s is not None:
                expect(s.closed == closed, "witness has the wrong closure")
                ref.check_walk(item.edges, n, s.order, closed)
        _add(counts, found=(w is not None) + (w_c is not None))

    def canonical(self, item, out) -> object:
        if isinstance(item, Realization):
            return [out[0].to_json_dict(), out[1]]
        if isinstance(item, Experiment):
            return out[0].to_json_dict()
        per_basis, w, w_c = out
        return [
            [[str(v) for r in a.raw() for v in r], s.sorted_edges,
             sigma and sigma.image, sigma_c and sigma_c.image]
            for a, _, s, sigma, sigma_c in per_basis
        ] + [w and w.order, w_c and w_c.order]


class TrackEnum(Workload):
    """Factorial track enumeration: det_by_tracks, complete_tracks and
    track_sum on small matrices, plain and cyclic."""

    name = "track-enum"
    trace_items = 100
    # family -> (n, p, zero cells).  A fixed zero count keeps a family's
    # items within about a quarter of each other in cost, and the three
    # n = 6 families cost about the same, which puts p50 inside their joint
    # spread.  The heavy n = 7 GF(2) family holds a quarter of the items,
    # which puts p90 inside its spread.  Over GF(2) the zeros make null-connected rows, hence 1-blocks
    # and wide tracks; over GF(3) and Q they rarely do.
    families = {
        "gf2-6": (6, 2, 7),
        "gf3-6": (6, 3, 7),
        "q-6": (6, 0, 8),
        "gf2-7": (7, 2, 14),
    }
    copies = 60

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        groups = []
        for fam, (n, p, zeros) in self.families.items():
            n, zeros, copies = (4, 3, 2) if tiny else (n, zeros, self.copies)
            groups.append([self._draw(fam, n, p, zeros) for _ in range(copies)])
        self.items = spread(*groups)
        # the first 40 matrices through one command in rotation; 5 commands
        # against 4 families, so every family meets every command
        rotation = [("det-tracks", False), ("tracks", False), ("tracks", True),
                    ("det-tracks", True), ("tracks", False)]
        self.cli = [matrix_case(*rotation[k % len(rotation)], m)
                    for k, m in enumerate(self.items[:40])]
        # over the enumeration bound: an input error, exit 2 and no output
        over = matrix_case("det-tracks", False, self.items[0])
        over.args[-2:-2] = ["--max-enum", "3"]
        over.expect = lambda lib: ("", 2)
        self.cli.append(over)

    def _draw(self, fam: str, n: int, p: int, zero_cells: int) -> Matrix:
        rng = self.rng
        cells = [(i, j) for i in range(n) for j in range(n)]
        while True:
            zeros = set(rng.sample(cells, zero_cells))
            rows = [[0 if (i, j) in zeros else _nonzero_small(rng, p) for j in range(n)]
                    for i in range(n)]
            if ref.det(rows, p):
                return Matrix(fam, p, rows)

    def run(self, m: Matrix, call):
        lib = self.lib
        a = _parse(lib, call, m.text)
        out = [a]
        for cyclic in (False, True):
            tracks = call("blocks.enum", lib.complete_tracks, a, cyclic)
            sums = call("blocks.track_sum", lambda: [lib.track_sum(a, t) for t in tracks])
            out.append((tracks, sums, call("blocks.det_by_tracks", lib.det_by_tracks, a, cyclic)))
        return out

    def check(self, m: Matrix, out, counts) -> None:
        a, *per_flavor = out
        det = m.det
        _check_parse(a, m, counts)
        for tracks, sums, d in per_flavor:
            expect(d.value == det, f"{m.family}: det_by_tracks {d} != {det}")
            expect(len(set(tracks)) == len(tracks), f"{m.family}: repeated track")
            total = 0
            for t, s in zip(tracks, sums):
                expect(t.is_complete(m.n), f"{m.family}: incomplete track")
                if t.has_minor:
                    expect(not s.value, f"{m.family}: wide track sums to {s}")
                total += s.value
            expect((total % m.p if m.p else total) == det, f"{m.family}: track sums != det")
            _add(counts, tracks=len(tracks), wide=sum(t.has_minor for t in tracks))

    def canonical(self, m: Matrix, out) -> object:
        return [[[len(t.members) for t in tracks], [str(s) for s in sums], str(d)]
                for tracks, sums, d in out[1:]]


WORKLOADS = {w.name: w for w in (LargeMatrix, SparseTrace, SmallSweep, TrackEnum)}
