"""Seeded benchmark of tworow: every layer's public calls and the CLI.

Run from the repository root:

    python3 bench/run.py --workload large-matrix --seed 0 --seconds 22 --trace 0

The workloads are ``large-matrix``, ``sparse-trace``, ``small-sweep`` and
``track-enum`` (see ``workloads.py`` and ``README.md``).  One process runs a
closed loop with one item in flight: an in-process item through the public
API, or one ``python -m tworow.cli`` subprocess; 100 CLI calls are paced
evenly over the run and items fill the time between them.  Every output is
checked against references computed at set-up.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
list of items untraced and then traced, records a span around every layer
call, writes the spans under ``.bench_work/`` and prints the per-layer
metrics.  The metric names and units come from ``BENCHMARK.json``.  The last
line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from reference import Mismatch
from workloads import WORKLOADS, canonical

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
MIN_SAMPLES = 100  # p90 needs ten samples beyond it
ITEM_BUDGET_S = 5.0
CLI_TIMEOUT_S = 30.0
HARD_CAP_S = 140.0
IMPORT_SAMPLES = 5
PROBE_LOOPS = 2000
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 1.0
# The probe kernel's time on the reference host (Intel Xeon model 207, KVM
# guest with 2 vCPUs) when its CPU runs at full speed.
PROBE_REF_S = 200e-6


class OverBudget(Exception):
    """An item ran past ITEM_BUDGET_S."""


def _alarm(signum, frame):
    raise OverBudget(f"item exceeded its {ITEM_BUDGET_S} s budget")


def direct(name, fn, *args):
    return fn(*args)


def _probe_kernel() -> int:
    acc, table = 0, {}
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) % 1000003
        table[i & 63] = acc
    return acc


class SpeedProbe:
    """The host's CPU speed over time, from a fixed pure-Python kernel run
    between samples at most every PROBE_EVERY_S.

    Shared hosts slow the CPU by up to half for seconds at a time, evenly
    across code, which moves every wall-clock figure together.  Each timing
    is therefore scaled to the reference speed: multiplied by PROBE_REF_S
    over the mean kernel time within PROBE_WINDOW_S of it (its slowest tenth
    dropped, as preemption spikes).  The kernel is benchmark code, so the
    scale is the same for any version of the program.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def tick(self, force: bool = False) -> None:
        if force or not self.times or perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            start = perf_counter()
            _probe_kernel()
            end = perf_counter()
            self.times.append((start + end) / 2)
            self.durations.append(end - start)

    def scaled(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, at the reference speed."""
        mid = start + seconds / 2
        lo = bisect.bisect_left(self.times, mid - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, mid + PROBE_WINDOW_S)
        if hi - lo < 5:
            at = bisect.bisect_left(self.times, mid)
            lo, hi = max(0, at - 5), at + 5
        window = sorted(self.durations[lo:hi])
        kept = window[: len(window) - len(window) // 10]
        return seconds * PROBE_REF_S / statistics.fmean(kept)


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, item id)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.item = -1

    def call(self, name, fn, *args):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[idx] = (name, start, perf_counter(), parent, self.item)
            self.stack.pop()

    def summary(self, probe: SpeedProbe) -> dict:
        """Per span name and per layer (the name's first dotted part):
        span count, busy time and self time (busy minus child spans), at
        the reference speed."""
        spent = [probe.scaled(start, end - start) for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for k, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += spent[k]
        names: dict = {}
        layers: dict = {}
        for k, (name, _, _, _, _) in enumerate(self.spans):
            busy = spent[k]
            for key, table in ((name, names), (name.split(".")[0], layers)):
                row = table.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "max_s": 0.0})
                row["calls"] += 1
                row["busy_s"] += busy
                row["self_s"] += busy - child[k]
                row["max_s"] = max(row["max_s"], busy)
        return {"names": names, "layers": layers}


def fresh_import():
    for name in [m for m in sys.modules if m == "tworow" or m.startswith("tworow.")]:
        del sys.modules[name]
    lib = importlib.import_module("tworow")
    if not Path(lib.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported tworow from {lib.__file__}, not from {SRC}")
    return lib


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def write_cli_inputs(wl, workdir: Path) -> list:
    argvs = []
    for k, case in enumerate(wl.cli):
        d = workdir / f"case{k}"
        d.mkdir(parents=True, exist_ok=True)
        for name, text in case.files.items():
            (d / name).write_text(text)
        args = [str(d / a[1:]) if a.startswith("@") else a for a in case.args]
        argvs.append([sys.executable, "-m", "tworow.cli"] + args)
    return argvs


def run_cli(argv, env):
    """(latency, completed process or None on timeout)."""
    start = perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return perf_counter() - start, None
    return perf_counter() - start, proc


def setup(cls, seed: int, tiny: bool, workdir: Path, env, probe: SpeedProbe):
    """Import tworow afresh, generate the inputs, write the CLI input files
    and warm up the in-process and CLI paths, probing the host speed between
    the steps.  Returns (start, seconds, workload, CLI argument vectors)."""
    start = perf_counter()
    lib = fresh_import()
    probe.tick(force=True)
    wl = cls(seed, tiny)
    probe.tick(force=True)
    argvs = write_cli_inputs(wl, workdir)
    wl.lib = lib
    wl.run(wl.items[0], direct)
    probe.tick(force=True)
    run_cli(argvs[0], env)
    return start, perf_counter() - start, wl, argvs


class Runner:
    """Runs items and CLI calls, checks them and keeps the tallies."""

    def __init__(self, wl, argvs, env, probe: SpeedProbe) -> None:
        self.wl, self.argvs, self.env, self.probe = wl, argvs, env, probe
        self.attempted = self.failed = self.wrong = 0
        self.sha = hashlib.sha256()
        self.hashed_items = self.hashed_cli = 0
        self.errors: list[str] = []

    def _fail(self, what: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.errors) < 5:
            self.errors.append(what)

    def item(self, item, tracer=None, counts=None) -> tuple[float, float]:
        """Run one item under the budget (in an `item` span when traced)
        and check it, adding its work counts to `counts`; returns its start
        and latency."""
        wl = self.wl
        self.attempted += 1
        out = None
        self.probe.tick()
        signal.setitimer(signal.ITIMER_REAL, ITEM_BUDGET_S)
        start = perf_counter()
        try:
            out = tracer.call("item", wl.run, item, tracer.call) if tracer else wl.run(item, direct)
        except OverBudget as exc:
            self._fail(f"{item.family}: {exc}", wrong=False)
        except Exception as exc:  # any raise on a valid input is a failure
            self._fail(f"{item.family}: {type(exc).__name__}: {exc}", wrong=True)
        finally:
            latency = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        if out is not None:
            try:
                wl.check(item, out, counts)
            except Mismatch as exc:
                self._fail(f"{item.family}: {exc}", wrong=True)
                out = None
        if self.hashed_items < MIN_SAMPLES:
            self.hashed_items += 1
            self.sha.update(canonical(None if out is None else wl.canonical(item, out)).encode())
        return start, latency

    def cli(self, k: int, tracer=None) -> tuple[float, float]:
        """Run CLI case k (cyclically), compare stdout byte for byte;
        returns its start and latency."""
        case = self.wl.cli[k % len(self.wl.cli)]
        argv = self.argvs[k % len(self.argvs)]
        self.attempted += 1
        self.probe.tick()
        start = perf_counter()
        latency, proc = (tracer.call("cli.call", run_cli, argv, self.env) if tracer
                         else run_cli(argv, self.env))
        if proc is None:
            self._fail(f"CLI timed out: {argv[3:]}", wrong=False)
        elif proc.returncode != case.code or proc.stdout != case.stdout:
            self._fail(f"CLI {argv[3:]}: exit {proc.returncode}, expected {case.code}; "
                       f"stdout {'matches' if proc.stdout == case.stdout else 'differs'}",
                       wrong=True)
        if self.hashed_cli < MIN_SAMPLES:
            self.hashed_cli += 1
            self.sha.update(b"cli %d\n" % (-1 if proc is None else proc.returncode))
            self.sha.update(b"" if proc is None else proc.stdout)
        return start, latency


def quantile(xs, q: float) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def measure(runner: Runner, seconds: float) -> dict:
    """Closed loop for `seconds` of busy time: MIN_SAMPLES CLI calls paced
    evenly over it, items in between, and at least MIN_SAMPLES items."""
    wl = runner.wl
    items, calls = [], []
    busy = 0.0
    wall = perf_counter()
    while perf_counter() - wall < HARD_CAP_S:
        if busy >= seconds and len(items) >= MIN_SAMPLES and len(calls) >= MIN_SAMPLES:
            break
        if len(calls) < MIN_SAMPLES and len(calls) <= MIN_SAMPLES * busy / seconds:
            calls.append(runner.cli(len(calls)))
            busy += calls[-1][1]
        else:
            items.append(runner.item(wl.items[len(items) % len(wl.items)]))
            busy += items[-1][1]
    runner.probe.tick(force=True)
    item_lat = [runner.probe.scaled(*x) for x in items]
    cli_lat = [runner.probe.scaled(*x) for x in calls]
    raw_items = len(items) / sum(lat for _, lat in items)
    print(f"unscaled: items_per_s {raw_items:.4f}, item_p50_ms "
          f"{statistics.median(lat for _, lat in items) * 1000:.4f}, cli_p50_ms "
          f"{statistics.median(lat for _, lat in calls) * 1000:.4f}, slowest item "
          f"{max(lat for _, lat in items):.3f} s of the {ITEM_BUDGET_S} s budget")
    return {
        "items_per_s": len(item_lat) / sum(item_lat),
        "item_p50_ms": statistics.median(item_lat) * 1000,
        "item_p90_ms": quantile(item_lat, 0.9) * 1000,
        "cli_p50_ms": statistics.median(cli_lat) * 1000,
        "cli_p90_ms": quantile(cli_lat, 0.9) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def import_ms(env, probe: SpeedProbe) -> float:
    """Median `python -c "import tworow.cli"` minus median bare start-up."""
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        for code, out in (("pass", bare), ("import tworow.cli", full)):
            probe.tick()
            start = perf_counter()
            out.append((start, run_cli([sys.executable, "-c", code], env)[0]))
    probe.tick(force=True)
    return (statistics.median(probe.scaled(*x) for x in full)
            - statistics.median(probe.scaled(*x) for x in bare)) * 1000


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def trace_run(runner: Runner, seed: int) -> dict:
    """Untraced then traced pass over the same fixed items, then traced CLI
    calls; per-layer metrics from the spans and the check counters."""
    wl, probe = runner.wl, runner.probe
    items = [wl.items[k % len(wl.items)] for k in range(wl.trace_items)]
    untraced = [runner.item(item) for item in items]
    tracer, counts = Tracer(), {}
    traced = []
    for k, item in enumerate(items):
        tracer.item = k
        traced.append(runner.item(item, tracer, counts))
    for k in range(wl.trace_cli):
        tracer.item = len(items) + k
        runner.cli(k, tracer)
    imports = import_ms(runner.env, probe)
    summary = tracer.summary(probe)
    overhead = (sum(probe.scaled(*x) for x in traced)
                / sum(probe.scaled(*x) for x in untraced) - 1.0)
    WORK.mkdir(exist_ok=True)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    spans_path = WORK / f"spans-{wl.name}-seed{seed}.json"
    spans_path.write_text(json.dumps({
        "workload": wl.name,
        "seed": seed,
        "fields": ["name", "start_s", "end_s", "parent", "item"],
        "spans": [[n, s - origin, e - origin, p, i] for n, s, e, p, i in tracer.spans],
        "summary": summary,
    }))
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    print(f"{'layer':<10} {'spans':>7} {'busy_s':>10} {'self_s':>10}")
    for layer, row in sorted(summary["layers"].items()):
        print(f"{layer:<10} {row['calls']:>7} {row['busy_s']:>10.4f} {row['self_s']:>10.4f}")

    names = summary["names"]

    def busy(name):
        return names.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    c = counts.get
    searches = calls("hamilton.trace") + calls("hamilton.search")
    metrics = {
        "matrices.parse_s": busy("matrices.parse"),
        "matrices.parse_calls": calls("matrices.parse"),
        "matrices.cells": c("cells", 0),
        "matrices.det_s": busy("matrices.det"),
        "matrices.det_calls": calls("matrices.det"),
        "rowgraph.graph_s": busy("rowgraph.graph"),
        "rowgraph.graph_calls": calls("rowgraph.graph"),
        "rowgraph.pairs": c("graph_pairs", 0),
        "rowgraph.windows_max": c("graph_windows", 0),
        "rowgraph.edge_ratio": _ratio(c("graph_edges", 0), c("graph_pairs", 0)),
        "hamilton.trace_s": busy("hamilton.trace"),
        "hamilton.trace_calls": calls("hamilton.trace"),
        "hamilton.search_s": busy("hamilton.search"),
        "hamilton.search_calls": calls("hamilton.search"),
        "hamilton.found_ratio": _ratio(c("found", 0), searches),
        "hamilton.call_max_ms": summary["layers"].get("hamilton", {}).get("max_s", 0.0) * 1000,
        "blocks.partition_s": busy("blocks.partition"),
        "blocks.partition_calls": calls("blocks.partition"),
        "blocks.blocks_found": c("blocks_found", 0),
        "blocks.enum_s": busy("blocks.enum"),
        "blocks.track_sum_s": busy("blocks.track_sum"),
        "blocks.det_by_tracks_s": busy("blocks.det_by_tracks"),
        "blocks.tracks": c("tracks", 0),
        "blocks.wide_ratio": _ratio(c("wide", 0), c("tracks", 0)),
        "raag.support_s": busy("raag.support"),
        "raag.support_calls": calls("raag.support"),
        "raag.witness_s": busy("raag.witness"),
        "raag.witness_calls": calls("raag.witness"),
        "raag.support_edge_ratio": _ratio(c("support_edges", 0), c("support_pairs", 0)),
        "realize.realize_s": busy("realize.realize"),
        "realize.verify_s": busy("realize.verify"),
        "realize.calls": calls("realize.realize"),
        "realize.columns": c("columns", 0),
        "harness.sample_s": busy("harness.sample"),
        "harness.samples": c("samples", 0),
        "harness.accept_ratio": _ratio(c("samples", 0), c("rounds", 0)),
        "harness.experiment_s": busy("harness.experiment"),
        "harness.trials": c("trials", 0),
        "cli.calls": calls("cli.call"),
        "cli.busy_s": busy("cli.call"),
        "cli.import_ms": imports,
        "trace.overhead_ratio": overhead,
        "trace.spans": len(tracer.spans),
    }
    for layer in ("matrices", "rowgraph", "hamilton", "blocks", "raag", "realize",
                  "harness", "cli", "item"):
        metrics[f"{layer}.self_s"] = summary["layers"].get(layer, {}).get("self_s", 0.0)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("error: run without -O; tworow checks postconditions with assert", file=sys.stderr)
        return 2
    if not (SRC / "tworow" / "__init__.py").is_file():
        print(f"error: no tworow sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)
    env = cli_env()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    probe = SpeedProbe()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            probe.tick(force=True)
            setups.append(setup(WORKLOADS[args.workload], args.seed, False, workdir, env, probe))
        probe.tick(force=True)
        _, _, wl, argvs = setups[-1]
        wl.prepare(wl.lib)
        # keep the pool and references out of the collector's way, so that
        # collection pauses in the timed calls do not grow with the pool
        gc.collect()
        gc.freeze()
        runner = Runner(wl, argvs, env, probe)
        if args.trace:
            values = trace_run(runner, args.seed)
        else:
            values = measure(runner, args.seconds)
            values["setup_s"] = statistics.median(probe.scaled(t, s) for t, s, _, _ in setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in runner.errors:
        print(f"failure: {err}", file=sys.stderr)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(wl.items)} pool items, {len(wl.cli)} CLI cases")
    print(f"failed_ratio {_ratio(runner.failed, runner.attempted)} "
          f"({runner.failed} of {runner.attempted}, {runner.wrong} wrong outputs)")
    print(f"output_sha256 {runner.sha.hexdigest()} "
          f"(first {runner.hashed_items} items, first {runner.hashed_cli} CLI calls)")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]} {m['unit']}")
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
