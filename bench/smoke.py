"""Smoke test of the benchmark itself; run from the repository root:

    python3 bench/smoke.py

For every workload at a tiny size it runs each pool item and each CLI case
once and requires no failure.  It then corrupts one library result per
workload, and one expected CLI output, and requires the checks to catch
each corruption.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import shutil
import signal
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS


def _plus_one(fn):
    def wrong(*args):
        value = fn(*args)
        return value + value.spec.one
    return wrong


def _none(fn):
    return lambda *args: None


# workload -> (library function to corrupt, how)
CORRUPT = {
    "large-matrix": ("determinant", _plus_one),
    "sparse-trace": ("traceable_ordering", _none),
    "small-sweep": ("graph_hamiltonicity", _none),
    "track-enum": ("det_by_tracks", _plus_one),
}


def exercise(name: str, workdir, env, corrupt: bool) -> tuple[run.Runner, int, int]:
    """Run every item, then every CLI case; returns the runner and the
    wrong outputs among the items and among the CLI calls."""
    probe = run.SpeedProbe()
    _, _, wl, argvs = run.setup(WORKLOADS[name], 1, True, workdir, env, probe)
    wl.prepare(wl.lib)
    runner = run.Runner(wl, argvs, env, probe)
    if corrupt:
        attr, how = CORRUPT[name]
        setattr(wl.lib, attr, how(getattr(wl.lib, attr)))
        wl.cli[0].stdout = wl.cli[0].stdout[:-2] + b"?\n"
    for item in wl.items:
        runner.item(item)
    item_wrong = runner.wrong
    for k in range(len(wl.cli)):
        runner.cli(k)
    return runner, item_wrong, runner.wrong - item_wrong


def main() -> int:
    if not (run.SRC / "tworow" / "__init__.py").is_file():
        print(f"error: no tworow sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    signal.signal(signal.SIGALRM, run._alarm)
    env = run.cli_env()
    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=run.WORK)
    problems = []
    try:
        for name in WORKLOADS:
            clean, _, _ = exercise(name, Path(workdir), env, corrupt=False)
            print(f"{name}: {clean.attempted} attempted, {clean.failed} failed")
            if clean.failed:
                problems.append(f"{name}: clean run failed: {clean.errors}")
            _, items_caught, cli_caught = exercise(name, Path(workdir), env, corrupt=True)
            print(f"{name} corrupted: caught {items_caught} items, {cli_caught} CLI calls")
            if not (items_caught and cli_caught):
                problems.append(f"{name}: a corrupted output went uncaught")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
