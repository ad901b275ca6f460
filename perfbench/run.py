"""Benchmark of treebsm: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: mc-errors, mc-loss, design, verify (see README.md).  The run
starts SETUP_SAMPLES fresh interpreters (``worker.py``); each imports
treebsm from ``src/`` of this checkout and builds the workload's inputs,
and the last one goes on to the timed phase.  The last line printed is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``)
when ``--trace 0`` and the per-layer metrics when ``--trace 1``.  Any
failure to set up or to finish exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("mc-errors", "mc-loss", "design", "verify")
# Fresh interpreters per run; setup_s and setup.import_s are their medians.
SETUP_SAMPLES = 5
# The whole run, set-up included, must end well inside three minutes.
DEADLINE_S = 170.0
RSS_POLL_S = 0.02
PAGE_KIB = os.sysconf("SC_PAGE_SIZE") // 1024


def _tree_rss_kib(pid: int) -> int:
    """Resident KiB of a process and all its descendants, from /proc."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/statm") as f:
                total += int(f.read().split()[1]) * PAGE_KIB
            for task in Path(f"/proc/{p}/task").iterdir():
                todo += [int(c) for c in (task / "children").read_text().split()]
        except (OSError, ValueError):
            continue  # the process ended between listing and reading
    return total


class _RssPoller(threading.Thread):
    """Samples the summed RSS of a process tree until stopped."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kib = 0
        self.stop = threading.Event()

    def run(self) -> None:
        while not self.stop.wait(RSS_POLL_S):
            self.peak_kib = max(self.peak_kib, _tree_rss_kib(self.pid))


def _worker(args: argparse.Namespace, setup_only: bool,
            deadline: float) -> tuple[float, dict, dict | None, int]:
    """Start one worker; returns set-up seconds, ready line, result, peak KiB."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    poller = _RssPoller(proc.pid)
    poller.start()
    try:
        ready_line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish within {DEADLINE_S} s")
    finally:
        poller.stop.set()
        poller.join()
    if proc.returncode != 0 or not ready_line:
        raise RuntimeError(f"worker exited with code {proc.returncode} during "
                           f"{'set-up' if not ready_line else 'the timed phase'}")
    lines = rest.strip().splitlines()
    result = None if setup_only else json.loads(lines[-1])
    return setup_s, json.loads(ready_line), result, poller.peak_kib


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    setups, imports = [], []
    try:
        for i in range(SETUP_SAMPLES):
            setup_s, ready, result, peak_kib = _worker(args, i < SETUP_SAMPLES - 1, deadline)
            setups.append(setup_s)
            imports.append(ready["import_s"])
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    peak_kib = max(peak_kib, result["maxrss_self_kib"], result["maxrss_children_kib"])
    print(f"# {args.workload} seed={args.seed} rounds={result['rounds']} "
          f"round_s={[round(w, 3) for w in result['walls']]} "
          f"setups_s={[round(s, 3) for s in setups]}")
    if args.trace:
        values = {"setup.import_s": statistics.median(imports), **result["layers"]}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": result["wall_s"],
            "peak_rss_mb": peak_kib * 1024 / 1e6,
        }
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
