"""One fresh interpreter of a benchmark run: set up, then (optionally) measure.

Started by ``run.py``; not meant to be run by hand.  Prints one JSON line
when set-up is done (``{"ready": ..., "import_s": ...}``) and, unless
``--setup-only`` is given, one more JSON line with the timed phase's
results.  Set-up is the import of treebsm from ``src/`` of the checkout
this file sits in, plus building the workload's inputs.

The timed phase runs whole rounds of the workload until ``--seconds`` have
passed (at least one round).  With ``--trace 1`` it alternates an untraced
and a traced round, so the tracing overhead is measured on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _run_round(workload, tracer=None) -> tuple[float, float, dict, int]:
    """One round; returns wall seconds, CPU seconds, outputs, failed count."""
    outputs, failed = {}, 0
    if tracer is not None:
        missing = tracer.install()
        if missing:
            print(f"trace: not found: {', '.join(missing)}", file=sys.stderr)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        for label, op in workload.ops:
            try:
                outputs[label] = op()
            except Exception as exc:  # an operation that raises counts as failed
                print(f"operation failed: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                failed += 1
    finally:
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        if tracer is not None:
            tracer.remove()
    for label in list(outputs):
        problems = workload.validate(label, outputs[label])
        if problems:
            print("operation failed: " + "; ".join(problems[:3]), file=sys.stderr)
            del outputs[label]
            failed += 1
    return wall, cpu, outputs, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import treebsm
    import_s = time.perf_counter() - t0
    if not Path(treebsm.__file__).resolve().is_relative_to(SRC):
        print(f"treebsm imported from {treebsm.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.BUILDERS[args.workload](args.seed, out_dir)
        print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
        if args.setup_only:
            return 0
        result = _measure(workload, args)
    finally:
        for path in out_dir.glob("*"):
            path.unlink()
        out_dir.rmdir()
    print(json.dumps(result), flush=True)
    return 0


def _measure(workload, args) -> dict:
    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics
        tracer = Tracer()

    walls, traced_walls, cpus = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    first_outputs = None
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                tracer.current_round += 1
            wall, cpu, outputs, n_failed = _run_round(workload, tracer if traced else None)
            (traced_walls if traced else walls).append(wall)
            if not traced:
                cpus.append(cpu)
            attempted += len(workload.ops)
            failed += n_failed
            if first_outputs is None:
                first_outputs = outputs
                problems += workload.check(outputs)
            elif outputs != first_outputs:
                changed = sorted(k for k in outputs if outputs[k] != first_outputs.get(k))
                problems.append(f"outputs differ between rounds: {changed}")
        if time.perf_counter() - start >= args.seconds:
            break

    usage_self = resource.getrusage(resource.RUSAGE_SELF)
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(walls),
        "wall_s": statistics.median(walls),
        "walls": walls,
        "cpu_s": statistics.median(cpus),
        # ru_maxrss is in KiB on Linux.
        "maxrss_self_kib": usage_self.ru_maxrss,
        "maxrss_children_kib": usage_children.ru_maxrss,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, tracer.current_round)
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        layers["trace.untraced_wall_s"] = statistics.median(walls)
        layers["process.cpu_s"] = statistics.median(cpus)
        result["layers"] = layers
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{workload.name}.npz")
    return result


if __name__ == "__main__":
    sys.exit(main())
