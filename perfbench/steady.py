"""Steadiness check: repeat benchmark runs and report the spread of each metric.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b] [--first-seed 1]

Each set runs every workload ``--runs`` times in a row, each time with
the next seed, with the run length of ``BENCHMARK.json``.  For every end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``), the spread
(interquartile range over median) of each set, and the change of the
median from the first set to each later set, both as shares of the
median, next to the metric's bound.  Spreads above the bound, except
that of ``setup_s``, and median changes for the worse above it, are
flagged ``!!``.  The failed share of operations must be identical in
every run.  Raw results go to ``perfbench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for s in range(args.sets):
        for w in workloads:
            results[w].append([])
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                t0 = time.perf_counter()
                r = _one_run(w, seed, bench["run_seconds"])
                results[w][s].append(r)
                values = {k: round(v["value"], 4) for k, v in r["metrics"].items()}
                print(f"set {s + 1} {w:9} seed {seed:3} correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} {values} "
                      f"({time.perf_counter() - t0:.0f} s)", flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results, indent=1))

    worst = 0
    print(f"\n{'workload':9} {'metric':12} {'bound':>5}  per set: median [q1, q3] spread;"
          f" change of median vs set 1")
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for runs in results[w] for r in runs}
        if len(shares) != 1 or not all(r["correct"] for runs in results[w] for r in runs):
            print(f"{w}: failed shares {sorted(shares)}, correct "
                  f"{sorted({r['correct'] for runs in results[w] for r in runs})} !!")
            worst = 1
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, first = [], None
            for runs in results[w]:
                med, q1, q3, spread = _spread([r["metrics"][name]["value"] for r in runs])
                flag = " !!" if spread > bound and name != "setup_s" else ""
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {spread:.3f}{flag}")
                if first is None:
                    first = med
                else:
                    change = (med - first) / first
                    if m["better"] == "higher":
                        change = -change
                    flag = " !!" if change > bound else ""
                    cells.append(f"change {change:+.3f}{flag}")
                worst |= bool(flag)
            print(f"{w:9} {name:12} {bound:5.2f}  " + "; ".join(cells))
    print(f"\nraw results: {path.relative_to(ROOT)}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
