"""Command-line interface: sweeps, thresholds, validation, search, generation.

Every command that writes a data file drops a ``<output>.manifest.json``
sidecar echoing the full parameter set, the package version, the sampler's
stream version and the wall time; rerunning with the same parameters reproduces the data file byte for
byte.  Exit codes: 0 success, 1 usage or I/O problem, 2 the requested
target is analytically unreachable, 3 a validation or verification
mismatch.

Ranges are written ``start:stop[:count]`` (count defaults to 25).  Loss
sweeps are linearly spaced; error-rate sweeps are geometrically spaced
when both endpoints are positive, so decade points land exactly on the
grid.  Scientific notation is accepted everywhere.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import secrets
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from . import families
from .analytic import (
    Protocol,
    UnreachableTargetError,
    find_threshold,
    logical_bsm,
    logical_bsm_batch,
)
from .genseq import check_tableau_size, compile_bell_pair, program_qubits, verify_bell_pair
from .montecarlo import STREAM_VERSION, SampleConfig, check_seed, run as run_mc, z_score
from .search import SearchBounds, front_to_csv, pareto_front
from .trees import BranchingVector, ChannelParams

_DEFAULT_RANGE_COUNT = 25
# Largest point count of one range: a million grid points is far more than
# any sweep needs, and a count like 1e15 would otherwise reach np.linspace.
MAX_RANGE_COUNT = 10**6


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_range(text: str, geometric: bool = False) -> np.ndarray:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return np.array([float(parts[0])])
        start, stop = float(parts[0]), float(parts[1])
        count = float(parts[2] if len(parts) == 3 else _DEFAULT_RANGE_COUNT)
        if len(parts) > 3 or not count.is_integer():
            raise ValueError(text)
    except ValueError:
        raise SystemExit(_fail(f"malformed range {text!r}; expected start:stop[:count]"))
    if count < 1:
        raise SystemExit(_fail("range count must be at least 1"))
    if count > MAX_RANGE_COUNT:
        raise SystemExit(_fail(f"range count {count:g} is above the cap of {MAX_RANGE_COUNT}"))
    if geometric and start > 0 and stop > 0:
        return np.geomspace(start, stop, int(count))
    return np.linspace(start, stop, int(count))


def _fail(message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _version() -> str:
    try:
        return metadata.version("treebsm")
    except metadata.PackageNotFoundError:
        return "unknown"


def _write(output: str, text: str, command: str, params: dict, t0: float) -> None:
    """Write a data file, then its ``<output>.manifest.json`` sidecar."""
    Path(output).write_text(text)
    manifest = {
        "command": command,
        "params": params,
        "version": _version(),
        "stream_version": STREAM_VERSION,
        "outputs": [output],
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    Path(output + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_sweep(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    proto = Protocol(args.protocol)
    b = BranchingVector.parse(args.b)
    etas = _parse_range(args.eta)
    epss = _parse_range(args.eps, geometric=True)

    # The eta x eps grid, eta-major, as one batch of rows.
    grid = ChannelParams(eta=np.repeat(etas, len(epss)), eps=np.tile(epss, len(etas)))
    rates = logical_bsm_batch([b] * len(grid.eta), grid.eta, grid.eps, proto)
    columns = (grid.eta, grid.eps, rates.pr_complete, rates.err_complete,
               grid.eta * grid.eta, grid.eps_bsm)
    lines = ["eta,eps,pr_complete,err_complete,eta_sq,eps_bsm"]
    lines += [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
    _write(args.output, "\n".join(lines) + "\n", "sweep", {
        "protocol": proto.value, "b": str(b), "eta": args.eta, "eps": args.eps,
    }, t0)
    print(f"wrote {len(lines) - 1} rows to {args.output}")
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    proto = Protocol(args.protocol)
    if args.family:
        family = [BranchingVector.parse(part) for part in args.family.split(";")]
    else:
        family = list(families.default_family(proto.value))
    try:
        res = find_threshold(proto, family, target=args.target, tol=args.tol)
    except UnreachableTargetError as exc:
        print(f"unreachable target: {exc}", file=sys.stderr)
        return 2
    report = {
        "protocol": proto.value,
        "target": args.target,
        "eta_star": res.eta_star,
        "bracket": [res.bracket_low, res.bracket_high],
        "iterations": res.iterations,
        "family_size": res.family_size,
        "witness": str(res.witness),
    }
    print(json.dumps(report, indent=2))
    if args.output:
        _write(args.output, json.dumps(report, indent=2) + "\n", "threshold", {
            "protocol": proto.value, "target": args.target, "tol": args.tol,
            "family": [str(v) for v in family],
        }, t0)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    proto = Protocol(args.protocol)
    seed = args.seed if args.seed is not None else secrets.randbelow(2**31)
    b = BranchingVector.parse(args.b)
    cfg = SampleConfig(b=tuple(b), eta=args.eta, eps=args.eps, protocol=proto,
                       n_samples=args.n, seed=seed)
    est = run_mc(cfg)

    if proto is Protocol.LOSS_ONLY:
        print(est.to_json())
        print(f"# seed={seed} (no closed form for loss-only; sampled only)")
        return 0

    ref = logical_bsm(b, ChannelParams(eta=args.eta, eps=args.eps), proto)
    # (name, sampled, exact, samples the sampled rate is taken over)
    checks = [("success", est.success, ref.pr_complete, est.n_samples)]
    if args.eps > 0 and est.n_success > 1000:
        checks.append(("error_rate", est.error_rate, ref.err_complete, est.n_success))

    ok = True
    for name, got, want, n in checks:
        sigma = (want * (1 - want) / n) ** 0.5
        z = z_score(got, want, n)
        status = "ok" if abs(z) <= 3 else "MISMATCH"
        ok &= abs(z) <= 3
        print(
            f"{name}: sampled {got:.6g}  exact {want:.6g}  sigma={sigma:.2e}  "
            f"z={z:+.2f}  [{status}]"
        )
    print(f"# N={args.n} seed={seed} stream_version={STREAM_VERSION} n_success={est.n_success} "
          f"world_bytes={est.world_bytes} samples_per_s={est.samples_per_s:.4g} "
          f"draw_s={est.draw_s:.3g} eval_s={est.eval_s:.3g}")
    return 0 if ok else 3


def _cmd_verify_generation(args: argparse.Namespace) -> int:
    b = BranchingVector.parse(args.b)
    if args.seed is not None:
        check_seed(args.seed)  # before anything is compiled
    check_tableau_size(program_qubits(b))  # before compiling a program too large to verify
    seq = compile_bell_pair(b)
    if args.seed is not None:
        rng = np.random.Generator(np.random.Philox(key=np.array([args.seed, 0], np.uint64)))
        result = verify_bell_pair(seq, b, rng=rng)
        seed_note = f"seed={args.seed}"
    else:
        result = verify_bell_pair(seq, b)  # all outcomes forced to +1
        seed_note = "outcomes forced to +1"
    status = "PASS" if result.ok else "FAIL"
    print(
        f"{status}: b={b} instructions={len(seq)} photons={seq.n_photons} "
        f"matter_registers={result.n_registers} ({seed_note})"
    )
    if not result.ok:
        print(f"detail: {result.detail}", file=sys.stderr)
        return 3
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    proto = Protocol(args.protocol)
    bounds = SearchBounds(
        max_depth=args.max_depth,
        max_branch=args.max_branch,
        max_photons=args.max_n,
        min_branch=args.min_branch,
        min_depth=args.min_depth,
        monotone=not args.no_monotone,
    )
    params = ChannelParams(eta=args.eta, eps=args.eps)
    front = pareto_front(bounds, params, proto)
    _write(args.output, front_to_csv(front), "search", {
        "protocol": proto.value, "eta": args.eta, "eps": args.eps,
        "bounds": dataclasses.asdict(bounds),
    }, t0)
    print(f"wrote {len(front)} front entries to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treebsm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="closed-form success/error curves to CSV")
    p.add_argument("--protocol", required=True, choices=["static", "dynamic"])
    p.add_argument("--b", required=True, help='branching vector, e.g. "15,15,2"')
    p.add_argument("--eta", default="0.95", help="value or start:stop[:count]")
    p.add_argument("--eps", default="0", help="value or start:stop[:count] (geometric)")
    p.add_argument("--output", default="sweep.csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("threshold", help="bisect the family loss threshold")
    p.add_argument("--protocol", required=True, choices=["static", "dynamic"])
    p.add_argument("--target", type=float, default=0.99)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--family", help='semicolon-separated vectors, e.g. "2,2;74,15"')
    p.add_argument("--output")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("validate", help="sampled vs closed-form agreement check")
    p.add_argument("--protocol", required=True,
                   choices=["static", "dynamic", "loss-only"])
    p.add_argument("--b", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--n", type=int, default=10**5)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("verify-generation", help="compile and check a Bell-pair program")
    p.add_argument("--b", required=True)
    p.add_argument("--seed", type=int, help="random measurement outcomes; default all +1")
    p.set_defaults(func=_cmd_verify_generation)

    p = sub.add_parser("search", help="tree-shape front for fixed channel parameters")
    p.add_argument("--protocol", required=True, choices=["static", "dynamic"])
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--max-depth", type=int, default=SearchBounds.max_depth)
    p.add_argument("--max-branch", type=int, default=SearchBounds.max_branch)
    p.add_argument("--max-n", type=int, default=SearchBounds.max_photons)
    p.add_argument("--min-branch", type=int, default=SearchBounds.min_branch)
    p.add_argument("--min-depth", type=int, default=SearchBounds.min_depth)
    p.add_argument("--no-monotone", action="store_true",
                   help="allow increasing branch profiles")
    p.add_argument("--output", default="search.csv")
    p.set_defaults(func=_cmd_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
