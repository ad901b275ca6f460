"""The benchmark's four workloads: inputs from a seed, one round of work, checks.

A workload is a fixed list of operations (one round) and two checks.
``validate`` looks at one operation's output alone, for properties any
valid output has (exit codes, ranges, counter consistency); an operation
that raises or fails it counts as failed.  ``check`` compares the valid
outputs with independent references and with each other; a problem there
makes the run incorrect.  The same ``--seed`` always gives the same
operations, so every round of a run must also return the same outputs;
the runner checks that too.  Operations call treebsm
through module attributes (``treebsm.run``, ``cli.main``) so that the
traced run sees the calls.

The checks compare each engine with an independent route (exact engine vs
sampler, exhaustive enumeration, closed-form limits, known minimal trees,
a negative control), never with a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import treebsm
from treebsm import (
    ChannelParams,
    Protocol,
    SampleConfig,
    exhaustive_dynamic,
    exhaustive_static,
    logical_bsm,
    photon_count,
)
from treebsm import cli, families

# Sampled rates must lie within this many reference sigmas of the exact
# value.  At 5 sigma a correct sampler fails a check about once in 1.7e6,
# so a failure points at the code, not at the seed.
SIGMA_BOUND = 5.0
# Protocol ordering of sampled success rates is checked at 3 sigma of the
# difference; the orderings checked are either exact world by world or far
# apart in expectation.
ORDER_SIGMA = 3.0
# Slack for float comparisons of exact-engine outputs.
EXACT_TOL = 1e-12
# The headline error composes two parity errors, e_zz + (1 - e_zz) e_xx,
# each at most 1/2, so it lies in [0, 3/4]; near the loss threshold both
# parities are close to random and the composition does exceed 1/2.
MAX_COMPOSED_ERR = 0.75

MC_TREE = (15, 15, 2)
MC_ETA = 0.8
MC_SAMPLES = 16384          # two 8192-sample chunks, one per worker in mc-errors
SMALL_TREE = (2, 2)
SMALL_SAMPLES = 10**6
SWEEP_ETAS = "0.5:1:51"
SWEEP_EPS = "0:1e-3:6"      # linear, 0 included
SEARCH_ETA, SEARCH_EPS = 0.95, 1e-5
MINIMAL_TREES = {"static": ("74,15", 1185), "dynamic": ("15,15,2", 691)}
THRESHOLD_WINDOWS = {"static": (0.806, 0.84), "dynamic": (0.50, 0.60)}
VERIFY_SHAPES = ("2,2,2,2,2", "4,4,4", "20,6", "6,5,3", "10,10,2")


@dataclass
class Workload:
    """One round of named operations and the checks of their outputs."""

    name: str
    ops: list[tuple[str, Callable[[], object]]]
    validate: Callable[[str, object], list[str]]
    check: Callable[[dict[str, object]], list[str]]


# ---------------------------------------------------------------------------
# Sampler workloads
# ---------------------------------------------------------------------------

def _sample(cfg: SampleConfig) -> Callable[[], tuple[int, ...]]:
    def op() -> tuple[int, ...]:
        est = treebsm.run(cfg)
        return (est.n_samples, est.n_success, est.n_zz_error, est.n_xx_error, est.n_joint_error)
    return op


def _check_counters(label: str, counts: tuple[int, ...]) -> list[str]:
    """Every joint error is a zz or an xx error, and both need a success."""
    _, success, zz, xx, joint = counts
    if max(zz, xx) <= joint <= zz + xx <= 2 * success:
        return []
    return [f"{label}: counters violate max(zz, xx) <= joint <= zz + xx <= 2 success: {counts}"]


def _within(label: str, got: float, want: float, n: int) -> list[str]:
    """``got`` within SIGMA_BOUND reference sigmas sqrt(p (1 - p) / n) of ``want``."""
    sigma = math.sqrt(want * (1.0 - want) / n)
    if abs(got - want) <= SIGMA_BOUND * sigma:
        return []
    return [f"{label}: sampled {got:.6g}, exact {want:.6g}, sigma {sigma:.2e}"]


def _mc_errors(seed: int, out_dir: Path) -> Workload:
    eps = 1e-3
    params = ChannelParams(eta=MC_ETA, eps=eps)
    protocols = (Protocol.STATIC, Protocol.DYNAMIC)
    ops = [
        (p.value, _sample(SampleConfig(b=MC_TREE, eta=MC_ETA, eps=eps, protocol=p,
                                       n_samples=MC_SAMPLES, seed=seed, n_workers=2)))
        for p in protocols
    ]

    def check(out: dict[str, object]) -> list[str]:
        problems = []
        for p in protocols:
            if p.value not in out:
                continue
            ref = logical_bsm(MC_TREE, params, p)
            n, success, zz, xx, _ = out[p.value]
            problems += _within(f"{p.value} success", success / n, ref.pr_complete, n)
            if success:
                ezz, exx = zz / success, xx / success
                problems += _within(f"{p.value} error", ezz + (1 - ezz) * exx,
                                    ref.err_complete, success)
            else:
                problems.append(f"{p.value}: no successful sample")
        return problems

    return Workload("mc-errors", ops, _check_counters, check)


def _mc_loss(seed: int, out_dir: Path) -> Workload:
    cases = [(MC_TREE, MC_SAMPLES), (SMALL_TREE, SMALL_SAMPLES)]
    protocols = (Protocol.STATIC, Protocol.DYNAMIC, Protocol.LOSS_ONLY)
    ops = []
    for b, n in cases:
        for p in protocols:
            cfg = SampleConfig(b=b, eta=MC_ETA, eps=0.0, protocol=p, n_samples=n, seed=seed)
            ops.append((f"{p.value} {_fmt(b)}", _sample(cfg)))
    params = ChannelParams(eta=MC_ETA, eps=0.0)

    def validate(label: str, counts: tuple[int, ...]) -> list[str]:
        if counts[2:] == (0, 0, 0):
            return []
        return [f"{label}: error counters {counts[2:]} at eps=0"]

    def check(out: dict[str, object]) -> list[str]:
        problems = []
        exact = {
            f"static {_fmt(MC_TREE)}": logical_bsm(MC_TREE, params, Protocol.STATIC).pr_complete,
            f"dynamic {_fmt(MC_TREE)}": logical_bsm(MC_TREE, params, Protocol.DYNAMIC).pr_complete,
            f"static {_fmt(SMALL_TREE)}": exhaustive_static(SMALL_TREE, params),
            f"dynamic {_fmt(SMALL_TREE)}": exhaustive_dynamic(SMALL_TREE, params),
        }
        for label, want in exact.items():
            if label in out:
                n, success = out[label][:2]
                problems += _within(label, success / n, want, n)
        # Static <= dynamic <= loss-only.  With eps = 0 the loss-only rules
        # accept every world the adaptive rules accept (a child pair with one
        # photon lost needs an indirect readout on that side only, not on
        # both), so the loss-only rate is the highest of the three.
        for b, _ in cases:
            labels = [f"{p} {_fmt(b)}" for p in ("static", "dynamic", "loss-only")]
            if not all(label in out for label in labels):
                continue
            rates = []
            for label in labels:
                n, success = out[label][:2]
                rate = success / n
                rates.append((label, rate, rate * (1 - rate) / n))
            for (lo_name, lo, lo_var), (hi_name, hi, hi_var) in zip(rates, rates[1:]):
                if lo - hi > ORDER_SIGMA * math.sqrt(lo_var + hi_var):
                    problems.append(f"{lo_name} success {lo:.6g} exceeds {hi_name} {hi:.6g}")
        return problems

    return Workload("mc-loss", ops, validate, check)


def _fmt(b) -> str:
    return ",".join(map(str, b))


# ---------------------------------------------------------------------------
# Exact-engine workload, through the command line
# ---------------------------------------------------------------------------

def _cli(argv: list[str], output: Path) -> Callable[[], tuple[int, str]]:
    def op() -> tuple[int, str]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--output", str(output)])
        return code, output.read_text() if code == 0 else ""
    return op


def _design(seed: int, out_dir: Path) -> Workload:
    # The exact engine draws nothing at random, so the inputs do not depend
    # on the seed.
    protocols = ("static", "dynamic")
    shapes = ["2,2", "15,15,2", "74,15"] + [
        str(families.default_family(p)[-1]) for p in protocols
    ]
    ops = []
    for p in protocols:
        ops.append((f"search {p}", _cli(
            ["search", "--protocol", p, "--eta", repr(SEARCH_ETA), "--eps", repr(SEARCH_EPS)],
            out_dir / f"search-{p}.csv")))
    for p in protocols:
        for i, b in enumerate(shapes):
            ops.append((f"sweep {p} {b}", _cli(
                ["sweep", "--protocol", p, "--b", b, "--eta", SWEEP_ETAS, "--eps", SWEEP_EPS],
                out_dir / f"sweep-{p}-{i}.csv")))
    for p in protocols:
        ops.append((f"threshold {p}", _cli(
            ["threshold", "--protocol", p], out_dir / f"threshold-{p}.json")))

    def validate(label: str, output: tuple[int, str]) -> list[str]:
        code, text = output
        if code:
            return [f"{label}: exit code {code}"]
        if label.startswith("sweep"):
            b0 = int(label.split()[-1].split(",")[0])
            return _check_sweep(label, b0, _rows(text))
        return []

    def check(out: dict[str, object]) -> list[str]:
        problems = []
        for p in protocols:
            if f"search {p}" in out:
                problems += _check_search(p, out[f"search {p}"][1])
            if f"threshold {p}" in out:
                lo, hi = THRESHOLD_WINDOWS[p]
                eta_star = json.loads(out[f"threshold {p}"][1])["eta_star"]
                if not lo <= eta_star <= hi:
                    problems.append(f"threshold {p}: eta* {eta_star} outside [{lo}, {hi}]")
        for b in shapes:
            if not all(f"sweep {p} {b}" in out for p in protocols):
                continue
            rows = {p: _rows(out[f"sweep {p} {b}"][1]) for p in protocols}
            for (eta, eps, pr_s, _), (_, _, pr_d, _) in zip(rows["static"], rows["dynamic"]):
                if pr_d < pr_s - EXACT_TOL:
                    problems.append(f"sweep {b}: dynamic {pr_d} < static {pr_s} "
                                    f"at eta={eta}, eps={eps}")
        return problems

    return Workload("design", ops, validate, check)


def _rows(text: str) -> list[tuple[float, float, float, float]]:
    reader = csv.DictReader(io.StringIO(text))
    return [(float(r["eta"]), float(r["eps"]), float(r["pr_complete"]), float(r["err_complete"]))
            for r in reader]


def _check_search(protocol: str, text: str) -> list[str]:
    want = MINIMAL_TREES[protocol]
    for row in csv.DictReader(io.StringIO(text)):
        if row["error_correcting"] == "1":
            got = (row["b"], int(row["n"]))
            if got == want:
                return []
            return [f"search {protocol}: smallest error-correcting tree {got}, want {want}"]
    return [f"search {protocol}: no error-correcting tree on the front"]


def _check_sweep(label: str, b0: int, rows) -> list[str]:
    problems = []
    by_eps: dict[float, list[tuple[float, float]]] = {}
    for eta, eps, pr, err in rows:
        by_eps.setdefault(eps, []).append((eta, pr))
        if not 0.0 <= err <= MAX_COMPOSED_ERR or (eps == 0.0 and err != 0.0):
            problems.append(f"{label}: err {err} at eta={eta}, eps={eps}")
        if eta == 1.0 and abs(pr - (1.0 - 2.0**-b0)) > EXACT_TOL:
            problems.append(f"{label}: success {pr} at eta=1, want 1 - 2^-{b0}")
    for eps, curve in by_eps.items():
        curve.sort()
        if curve[-1][0] != 1.0:
            problems.append(f"{label}: grid misses eta=1 at eps={eps}")
        for (eta0, pr0), (eta1, pr1) in zip(curve, curve[1:]):
            if pr1 < pr0 - EXACT_TOL:
                problems.append(f"{label}: success falls from {pr0} to {pr1} "
                                f"between eta={eta0} and {eta1}, eps={eps}")
    return problems


# ---------------------------------------------------------------------------
# Tableau workload
# ---------------------------------------------------------------------------

def _without_root_bond(seq):
    """The same program with the CZ that bonds the two root registers removed."""
    kept = [i for i in seq.instructions if not (i.opcode == "CZ" and sorted(i.args) == [0, 1])]
    if len(kept) != len(seq.instructions) - 1:
        raise ValueError("program has no single root-bonding CZ")
    return dataclasses.replace(seq, instructions=kept)


def _verify(b: str, mode: str, seed: int) -> Callable[[], tuple]:
    def op() -> tuple:
        seq = treebsm.compile_bell_pair(b)
        if mode == "forced":
            res = treebsm.verify_bell_pair(seq, b)
        elif mode == "random":
            rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
            res = treebsm.verify_bell_pair(seq, b, rng=rng)
        else:
            res = treebsm.verify_bell_pair(_without_root_bond(seq), b)
        return res.ok, seq.n_registers, res.n_registers, seq.n_photons, res.detail
    return op


def _verify_workload(seed: int, out_dir: Path) -> Workload:
    modes = ("forced", "random", "no-root-cz")
    ops = [(f"{mode} {b}", _verify(b, mode, seed)) for b in VERIFY_SHAPES for mode in modes]

    def validate(label: str, output: tuple) -> list[str]:
        b = label.split()[-1]
        _, regs, res_regs, n_photons, _ = output
        depth = len(b.split(","))
        photons = 2 * (photon_count(b) - 1)
        problems = []
        if regs != depth + 1 or res_regs != depth + 1:
            problems.append(f"{label}: {regs}/{res_regs} registers, want {depth + 1}")
        if n_photons != photons:
            problems.append(f"{label}: {n_photons} photons, want {photons}")
        return problems

    def check(out: dict[str, object]) -> list[str]:
        # Every program verifies, and none does without its root bond.
        return [f"{label}: verified={ok} ({detail})"
                for label, (ok, _, _, _, detail) in out.items()
                if ok != (not label.startswith("no-root-cz"))]

    return Workload("verify", ops, validate, check)


BUILDERS: dict[str, Callable[[int, Path], Workload]] = {
    "mc-errors": _mc_errors,
    "mc-loss": _mc_loss,
    "design": _design,
    "verify": _verify_workload,
}
