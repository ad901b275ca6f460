"""Enumerate tree shapes and report the ones worth building.

For fixed channel parameters every enumerated shape is scored with the
exact engine, and a shape is kept on the front when it improves on every
smaller shape in success probability or in logical error rate.  Two
baselines matter: a tree beats raw photon pairs once its success exceeds
``eta^2 / 2`` (what a physical BSM achieves), and it clears the ceiling of
all physical-qubit schemes once it exceeds ``eta^2``; it is
error-correcting once its logical error drops below the physical BSM
error ``3*eps*(1-eps)``.

The default bounds mirror the reference search behind the reported
minimal trees: branching factors at least 2 and non-increasing with
depth.  Unit branches spend a photon per node without adding any vote
redundancy at that level, and increasing profiles trade top-level
redundancy for deep-level cost; both are legal shapes (set
``min_branch=1`` / ``monotone=False``) but they crowd the front without
containing the reported optima, so "no smaller tree" statements in the
docs are always relative to the bounds in force.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterator

from .analytic import LogicalBsmResult, Protocol, logical_bsm
from .trees import BranchingVector, ChannelParams, photon_count


@dataclass(frozen=True)
class SearchBounds:
    """Finite enumeration bounds over branching vectors."""

    max_depth: int = 4
    max_branch: int = 80
    max_photons: int = 2000
    min_branch: int = 2
    min_depth: int = 2
    monotone: bool = True   # require b_0 >= b_1 >= ... when True

    def __post_init__(self) -> None:
        if self.max_depth < 1 or self.max_branch < 1 or self.max_photons < 2:
            raise ValueError("bounds must be positive")
        if not 1 <= self.min_branch <= self.max_branch:
            raise ValueError("need 1 <= min_branch <= max_branch")
        if not 1 <= self.min_depth <= self.max_depth:
            raise ValueError("need 1 <= min_depth <= max_depth")


def enumerate_trees(bounds: SearchBounds) -> Iterator[BranchingVector]:
    """Yield every in-bounds vector, depth first then lexicographic."""
    def rec(prefix: list[int], depth: int) -> Iterator[BranchingVector]:
        if len(prefix) == depth:
            yield BranchingVector.of(*prefix)
            return
        hi = bounds.max_branch
        if bounds.monotone and prefix:
            hi = min(hi, prefix[-1])
        for nxt in range(bounds.min_branch, hi + 1):
            cand = prefix + [nxt]
            if photon_count(cand) > bounds.max_photons:
                break  # the photon count grows with nxt
            yield from rec(cand, depth)

    for depth in range(bounds.min_depth, bounds.max_depth + 1):
        yield from rec([], depth)


@dataclass(frozen=True)
class ParetoEntry:
    b: BranchingVector
    n_photons: int
    protocol: Protocol
    eta: float
    eps: float
    pr_complete: float
    err_complete: float
    loss_tolerant: bool       # pr_complete > eta^2
    beats_physical: bool      # pr_complete > eta^2 / 2
    error_correcting: bool    # err_complete < 3 eps (1 - eps)
    improves_success: bool = False   # beat every smaller tree's success
    improves_error: bool = False     # beat every smaller tree's error


def _entry(res: LogicalBsmResult) -> ParetoEntry:
    params = res.params
    return ParetoEntry(
        b=res.b,
        n_photons=photon_count(res.b),
        protocol=res.protocol,
        eta=params.eta,
        eps=params.eps,
        pr_complete=res.pr_complete,
        err_complete=res.err_complete,
        loss_tolerant=res.pr_complete > params.eta**2,
        beats_physical=res.pr_complete > 0.5 * params.eta**2,
        error_correcting=(params.eps > 0.0 and res.err_complete < params.eps_bsm),
    )


def evaluate_all(
    bounds: SearchBounds, params: ChannelParams, protocol: Protocol
) -> list[ParetoEntry]:
    """Score every enumerated shape, sorted by photon count then shape."""
    entries = [
        _entry(logical_bsm(vec, params, protocol)) for vec in enumerate_trees(bounds)
    ]
    entries.sort(key=lambda e: (e.n_photons, e.b.branches))
    return entries


def pareto_front(
    bounds: SearchBounds, params: ChannelParams, protocol: Protocol
) -> list[ParetoEntry]:
    """Shapes that beat every smaller shape on success or on error.

    Scanning in increasing photon count, an entry is kept when it strictly
    improves the running best success probability or the running best
    error rate; with eps = 0 all errors vanish and the front is the
    success staircase alone.
    """
    from dataclasses import replace

    front: list[ParetoEntry] = []
    best_pr = -1.0
    best_err = float("inf")
    for e in evaluate_all(bounds, params, protocol):
        improves_pr = e.pr_complete > best_pr
        improves_err = params.eps > 0.0 and e.err_complete < best_err
        if improves_pr or improves_err:
            front.append(replace(e, improves_success=improves_pr, improves_error=improves_err))
            best_pr = max(best_pr, e.pr_complete)
            best_err = min(best_err, e.err_complete)
    return front


def smallest_error_correcting(
    bounds: SearchBounds, params: ChannelParams, protocol: Protocol
) -> ParetoEntry | None:
    """The in-bounds shape of least photon count whose error beats a raw BSM."""
    for e in evaluate_all(bounds, params, protocol):
        if e.error_correcting:
            return e
    return None


CSV_HEADER = [
    "b", "n", "protocol", "eta", "eps", "pr_complete", "err_complete",
    "loss_tolerant", "error_correcting",
]


def front_to_csv(entries: list[ParetoEntry]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for e in entries:
        writer.writerow([
            str(e.b), e.n_photons, e.protocol.value, repr(e.eta), repr(e.eps),
            repr(e.pr_complete), repr(e.err_complete),
            int(e.loss_tolerant), int(e.error_correcting),
        ])
    return buf.getvalue()
