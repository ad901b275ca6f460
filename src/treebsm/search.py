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

import numpy as np

from .analytic import BsmRates, Protocol, logical_bsm_batch
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
    def rec(prefix: list[int], depth: int, width: int, photons: int) -> Iterator[BranchingVector]:
        # width: vertices on the last level of prefix; photons: its photon_count
        if len(prefix) == depth:
            yield BranchingVector.of(*prefix)
            return
        hi = bounds.max_branch
        if bounds.monotone and prefix:
            hi = min(hi, prefix[-1])
        for nxt in range(bounds.min_branch, hi + 1):
            if photons + width * nxt > bounds.max_photons:
                break  # the photon count grows with nxt
            yield from rec(prefix + [nxt], depth, width * nxt, photons + width * nxt)

    for depth in range(bounds.min_depth, bounds.max_depth + 1):
        yield from rec([], depth, 1, 1)


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
    improves_success: bool    # beat every smaller tree's success
    improves_error: bool      # beat every smaller tree's error


def evaluate_all(
    bounds: SearchBounds, params: ChannelParams, protocol: Protocol | str
) -> tuple[list[BranchingVector], BsmRates]:
    """Every enumerated shape, sorted by photon count then shape, and its
    rates from one batch of the exact engine, in that order."""
    shapes = sorted(enumerate_trees(bounds), key=lambda b: (photon_count(b), b.branches))
    return shapes, logical_bsm_batch(shapes, params.eta, params.eps, protocol)


def pareto_front(
    bounds: SearchBounds, params: ChannelParams, protocol: Protocol | str
) -> list[ParetoEntry]:
    """Shapes that beat every smaller shape on success or on error.

    In increasing photon count, a shape is kept when it strictly improves
    the best success probability or the best error rate of the shapes
    before it; with eps = 0 all errors vanish and the front is the success
    staircase alone.  A shape that improves neither moves neither best, so
    the bests run over all earlier shapes, not only the kept ones.
    """
    protocol = Protocol(protocol)
    shapes, rates = evaluate_all(bounds, params, protocol)
    pr, err = rates.pr_complete, rates.err_complete
    improves_pr = pr > np.append(-1.0, np.maximum.accumulate(pr)[:-1])
    improves_err = (params.eps > 0.0) & (err < np.append(np.inf, np.minimum.accumulate(err)[:-1]))
    rows = np.flatnonzero(improves_pr | improves_err)
    columns = (a[rows].tolist() for a in (pr, err, improves_pr, improves_err))
    return [
        ParetoEntry(shapes[i], photon_count(shapes[i]), protocol, params.eta, params.eps, p, e,
                    loss_tolerant=p > params.eta**2, beats_physical=p > 0.5 * params.eta**2,
                    error_correcting=params.eps > 0.0 and e < params.eps_bsm,
                    improves_success=ip, improves_error=ie)
        for i, p, e, ip, ie in zip(rows.tolist(), *columns)
    ]


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
