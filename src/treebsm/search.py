"""Enumerate tree shapes and report the ones worth building.

The in-bounds shapes are enumerated once, as one integer table with a row
per shape, zero-padded at the leaf end (:func:`_shape_table`); the table
grows one level at a time and stops at the first level no shape reaches.
For fixed channel parameters the exact engine scores the whole table in
one batch, and a shape is kept on the front when it improves on every
smaller shape in success probability or in logical error rate; only the
front's rows become :class:`ParetoEntry` objects.  Two baselines matter: a
tree beats raw photon pairs once its success exceeds ``eta^2 / 2`` (what a
physical BSM achieves), and it clears the ceiling of all physical-qubit
schemes once it exceeds ``eta^2``; it is error-correcting once its logical
error drops below the physical BSM error ``3*eps*(1-eps)``.

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

# Most cells (rows times depth) the shape table of one search may hold:
# 2**24 int64 cells are 128 MiB.  The default bounds take 6294 x 4 cells and
# the unit-branch chains under the default photon bound 1998 x 1999.
MAX_TABLE_CELLS = 2**24
# Largest photon bound in force: photon counts are int64 while the table grows.
_MAX_PHOTONS = 2**62


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


def _photon_limit(bounds: SearchBounds) -> int:
    """The photon bound in force: ``max_photons``, or the photon count of the
    largest tree the depth and branch bounds allow if that is smaller.

    Refused with a ``ValueError`` above :data:`_MAX_PHOTONS`.
    """
    if bounds.max_branch == 1:
        reach = bounds.max_depth + 1
    else:
        reach = level = 1
        for _ in range(bounds.max_depth):
            if reach >= bounds.max_photons:
                break
            level *= bounds.max_branch
            reach += level
    limit = min(bounds.max_photons, reach)
    if limit > _MAX_PHOTONS:
        raise ValueError(f"search bounds allow trees of {limit} photons, above the cap of 2**62")
    return limit


def _shape_table(bounds: SearchBounds) -> tuple[np.ndarray, np.ndarray]:
    """Every in-bounds shape as a row of one ``(rows, depth)`` int64 table, and its photon count.

    Rows come depth first, then lexicographic, each zero-padded at the leaf
    end.  The table grows one level at a time: every prefix is followed by
    each next branch count its bounds allow, in increasing order, so each
    level stays lexicographic, and the growth stops at the first level no
    prefix reaches.  The table is as wide as its deepest shape, whatever
    ``max_depth``.  A level that would take the table past
    :data:`MAX_TABLE_CELLS` is refused with a ``ValueError`` before it is
    allocated.
    """
    limit = _photon_limit(bounds)
    lo = min(bounds.min_branch, limit)
    prefixes = np.zeros((1, 0), dtype=np.int64)
    width = photons = np.ones(1, dtype=np.int64)  # vertices on the last level; photons so far
    levels: list[tuple[np.ndarray, np.ndarray]] = []  # the rows of each depth from min_depth
    kept = 0
    for depth in range(1, bounds.max_depth + 1):
        hi = np.minimum(min(bounds.max_branch, limit), (limit - photons) // width)
        if bounds.monotone and depth > 1:
            hi = np.minimum(hi, prefixes[:, -1])
        # Counts clipped just past the cap keep the sum inside int64 and still trip the cap.
        counts = np.clip(hi - lo + 1, 0, MAX_TABLE_CELLS + 1)
        rows = int(counts.sum())
        if rows == 0:
            break
        if (kept + rows) * depth > MAX_TABLE_CELLS:
            raise ValueError(f"search bounds give a table of at least {kept + rows} shapes "
                             f"by {depth} levels, above the cap of {MAX_TABLE_CELLS} cells")
        parent = np.repeat(np.arange(len(counts)), counts)
        starts = np.cumsum(counts) - counts
        grown = np.empty((rows, depth), dtype=np.int64)
        grown[:, :-1] = prefixes[parent]
        grown[:, -1] = lo + np.arange(rows) - starts[parent]
        prefixes, width = grown, width[parent] * grown[:, -1]
        photons = photons[parent] + width
        if depth >= bounds.min_depth:
            levels.append((prefixes, photons))
            kept += rows
    table = np.zeros((kept, levels[-1][0].shape[1] if levels else 0), dtype=np.int64)
    start = 0
    for block, _ in levels:
        table[start:start + len(block), :block.shape[1]] = block
        start += len(block)
    return table, np.concatenate([n for _, n in levels] or [np.zeros(0, dtype=np.int64)])


def _vector(row: list[int]) -> BranchingVector:
    """The shape of a table row, its zero padding dropped."""
    return BranchingVector(tuple(filter(None, row)))


def enumerate_trees(bounds: SearchBounds) -> Iterator[BranchingVector]:
    """Yield every in-bounds vector, depth first then lexicographic: the rows of
    :func:`_shape_table`."""
    table, _ = _shape_table(bounds)
    yield from map(_vector, table.tolist())


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
) -> tuple[np.ndarray, BsmRates]:
    """The shape table, its rows sorted by photon count then shape, and their
    rates from one batch of the exact engine, in that order.

    One ``np.lexsort`` sorts the rows; the zero padding keeps the order of
    the shapes as tuples, since every branch count is at least 1.
    """
    table, photons = _shape_table(bounds)
    table = table[np.lexsort((*table.T[::-1], photons))]
    return table, logical_bsm_batch(table, params.eta, params.eps, protocol)


def pareto_front(
    bounds: SearchBounds, params: ChannelParams, protocol: Protocol | str
) -> list[ParetoEntry]:
    """Shapes that beat every smaller shape on success or on error.

    In increasing photon count, a shape is kept when it strictly improves
    the best success probability or the best error rate of the shapes
    before it; with eps = 0 all errors vanish and the front is the success
    staircase alone.  A shape that improves neither moves neither best, so
    the bests run over all earlier shapes, not only the kept ones.  Only
    the kept rows of the table become vectors and entries.
    """
    protocol = Protocol(protocol)
    table, rates = evaluate_all(bounds, params, protocol)
    pr, err = rates.pr_complete, rates.err_complete
    improves_pr = pr > np.append(-1.0, np.maximum.accumulate(pr)[:-1])
    improves_err = (params.eps > 0.0) & (err < np.append(np.inf, np.minimum.accumulate(err)[:-1]))
    rows = np.flatnonzero(improves_pr | improves_err)
    columns = (a[rows].tolist() for a in (pr, err, improves_pr, improves_err))
    shapes = map(_vector, table[rows].tolist())
    return [
        ParetoEntry(b, photon_count(b), protocol, params.eta, params.eps, p, e,
                    loss_tolerant=p > params.eta**2, beats_physical=p > 0.5 * params.eta**2,
                    error_correcting=params.eps > 0.0 and e < params.eps_bsm,
                    improves_success=ip, improves_error=ie)
        for b, p, e, ip, ie in zip(shapes, *columns)
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
