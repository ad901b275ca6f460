"""The recursive shape enumerator, for tests only.

``search._shape_table`` enumerates the in-bounds shapes as one table that
grows a level at a time.  This module keeps the enumerator it replaced: a
recursion over prefixes, one depth after another, that yields each shape
depth first, then lexicographic.  :func:`reference_enumerate_trees` is the
oracle the table is checked against.  It recurses once per level, so it
reaches Python's recursion limit on chains of about a thousand levels.
"""

from __future__ import annotations

from typing import Iterator

from treebsm.search import SearchBounds
from treebsm.trees import BranchingVector


def reference_enumerate_trees(bounds: SearchBounds) -> Iterator[BranchingVector]:
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
