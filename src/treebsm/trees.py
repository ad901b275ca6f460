"""Tree shapes and photon-channel parameters.

Everything downstream (exact recursions, Monte-Carlo sampling, stabilizer
verification, tree search) is driven by a *branching vector*
``b = (b_0, ..., b_{d-1})``: a rooted tree of depth ``d`` in which every
vertex at level ``k < d`` has exactly ``b_k`` children.  This module owns
that type and the tree layout every engine reads from it (the vertex ids
of each level, each vertex's parent and children, and the photon columns
left when the root is dropped), the photon-channel parameters and the
measurement protocols every engine evaluates.  The tree is never
materialized: each vertex query is one pass over the levels.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

# Largest tree the stabilizer builders accept, before their far smaller
# stabilizer.MAX_TABLEAU_BYTES; the analytic recursions never build the tree.
MAX_VERTICES = 10**6


class TreeTooLargeError(ValueError):
    """Raised when a tree has more than :data:`MAX_VERTICES` vertices."""


# ---------------------------------------------------------------------------
# Branching vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchingVector:
    """An ordered tuple of per-level child counts ``(b_0, ..., b_{d-1})``.

    Immutable and hashable so vectors can key caches and sets.  Parse from
    and serialize to the text form ``"15,15,2"`` used by the CLI and data
    files.
    """

    branches: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.branches) == 0:
            raise ValueError("branching vector must have depth >= 1")
        try:  # integers of any type, numpy's included; a float is never truncated
            branches = tuple(map(operator.index, self.branches))
        except TypeError:
            branches = None
        if branches is None or min(branches) < 1:
            raise ValueError(f"branch counts must be integers >= 1, got {self.branches}")
        object.__setattr__(self, "branches", branches)

    @classmethod
    def of(cls, *branches: int) -> "BranchingVector":
        return cls(branches)

    @classmethod
    def parse(cls, text: str) -> "BranchingVector":
        """Parse ``"b0,b1,...,bd-1"`` (e.g. ``"15,15,2"``)."""
        try:
            parts = tuple(int(tok) for tok in text.strip().split(","))
        except ValueError as exc:
            raise ValueError(f"malformed branching vector {text!r}") from exc
        return cls(parts)

    @property
    def depth(self) -> int:
        return len(self.branches)

    def level_vertices(self, k: int) -> range:
        """Breadth-first ids of the level-``k`` vertices (0 is the root, ``depth`` the leaves).

        Level ``k`` holds ``b_0 * ... * b_{k-1}`` vertices numbered after all
        levels above it, so ``level_vertices(depth).stop`` is the vertex count.
        """
        if not 0 <= k <= self.depth:
            raise IndexError(f"level {k} outside 0..{self.depth}")
        start, size = 0, 1
        for bk in self.branches[:k]:
            start += size
            size *= bk
        return range(start, start + size)

    def _locate(self, v: int) -> tuple[int, int | None, range]:
        """Level, parent (None for the root) and children of vertex ``v``.

        One pass over the level starts of :meth:`level_vertices`: vertex i
        of level k has parent ``i // b_{k-1}`` of level k - 1 and children
        ``i * b_k .. (i + 1) * b_k - 1`` of level k + 1.
        """
        above, start, size = 0, 0, 1  # above: start of level k - 1
        for k, bk in enumerate(self.branches + (0,)):
            if start <= v < start + size:
                i = v - start
                first = start + size + i * bk
                parent = above + i // self.branches[k - 1] if k else None
                return k, parent, range(first, first + bk)
            above, start, size = start, start + size, size * bk
        raise IndexError(f"vertex {v} outside 0..{start - 1}")

    def children(self, v: int) -> range:
        """The children of vertex ``v``, contiguous; empty at a leaf."""
        return self._locate(v)[2]

    def neighbors(self, v: int) -> list[int]:
        """The parent of vertex ``v`` first (none for the root), then its children."""
        _, parent, kids = self._locate(v)
        return ([] if parent is None else [parent]) + list(kids)

    def check_vertices(self) -> int:
        """The vertex count; raises :class:`TreeTooLargeError` above :data:`MAX_VERTICES`."""
        n = self.level_vertices(self.depth).stop
        if n > MAX_VERTICES:
            raise TreeTooLargeError(f"tree {self} has {n} vertices, above the cap of {MAX_VERTICES}")
        return n

    def photon_column(self, tree_id: int, vertex: int) -> int:
        """Column of a vertex among the photons of trees laid side by side.

        Roots stay on the matter side, so each tree holds ``n - 1`` columns:
        its vertices 1..n-1 in breadth-first order.
        """
        return tree_id * (photon_count(self) - 1) + vertex - 1

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.branches)

    def __iter__(self) -> Iterator[int]:
        return iter(self.branches)

    def __len__(self) -> int:
        return len(self.branches)

    def __getitem__(self, k: int) -> int:
        return self.branches[k]


BranchingVectorLike = BranchingVector | Sequence[int] | str


def as_branching_vector(b: BranchingVectorLike) -> BranchingVector:
    """Coerce a vector-like (sequence, string, or BranchingVector) to the type."""
    if isinstance(b, BranchingVector):
        return b
    if isinstance(b, str):
        return BranchingVector.parse(b)
    return BranchingVector(tuple(b))


def photon_count(b: BranchingVectorLike) -> int:
    """Total vertex count ``1 + sum_k prod_{j<=k} b_j``, root included.

    The root is consumed when a logical qubit is carved out of the tree, but
    counting it reproduces the resource milestones quoted for this encoding
    (7, 691, 1185 photons), so that convention is adopted throughout.
    """
    vec = as_branching_vector(b)
    return vec.level_vertices(vec.depth).stop


# ---------------------------------------------------------------------------
# Channel parameters
# ---------------------------------------------------------------------------

# Largest single-qubit error rate: the depolarizing strength 3*eps/2 of a
# photon is a probability, so it reaches 1 here; a larger eps is no channel.
EPS_MAX = 2.0 / 3.0


def _first_outside(value, top: float):
    """The first entry of ``value`` (a number or an array) outside [0, top], else None.

    NaN is outside.
    """
    values = np.atleast_1d(value)
    bad = values[~((values >= 0.0) & (values <= top))]
    return bad[0] if bad.size else None


def bsm_readout_errors(eps):
    """``(err_dzz, err_dxx)`` of a linear-optical BSM at single-qubit error ``eps``, unchecked.

    ``eps`` may be an array; :class:`ChannelParams` reads its derived rates here.
    """
    eps_bsm = 3.0 * eps * (1.0 - eps)
    return (2.0 / 3.0) * eps_bsm, eps_bsm


class Protocol(Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"
    LOSS_ONLY = "loss-only"


@dataclass(frozen=True)
class ChannelParams:
    """Single-photon detection probability and measurement error rate.

    The exact engine's batches hold one array of ``eta`` and one of ``eps``,
    with one entry per row; the derived rates below are then arrays too.

    ``eta`` is the probability that one photon is detected.  ``eps`` is the
    single-qubit measurement error rate; it corresponds to a depolarizing
    channel of strength ``eps_d = 3*eps/2`` applied to each photon, so it is
    at most :data:`EPS_MAX` = 2/3.  The
    derived two-photon rates follow from how a linear-optical BSM reads the
    two parities:

    * ``eps_bsm``  -- error rate of the X-parity readout (any uncompensated
      fault corrupts it): ``3*eps*(1-eps)``.
    * ``err_dzz``  -- error rate of the Z-parity readout, which single Z
      faults and X/Y-crossed fault pairs leave intact: ``(2/3)*eps_bsm``.
    * ``err_dxx`` == ``eps_bsm``.
    """

    eta: float
    eps: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eta", "eps"):
            bad = _first_outside(getattr(self, name), 1.0)
            if bad is not None:
                raise ValueError(f"{name} must be in [0, 1], got {bad}")
        bad = _first_outside(self.eps, EPS_MAX)
        if bad is not None:
            raise ValueError(f"eps must be at most 2/3, where the depolarizing strength "
                             f"3*eps/2 reaches 1, got {bad}")

    @property
    def eps_d(self) -> float:
        return 1.5 * self.eps

    @property
    def eps_bsm(self) -> float:
        return bsm_readout_errors(self.eps)[1]

    @property
    def err_dzz(self) -> float:
        return bsm_readout_errors(self.eps)[0]

    @property
    def err_dxx(self) -> float:
        return self.eps_bsm
