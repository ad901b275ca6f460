"""Tree shapes and photon-channel parameters.

Everything downstream (exact recursions, Monte-Carlo sampling, stabilizer
verification, tree search) is driven by a *branching vector*
``b = (b_0, ..., b_{d-1})``: a rooted tree of depth ``d`` in which every
vertex at level ``k < d`` has exactly ``b_k`` children.  This module owns
that type and the tree layout every engine reads from it (the vertex ids
of each level and the photon columns left when the root is dropped), the
materialized :class:`TreeGraph`, and the photon-channel parameters.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

# build_tree refuses to materialize trees above this vertex count; the
# analytic recursions do not have this limit since they never build the tree.
DEFAULT_VERTEX_CAP = 10**6


class TreeTooLargeError(ValueError):
    """Raised when a tree would exceed the configured vertex cap."""


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
# Materialized trees
# ---------------------------------------------------------------------------

@dataclass
class TreeGraph:
    """A rooted tree with breadth-first vertex numbering.

    Vertex 0 is the root; level-(k+1) vertices follow all level-k vertices,
    and the children of each vertex are contiguous.  The numbering is the
    one :meth:`BranchingVector.level_vertices` fixes.
    """

    branching: BranchingVector
    n_vertices: int
    parent: list[int]           # parent[v]; -1 for the root
    children: list[list[int]]   # children[v] in increasing vertex order
    level: list[int]            # level[v]; 0 for the root

    @property
    def depth(self) -> int:
        return self.branching.depth

    def neighbors(self, v: int) -> list[int]:
        if v == 0:
            return list(self.children[v])
        return [self.parent[v]] + list(self.children[v])


def build_tree(b: BranchingVectorLike, vertex_cap: int = DEFAULT_VERTEX_CAP) -> TreeGraph:
    """Materialize the tree for ``b`` with deterministic breadth-first numbering."""
    vec = as_branching_vector(b)
    n = photon_count(vec)
    if n > vertex_cap:
        raise TreeTooLargeError(
            f"tree {vec} has {n} vertices, above the cap of {vertex_cap}"
        )
    parent = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    level = [0] * n
    for k, bk in enumerate(vec.branches):
        first_child = vec.level_vertices(k + 1).start
        for i, p in enumerate(vec.level_vertices(k)):
            kids = list(range(first_child + i * bk, first_child + (i + 1) * bk))
            children[p] = kids
            for c in kids:
                parent[c] = p
                level[c] = k + 1
    return TreeGraph(
        branching=vec,
        n_vertices=n,
        parent=parent,
        children=children,
        level=level,
    )


# ---------------------------------------------------------------------------
# Channel parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelParams:
    """Single-photon detection probability and measurement error rate.

    ``eta`` is the probability that one photon is detected.  ``eps`` is the
    single-qubit measurement error rate; it corresponds to a depolarizing
    channel of strength ``eps_d = 3*eps/2`` applied to each photon.  The
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
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"eps must be in [0, 1], got {self.eps}")

    @property
    def eps_d(self) -> float:
        return 1.5 * self.eps

    @property
    def eps_bsm(self) -> float:
        return 3.0 * self.eps * (1.0 - self.eps)

    @property
    def err_dzz(self) -> float:
        return (2.0 / 3.0) * self.eps_bsm

    @property
    def err_dxx(self) -> float:
        return self.eps_bsm
