"""Tree shapes and photon-channel parameters.

Everything downstream (exact recursions, Monte-Carlo sampling, stabilizer
verification, tree search) is driven by a *branching vector*
``b = (b_0, ..., b_{d-1})``: a rooted tree of depth ``d`` in which every
vertex at level ``k < d`` has exactly ``b_k`` children.  This module owns
that type, the materialized :class:`TreeGraph` with its fixed breadth-first
vertex numbering, and the photon-channel parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        if any((not isinstance(x, int)) or x < 1 for x in self.branches):
            raise ValueError(f"branch counts must be integers >= 1, got {self.branches}")

    @classmethod
    def of(cls, *branches: int) -> "BranchingVector":
        return cls(tuple(int(x) for x in branches))

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

    def level_sizes(self) -> list[int]:
        """Vertex counts per level, root included: ``[1, b0, b0*b1, ...]``."""
        sizes = [1]
        for bk in self.branches:
            sizes.append(sizes[-1] * bk)
        return sizes

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
    return BranchingVector(tuple(int(x) for x in b))


def photon_count(b: BranchingVectorLike) -> int:
    """Total vertex count ``1 + sum_k prod_{j<=k} b_j``, root included.

    The root is consumed when a logical qubit is carved out of the tree, but
    counting it reproduces the resource milestones quoted for this encoding
    (7, 691, 1185 photons), so that convention is adopted throughout.
    """
    vec = as_branching_vector(b)
    total = 1
    prod = 1
    for bk in vec.branches:
        prod *= bk
        total += prod
    return total


# ---------------------------------------------------------------------------
# Materialized trees
# ---------------------------------------------------------------------------

@dataclass
class TreeGraph:
    """A rooted tree with breadth-first vertex numbering.

    Vertex 0 is the root; level-(k+1) vertices follow all level-k vertices,
    and the children of each vertex are contiguous.  Samplers, stabilizer
    tableaux and generation sequences all rely on this numbering, so it is
    fixed here once.
    """

    branching: BranchingVector
    n_vertices: int
    parent: list[int]           # parent[v]; -1 for the root
    children: list[list[int]]   # children[v] in increasing vertex order
    level: list[int]            # level[v]; 0 for the root
    level_start: list[int] = field(repr=False)   # first vertex index per level
    level_size: list[int] = field(repr=False)    # vertex count per level

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
    sizes = vec.level_sizes()
    level_start = [0]
    for s in sizes[:-1]:
        level_start.append(level_start[-1] + s)

    parent = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    level = [0] * n
    for k, bk in enumerate(vec.branches):
        first_parent = level_start[k]
        first_child = level_start[k + 1]
        for i in range(sizes[k]):
            p = first_parent + i
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
        level_start=level_start,
        level_size=sizes,
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
