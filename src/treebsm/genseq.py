"""Matter-qubit instruction sequences that grow a logical Bell pair.

A pair of tree codes entangled at the logical level is produced by a small
register of matter qubits: two root registers (one per tree) plus one
ladder register per tree level.  Each subtree is assembled on a ladder
register, bonded to its parent register with a CZ, and then teleported
into a freshly emitted photon by the emit/Hadamard/measure-Z idiom; leaves
are emitted directly by their parent's register.  Finally the two root
registers are bonded by a CZ and measured out in X, which carves both tree
codes and leaves them maximally entangled.

Conventions fixed here and relied on by the verifier:

* ``EmitPhoton`` creates a photon in ``|0>`` and entangles it with the
  emitter as ``(|00> + |11>)/sqrt(2)`` (a CNOT from the emitter).  The
  single-photon rotation that turns leaf copy-bonds into graph edges is
  deferred to the photon's detector; the verifier applies it (an H on each
  leaf photon) before comparing states.
* Every photon and every register has one fixed tableau qubit: photon p
  is qubit p, register r is qubit ``n_photons + r``.  A register starts in
  ``|+>`` and, once measured, is prepared in ``|+>`` again on its next use.
* Photon columns of the target state come from
  :meth:`~treebsm.trees.BranchingVector.photon_column`: tree 0's
  vertices 1..n-1 in breadth-first order, then tree 1's.
* The logical Bell pair produced by root-X measurements is the graph-type
  pair: its cross generators are (logical X) x (logical Z') and
  (logical Z) x (logical X'), together with both codes' stabilizers.  It
  is one logical Hadamard away from the parity-aligned pair; the verifier
  targets the state the sequence actually prepares.

For a branching vector of depth d the register count is d + 1 (two roots
sharing the d - 1 ladder registers); depth 1 needs just the two roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .stabilizer import (
    PauliString,
    StabilizerTableau,
    graph_generator,
    logical_x_string,
    logical_z_string,
    restricted_to,
    _gf2_solve,
)
from .trees import BranchingVectorLike, as_branching_vector, build_tree, photon_count

# Refuse to run or verify a program whose tableau work would need more bytes
# than this; like montecarlo.MAX_CHUNK_BYTES, it stops paper-scale towers,
# whose tableaux would need terabytes, from being attempted.
MAX_TABLEAU_BYTES = 2 * 10**9


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instruction:
    """One matter-register operation.

    opcode: "E" (emit photon: args = (register, photon)), "H" (register),
    "MX" / "MY" / "MZ" (measure register), "CZ" (two registers).
    """

    opcode: str
    args: tuple[int, ...]

    def to_line(self) -> str:
        return " ".join([self.opcode, *map(str, self.args)])


@dataclass
class InstructionSequence:
    """Ordered matter-qubit program (execution order = list order).

    ``photon_vertex[p]`` records which tree vertex the p-th photon
    realizes, as ``(tree index, vertex id)`` with vertex ids from the
    breadth-first tree numbering.  Matter registers are numbered 0 (root
    of tree 0), 1 (root of tree 1), then 2.. for the shared ladder.
    """

    branching: tuple[int, ...]
    n_registers: int
    n_photons: int
    instructions: list[Instruction]
    photon_vertex: dict[int, tuple[int, int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    @property
    def n_measurements(self) -> int:
        return sum(1 for ins in self.instructions if ins.opcode in ("MX", "MY", "MZ"))

    def to_text(self) -> str:
        """One instruction per line; the text has no photon->vertex map, so it is output only."""
        return "\n".join(ins.to_line() for ins in self.instructions) + "\n"


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------

def compile_bell_pair(b: BranchingVectorLike) -> InstructionSequence:
    """Expand the full Bell-pair program for tree shape ``b``.

    Per tree: for each child subtree of a register-held node, first build
    the grandchild structure on the next ladder register, bond it with CZ,
    emit the node photon and teleport the register into it (H then MZ);
    leaves are plain emissions.  The second tree is grown first, then the
    first, then the two roots are bonded and measured in X.
    """
    vec = as_branching_vector(b)
    tree = build_tree(vec)
    ins: list[Instruction] = []
    photon_vertex: dict[int, tuple[int, int]] = {}

    def emit(reg: int, tree_id: int, vertex: int) -> None:
        p = len(photon_vertex)  # photons are numbered in emission order
        photon_vertex[p] = (tree_id, vertex)
        ins.append(Instruction("E", (reg, p)))

    def grow(reg: int, vertex: int, tree_id: int) -> None:
        # Attach every child subtree of `vertex` (held on register `reg`).
        level = tree.level[vertex]
        child_reg = 2 + level  # ladder register holding level-(level+1) nodes
        for child in tree.children[vertex]:
            if tree.level[child] == tree.depth:
                emit(reg, tree_id, child)
            else:
                grow(child_reg, child, tree_id)
                ins.append(Instruction("CZ", (reg, child_reg)))
                emit(child_reg, tree_id, child)
                ins.append(Instruction("H", (child_reg,)))
                ins.append(Instruction("MZ", (child_reg,)))

    grow(1, 0, 1)
    grow(0, 0, 0)
    ins.append(Instruction("CZ", (0, 1)))
    ins.append(Instruction("MX", (1,)))
    ins.append(Instruction("MX", (0,)))

    return InstructionSequence(
        branching=tuple(vec),
        n_registers=vec.depth + 1,
        n_photons=len(photon_vertex),
        instructions=ins,
        photon_vertex=photon_vertex,
    )


# ---------------------------------------------------------------------------
# Target state and verification
# ---------------------------------------------------------------------------

def logical_bell_tableau(b: BranchingVectorLike) -> StabilizerTableau:
    """Stabilizer group of the graph-type logical Bell pair of two tree codes.

    Qubits are the photon columns of :meth:`BranchingVector.photon_column`:
    tree-0 vertices 1..n-1 (breadth first) followed by tree-1 vertices
    1..n-1.  Generators: every K_u of either tree for u at level 2 or
    deeper, each code's first-level completion products, and the cross pair
    (X_L Z_L'), (Z_L X_L').
    """
    vec = as_branching_vector(b)
    tree = build_tree(vec)
    n = 2 * (tree.n_vertices - 1)
    # Vertex v of tree t sits in column offsets[t] + v; the root would sit at offsets[t].
    offsets = [vec.photon_column(tree_id, 0) for tree_id in (0, 1)]
    lead, *others = tree.children[0]

    gens: list[PauliString] = []
    for off in offsets:
        gens += [graph_generator(tree, u, n, off)
                 for u in range(tree.n_vertices) if tree.level[u] >= 2]
        gens += [logical_x_string(tree, n, off, lead) * logical_x_string(tree, n, off, v)
                 for v in others]
    for x_off, z_off in (offsets, offsets[::-1]):
        gens.append(logical_x_string(tree, n, x_off) * logical_z_string(tree, n, z_off))
    return StabilizerTableau.from_generators(gens)


@dataclass
class VerifyResult:
    ok: bool
    n_registers: int
    n_photons: int
    correction: PauliString | None
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def program_qubits(b: BranchingVectorLike) -> int:
    """Tableau qubits of shape ``b``'s Bell-pair program: one per photon,
    2 (n - 1) of them, and one per register, d + 1."""
    vec = as_branching_vector(b)
    return 2 * (photon_count(vec) - 1) + vec.depth + 1


def tableau_bytes(qubits: int) -> int:
    """Estimated peak bytes of running a Bell-pair program on ``qubits`` tableau qubits
    and verifying it.

    A tableau holds about one generator per qubit as two bool planes, and
    the verifier holds the executed state, the target and their canonical
    forms at once: about 14 bytes per qubit squared measured on (10,10,2)
    and (15,15,2), taken here as 16.
    """
    return 16 * qubits**2


def check_tableau_size(qubits: int) -> None:
    """Raise ``ValueError`` with the estimate if a program on ``qubits`` tableau qubits
    would not fit the cap."""
    need = tableau_bytes(qubits)
    if need > MAX_TABLEAU_BYTES:
        raise ValueError(
            f"verifying a program of {qubits} qubits on the tableau needs about "
            f"{need / 1e9:.3g} GB, above the {MAX_TABLEAU_BYTES / 1e9:g} GB cap"
        )


def execute_sequence(
    seq: InstructionSequence,
    rng: np.random.Generator | None = None,
    forced_outcomes: list[int] | None = None,
) -> StabilizerTableau:
    """Run a sequence on the tableau engine; returns the photon-only state.

    Photon p is tableau qubit p and register r is qubit ``n_photons + r``.
    A register is prepared in ``|+>`` on first use and again on every use
    after a measurement; a complete program destructively measures every
    register out.  The deferred leaf rotation (H on each leaf photon) is
    applied before returning.  A program whose tableau would not fit
    :data:`MAX_TABLEAU_BYTES` is refused before anything is allocated.
    """
    check_tableau_size(seq.n_photons + seq.n_registers)
    vec = as_branching_vector(seq.branching)
    n_p = seq.n_photons
    unmapped = set(range(n_p)) - seq.photon_vertex.keys()
    if unmapped:
        raise ValueError(f"photon_vertex names no tree vertex for {len(unmapped)} of the "
                         f"{n_p} photons; a program runs only with the compiler's map")
    t = StabilizerTableau.from_generators(
        PauliString.single(n_p + seq.n_registers, p, "Z") for p in range(n_p)
    )
    live: set[int] = set()  # registers prepared and not yet measured

    def reg(ins: Instruction, r: int) -> int:
        if not 0 <= r < seq.n_registers:
            raise ValueError(f"{ins.to_line()!r}: register {r} outside 0..{seq.n_registers - 1}")
        if r not in live:
            t.prepare(n_p + r, "X")
            live.add(r)
        return n_p + r

    outcomes = iter(forced_outcomes) if forced_outcomes is not None else None

    for ins in seq.instructions:
        if ins.opcode == "E":
            r, p = ins.args
            if not 0 <= p < n_p:
                raise ValueError(f"{ins.to_line()!r}: photon {p} outside 0..{n_p - 1}")
            t.apply_cnot(reg(ins, r), p)
        elif ins.opcode == "H":
            t.apply_h(reg(ins, ins.args[0]))
        elif ins.opcode == "CZ":
            t.apply_cz(reg(ins, ins.args[0]), reg(ins, ins.args[1]))
        elif ins.opcode in ("MX", "MY", "MZ"):
            try:
                outcome = next(outcomes) if outcomes is not None else None
            except StopIteration:
                raise ValueError(f"{ins.to_line()!r}: no forced outcome left") from None
            t.measure(reg(ins, ins.args[0]), ins.opcode[1], outcome=outcome, rng=rng,
                      destructive=True)
            live.remove(ins.args[0])
        else:
            raise ValueError(f"unknown opcode {ins.opcode}")

    if live:
        raise ValueError(f"registers never measured out: {sorted(live)}")

    # Deferred single-photon rotation on the leaves; order the photons into
    # the target's columns.
    leaves = vec.level_vertices(vec.depth)
    order = [None] * (2 * (photon_count(vec) - 1))
    for p, (tree_id, vertex) in seq.photon_vertex.items():
        if vertex in leaves:
            t.apply_h(p)
        order[vec.photon_column(tree_id, vertex)] = p
    return restricted_to(t, order)


def verify_bell_pair(
    seq: InstructionSequence,
    b: BranchingVectorLike,
    rng: np.random.Generator | None = None,
    forced_outcomes: list[int] | None = None,
) -> VerifyResult:
    """Execute a sequence and compare against the logical Bell pair.

    Measurement byproducts are only ever Pauli frames, so the executed
    group must match the target up to signs; the verifier solves for the
    Pauli correction realizing the sign pattern, applies it, and then
    requires exact signed equality.  On mismatch, the first differing
    canonical generator is reported.  :func:`execute_sequence` refuses
    programs whose tableau would not fit :data:`MAX_TABLEAU_BYTES`.
    """
    vec = as_branching_vector(b)
    if tuple(vec) != tuple(seq.branching):
        raise ValueError("sequence was compiled for a different tree shape")
    if rng is None and forced_outcomes is None:
        forced_outcomes = [1] * seq.n_measurements

    state = execute_sequence(seq, rng=rng, forced_outcomes=forced_outcomes)
    target = logical_bell_tableau(vec)

    def result(ok: bool, detail: str, corr: PauliString | None = None) -> VerifyResult:
        return VerifyResult(ok, seq.n_registers, seq.n_photons, corr, detail)

    if state.n_generators != target.n_generators:
        return result(False, f"rank mismatch: got {state.n_generators}, "
                             f"want {target.n_generators}")

    # Unsigned group comparison first.
    cs, ct = state.canonical(), target.canonical()
    differ = np.flatnonzero((cs.xs != ct.xs).any(axis=1) | (cs.zs != ct.zs).any(axis=1))
    if differ.size:
        i = differ[0]
        return result(False, f"unsigned group mismatch at canonical row {i}: "
                             f"got {cs.generator(i).to_label()}, want {ct.generator(i).to_label()}")

    # Solve for the Pauli frame that fixes the sign defects.
    defects = (cs.phase != ct.phase).astype(np.uint8)
    a = np.hstack([ct.zs, ct.xs]).astype(np.uint8)  # commutation pairing matrix
    sol = _gf2_solve(a, defects, 2 * state.n)
    if sol is None:
        return result(False, "no Pauli correction realizes the sign pattern")
    corr = PauliString(sol[: state.n].astype(bool), sol[state.n:].astype(bool), 1)
    state.apply_pauli(corr)

    if np.array_equal(state.canonical().phase, ct.phase):
        return result(True, "ok", corr)
    return result(False, "sign mismatch after correction", corr)
