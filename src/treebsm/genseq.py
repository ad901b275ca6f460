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
* A photon's index is its column in the target state,
  :meth:`~treebsm.trees.BranchingVector.photon_column`: tree 0's
  vertices 1..n-1 in breadth-first order, then tree 1's.  ``E r c`` emits
  the photon of column c, so the program text alone is the whole program.
* Every photon and every register has one fixed tableau qubit: photon p
  is qubit p, register r is qubit ``n_photons + r``.  A register starts in
  ``|+>`` and, once measured, is prepared in ``|+>`` again on its next use.
* Measurement byproducts are a Pauli frame that the record fixes.  ``MZ r``
  reading -1, where register r last emitted photon p (the teleport
  ``E r p; H r; MZ r``), leaves Z on column p; a root ``MX r``
  (r = 0, 1) reading -1 leaves tree r's logical X.  The verifier applies
  that frame; no other -1 outcome has a known byproduct.
* The logical Bell pair produced by root-X measurements is the graph-type
  pair: its cross generators are (logical X) x (logical Z') and
  (logical Z) x (logical X'), together with both codes' stabilizers.  It
  is one logical Hadamard away from the parity-aligned pair; the verifier
  targets the state the sequence actually prepares.

For a branching vector of depth d the register count is d + 1 (two roots
sharing the d - 1 ladder registers); depth 1 needs just the two roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .stabilizer import (
    PauliString,
    StabilizerTableau,
    canonical_mismatch,
    check_tableau_size,
    graph_generator,
    logical_x_string,
    logical_z_string,
)
from .trees import BranchingVectorLike, as_branching_vector, photon_count


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instruction:
    """One matter-register operation.

    opcode: "E" (emit photon: args = (register, photon column)), "H" (register),
    "MX" / "MY" / "MZ" (measure register), "CZ" (two registers).
    """

    opcode: str
    args: tuple[int, ...]

    def to_line(self) -> str:
        return " ".join([self.opcode, *map(str, self.args)])


# Argument count of each opcode.
_ARITY = {"E": 2, "H": 1, "CZ": 2, "MX": 1, "MY": 1, "MZ": 1}


@dataclass
class InstructionSequence:
    """Ordered matter-qubit program (execution order = list order).

    Photon p is the tree vertex of target column p
    (:meth:`~treebsm.trees.BranchingVector.photon_column`).  Matter
    registers are numbered 0 (root of tree 0), 1 (root of tree 1), then 2..
    for the shared ladder.
    """

    branching: tuple[int, ...]
    n_registers: int
    n_photons: int
    instructions: list[Instruction]

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    @property
    def n_measurements(self) -> int:
        return sum(1 for ins in self.instructions if ins.opcode in ("MX", "MY", "MZ"))

    def to_text(self) -> str:
        """One instruction per line: with the shape and the counts, the whole program."""
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
    first, then the two roots are bonded and measured in X.  Each photon is
    emitted as its vertex's target column.
    """
    vec = as_branching_vector(b)
    n_tree = vec.check_vertices()
    ins: list[Instruction] = []

    def grow(reg: int, vertex: int, level: int, tree_id: int) -> None:
        # Attach every child subtree of `vertex` (at `level`, held on register `reg`).
        child_reg = 2 + level  # ladder register holding level-(level+1) nodes
        for child in vec.children(vertex):
            column = vec.photon_column(tree_id, child)
            if level + 1 == vec.depth:
                ins.append(Instruction("E", (reg, column)))
            else:
                grow(child_reg, child, level + 1, tree_id)
                ins.extend([Instruction("CZ", (reg, child_reg)), Instruction("E", (child_reg, column)),
                            Instruction("H", (child_reg,)), Instruction("MZ", (child_reg,))])

    grow(1, 0, 0, 1)
    grow(0, 0, 0, 0)
    ins.append(Instruction("CZ", (0, 1)))
    ins.append(Instruction("MX", (1,)))
    ins.append(Instruction("MX", (0,)))

    return InstructionSequence(
        branching=tuple(vec),
        n_registers=vec.depth + 1,
        n_photons=2 * (n_tree - 1),
        instructions=ins,
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
    n_tree = vec.check_vertices()
    n = 2 * (n_tree - 1)
    check_tableau_size(n)
    # Vertex v of tree t sits in column offsets[t] + v; the root would sit at offsets[t].
    offsets = [vec.photon_column(tree_id, 0) for tree_id in (0, 1)]
    level1 = vec.level_vertices(1)
    lead, *others = level1

    gens: list[PauliString] = []
    for off in offsets:
        gens += [graph_generator(vec, u, n, off) for u in range(level1.stop, n_tree)]
        gens += [logical_x_string(vec, n, off, lead) * logical_x_string(vec, n, off, v)
                 for v in others]
    for x_off, z_off in (offsets, offsets[::-1]):
        gens.append(logical_x_string(vec, n, x_off) * logical_z_string(vec, n, z_off))
    return StabilizerTableau.from_generators(gens)


@dataclass
class VerifyResult:
    ok: bool
    n_registers: int
    correction: PauliString | None
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def program_qubits(b: BranchingVectorLike) -> int:
    """Tableau qubits of shape ``b``'s Bell-pair program: one per photon,
    2 (n - 1) of them, and one per register, d + 1."""
    vec = as_branching_vector(b)
    return 2 * (photon_count(vec) - 1) + vec.depth + 1


def execute_sequence(
    seq: InstructionSequence,
    rng: np.random.Generator | None = None,
    forced_outcomes: list[int] | None = None,
    record: list[int] | None = None,
) -> StabilizerTableau:
    """Run a sequence on the tableau engine; returns the photon-only state.

    Photon p is tableau qubit p, its target column, so a program has one
    photon per column of its shape; register r is qubit ``n_photons + r``.
    A register is prepared in ``|+>`` on first use and again on every use
    after a measurement; a complete program destructively measures every
    register out.  The deferred leaf rotation (H on each leaf photon's
    column) is applied before returning.  A measurement takes the next of
    ``forced_outcomes`` if given, which must hold one outcome per
    measurement, else draws from ``rng`` where its outcome is random;
    ``record``, if given, receives every outcome in program order.  A
    program whose tableau would not fit
    :data:`~treebsm.stabilizer.MAX_TABLEAU_BYTES` is refused before anything
    is allocated.
    """
    check_tableau_size(seq.n_photons + seq.n_registers)
    vec = as_branching_vector(seq.branching)
    n_p = seq.n_photons
    if n_p != 2 * (photon_count(vec) - 1):
        raise ValueError(f"{n_p} photons, not the {2 * (photon_count(vec) - 1)} columns of {vec}")
    t = StabilizerTableau(n_p + seq.n_registers)
    for p in range(n_p):
        t.prepare(p, "Z")
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
        if len(ins.args) != _ARITY.get(ins.opcode, len(ins.args)):
            raise ValueError(f"{ins.to_line()!r}: {ins.opcode} takes {_ARITY[ins.opcode]} "
                             f"argument(s), got {len(ins.args)}")
        if ins.opcode == "E":
            r, p = ins.args
            if not 0 <= p < n_p:
                raise ValueError(f"{ins.to_line()!r}: photon {p} outside 0..{n_p - 1}")
            t.apply_cnot(reg(ins, r), p)
        elif ins.opcode == "H":
            t.apply_h(reg(ins, ins.args[0]))
        elif ins.opcode == "CZ":
            if ins.args[0] == ins.args[1]:
                raise ValueError(f"{ins.to_line()!r}: CZ needs two different registers")
            t.apply_cz(reg(ins, ins.args[0]), reg(ins, ins.args[1]))
        elif ins.opcode in ("MX", "MY", "MZ"):
            try:
                outcome = next(outcomes) if outcomes is not None else None
            except StopIteration:
                raise ValueError(f"{ins.to_line()!r}: no forced outcome left") from None
            m = t.measure(reg(ins, ins.args[0]), ins.opcode[1], outcome=outcome, rng=rng,
                          destructive=True)
            if record is not None:
                record.append(m)
            live.remove(ins.args[0])
        else:
            raise ValueError(f"unknown opcode {ins.opcode}")

    if live:
        raise ValueError(f"registers never measured out: {sorted(live)}")
    if outcomes is not None and (left := sum(1 for _ in outcomes)):
        raise ValueError(f"{left} forced outcome(s) left after the last instruction")

    # Deferred single-photon rotation on the leaves.  Every register is
    # retired above the photons, so the rows act on photons 0..n_p-1 alone.
    for tree_id in (0, 1):
        for v in vec.level_vertices(vec.depth):
            t.apply_h(vec.photon_column(tree_id, v))
    return StabilizerTableau(n_p)._from_rows(t.rows, t.phase)


def verify_bell_pair(
    seq: InstructionSequence,
    b: BranchingVectorLike,
    rng: np.random.Generator | None = None,
    forced_outcomes: list[int] | None = None,
) -> VerifyResult:
    """Execute a sequence and compare against the logical Bell pair, signs included.

    The program runs as in :func:`execute_sequence`: with
    ``forced_outcomes`` if given, else drawing from ``rng`` where an outcome
    is random (so a seed gives the same state there), else with every
    outcome +1.  The Pauli frame that the outcomes it reports imply (the
    module's byproduct rule) is applied once, and the state must equal the
    target; a mismatch names the first differing canonical generator.  A -1
    outcome with no known byproduct fails verification.
    """
    vec = as_branching_vector(b)
    if tuple(vec) != tuple(seq.branching):
        raise ValueError("sequence was compiled for a different tree shape")
    if forced_outcomes is None and rng is None:
        forced_outcomes = [1] * seq.n_measurements
    record: list[int] = []
    state = execute_sequence(seq, rng=rng, forced_outcomes=forced_outcomes, record=record)

    frame = 0   # the frame's bits, as in a PauliString: Z on column c is bit 2c + 1
    last_photon: dict[int, int] = {}  # register -> the photon it emitted last
    outcomes = iter(record)
    for ins in seq.instructions:
        if ins.opcode == "E":
            last_photon[ins.args[0]] = ins.args[1]
        elif ins.opcode in ("MX", "MY", "MZ"):
            r, p = ins.args[0], last_photon.pop(ins.args[0], None)
            if next(outcomes) == 1:
                continue
            if ins.opcode == "MZ" and p is not None:
                frame ^= 2 << 2 * p
            elif ins.opcode == "MX" and r in (0, 1):
                frame ^= logical_x_string(vec, state.n, vec.photon_column(r, 0)).bits
            else:
                return VerifyResult(False, seq.n_registers, None,
                                    f"{ins.to_line()!r} read -1, which has no known byproduct")

    correction = PauliString(state.n, frame)
    state.apply_pauli(correction)
    mismatch = canonical_mismatch(state, logical_bell_tableau(vec))
    return VerifyResult(mismatch is None, seq.n_registers, correction, mismatch or "ok")
