"""Constructors and queries that only the tests use: one-qubit Paulis,
product and graph states, tableau copies, restrictions, generator lists
and expectations, the tree-code encoding, per-level exact rates, search
queries and the text forms.

Instruction sequences are written as text by the package
(``Instruction.to_line``); reading them back, and writing and reading
tableaux as text, is needed only to check those forms.  The package
builds the Bell-pair target from the same graph generators and logical
operators (``genseq.logical_bell_tableau``); a lone graph state, an
encoded logical qubit and a counterfactual Z readout are built here to
check those pieces.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from treebsm import analytic, stabilizer
from treebsm.genseq import Instruction
from treebsm.search import ParetoEntry, SearchBounds, _vector, evaluate_all
from treebsm.stabilizer import (
    PauliString,
    StabilizerTableau,
    check_tableau_size,
    graph_generator,
    logical_x_string,
    logical_z_string,
)
from treebsm.trees import BranchingVectorLike, ChannelParams, as_branching_vector, photon_count


def single(n: int, qubit: int, letter: str, sign: int = 1) -> PauliString:
    """The n-qubit Pauli with ``letter`` on ``qubit`` and the identity elsewhere."""
    return PauliString(n, stabilizer._letter_bits(letter) << 2 * qubit, sign)


def all_plus(n: int) -> StabilizerTableau:
    """The n-qubit product state |+>^n."""
    return StabilizerTableau.from_generators([single(n, q, "X") for q in range(n)])


def copy_tableau(t: StabilizerTableau) -> StabilizerTableau:
    """An independent tableau holding the same rows, with the same retired qubits."""
    return t._from_rows(t.rows, t.phase)


def generators(t: StabilizerTableau) -> list[PauliString]:
    """Every generator of ``t`` as a signed Pauli, in row order."""
    return [t.generator(i) for i in range(t.n_generators)]


def restricted_to(t: StabilizerTableau, qubits: Sequence[int]) -> StabilizerTableau:
    """New tableau on the listed qubits (all generators must live there)."""
    column = {q: k for k, q in enumerate(qubits)}
    rows = []
    for v in t.rows:
        w = 0
        for q in (k >> 1 for k in stabilizer._set_bits((v | v >> 1) & t._x)):
            if q not in column:
                raise ValueError("generators have support outside the requested qubits")
            w |= (v >> 2 * q & 3) << 2 * column[q]
        rows.append(w)
    return StabilizerTableau(len(column))._from_rows(rows, t.phase)


def tableau_text(t: StabilizerTableau) -> str:
    """One signed generator per line (``+XZI``), over the alive qubits only."""
    return "\n".join(g.to_label() for g in generators(restricted_to(t, t.alive))) + "\n"


def expectation(t: StabilizerTableau, p: PauliString) -> int:
    """+1/-1 if p (with its sign) is fixed by the state of ``t``, 0 if random."""
    if p.n != t.n:
        raise ValueError("qubit-count mismatch")
    return 0 if t._anticommuting(p.bits) else t._reduce(p.bits, stabilizer._phase_of(p, t._x))[2]


def tableau_from_text(text: str) -> StabilizerTableau:
    """Parse the one-signed-generator-per-line form of :func:`tableau_text`."""
    return StabilizerTableau.from_generators(
        [PauliString.from_label(line) for line in text.strip().splitlines()]
    )


def instruction_from_line(line: str) -> Instruction:
    """Parse one line of ``Instruction.to_line``."""
    opcode, *args = line.split()
    return Instruction(opcode, tuple(int(x) for x in args))


def level_stats(b: BranchingVectorLike, params: ChannelParams,
                basis: analytic.Basis) -> analytic.LayerStats:
    """Per-level rates of one value under the static rules: the suffix walk on a batch of one.

    Level ``k`` of a depth-``d`` shape is its suffix of length ``d - k``.
    """
    row = analytic._channel_rows(np.array([params.eta]), np.array([params.eps]))
    table, key = analytic._suffix_walk(basis, analytic._branch_array([b]), row)
    return analytic.LayerStats(*table[:, -1, key[::-1, 0]])


def smallest_error_correcting(
    bounds: SearchBounds, params: ChannelParams, protocol: analytic.Protocol
) -> ParetoEntry | None:
    """The in-bounds shape of least photon count whose error beats a raw BSM.

    Every shape before it errs more, so it improves on their error.
    """
    table, rates = evaluate_all(bounds, params, protocol)
    hits = np.flatnonzero(rates.err_complete < params.eps_bsm) if params.eps > 0.0 else []
    if len(hits) == 0:
        return None
    i = int(hits[0])
    b = _vector(table[i].tolist())
    pr, err = float(rates.pr_complete[i]), float(rates.err_complete[i])
    return ParetoEntry(
        b, photon_count(b), protocol, params.eta, params.eps, pr, err,
        loss_tolerant=pr > params.eta**2, beats_physical=pr > 0.5 * params.eta**2,
        error_correcting=True, improves_success=bool(pr > rates.pr_complete[:i].max(initial=-1.0)),
        improves_error=True)


def graph_state_tableau(b: BranchingVectorLike) -> StabilizerTableau:
    """One generator per vertex: X there, Z on every neighbor, sign +."""
    vec = as_branching_vector(b)
    n = vec.check_vertices()
    check_tableau_size(n)
    return StabilizerTableau.from_generators(graph_generator(vec, v, n) for v in range(n))


def encode_logical(
    b: BranchingVectorLike,
    state_prep: str = "+X",
    rng: np.random.Generator | None = None,
    outcomes: tuple[int, int] | None = None,
) -> tuple[StabilizerTableau, PauliString, PauliString]:
    """Push a single-qubit stabilizer state into the tree code.

    The input qubit (prepared in the +1 eigenstate of ``state_prep``, e.g.
    ``"+X"`` for plus, ``"+Z"`` for zero) is attached to the root by a CZ
    gate, then the input and the root are both measured in X.  The
    outcome-dependent frame fix applies the logical X for a ``-1`` root
    outcome, then the logical Z for a ``-1`` input outcome.  Returns the
    code tableau on the remaining ``n - 1`` qubits with its logical X and
    Z operators.
    """
    vec = as_branching_vector(b)
    n = vec.check_vertices()
    check_tableau_size(n + 1)
    t = StabilizerTableau.from_generators(graph_generator(vec, v, n + 1) for v in range(n))
    inp = n
    t.prepare(inp, state_prep)
    t.apply_cz(inp, 0)
    forced = outcomes if outcomes is not None else (None, None)
    m_in = t.measure(inp, "X", outcome=forced[0], rng=rng, destructive=True)
    m_root = t.measure(0, "X", outcome=forced[1], rng=rng, destructive=True)

    if m_root == -1:
        t.apply_pauli(logical_x_string(vec, n + 1))
    if m_in == -1:
        t.apply_pauli(logical_z_string(vec, n + 1))

    # Dropping the root shifts every vertex id down by one.
    return (restricted_to(t, range(1, n)), logical_x_string(vec, n - 1, offset=-1),
            logical_z_string(vec, n - 1, offset=-1))


def verify_indirect_z(
    b: BranchingVectorLike,
    target: int,
    rng: np.random.Generator,
    trials: int = 4,
) -> bool:
    """Operationally check counterfactual Z readout of one vertex.

    Fix Z on the target first (both signs), then measure X on one child and
    Z on that child's children; the product of those outcomes must
    reproduce the fixed value every time.
    """
    vec = as_branching_vector(b)
    if not (kids := vec.children(target)):
        raise ValueError(f"vertex {target} is a leaf; it has no recovery chain")
    for forced in (1, -1):
        for _ in range(trials):
            t = graph_state_tableau(vec)
            m_target = t.measure(target, "Z", outcome=forced, rng=rng, destructive=True)
            prod = t.measure(kids[0], "X", rng=rng, destructive=True)
            for s in vec.children(kids[0]):
                prod *= t.measure(s, "Z", rng=rng, destructive=True)
            if prod != m_target:
                return False
    return True
