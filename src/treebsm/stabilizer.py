"""Stabilizer-tableau engine for graph states and destructive Pauli measurements.

Ground truth for small instances: graph-state construction, the logical
encoding carved out of a tree, single-qubit Pauli measurements and
canonical-form comparison of tableaux.

Every generator update goes through one row primitive, ``_row_mult``,
which multiplies one generator into a set of others.  A pivot step
multiplies a pivot generator into every other generator with a bit in a
given column.  A measurement (Aaronson and Gottesman, PRA 70, 052328) is
one pivot step: write the signed outcome ``m * P`` into the pivot row and
clear the measured qubit's column through it; the outcome only decides
which row is the pivot.  The canonical form is the same step taken
column by column in row-echelon order.

Internally a generator is stored as ``i**phase * prod_q X_q^{x_q} Z_q^{z_q}``
with X factors written left of Z factors on every qubit.  A Hermitian Pauli
then satisfies ``phase == (number of Y sites) mod 2``; only such rows ever
appear (row products are taken between commuting stabilizers).  An explicit
``+1/-1`` sign is exposed at the edges; i-phases never leak out.

The gate set is H, CZ, CNOT and Pauli frame corrections: everything needed
for graph states, photon emission and measurement-based verification.  No
phase gates, no non-Clifford gates, no statevectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .trees import TreeGraph


class MeasurementContradictionError(RuntimeError):
    """A forced outcome disagrees with a deterministically fixed value."""


# ---------------------------------------------------------------------------
# Pauli strings
# ---------------------------------------------------------------------------

_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS = {v: k for k, v in _LETTER.items()}


@dataclass
class PauliString:
    """A signed Pauli operator on ``n`` qubits (sign is +1 or -1 only)."""

    xs: np.ndarray
    zs: np.ndarray
    sign: int = 1

    def __post_init__(self) -> None:
        self.xs = np.asarray(self.xs, dtype=bool)
        self.zs = np.asarray(self.zs, dtype=bool)
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(np.zeros(n, dtype=bool), np.zeros(n, dtype=bool), 1)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str, sign: int = 1) -> "PauliString":
        p = cls.identity(n)
        x, z = _BITS[letter.upper()]
        p.xs[qubit], p.zs[qubit] = bool(x), bool(z)
        p.sign = sign
        return p

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        label = label.strip()
        sign = 1
        if label and label[0] in "+-":
            sign = -1 if label[0] == "-" else 1
            label = label[1:]
        xs, zs = [], []
        for ch in label:
            x, z = _BITS[ch.upper()]
            xs.append(bool(x))
            zs.append(bool(z))
        return cls(np.array(xs, dtype=bool), np.array(zs, dtype=bool), sign)

    @property
    def n(self) -> int:
        return len(self.xs)

    def to_label(self) -> str:
        body = "".join(_LETTER[(int(x), int(z))] for x, z in zip(self.xs, self.zs))
        return ("+" if self.sign == 1 else "-") + body

    def commutes_with(self, other: "PauliString") -> bool:
        anti = np.count_nonzero(self.xs & other.zs) + np.count_nonzero(self.zs & other.xs)
        return anti % 2 == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not self.commutes_with(other):
            raise ValueError("product of anticommuting Paulis is not Hermitian")
        ph = _phase_of(self) + _phase_of(other) + 2 * int(np.count_nonzero(self.zs & other.xs))
        xs, zs = self.xs ^ other.xs, self.zs ^ other.zs
        return PauliString(xs, zs, _sign_from_phase(ph % 4, xs, zs))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PauliString)
            and self.sign == other.sign
            and np.array_equal(self.xs, other.xs)
            and np.array_equal(self.zs, other.zs)
        )


def _phase_of(p: PauliString) -> int:
    """i-exponent of ``p`` in X-left-of-Z form."""
    n_y = int(np.count_nonzero(p.xs & p.zs))
    return (n_y + (0 if p.sign == 1 else 2)) % 4


def _sign_from_phase(phase: int, xs: np.ndarray, zs: np.ndarray) -> int:
    n_y = int(np.count_nonzero(xs & zs))
    rel = (phase - n_y) % 4
    if rel == 0:
        return 1
    if rel == 2:
        return -1
    raise AssertionError("non-Hermitian phase encountered")


# ---------------------------------------------------------------------------
# Tableau
# ---------------------------------------------------------------------------

class StabilizerTableau:
    """Sign-annotated generator list of a stabilizer group on ``n`` qubits.

    The generator count may be below ``n`` (code states).  Destructive
    measurements drop the measured qubit's residual generator and retire
    the qubit; retired columns are excluded from serialization, canonical
    forms and equality until :meth:`prepare` puts the qubit in a fresh state.
    """

    def __init__(self, n: int):
        self.n = n
        self.xs = np.zeros((0, n), dtype=bool)
        self.zs = np.zeros((0, n), dtype=bool)
        self.phase = np.zeros(0, dtype=np.uint8)   # i-exponent mod 4
        self.discarded: set[int] = set()
        self.x_logical: PauliString | None = None
        self.z_logical: PauliString | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_generators(cls, paulis: Iterable[PauliString]) -> "StabilizerTableau":
        paulis = list(paulis)
        if not paulis:
            raise ValueError("need at least one generator")
        t = cls(paulis[0].n)
        t._append_rows(paulis)
        t._check_consistency()
        return t

    def copy(self) -> "StabilizerTableau":
        t = StabilizerTableau(self.n)
        t.xs = self.xs.copy()
        t.zs = self.zs.copy()
        t.phase = self.phase.copy()
        t.discarded = set(self.discarded)
        t.x_logical = self.x_logical
        t.z_logical = self.z_logical
        return t

    @property
    def n_generators(self) -> int:
        return self.xs.shape[0]

    @property
    def alive(self) -> list[int]:
        return [q for q in range(self.n) if q not in self.discarded]

    def generator(self, i: int) -> PauliString:
        return PauliString(
            self.xs[i].copy(), self.zs[i].copy(),
            _sign_from_phase(int(self.phase[i]), self.xs[i], self.zs[i]),
        )

    def generators(self) -> list[PauliString]:
        return [self.generator(i) for i in range(self.n_generators)]

    def _append_rows(self, paulis: Sequence[PauliString]) -> None:
        if any(p.n != self.n for p in paulis):
            raise ValueError("qubit-count mismatch")
        self.xs = np.vstack([self.xs, *(p.xs for p in paulis)])
        self.zs = np.vstack([self.zs, *(p.zs for p in paulis)])
        phases = np.array([_phase_of(p) for p in paulis], dtype=np.uint8)
        self.phase = np.concatenate([self.phase, phases])

    def _check_consistency(self) -> None:
        for i in range(self.n_generators):
            later = np.flatnonzero(self._anticommuting(self.xs[i], self.zs[i])[i + 1:])
            if later.size:
                raise ValueError(f"generators {i} and {i + 1 + later[0]} anticommute")

    def prepare(self, q: int, letter: str) -> None:
        """Put qubit ``q`` in the +1 eigenstate of a one-qubit Pauli (``"X"``, ``"-Z"``, ...).

        No generator may act on ``q``: it is a column never used yet or one
        a destructive measurement retired, which this brings back.
        """
        if not 0 <= q < self.n:
            raise ValueError(f"qubit {q} out of range")
        if self.xs[:, q].any() or self.zs[:, q].any():
            raise ValueError(f"qubit {q} is still acted on by a generator")
        p = PauliString.from_label(letter)
        if p.n != 1 or not (p.xs[0] or p.zs[0]):
            raise ValueError(f"expected a one-qubit Pauli label like '+X', got {letter!r}")
        row = PauliString.identity(self.n)
        row.xs[q], row.zs[q], row.sign = p.xs[0], p.zs[0], p.sign
        self._append_rows([row])
        self.discarded.discard(q)

    # -- row arithmetic ------------------------------------------------------

    def _row_mult(self, rows: np.ndarray | int, j: int) -> None:
        """Replace generator i by (generator i) * (generator j) for every i in ``rows``."""
        cross = np.count_nonzero(self.zs[rows] & self.xs[j], axis=-1)
        self.phase[rows] = (self.phase[rows] + self.phase[j] + 2 * cross) % 4
        self.xs[rows] ^= self.xs[j]
        self.zs[rows] ^= self.zs[j]

    def _pivot(self, j: int, column: np.ndarray) -> None:
        """Multiply generator j into every other generator with a bit in ``column``."""
        rows = np.flatnonzero(column)
        self._row_mult(rows[rows != j], j)

    def _anticommuting(self, px: np.ndarray, pz: np.ndarray) -> np.ndarray:
        """Per generator, whether it anticommutes with the Pauli with bits (px, pz)."""
        anti = np.count_nonzero(self.xs[:, pz], axis=1) + np.count_nonzero(self.zs[:, px], axis=1)
        return anti % 2 == 1

    def _product(self, rows: np.ndarray) -> PauliString:
        """Signed product of the generators in ``rows``, taken in index order."""
        xs, zs = self.xs[rows], self.zs[rows]
        # Each row's X block moves left past the Z block of the product so
        # far: one sign per overlap, as in _row_mult.
        zs_before = np.logical_xor.accumulate(zs, axis=0)
        cross = np.count_nonzero(zs_before[:-1] & xs[1:])
        phase = (int(self.phase[rows].sum()) + 2 * cross) % 4
        xs, zs = np.logical_xor.reduce(xs), np.logical_xor.reduce(zs)
        return PauliString(xs, zs, _sign_from_phase(phase, xs, zs))

    # -- Clifford gates ------------------------------------------------------

    def _alive_check(self, *qubits: int) -> None:
        for q in qubits:
            if q in self.discarded:
                raise ValueError(f"qubit {q} was destructively measured")
            if not 0 <= q < self.n:
                raise ValueError(f"qubit {q} out of range")

    def apply_h(self, q: int) -> None:
        self._alive_check(q)
        both = self.xs[:, q] & self.zs[:, q]
        self.phase = (self.phase + 2 * both.astype(np.uint8)) % 4
        self.xs[:, q], self.zs[:, q] = self.zs[:, q].copy(), self.xs[:, q].copy()

    def apply_cz(self, a: int, b: int) -> None:
        self._alive_check(a, b)
        both_x = self.xs[:, a] & self.xs[:, b]
        self.phase = (self.phase + 2 * both_x.astype(np.uint8)) % 4
        self.zs[:, a] ^= self.xs[:, b]
        self.zs[:, b] ^= self.xs[:, a]

    def apply_cnot(self, control: int, target: int) -> None:
        self._alive_check(control, target)
        self.xs[:, target] ^= self.xs[:, control]
        self.zs[:, control] ^= self.zs[:, target]

    def apply_pauli(self, p: PauliString) -> None:
        """Conjugate the state by a Pauli frame correction."""
        flips = self._anticommuting(p.xs, p.zs)
        self.phase = (self.phase + 2 * flips.astype(np.uint8)) % 4

    # -- membership / expectation -------------------------------------------

    def _solve_membership(self, target: PauliString) -> np.ndarray | None:
        """GF(2) coefficients expressing target's symplectic vector, or None."""
        m = self.n_generators
        a = np.hstack([self.xs, self.zs]).astype(np.uint8).T  # (2n, m)
        rhs = np.concatenate([target.xs, target.zs]).astype(np.uint8)
        return _gf2_solve(a, rhs, m)

    def expectation(self, p: PauliString) -> int:
        """+1/-1 if p (with its sign) is fixed by the state, 0 if random."""
        if self._anticommuting(p.xs, p.zs).any():
            return 0
        coeffs = self._solve_membership(p)
        if coeffs is None:
            return 0
        return p.sign * self._product(np.flatnonzero(coeffs)).sign

    # -- measurement ---------------------------------------------------------

    def measure(
        self,
        qubit: int,
        basis: str,
        outcome: int | None = None,
        rng: np.random.Generator | None = None,
        destructive: bool = False,
    ) -> int:
        """Measure one qubit in the X, Y or Z basis; returns the +1/-1 outcome.

        Every outcome takes the same path: choose a pivot generator, write
        the signed outcome ``m * P`` into it and multiply it into every
        other generator touching the qubit.  The pivot is the first
        generator anticommuting with ``P`` once it has been multiplied into
        the others (random outcome); the first generator of the product
        that equals ``m * P`` (deterministic outcome, the group is
        unchanged); or a new row (``P`` commutes with the group without
        being in it, an undetermined code direction; random outcome).

        ``outcome`` forces the result where it is random; forcing a
        deterministic measurement to the opposite value raises
        :class:`MeasurementContradictionError`.  In destructive mode the
        pivot row, the only generator left on the qubit, is dropped and the
        qubit retired, matching a photon absorbed by its detector.
        """
        self._alive_check(qubit)
        op = PauliString.single(self.n, qubit, basis)
        anti = self._anticommuting(op.xs, op.zs)
        if anti.any():
            pivot = int(np.argmax(anti))
            self._pivot(pivot, anti)
            m = self._draw_outcome(outcome, rng)
        elif (coeffs := self._solve_membership(op)) is None:
            m = self._draw_outcome(outcome, rng)
            self._append_rows([op])
            pivot = self.n_generators - 1
        else:
            support = np.flatnonzero(coeffs)
            m = self._product(support).sign
            if outcome is not None and outcome != m:
                raise MeasurementContradictionError(
                    f"{basis} on qubit {qubit} is fixed to {m}, cannot force {outcome}"
                )
            pivot = int(support[0])
        rep = PauliString.single(self.n, qubit, basis, sign=m)
        self.xs[pivot], self.zs[pivot], self.phase[pivot] = rep.xs, rep.zs, _phase_of(rep)
        self._pivot(pivot, self.xs[:, qubit] | self.zs[:, qubit])
        if destructive:
            self._drop_row_and_qubit(pivot, qubit)
        return m

    def _draw_outcome(self, outcome: int | None, rng: np.random.Generator | None) -> int:
        if outcome is not None:
            if outcome not in (1, -1):
                raise ValueError("outcome must be +1 or -1")
            return outcome
        if rng is None:
            raise ValueError("random outcome requested but no rng supplied")
        return 1 if rng.integers(0, 2) == 0 else -1

    def _drop_row_and_qubit(self, row: int, qubit: int) -> None:
        keep = np.arange(self.n_generators) != row
        self.xs = self.xs[keep]
        self.zs = self.zs[keep]
        self.phase = self.phase[keep]
        if np.any(self.xs[:, qubit]) or np.any(self.zs[:, qubit]):
            raise AssertionError("retired qubit still has generator support")
        self.discarded.add(qubit)

    # -- canonical form and serialization -------------------------------------

    def canonical(self) -> "StabilizerTableau":
        """Row-reduced echelon form over the alive columns, unique per group."""
        t = self.copy()
        row = 0
        for q in t.alive:
            for bits in (t.xs, t.zs):
                hits = np.flatnonzero(bits[row:, q])
                if not hits.size:
                    continue
                pivot = row + hits[0]
                for a in (t.xs, t.zs, t.phase):
                    a[[row, pivot]] = a[[pivot, row]]
                t._pivot(row, bits[:, q])
                row += 1
        return t

    def to_text(self) -> str:
        alive = self.alive
        lines = []
        for i in range(self.n_generators):
            sign = _sign_from_phase(int(self.phase[i]), self.xs[i], self.zs[i])
            body = "".join(
                _LETTER[(int(self.xs[i, q]), int(self.zs[i, q]))] for q in alive
            )
            lines.append(("+" if sign == 1 else "-") + body)
        return "\n".join(lines) + "\n"


def _gf2_solve(a: np.ndarray, rhs: np.ndarray, n_vars: int) -> np.ndarray | None:
    """Solve a @ c = rhs over GF(2); a has shape (rows, n_vars)."""
    aug = np.hstack([a % 2, (rhs % 2).reshape(-1, 1)]).astype(bool)
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    r = 0
    for c in range(n_vars):
        hits = np.flatnonzero(aug[r:, c])
        if not hits.size:
            continue
        pr = r + hits[0]
        aug[[r, pr]] = aug[[pr, r]]
        others = aug[:, c].copy()
        others[r] = False
        aug[others] ^= aug[r]
        pivot_rows.append(r)
        pivot_cols.append(c)
        r += 1
    if aug[r:, -1].any():
        return None
    sol = np.zeros(n_vars, dtype=np.uint8)
    sol[pivot_cols] = aug[pivot_rows, -1]
    return sol


def tableau_equal(a: StabilizerTableau, b: StabilizerTableau) -> bool:
    """Group equality including signs, via identical canonical forms."""
    if sorted(a.alive) != sorted(b.alive) or a.n_generators != b.n_generators:
        raise ValueError("tableaux compare only on equal qubit sets and ranks")
    ca, cb = a.canonical(), b.canonical()
    return (
        np.array_equal(ca.xs[:, ca.alive], cb.xs[:, cb.alive])
        and np.array_equal(ca.zs[:, ca.alive], cb.zs[:, cb.alive])
        and np.array_equal(ca.phase, cb.phase)
    )


# ---------------------------------------------------------------------------
# Graph states and the tree-code encoding
# ---------------------------------------------------------------------------

def graph_generator(tree: TreeGraph, v: int, n: int, offset: int = 0) -> PauliString:
    """X on vertex ``v``, Z on every neighbor (vertex ids offset), on ``n`` qubits."""
    p = PauliString.identity(n)
    p.xs[offset + v] = True
    for w in tree.neighbors(v):
        p.zs[offset + w] = True
    return p


def graph_state_tableau(tree: TreeGraph) -> StabilizerTableau:
    """One generator per vertex: X there, Z on every neighbor, sign +."""
    n = tree.n_vertices
    return StabilizerTableau.from_generators(graph_generator(tree, v, n) for v in range(n))


def logical_x_string(tree: TreeGraph, n: int, offset: int = 0, level1_vertex: int | None = None) -> PauliString:
    """X on one first-level vertex, Z on its children (vertex ids offset)."""
    v = level1_vertex if level1_vertex is not None else tree.children[0][0]
    p = PauliString.identity(n)
    p.xs[offset + v] = True
    for w in tree.children[v]:
        p.zs[offset + w] = True
    return p


def logical_z_string(tree: TreeGraph, n: int, offset: int = 0) -> PauliString:
    """Z on every first-level vertex (vertex ids offset)."""
    p = PauliString.identity(n)
    for v in tree.children[0]:
        p.zs[offset + v] = True
    return p


def encode_logical(
    tree: TreeGraph,
    state_prep: str = "+X",
    rng: np.random.Generator | None = None,
    outcomes: tuple[int, int] | None = None,
) -> StabilizerTableau:
    """Push a single-qubit stabilizer state into the tree code.

    The input qubit (prepared in the +1 eigenstate of ``state_prep``, e.g.
    ``"+X"`` for plus, ``"+Z"`` for zero) is attached to the root by a CZ
    gate, then the input and the root are both measured in X.  The
    outcome-dependent frame fix applies the logical X for a ``-1`` root
    outcome, then the logical Z for a ``-1`` input outcome.  The result is
    the code tableau on the remaining ``n - 1`` qubits with the logical
    operators designated.
    """
    n = tree.n_vertices
    t = StabilizerTableau.from_generators(graph_generator(tree, v, n + 1) for v in range(n))
    inp = n
    t.prepare(inp, state_prep)
    t.apply_cz(inp, 0)
    forced = outcomes if outcomes is not None else (None, None)
    m_in = t.measure(inp, "X", outcome=forced[0], rng=rng, destructive=True)
    m_root = t.measure(0, "X", outcome=forced[1], rng=rng, destructive=True)

    if m_root == -1:
        t.apply_pauli(logical_x_string(tree, n + 1))
    if m_in == -1:
        t.apply_pauli(logical_z_string(tree, n + 1))

    # Dropping the root shifts every vertex id down by one.
    code = restricted_to(t, range(1, n))
    code.x_logical = logical_x_string(tree, n - 1, offset=-1)
    code.z_logical = logical_z_string(tree, n - 1, offset=-1)
    return code


def restricted_to(t: StabilizerTableau, qubits: Sequence[int]) -> StabilizerTableau:
    """New tableau on the listed qubits (all generators must live there)."""
    qubits = list(qubits)
    others = [q for q in range(t.n) if q not in qubits]
    if others and (np.any(t.xs[:, others]) or np.any(t.zs[:, others])):
        raise ValueError("generators have support outside the requested qubits")
    out = StabilizerTableau(len(qubits))
    out.xs = t.xs[:, qubits].copy()
    out.zs = t.zs[:, qubits].copy()
    out.phase = t.phase.copy()
    return out


def verify_indirect_z(
    tree: TreeGraph,
    target: int,
    rng: np.random.Generator,
    trials: int = 4,
) -> bool:
    """Operationally check counterfactual Z readout of one vertex.

    Fix Z on the target first (both signs), then measure X on one child and
    Z on that child's children; the product of those outcomes must
    reproduce the fixed value every time.
    """
    if not tree.children[target]:
        raise ValueError(f"vertex {target} is a leaf; it has no recovery chain")
    for forced in (1, -1):
        for _ in range(trials):
            t = graph_state_tableau(tree)
            m_target = t.measure(target, "Z", outcome=forced, rng=rng, destructive=True)
            w = tree.children[target][0]
            prod = t.measure(w, "X", rng=rng, destructive=True)
            for s in tree.children[w]:
                prod *= t.measure(s, "Z", rng=rng, destructive=True)
            if prod != m_target:
                return False
    return True
