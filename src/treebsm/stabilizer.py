"""Stabilizer-tableau engine for graph states and destructive Pauli measurements.

Ground truth for small instances: graph-state construction, the logical
encoding carved out of a tree, single-qubit Pauli measurements with the
three update rules (untouched generators keep, Z-containing generators
absorb the outcome sign, X-containing generators reduce to a single
representative that the measured operator replaces), and canonical-form
comparison of tableaux.

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
    forms and equality.
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
        for p in paulis:
            t._append_row(p)
        t._check_consistency()
        return t

    @classmethod
    def all_plus(cls, n: int) -> "StabilizerTableau":
        return cls.from_generators([PauliString.single(n, q, "X") for q in range(n)])

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

    def _append_row(self, p: PauliString) -> None:
        if p.n != self.n:
            raise ValueError("qubit-count mismatch")
        self.xs = np.vstack([self.xs, p.xs])
        self.zs = np.vstack([self.zs, p.zs])
        self.phase = np.append(self.phase, np.uint8(_phase_of(p)))

    def _check_consistency(self) -> None:
        for i in range(self.n_generators):
            for j in range(i + 1, self.n_generators):
                anti = np.count_nonzero(self.xs[i] & self.zs[j]) ^ np.count_nonzero(
                    self.zs[i] & self.xs[j]
                )
                if anti % 2 == 1:
                    raise ValueError(f"generators {i} and {j} anticommute")

    def add_qubit(self, state: str = "0") -> int:
        """Append a fresh qubit stabilized by +Z (``"0"``) or +X (``"+"``)."""
        q = self.n
        self.n += 1
        self.xs = np.hstack([self.xs, np.zeros((self.n_generators, 1), dtype=bool)])
        self.zs = np.hstack([self.zs, np.zeros((self.n_generators, 1), dtype=bool)])
        letter = {"0": "Z", "+": "X"}[state]
        self._append_row(PauliString.single(self.n, q, letter))
        return q

    # -- row arithmetic ------------------------------------------------------

    def _row_mult(self, i: int, j: int) -> None:
        """Replace generator i by (generator i) * (generator j)."""
        cross = int(np.count_nonzero(self.zs[i] & self.xs[j]))
        self.phase[i] = (int(self.phase[i]) + int(self.phase[j]) + 2 * cross) % 4
        self.xs[i] ^= self.xs[j]
        self.zs[i] ^= self.zs[j]

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
        flips = (self.xs @ p.zs.astype(np.uint8) + self.zs @ p.xs.astype(np.uint8)) % 2
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
        for i in range(self.n_generators):
            anti = np.count_nonzero(self.xs[i] & p.zs) + np.count_nonzero(self.zs[i] & p.xs)
            if anti % 2 == 1:
                return 0
        coeffs = self._solve_membership(p)
        if coeffs is None:
            return 0
        acc = PauliString.identity(self.n)
        for i in np.flatnonzero(coeffs):
            acc = acc * self.generator(int(i))
        return p.sign * acc.sign

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

        ``outcome`` forces the result where it is random; forcing a
        deterministic measurement to the opposite value raises
        :class:`MeasurementContradictionError`.  In destructive mode the
        measured qubit's residual generator is dropped and the qubit
        retired, matching a photon absorbed by its detector.
        """
        self._alive_check(qubit)
        op = PauliString.single(self.n, qubit, basis)

        # Commutation with a single-site operator is decided at that site:
        # letters equal or identity commute, the other two letters anticommute.
        anti = [
            i
            for i in range(self.n_generators)
            if _site_anticommutes(
                self.xs[i, qubit], self.zs[i, qubit], op.xs[qubit], op.zs[qubit]
            )
        ]

        if anti:
            pivot = anti[0]
            for i in anti[1:]:
                self._row_mult(i, pivot)
            m = self._draw_outcome(outcome, rng)
            rep = PauliString.single(self.n, qubit, basis, sign=m)
            self.xs[pivot] = rep.xs
            self.zs[pivot] = rep.zs
            self.phase[pivot] = _phase_of(rep)
            self._clear_column(qubit, pivot)
            if destructive:
                self._drop_row_and_qubit(pivot, qubit)
            return m

        # Deterministic (or undetermined code direction).
        coeffs = self._solve_membership(op)
        if coeffs is None:
            m = self._draw_outcome(outcome, rng)
            self._append_row(PauliString.single(self.n, qubit, basis, sign=m))
            pivot = self.n_generators - 1
            self._clear_column(qubit, pivot)
            if destructive:
                self._drop_row_and_qubit(pivot, qubit)
            return m

        acc = PauliString.identity(self.n)
        for i in np.flatnonzero(coeffs):
            acc = acc * self.generator(int(i))
        m = acc.sign
        if outcome is not None and outcome != m:
            raise MeasurementContradictionError(
                f"{basis} on qubit {qubit} is fixed to {m}, cannot force {outcome}"
            )
        if destructive:
            pivot = self._isolate_deterministic(qubit, np.flatnonzero(coeffs))
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

    def _clear_column(self, qubit: int, pivot: int) -> None:
        """Multiply the pivot row into every other row still touching qubit."""
        for i in range(self.n_generators):
            if i != pivot and (self.xs[i, qubit] or self.zs[i, qubit]):
                self._row_mult(i, pivot)

    def _drop_row_and_qubit(self, row: int, qubit: int) -> None:
        keep = [i for i in range(self.n_generators) if i != row]
        self.xs = self.xs[keep]
        self.zs = self.zs[keep]
        self.phase = self.phase[keep]
        if np.any(self.xs[:, qubit]) or np.any(self.zs[:, qubit]):
            raise AssertionError("retired qubit still has generator support")
        self.discarded.add(qubit)

    def _isolate_deterministic(self, qubit: int, support: np.ndarray) -> int:
        """Rewrite generators so one row is exactly +/-P on ``qubit``."""
        rows = [i for i in range(self.n_generators) if self.xs[i, qubit] or self.zs[i, qubit]]
        if not rows:
            # The +/-P row must be synthesized from the membership support.
            acc = PauliString.identity(self.n)
            for i in support:
                acc = acc * self.generator(int(i))
            self._append_row(acc)
            return self.n_generators - 1
        pivot = rows[0]
        for i in rows[1:]:
            self._row_mult(i, pivot)
        if np.count_nonzero(self.xs[pivot]) + np.count_nonzero(self.zs[pivot]) != 1:
            raise ValueError(
                "cannot destructively drop an entangled, deterministic qubit"
            )
        return pivot

    # -- canonical form and serialization -------------------------------------

    def canonical(self) -> "StabilizerTableau":
        """Row-reduced echelon form over the alive columns, unique per group."""
        t = self.copy()
        cols: list[tuple[str, int]] = []
        for q in t.alive:
            cols.append(("x", q))
            cols.append(("z", q))
        row = 0
        for kind, q in cols:
            mat = t.xs if kind == "x" else t.zs
            pivot = None
            for i in range(row, t.n_generators):
                if mat[i, q]:
                    pivot = i
                    break
            if pivot is None:
                continue
            if pivot != row:
                t.xs[[row, pivot]] = t.xs[[pivot, row]]
                t.zs[[row, pivot]] = t.zs[[pivot, row]]
                t.phase[[row, pivot]] = t.phase[[pivot, row]]
            for i in range(t.n_generators):
                if i != row and (t.xs if kind == "x" else t.zs)[i, q]:
                    t._row_mult(i, row)
            row += 1
            if row == t.n_generators:
                break
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

    @classmethod
    def from_text(cls, text: str) -> "StabilizerTableau":
        rows = [PauliString.from_label(line) for line in text.strip().splitlines()]
        return cls.from_generators(rows)


def _site_anticommutes(x1: np.bool_, z1: np.bool_, x2: np.bool_, z2: np.bool_) -> bool:
    return bool((x1 & z2) ^ (z1 & x2))


def _gf2_solve(a: np.ndarray, rhs: np.ndarray, n_vars: int) -> np.ndarray | None:
    """Solve a @ c = rhs over GF(2); a has shape (rows, n_vars)."""
    aug = np.hstack([a % 2, (rhs % 2).reshape(-1, 1)]).astype(np.uint8)
    n_rows = aug.shape[0]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n_vars):
        pr = None
        for i in range(r, n_rows):
            if aug[i, c]:
                pr = i
                break
        if pr is None:
            continue
        aug[[r, pr]] = aug[[pr, r]]
        for i in range(n_rows):
            if i != r and aug[i, c]:
                aug[i] ^= aug[r]
        pivots.append((r, c))
        r += 1
    for i in range(r, n_rows):
        if aug[i, -1]:
            return None
    sol = np.zeros(n_vars, dtype=np.uint8)
    for pr, pc in pivots:
        sol[pc] = aug[pr, -1]
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

def graph_state_tableau(tree: TreeGraph) -> StabilizerTableau:
    """One generator per vertex: X there, Z on every neighbor, sign +."""
    n = tree.n_vertices
    gens = []
    for v in range(n):
        p = PauliString.single(n, v, "X")
        for w in tree.neighbors(v):
            p.zs[w] = True
        gens.append(p)
    return StabilizerTableau.from_generators(gens)


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
    t = graph_state_tableau(tree)
    inp = t.add_qubit("0")
    prep = PauliString.from_label(state_prep)
    if prep.n != 1 or (not prep.xs[0] and not prep.zs[0]):
        raise ValueError("state_prep must be a single-qubit Pauli label like '+X'")
    # Rewrite the fresh +Z row into the requested input stabilizer.
    stab = PauliString.single(t.n, inp, _letter_of(prep), sign=prep.sign)
    t.xs[-1] = stab.xs
    t.zs[-1] = stab.zs
    t.phase[-1] = np.uint8(_phase_of(stab))

    t.apply_cz(inp, 0)
    forced = outcomes if outcomes is not None else (None, None)
    m_in = t.measure(inp, "X", outcome=forced[0], rng=rng, destructive=True)
    m_root = t.measure(0, "X", outcome=forced[1], rng=rng, destructive=True)

    n_all = t.n
    x_l = logical_x_string(tree, n_all)
    z_l = logical_z_string(tree, n_all)
    if m_root == -1:
        t.apply_pauli(x_l)
    if m_in == -1:
        t.apply_pauli(z_l)

    code = restricted_to(t, [v for v in range(tree.n_vertices) if v != 0])
    remap = {v: v - 1 for v in range(1, tree.n_vertices)}
    code.x_logical = _remap_pauli(x_l, remap, code.n)
    code.z_logical = _remap_pauli(z_l, remap, code.n)
    return code


def _letter_of(p: PauliString) -> str:
    return _LETTER[(int(p.xs[0]), int(p.zs[0]))]


def _remap_pauli(p: PauliString, mapping: dict[int, int], n_new: int) -> PauliString:
    q = PauliString.identity(n_new)
    for old, new in mapping.items():
        q.xs[new] = p.xs[old]
        q.zs[new] = p.zs[old]
    q.sign = p.sign
    return q


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
