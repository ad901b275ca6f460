"""Stabilizer-tableau engine for graph states and destructive Pauli measurements.

Ground truth for small instances: the graph-state generators and logical
operators of a tree, single-qubit Pauli measurements and canonical-form
comparison of tableaux, which the Bell-pair verifier of
:mod:`treebsm.genseq` builds on.  Generators are read off a branching
vector; a tree above ``trees.MAX_VERTICES`` is refused first, then a
tableau above :data:`MAX_TABLEAU_BYTES`.

Every generator update goes through one row primitive, ``_row_mult``,
which multiplies one generator into a set of others.  A pivot step
multiplies a pivot generator into every other generator with a bit in a
given column; it is the engine's one GF(2) elimination.  A measurement
(Aaronson and Gottesman, PRA 70, 052328) is one pivot step: write the
signed outcome ``m * P`` into the pivot row and clear the measured qubit's
column through it; the outcome only decides which row is the pivot.  The
canonical form is the same step taken column by column in row-echelon
order, and every membership question and state comparison reads it.

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

from .trees import BranchingVectorLike, as_branching_vector


class MeasurementContradictionError(RuntimeError):
    """A forced outcome disagrees with a deterministically fixed value."""


# Refuse to build a tableau whose work would need more bytes than this; like
# montecarlo.MAX_CHUNK_BYTES, it stops paper-scale towers, whose tableaux
# would need terabytes, from being attempted.
MAX_TABLEAU_BYTES = 2 * 10**9


def tableau_bytes(qubits: int) -> int:
    """Estimated peak bytes of building and verifying a tableau on ``qubits`` qubits.

    A tableau holds about one generator per qubit as two bool planes, and
    the verifier holds the executed state, the target and their canonical
    forms at once: about 14 bytes per qubit squared measured on (10,10,2)
    and (15,15,2), taken here as 16.
    """
    return 16 * qubits**2


def check_tableau_size(qubits: int) -> None:
    """Raise ``ValueError`` with the estimate if ``qubits`` tableau qubits would not fit."""
    need = tableau_bytes(qubits)
    if need > MAX_TABLEAU_BYTES:
        raise ValueError(
            f"a tableau of {qubits} qubits needs about {need / 1e9:.3g} GB, "
            f"above the {MAX_TABLEAU_BYTES / 1e9:g} GB cap"
        )


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

    def _reduce(self, p: PauliString) -> tuple["StabilizerTableau", np.ndarray, int]:
        """Read ``p`` off the canonical form: (canonical tableau, support rows, value).

        Each canonical row's pivot is its first bit, X before Z, and no
        other row has a bit there, so the rows whose product could be
        ``+-p`` are those where ``p`` has a bit at the pivot.  The residual
        ``p * (their product)`` is ``+-I`` exactly when ``+-p`` is in the
        group; value is then its sign, the expectation of ``p``, and 0
        otherwise.  ``p`` must commute with every generator.
        """
        c = self.canonical()
        q = np.argmax(c.xs | c.zs, axis=1)  # each row's pivot qubit
        support = np.flatnonzero(np.where(c.xs[np.arange(c.n_generators), q], p.xs[q], p.zs[q]))
        residual = p
        for i in support:
            residual = residual * c.generator(i)
        return c, support, 0 if residual.xs.any() or residual.zs.any() else residual.sign

    def expectation(self, p: PauliString) -> int:
        """+1/-1 if p (with its sign) is fixed by the state, 0 if random."""
        return 0 if self._anticommuting(p.xs, p.zs).any() else self._reduce(p)[2]

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
        the others (random outcome); a new row (``P`` commutes with the
        group without being in it, an undetermined code direction; random
        outcome); or, when ``+-P`` is in the group (deterministic outcome),
        the first canonical row ``P`` needs, the canonical rows, which
        generate the same group, replacing the generators.

        ``outcome`` forces the result where it is random (else
        :func:`draw_outcome` draws it); forcing a deterministic measurement
        to the opposite value raises :class:`MeasurementContradictionError`.
        In destructive mode the pivot row, the only generator left on the
        qubit, is dropped and the qubit retired, as a photon absorbed by
        its detector.
        """
        self._alive_check(qubit)
        op = PauliString.single(self.n, qubit, basis)
        anti = self._anticommuting(op.xs, op.zs)
        if anti.any():
            pivot = int(np.argmax(anti))
            self._pivot(pivot, anti)
            m = draw_outcome(outcome, rng)
        else:
            canon, support, m = self._reduce(op)
            if not m:
                m = draw_outcome(outcome, rng)
                self._append_rows([op])
                pivot = self.n_generators - 1
            elif outcome is not None and outcome != m:
                raise MeasurementContradictionError(
                    f"{basis} on qubit {qubit} is fixed to {m}, cannot force {outcome}"
                )
            else:
                self.xs, self.zs, self.phase = canon.xs, canon.zs, canon.phase
                pivot = int(support[0])
        rep = PauliString.single(self.n, qubit, basis, sign=m)
        self.xs[pivot], self.zs[pivot], self.phase[pivot] = rep.xs, rep.zs, _phase_of(rep)
        self._pivot(pivot, self.xs[:, qubit] | self.zs[:, qubit])
        if destructive:
            self._drop_row_and_qubit(pivot, qubit)
        return m

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


def draw_outcome(outcome: int | None, rng: np.random.Generator | None) -> int:
    """``outcome`` if forced (+1 or -1), else ``rng.integers(0, 2)``, 0 reading +1."""
    if outcome is not None:
        if outcome not in (1, -1):
            raise ValueError("outcome must be +1 or -1")
        return outcome
    if rng is None:
        raise ValueError("random outcome requested but no rng supplied")
    return 1 if rng.integers(0, 2) == 0 else -1


def canonical_mismatch(got: StabilizerTableau, want: StabilizerTableau) -> str | None:
    """None if two tableaux hold the same group on the same alive qubits, signs included;
    else what differs: the qubits, the ranks, or the first differing canonical generator."""
    alive_got, alive_want = set(got.alive), set(want.alive)
    if alive_got != alive_want:
        return (f"qubit mismatch: alive only in got {sorted(alive_got - alive_want)}, "
                f"only in want {sorted(alive_want - alive_got)}")
    if got.n_generators != want.n_generators:
        return f"rank mismatch: got {got.n_generators}, want {want.n_generators}"
    cg, cw = got.canonical(), want.canonical()
    q = cg.alive
    differ = np.flatnonzero((cg.xs[:, q] != cw.xs[:, q]).any(axis=1)
                            | (cg.zs[:, q] != cw.zs[:, q]).any(axis=1) | (cg.phase != cw.phase))
    if not differ.size:
        return None
    i = differ[0]
    return (f"mismatch at canonical row {i}: got {cg.generator(i).to_label()}, "
            f"want {cw.generator(i).to_label()}")


# ---------------------------------------------------------------------------
# Graph-state generators and logical operators of a tree
# ---------------------------------------------------------------------------

def graph_generator(b: BranchingVectorLike, v: int, n: int, offset: int = 0) -> PauliString:
    """X on vertex ``v``, Z on every neighbor (vertex ids offset), on ``n`` qubits."""
    p = PauliString.identity(n)
    p.xs[offset + v] = True
    for w in as_branching_vector(b).neighbors(v):
        p.zs[offset + w] = True
    return p


def logical_x_string(b: BranchingVectorLike, n: int, offset: int = 0,
                     level1_vertex: int = 1) -> PauliString:
    """X on one first-level vertex, Z on its children (vertex ids offset)."""
    p = PauliString.identity(n)
    p.xs[offset + level1_vertex] = True
    kids = as_branching_vector(b).children(level1_vertex)
    p.zs[offset + kids.start:offset + kids.stop] = True
    return p


def logical_z_string(b: BranchingVectorLike, n: int, offset: int = 0) -> PauliString:
    """Z on every first-level vertex (vertex ids offset)."""
    p = PauliString.identity(n)
    p.zs[offset + 1:offset + 1 + as_branching_vector(b)[0]] = True
    return p


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
