"""The dense stabilizer tableau, kept as an oracle for the sparse engine.

This is the numpy engine that ``treebsm.stabilizer`` used before its rows
became int bitsets: two bool planes of generators by qubits and an
i-exponent per row, with one numpy pivot step as its only GF(2)
elimination (Aaronson and Gottesman, PRA 70, 052328).  Every update touches
whole planes, so it costs O(q^2) per measurement, but it shares no Pauli
code with the package: it reads a :class:`PauliString` through its label
alone, and keeps its own planes, products and phase rule.
``tests/test_stabilizer.py`` runs both engines through the same random
programs and compares outcomes, ranks and canonical forms after every step.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from treebsm.stabilizer import MeasurementContradictionError, PauliString, draw_outcome

from builders import single

_PLANES = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTER = {v: k for k, v in _PLANES.items()}


def _planes(p: PauliString) -> tuple[np.ndarray, np.ndarray, int]:
    """X plane, Z plane and i-exponent of ``p``, read off its label; the
    exponent counts one per Y (X left of Z on each qubit) and two for a minus."""
    label = p.to_label()
    xs, zs = np.array([_PLANES[c] for c in label[1:]], dtype=bool).reshape(-1, 2).T
    return xs, zs, (np.count_nonzero(xs & zs) + (0 if label[0] == "+" else 2)) % 4


def _label(xs: np.ndarray, zs: np.ndarray, phase: int) -> str:
    """The signed label of the Hermitian row of planes ``xs``, ``zs`` and i-exponent ``phase``."""
    rel = (phase - np.count_nonzero(xs & zs)) % 4
    if rel % 2:
        raise AssertionError("non-Hermitian phase encountered")
    return ("+" if rel == 0 else "-") + "".join(_LETTER[(int(x), int(z))] for x, z in zip(xs, zs))


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
        return PauliString.from_label(_label(self.xs[i], self.zs[i], int(self.phase[i])))

    def generators(self) -> list[PauliString]:
        return [self.generator(i) for i in range(self.n_generators)]

    def _append_rows(self, paulis: Sequence[PauliString]) -> None:
        if any(p.n != self.n for p in paulis):
            raise ValueError("qubit-count mismatch")
        self._append_planes([_planes(p) for p in paulis])

    def _append_planes(self, rows: Sequence[tuple[np.ndarray, np.ndarray, int]]) -> None:
        self.xs = np.vstack([self.xs, *(xs for xs, _, _ in rows)])
        self.zs = np.vstack([self.zs, *(zs for _, zs, _ in rows)])
        self.phase = np.concatenate([self.phase, np.array([ph for *_, ph in rows], dtype=np.uint8)])

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
        px, pz, phase = _planes(PauliString.from_label(letter))
        if px.size != 1 or not (px[0] or pz[0]):
            raise ValueError(f"expected a one-qubit Pauli label like '+X', got {letter!r}")
        xs, zs = np.zeros(self.n, dtype=bool), np.zeros(self.n, dtype=bool)
        xs[q], zs[q] = px[0], pz[0]
        self._append_planes([(xs, zs, phase)])
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
        flips = self._anticommuting(*_planes(p)[:2])
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
        xs, zs, phase = _planes(p)
        support = np.flatnonzero(np.where(c.xs[np.arange(c.n_generators), q], xs[q], zs[q]))
        for i in support:
            phase = (phase + int(c.phase[i]) + 2 * np.count_nonzero(zs & c.xs[i])) % 4
            xs, zs = xs ^ c.xs[i], zs ^ c.zs[i]
        return c, support, 0 if xs.any() or zs.any() else 1 - phase

    def expectation(self, p: PauliString) -> int:
        """+1/-1 if p (with its sign) is fixed by the state, 0 if random."""
        return 0 if self._anticommuting(*_planes(p)[:2]).any() else self._reduce(p)[2]

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
        op = single(self.n, qubit, basis)
        anti = self._anticommuting(*_planes(op)[:2])
        if anti.any():
            pivot = int(np.argmax(anti))
            self._pivot(pivot, anti)
            m = draw_outcome(outcome, rng)
        else:
            canon, support, m = self._reduce(op)
            if not m:
                m = draw_outcome(outcome, rng)
                self._append_planes([_planes(op)])
                pivot = self.n_generators - 1
            elif outcome is not None and outcome != m:
                raise MeasurementContradictionError(
                    f"{basis} on qubit {qubit} is fixed to {m}, cannot force {outcome}"
                )
            else:
                self.xs, self.zs, self.phase = canon.xs, canon.zs, canon.phase
                pivot = int(support[0])
        self.xs[pivot], self.zs[pivot], self.phase[pivot] = _planes(
            single(self.n, qubit, basis, sign=m))
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
        return "\n".join(_label(self.xs[i, alive], self.zs[i, alive], int(self.phase[i]))
                         for i in range(self.n_generators)) + "\n"
