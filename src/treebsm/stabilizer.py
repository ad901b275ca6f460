"""Stabilizer-tableau engine for graph states and destructive Pauli measurements.

Ground truth for the Bell-pair verifier of :mod:`treebsm.genseq`: tree
graph-state generators and logical operators (a tree above
``trees.MAX_VERTICES`` is refused, then a tableau above
:data:`MAX_TABLEAU_BYTES`), H, CZ, CNOT, Pauli frames, single-qubit Pauli
measurements and canonical forms.

A Pauli has one encoding, an int of bits: x_q at bit 2q and z_q at bit
2q + 1.  A :class:`PauliString` is such an int with a qubit count and a
sign; a generator is one with an i-exponent, ``i**phase * prod_q X_q^{x_q}
Z_q^{z_q}`` (X left of Z on each qubit, so a Hermitian row has ``phase ==
#Y mod 2``, and a sign of -1 adds 2).  A product is one XOR; its phase
gains 2 per qubit where the left factor has Z and the right X.
``touch[q]`` holds the rows with a bit on qubit q, so gates, preparations
and measurements visit only those rows, and work follows the rows' support
(3 to 5 letters in a Bell program), not the qubit count; a dropped row is
replaced by the last, and no tableau is copied.  A measurement (Aaronson
and Gottesman, PRA 70, 052328) is one pivot step.  The canonical form is
one XOR-basis pass whose pivots are the rows' lowest bits, qubit ascending
and X before Z; membership and state comparison read it.  Signs are
``+1/-1`` at the edges; i-phases never leak out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .trees import BranchingVectorLike, as_branching_vector


class MeasurementContradictionError(RuntimeError):
    """A forced outcome disagrees with a deterministically fixed value."""


# Refuse to build a tableau whose work would need more bytes than this; like
# montecarlo.MAX_WINDOW_BYTES, it stops paper-scale towers, whose tableaux
# would need terabytes, from being attempted.
MAX_TABLEAU_BYTES = 2 * 10**9


def tableau_bytes(qubits: int) -> int:
    """Estimated peak bytes of building and verifying a tableau on q = ``qubits`` qubits.

    The verifier holds four int tableaux (state, target and their canonical
    forms) of at most q/4 bytes a row (q^2); only the state builds ``touch``
    sets, which with the row lists and int headers take about 1 KB a qubit,
    counted here as 2 KB.  Traced peaks on (10,10,2), (15,15,2), (74,15) and
    (50,48) are 0.57 to 0.65 of this.  A first call in a fresh interpreter
    also imports numpy's seeding code, about 1 MB more.
    """
    return qubits**2 + 2000 * qubits


def check_tableau_size(qubits: int) -> None:
    """Raise ``ValueError`` with the estimate if ``qubits`` tableau qubits would not fit."""
    need = tableau_bytes(qubits)
    if need > MAX_TABLEAU_BYTES:
        raise ValueError(f"a tableau of {qubits} qubits needs about {need / 1e9:.3g} GB, "
                         f"above the {MAX_TABLEAU_BYTES / 1e9:g} GB cap")


# ---------------------------------------------------------------------------
# Pauli strings
# ---------------------------------------------------------------------------

_LETTER = "IXZY"   # a qubit's letter, indexed by its two bits x | z << 1
_BITS = {c: k for k, c in enumerate(_LETTER)}


def _x_bits(n: int) -> int:
    """Every X bit of an ``n``-qubit row: bits 0, 2, ..., 2n - 2."""
    return ((1 << 2 * n) - 1) // 3


def _anticommute(v: int, w: int, x: int) -> int:
    """1 if the Paulis of bits ``v`` and ``w`` anticommute, else 0; ``x`` masks every X bit."""
    return (((v >> 1) & w ^ v & w >> 1) & x).bit_count() & 1


def _product(v: int, pv: int, w: int, pw: int, x: int) -> tuple[int, int]:
    """Bits and i-exponent of the product of two commuting rows, ``v`` left of ``w``."""
    return v ^ w, (pv + pw + 2 * ((v >> 1) & w & x).bit_count()) & 3


@dataclass(frozen=True)
class PauliString:
    """A signed Pauli operator on ``n`` qubits in the tableau's row layout:
    X on qubit q at bit 2q of ``bits``, Z at bit 2q + 1 (sign is +1 or -1 only)."""

    n: int
    bits: int = 0
    sign: int = 1

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not 0 <= self.bits < 1 << 2 * self.n:
            raise ValueError(f"bits {self.bits:#x} act beyond qubit {self.n - 1}")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        body = label.strip()
        sign = -1 if body[:1] == "-" else 1
        if body[:1] in ("+", "-"):
            body = body[1:]
        return cls(len(body), sum(_letter_bits(c) << 2 * q for q, c in enumerate(body)), sign)

    def to_label(self) -> str:
        body = "".join(_LETTER[self.bits >> 2 * q & 3] for q in range(self.n))
        return ("+" if self.sign == 1 else "-") + body

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError("qubit-count mismatch")
        return not _anticommute(self.bits, other.bits, _x_bits(self.n))

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not self.commutes_with(other):
            raise ValueError("product of anticommuting Paulis is not Hermitian")
        x = _x_bits(self.n)
        bits, phase = _product(self.bits, _phase_of(self, x), other.bits, _phase_of(other, x), x)
        return PauliString(self.n, bits, _sign_from_phase(phase, bits, x))


def _letter_bits(letter: str) -> int:
    """``x | z << 1`` of a one-qubit Pauli letter, either case."""
    if (k := _BITS.get(letter.upper())) is None:
        raise ValueError(f"expected a Pauli letter I, X, Y or Z, got {letter!r}")
    return k


def _phase_of(p: PauliString, x: int) -> int:
    """i-exponent of ``p`` in X-left-of-Z form: one per Y, two for a minus sign; ``x``: X bits."""
    return ((p.bits & p.bits >> 1 & x).bit_count() + 1 - p.sign) & 3


def _sign_from_phase(phase: int, bits: int, x: int) -> int:
    """The sign of the Hermitian row of bits ``bits`` and i-exponent ``phase``."""
    rel = (phase - (bits & bits >> 1 & x).bit_count()) & 3
    if rel & 1:
        raise AssertionError("non-Hermitian phase encountered")
    return 1 - rel


# ---------------------------------------------------------------------------
# Tableau
# ---------------------------------------------------------------------------

def _set_bits(mask: int) -> Iterator[int]:
    """The index of every set bit of ``mask``, highest first; bit k is on qubit k >> 1."""
    while mask:
        k = mask.bit_length() - 1
        yield k
        mask ^= 1 << k


class StabilizerTableau:
    """Sign-annotated generator list of a stabilizer group on ``n`` qubits.

    Generator i is ``i**phase[i]`` times the Pauli of bits ``rows[i]``;
    ``touch[q]`` is the set of rows with a bit on qubit q, built from the rows
    on first use, so a tableau only read row by row (a canonical form, a
    comparison target) never builds it.  There may be
    fewer than ``n`` generators (code states).  A destructive measurement
    drops the qubit's last generator and retires the qubit, leaving it out
    of canonical forms and equality until :meth:`prepare`.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: list[int] = []
        self.phase: list[int] = []   # i-exponent mod 4
        self._touch: list[set[int]] | None = None
        self.discarded: set[int] = set()
        self._x = _x_bits(n)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_generators(cls, paulis: Iterable[PauliString]) -> "StabilizerTableau":
        paulis = list(paulis)
        if not paulis:
            raise ValueError("need at least one generator")
        if any(p.n != paulis[0].n for p in paulis):
            raise ValueError("qubit-count mismatch")
        blank = cls(paulis[0].n)
        t = blank._from_rows([p.bits for p in paulis], [_phase_of(p, blank._x) for p in paulis])
        t._check_consistency()
        return t

    def _from_rows(self, rows: Iterable[int], phases: Iterable[int]) -> "StabilizerTableau":
        """A tableau on the same qubits, alive and retired, holding the given rows."""
        t = StabilizerTableau(self.n)
        t.discarded = set(self.discarded)
        t.rows, t.phase = list(rows), list(phases)
        return t

    @property
    def touch(self) -> list[set[int]]:
        if self._touch is None:
            self._touch = [set() for _ in range(self.n)]
            for i, v in enumerate(self.rows):
                for k in _set_bits((v | v >> 1) & self._x):
                    self._touch[k >> 1].add(i)
        return self._touch

    @property
    def n_generators(self) -> int:
        return len(self.rows)

    @property
    def alive(self) -> list[int]:
        return [q for q in range(self.n) if q not in self.discarded]

    def generator(self, i: int) -> PauliString:
        v = self.rows[i]
        return PauliString(self.n, v, _sign_from_phase(self.phase[i], v, self._x))

    def _anticommuting(self, w: int) -> set[int]:
        """The rows anticommuting with the Pauli of bits ``w``, read from the rows on its qubits."""
        touch = self.touch
        near = set().union(*(touch[k >> 1] for k in _set_bits((w | w >> 1) & self._x)))
        return {i for i in near if _anticommute(self.rows[i], w, self._x)}

    def _check_consistency(self) -> None:
        """Raise if two generators act with different letters on an odd number of qubits."""
        odd: set[tuple[int, int]] = set()
        for q, near in enumerate(self.touch):
            letter = {i: self.rows[i] >> 2 * q & 3 for i in near}
            odd ^= {(i, j) for i in near for j in near if i < j and letter[i] != letter[j]}
        if odd:
            raise ValueError("generators {} and {} anticommute".format(*min(odd)))

    def prepare(self, q: int, letter: str) -> None:
        """Put qubit ``q`` in the +1 eigenstate of a one-qubit Pauli (``"X"``, ``"-Z"``, ...).

        No generator may act on ``q``: it is a column never used yet or one
        a destructive measurement retired, which this brings back.
        """
        if not 0 <= q < self.n:
            raise ValueError(f"qubit {q} out of range")
        if self.touch[q]:
            raise ValueError(f"qubit {q} is still acted on by a generator")
        p = PauliString.from_label(letter)
        if p.n != 1 or not p.bits:
            raise ValueError(f"expected a one-qubit Pauli label like '+X', got {letter!r}")
        self._append(p.bits << 2 * q, _phase_of(p, _x_bits(1)))
        self.discarded.discard(q)

    def _append(self, v: int, phase: int) -> None:
        touch = self.touch  # indexes the rows before v
        for k in _set_bits((v | v >> 1) & self._x):
            touch[k >> 1].add(len(self.rows))
        self.rows.append(v)
        self.phase.append(phase)

    def _set_row(self, i: int, v: int) -> None:
        """Store bits ``v`` as row i, moving i between the touch sets where its support changed."""
        touch = self.touch  # indexes the old row
        old, self.rows[i] = self.rows[i], v
        for k in _set_bits(((old | old >> 1) ^ (v | v >> 1)) & self._x):
            if (v >> k) & 3:
                touch[k >> 1].add(i)
            else:
                touch[k >> 1].discard(i)

    def _row_mult(self, i: int, j: int) -> None:
        """Replace generator i by (generator i) * (generator j)."""
        v, self.phase[i] = _product(self.rows[i], self.phase[i], self.rows[j], self.phase[j],
                                    self._x)
        self._set_row(i, v)

    # -- Clifford gates ------------------------------------------------------

    def _alive_check(self, *qubits: int) -> None:
        for q in qubits:
            if q in self.discarded:
                raise ValueError(f"qubit {q} was destructively measured")
            if not 0 <= q < self.n:
                raise ValueError(f"qubit {q} out of range")

    def _pair_check(self, a: int, b: int) -> None:
        if a == b:
            raise ValueError(f"a two-qubit gate needs two different qubits, got {a} twice")
        self._alive_check(a, b)

    def apply_h(self, q: int) -> None:
        self._alive_check(q)
        for i in self.touch[q]:
            if (self.rows[i] >> 2 * q) & 3 == 3:
                self.phase[i] ^= 2
            else:
                self.rows[i] ^= 3 << 2 * q

    def apply_cz(self, a: int, b: int) -> None:
        self._pair_check(a, b)
        for i in self.touch[a] | self.touch[b]:
            v = self.rows[i]
            xa, xb = (v >> 2 * a) & 1, (v >> 2 * b) & 1
            if xa or xb:
                self.phase[i] ^= 2 * (xa & xb)
                self._set_row(i, v ^ xb << 2 * a + 1 ^ xa << 2 * b + 1)

    def apply_cnot(self, control: int, target: int) -> None:
        self._pair_check(control, target)
        for i in self.touch[control] | self.touch[target]:
            v = self.rows[i]
            xc, zt = (v >> 2 * control) & 1, (v >> 2 * target + 1) & 1
            if xc or zt:
                self._set_row(i, v ^ xc << 2 * target ^ zt << 2 * control + 1)

    def apply_pauli(self, p: PauliString) -> None:
        """Conjugate the state by a Pauli frame correction."""
        if p.n != self.n:
            raise ValueError("qubit-count mismatch")
        for i in self._anticommuting(p.bits):
            self.phase[i] ^= 2

    # -- membership, measurement and canonical form --------------------------

    def _reduce(self, w: int, pw: int) -> tuple["StabilizerTableau", list[int], int]:
        """(canonical tableau, support rows, value) of the Pauli p of bits ``w`` and
        i-exponent ``pw``, commuting with every generator.  Only one canonical row
        has a bit at its pivot, so +-p can only be the product of the rows where p
        has one: value is the sign of p * (their product) if that is +-I, else 0."""
        c = self.canonical()
        support = [i for i, v in enumerate(c.rows) if w & v & -v]
        for i in support:
            w, pw = _product(w, pw, c.rows[i], c.phase[i], c._x)
        return c, support, 0 if w else 1 - pw

    def measure(self, qubit: int, basis: str, outcome: int | None = None,
                rng: np.random.Generator | None = None, destructive: bool = False) -> int:
        """Measure one qubit in the X, Y or Z basis; returns the +1/-1 outcome.

        A pivot generator takes the signed outcome ``m * P`` and is then
        multiplied into every other generator on the qubit.  It is the
        lightest generator anticommuting with ``P``, first multiplied into
        the others (random outcome); a new row (``P`` commutes with the
        group without being in it: random); or, when ``+-P`` is in the
        group (deterministic), the first canonical row ``P`` needs, the
        canonical rows replacing the generators.  ``outcome`` forces a
        random result (else :func:`draw_outcome` draws it); forcing a
        deterministic one to the opposite value raises
        :class:`MeasurementContradictionError`.  Destructive mode drops the
        pivot row, the last row taking its place, and retires the qubit, as
        a photon absorbed by its detector.
        """
        self._alive_check(qubit)
        if not (k := _BITS.get(basis.upper())):
            raise ValueError(f"expected a measurement basis X, Y or Z, got {basis!r}")
        op, y = k << 2 * qubit, k & k >> 1
        anti = self._anticommuting(op)
        if anti:
            pivot = min(anti, key=lambda i: (self.rows[i].bit_count(), i))
            for i in anti - {pivot}:
                self._row_mult(i, pivot)
            m = draw_outcome(outcome, rng)
        else:
            canon, support, m = self._reduce(op, y)
            if not m:
                m = draw_outcome(outcome, rng)
                self._append(0, 0)
                pivot = self.n_generators - 1
            elif outcome is not None and outcome != m:
                raise MeasurementContradictionError(
                    f"{basis} on qubit {qubit} is fixed to {m}, cannot force {outcome}")
            else:
                self.rows, self.phase, self._touch = canon.rows, canon.phase, None
                pivot = support[0]
        self.phase[pivot] = y | (1 - m)
        self._set_row(pivot, op)
        for i in self.touch[qubit] - {pivot}:
            self._row_mult(i, pivot)
        if destructive:
            last = self.n_generators - 1
            self.phase[pivot] = self.phase[last]
            self._set_row(pivot, self.rows[last])
            self._set_row(last, 0)
            del self.rows[last], self.phase[last]
            if self.touch[qubit]:
                raise AssertionError("retired qubit still has generator support")
            self.discarded.add(qubit)
        return m

    def canonical(self) -> "StabilizerTableau":
        """Row-reduced echelon form over the alive columns, unique per group.

        One XOR-basis pass: a row is multiplied by the basis row owning its
        lowest bit until that bit is free, and then owns it.  Rows go in
        highest bits first, so rows sharing a lowest bit (one vertex's
        children) reduce in one step each, not a chain.  Back substitution
        clears every pivot bit from the other rows; rows are listed by
        pivot, then the dependent ones, reduced to the identity.
        """
        basis: dict[int, tuple[int, int]] = {}   # pivot bit -> (bits, i-exponent)
        empty: list[int] = []
        for v, pv in sorted(zip(self.rows, self.phase), reverse=True):
            while v and (low := v & -v) in basis:
                v, pv = _product(v, pv, *basis[low], self._x)
            if v:
                basis[v & -v] = (v, pv)
            else:
                empty.append(pv)
        pivots = sorted(basis)
        done = 0
        for low in reversed(pivots):
            v, pv = basis[low]
            for k in _set_bits(v & done):
                v, pv = _product(v, pv, *basis[1 << k], self._x)
            basis[low] = (v, pv)
            done |= low
        return self._from_rows([basis[k][0] for k in pivots] + [0] * len(empty),
                               [basis[k][1] for k in pivots] + empty)


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
    for i, row in enumerate(zip(cg.rows, cg.phase)):
        if row != (cw.rows[i], cw.phase[i]):
            return (f"mismatch at canonical row {i}: got {cg.generator(i).to_label()}, "
                    f"want {cw.generator(i).to_label()}")
    return None


# ---------------------------------------------------------------------------
# Graph-state generators and logical operators of a tree
# ---------------------------------------------------------------------------

def graph_generator(b: BranchingVectorLike, v: int, n: int, offset: int = 0) -> PauliString:
    """X on vertex ``v``, Z on every neighbor (vertex ids offset), on ``n`` qubits."""
    zs = sum(2 << 2 * (offset + w) for w in as_branching_vector(b).neighbors(v))
    return PauliString(n, 1 << 2 * (offset + v) | zs)


def logical_x_string(b: BranchingVectorLike, n: int, offset: int = 0,
                     level1_vertex: int = 1) -> PauliString:
    """X on one first-level vertex, Z on its children (vertex ids offset)."""
    kids = as_branching_vector(b).children(level1_vertex)
    zs = _x_bits(len(kids)) << 2 * (offset + kids.start) + 1   # one mask: Z on every child
    return PauliString(n, 1 << 2 * (offset + level1_vertex) | zs)


def logical_z_string(b: BranchingVectorLike, n: int, offset: int = 0) -> PauliString:
    """Z on every first-level vertex (vertex ids offset)."""
    return PauliString(n, _x_bits(as_branching_vector(b)[0]) << 2 * (offset + 1) + 1)
