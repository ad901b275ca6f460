import itertools

import numpy as np
import pytest

from treebsm.stabilizer import (
    MeasurementContradictionError,
    PauliString,
    StabilizerTableau,
    canonical_mismatch,
)
from treebsm.trees import BranchingVector, photon_count

from builders import (
    all_plus,
    copy_tableau,
    encode_logical,
    expectation,
    generators,
    graph_state_tableau,
    single,
    tableau_from_text,
    tableau_text,
    verify_indirect_z,
)
from reference_tableau import StabilizerTableau as DenseTableau


def from_labels(*labels):
    return StabilizerTableau.from_generators([PauliString.from_label(x) for x in labels])


THREE_CHAIN = ("+XZI", "+ZXZ", "+IZX")


class TestPauliString:
    def test_label_roundtrip(self):
        for label in ("+XZI", "-XYZ", "+IIII", "-Y"):
            assert PauliString.from_label(label).to_label() == label

    def test_product_signs(self):
        x = PauliString.from_label("+X")
        z = PauliString.from_label("+Z")
        with pytest.raises(ValueError):
            _ = x * z  # anticommuting product is not Hermitian
        xx = PauliString.from_label("+XX")
        zz = PauliString.from_label("+ZZ")
        assert (xx * zz).to_label() == "-YY"

    def test_commutation(self):
        assert PauliString.from_label("+XX").commutes_with(PauliString.from_label("+ZZ"))
        assert not PauliString.from_label("+XI").commutes_with(PauliString.from_label("+ZI"))

    def test_bits_are_the_row_layout(self):
        # X on qubit q at bit 2q, Z at bit 2q + 1: -IYZ has bits 0b10_11_00.
        p = PauliString.from_label("-IYZ")
        assert (p.n, p.bits, p.sign) == (3, 0b101100, -1)
        assert p == PauliString(3, 0b101100, -1) != PauliString(3, 0b101100)
        assert not hasattr(p, "xs") and not hasattr(p, "zs")

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_sign_must_be_plus_or_minus_one(self, sign):
        with pytest.raises(ValueError, match="sign"):
            PauliString(2, 1, sign)

    @pytest.mark.parametrize("n,bits", [(2, 1 << 4), (2, 1 << 5), (0, 1), (3, -1)])
    def test_bits_beyond_the_last_qubit_are_refused(self, n, bits):
        with pytest.raises(ValueError, match="beyond qubit"):
            PauliString(n, bits)

    def test_qubit_counts_must_match(self):
        x, xx = PauliString.from_label("+X"), PauliString.from_label("+XX")
        for a, b in ((x, xx), (xx, x)):
            with pytest.raises(ValueError, match="qubit-count mismatch"):
                a.commutes_with(b)
            with pytest.raises(ValueError, match="qubit-count mismatch"):
                _ = a * b

    @pytest.mark.parametrize("label", ["+ZZ", "+ZZZZ", "+XXXX"])
    def test_tableau_refuses_a_pauli_on_other_qubits(self, label):
        # Padding ZZ to ZZI or cutting ZZZZ and XXXX to three qubits would answer wrongly.
        t, p = from_labels("+ZII", "+IZI", "+IIZ"), PauliString.from_label(label)
        with pytest.raises(ValueError, match="qubit-count mismatch"):
            expectation(t, p)
        with pytest.raises(ValueError, match="qubit-count mismatch"):
            t.apply_pauli(p)

    def test_single_refuses_a_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="beyond qubit"):
            single(2, 2, "X")

    @pytest.mark.parametrize("label", ["+XQ", "-A", "X Z", "+-X"])
    def test_label_letters_outside_ixyz_are_refused(self, label):
        with pytest.raises(ValueError, match="Pauli letter"):
            PauliString.from_label(label)

    @pytest.mark.parametrize("basis", ["I", "W", "XZ", ""])
    def test_measurement_basis_outside_xyz_is_refused(self, basis):
        t = all_plus(2)
        with pytest.raises(ValueError, match="basis X, Y or Z"):
            t.measure(0, basis)
        assert tableau_text(t) == "+XI\n+IX\n"


class TestMeasurementRules:
    """The three-qubit chain worked example, bit-exact for both bases and signs."""

    @pytest.mark.parametrize("m", [1, -1])
    def test_z_on_middle(self, m):
        t = from_labels(*THREE_CHAIN)
        assert t.measure(1, "Z", outcome=m) == m
        s = "+" if m == 1 else "-"
        expect = from_labels(f"{s}XII", f"{s}IZI", f"{s}IIX")
        assert canonical_mismatch(t, expect) is None

    @pytest.mark.parametrize("m", [1, -1])
    def test_x_on_middle(self, m):
        t = from_labels(*THREE_CHAIN)
        assert t.measure(1, "X", outcome=m) == m
        s = "+" if m == 1 else "-"
        expect = from_labels(f"{s}ZIZ", "+XIX", f"{s}IXI")
        assert canonical_mismatch(t, expect) is None

    def test_plus_state_x_deterministic(self):
        t = all_plus(1)
        assert t.measure(0, "X") == 1

    def test_forcing_deterministic_outcome_conflicts(self):
        t = all_plus(1)
        with pytest.raises(MeasurementContradictionError):
            t.measure(0, "X", outcome=-1)

    @pytest.mark.parametrize("sign,m", [("+", 1), ("-", -1)])
    def test_destructive_deterministic_on_product_qubit(self, sign, m):
        # Z on qubit 0 is fixed by ZZ * IZ, though no generator is Z on 0 alone.
        t = from_labels("+ZZ", f"{sign}IZ")
        assert t.measure(0, "Z", destructive=True) == m
        assert t.alive == [1]
        assert tableau_text(t) == f"{sign}Z\n"

    def test_measuring_dead_qubit_rejected(self):
        t = all_plus(2)
        t.measure(0, "Z", rng=np.random.default_rng(0), destructive=True)
        with pytest.raises(ValueError):
            t.measure(0, "X", rng=np.random.default_rng(0))

    @pytest.mark.parametrize("letter,want", [("X", "+X"), ("-Z", "-Z"), ("+Y", "+Y")])
    def test_prepare_brings_a_retired_qubit_back(self, letter, want):
        t = all_plus(2)
        t.measure(0, "Z", rng=np.random.default_rng(0), destructive=True)
        t.prepare(0, letter)
        assert t.alive == [0, 1]
        assert canonical_mismatch(t, from_labels("+IX", f"{want}I")) is None

    def test_prepare_refuses_a_qubit_in_use(self):
        t = from_labels("+ZZ", "+XX")
        with pytest.raises(ValueError, match="still acted on"):
            t.prepare(1, "X")

    @pytest.mark.parametrize("gate", ["apply_cz", "apply_cnot"])
    def test_two_qubit_gates_refuse_a_repeated_qubit(self, gate):
        # CNOT(0, 0) once turned +XI into the identity row, and CZ(0, 0) acted as a Z.
        t = from_labels("+XI", "+IZ")
        with pytest.raises(ValueError, match="two different qubits, got 0 twice"):
            getattr(t, gate)(0, 0)
        assert tableau_text(t) == "+XI\n+IZ\n"

    @pytest.mark.parametrize("letter", ["I", "XX", "+"])
    def test_prepare_needs_a_one_qubit_pauli(self, letter):
        t = all_plus(2)
        t.measure(0, "Z", rng=np.random.default_rng(0), destructive=True)
        with pytest.raises(ValueError, match="one-qubit Pauli"):
            t.prepare(0, letter)

    def test_generators_commute_after_random_circuit(self):
        rng = np.random.default_rng(9)
        t = graph_state_tableau("3,2")
        for _ in range(30):
            op = rng.integers(0, 3)
            q = int(rng.integers(0, t.n))
            if op == 0:
                t.apply_h(q)
            elif op == 1:
                a, b = rng.choice(t.n, size=2, replace=False)
                t.apply_cz(int(a), int(b))
            else:
                t.measure(q, "XYZ"[rng.integers(0, 3)], rng=rng)
            t._check_consistency()


class TestGraphStates:
    def test_three_vertex_path(self):
        path = "1,1"  # 0-1-2 is a path
        assert canonical_mismatch(graph_state_tableau(path), from_labels(*THREE_CHAIN)) is None

    def test_single_vertex(self):
        t = graph_state_tableau("1")
        # root plus one child: two vertices, X-Z pair generators
        assert t.n_generators == 2

    def test_star_of_two_leaves(self):
        t = graph_state_tableau("2")
        assert canonical_mismatch(t, from_labels("+XZZ", "+ZXI", "+ZIX")) is None


class TestCanonicalForm:
    def test_order_independence(self):
        a = from_labels("+XZ", "+ZX")
        b = from_labels("+ZX", "+XZ")
        assert canonical_mismatch(a, b) is None

    def test_sign_matters(self):
        assert canonical_mismatch(from_labels("+X"), from_labels("-X")) is not None

    def test_different_alive_qubits_do_not_match(self):
        # Both read +ZZ on their two alive qubits, {0, 1} and {0, 2}, with equal ranks.
        got, want = from_labels("+ZII", "+IIZ"), from_labels("+ZIZ", "+IZI")
        assert got.measure(2, "Z", destructive=True) == 1
        assert want.measure(1, "Z", destructive=True) == 1
        assert (tableau_text(got), tableau_text(want), got.n_generators) == ("+ZI\n", "+ZZ\n", 1)
        assert canonical_mismatch(got, want) == (
            "qubit mismatch: alive only in got [1], only in want [2]")

    def test_row_products_preserve_group(self):
        t = graph_state_tableau("2,2")
        mixed = copy_tableau(t)
        mixed._row_mult(0, 1)
        mixed._row_mult(3, 5)
        assert canonical_mismatch(t, mixed) is None

    def test_serialization_roundtrip(self):
        t = graph_state_tableau("2,2")
        again = tableau_from_text(tableau_text(t))
        assert canonical_mismatch(t, again) is None

    def test_text_format_is_one_generator_per_line(self):
        text = tableau_text(from_labels("+XZ", "+ZX"))
        assert text == "+XZ\n+ZX\n"


class TestExpectation:
    def test_every_group_element_of_the_chain(self):
        # K0 K1 = (XZI)(ZXZ) = +YYZ: reordering X and Z factors gives the sign.
        t = from_labels(*THREE_CHAIN)
        assert expectation(t, PauliString.from_label("+YYZ")) == 1
        assert expectation(t, PauliString.from_label("-YYZ")) == -1
        for mask in itertools.product([False, True], repeat=3):
            if not any(mask):
                continue
            p = PauliString(3)
            for g, used in zip(generators(t), mask):
                p = p * g if used else p
            assert expectation(t, p) == 1
            assert expectation(t, PauliString(p.n, p.bits, -p.sign)) == -1

    def test_rank_deficient_group_against_brute_force(self):
        # Two generators on three qubits: every signed Pauli reads +1 or -1
        # exactly when it or its negative is one of the 2^2 group elements.
        t = from_labels("+XXI", "+ZZI")
        group = set()
        for mask in itertools.product([False, True], repeat=t.n_generators):
            p = PauliString(3)
            for g, used in zip(generators(t), mask):
                p = p * g if used else p
            group.add(p.to_label())
        for sign, *letters in itertools.product("+-", *["IXYZ"] * 3):
            label = sign + "".join(letters)
            negated = ("-" if sign == "+" else "+") + label[1:]
            want = 1 if label in group else -1 if negated in group else 0
            assert expectation(t, PauliString.from_label(label)) == want, label

    def test_random_and_undetermined_directions_read_zero(self):
        t = from_labels("+XX")
        assert expectation(t, PauliString.from_label("+ZI")) == 0
        assert expectation(t, PauliString.from_label("+ZZ")) == 0


class TestEncoding:
    def test_plus_state_gives_product_of_pluses(self):
        code, x_logical, z_logical = encode_logical("2", "+X", outcomes=(1, 1))
        assert canonical_mismatch(code, from_labels("+XI", "+IX")) is None
        assert x_logical.to_label() == "+XI"
        assert z_logical.to_label() == "+ZZ"

    def test_zero_state_gives_even_superposition(self):
        code, _, _ = encode_logical("2", "+Z", outcomes=(1, 1))
        assert canonical_mismatch(code, from_labels("+XX", "+ZZ")) is None

    @pytest.mark.parametrize("o1", [1, -1])
    @pytest.mark.parametrize("o2", [1, -1])
    def test_outcome_independence(self, o1, o2):
        code, _, _ = encode_logical("2", "+X", outcomes=(o1, o2))
        assert canonical_mismatch(code, from_labels("+XI", "+IX")) is None

    @pytest.mark.parametrize("prep,want", [("+Z", 1), ("-Z", -1)])
    def test_determinism_transfer(self, prep, want):
        # Measuring Z on all first-level qubits of an encoded computational
        # state yields the encoded value as the product of outcomes.
        rng = np.random.default_rng(21)
        for b in ("2", "3", "2,2"):
            code, _, _ = encode_logical(b, prep, outcomes=(1, 1))
            prod = 1
            for q in range(BranchingVector.parse(b)[0]):
                prod *= code.measure(q, "Z", rng=rng)
            assert prod == want

    def test_deep_graph_stabilizers_fix_every_logical_state(self):
        # Any vertex at level 2 or deeper keeps its graph generator in the
        # code group regardless of the encoded state.
        vec = BranchingVector.of(2, 2)
        for prep in ("+X", "+Z", "-Z", "+Y"):
            code, _, _ = encode_logical(vec, prep, outcomes=(1, 1))
            for v in range(3, 7):  # level-2 vertices, shifted by the root drop
                gen = (single(code.n, v - 1, "X")
                       * single(code.n, vec.neighbors(v)[0] - 1, "Z"))
                assert expectation(code, gen) == 1


class TestIndirectZ:
    def test_level1_vertex_of_2_2(self):
        assert verify_indirect_z("2,2", 1, np.random.default_rng(3))

    def test_all_level1_vertices_of_3_2(self):
        for v in (1, 2, 3):
            assert verify_indirect_z("3,2", v, np.random.default_rng(v))

    def test_leaf_target_rejected(self):
        with pytest.raises(ValueError):
            verify_indirect_z("2", 1, np.random.default_rng(0))

    def test_direct_and_indirect_agree_on_small_trees(self):
        rng = np.random.default_rng(4)
        for b in ("2", "3", "2,2", "3,2", "1,1,2", "2,2,1"):
            vec = BranchingVector.parse(b)
            for v in range(photon_count(vec)):
                if vec.children(v):
                    assert verify_indirect_z(vec, v, rng, trials=2)


_DENSE = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def _dense(p):
    """The signed Pauli as a matrix; qubit 0 is the most significant index bit."""
    out = np.array([[p.sign]], dtype=complex)
    for letter in p.to_label()[1:]:
        out = np.kron(out, _DENSE[letter])
    return out


class TestSignedStatevector:
    """Random Clifford circuits on a tableau and on a dense statevector, side by side.

    Every signed generator must fix the statevector, g|psi> = +|psi>, so a
    wrong sign anywhere in the tableau's update rules shows up here even
    where the unsigned stabilizer group is right.  After every step the
    expectation of a random signed Pauli must equal <psi|P|psi>.
    """

    @pytest.mark.parametrize("seed", range(24))
    def test_generators_stabilize_the_statevector(self, seed):
        self._run_circuit(np.random.default_rng(seed), "ZX", destructive=False)

    @pytest.mark.parametrize("seed", range(60))
    def test_y_and_destructive_measurements(self, seed):
        self._run_circuit(np.random.default_rng([seed, 1]), "ZXY", destructive=True)

    @staticmethod
    def _run_circuit(rng, bases, destructive):
        """40 random steps on the alive qubits; stops when fewer than 2 are alive."""
        n = int(rng.integers(2, 6))
        t = StabilizerTableau.from_generators([single(n, q, "Z") for q in range(n)])
        psi = np.zeros(2**n, dtype=complex)
        psi[0] = 1.0
        index = np.arange(2**n)
        bit = [(index >> (n - 1 - q)) & 1 for q in range(n)]
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for _ in range(40):
            if len(t.alive) < 2:
                break
            op = int(rng.integers(0, 5))
            a, b = (int(q) for q in rng.choice(t.alive, size=2, replace=False))
            if op == 0:
                t.apply_h(a)
                psi = np.kron(np.kron(np.eye(2**a), hadamard), np.eye(2 ** (n - a - 1))) @ psi
            elif op == 1:
                t.apply_cz(a, b)
                psi = np.where(bit[a] & bit[b], -psi, psi)
            elif op == 2:
                t.apply_cnot(a, b)
                psi = psi[index ^ (bit[a] << (n - 1 - b))]
            elif op == 3:
                letters = rng.choice(list("IXYZ"), size=n)
                letters[sorted(t.discarded)] = "I"
                p = PauliString.from_label("".join(letters))
                t.apply_pauli(p)
                psi = _dense(p) @ psi
            else:
                basis = bases[int(rng.integers(0, len(bases)))]
                drop = destructive and bool(rng.integers(0, 2))
                m = int(rng.choice([1, -1]))
                proj = (np.eye(2**n) + m * _dense(single(n, a, basis))) / 2
                if np.linalg.norm(proj @ psi) ** 2 < 1e-9:
                    with pytest.raises(MeasurementContradictionError):
                        t.measure(a, basis, outcome=m, destructive=drop)
                    m, proj = -m, np.eye(2**n) - proj
                assert t.measure(a, basis, outcome=m, destructive=drop) == m
                psi = proj @ psi
                psi /= np.linalg.norm(psi)
            assert t.n_generators == len(t.alive)
            for g in generators(t):
                assert np.allclose(_dense(g) @ psi, psi), (op, g.to_label())
            letters = rng.choice(list("IXYZ"), size=n)
            letters[sorted(t.discarded)] = "I"
            p = PauliString.from_label(str(rng.choice(["+", "-"])) + "".join(letters))
            want = np.vdot(psi, _dense(p) @ psi).real
            assert np.isclose(want, round(want)) and expectation(t, p) == round(want), p.to_label()


def _supports(t):
    """Per qubit, the rows with a bit on it, recomputed from the rows."""
    return [{i for i, v in enumerate(t.rows) if v >> 2 * q & 3} for q in range(t.n)]


class TestAgainstDenseEngine:
    """Seeded random programs on the sparse engine and on the dense numpy one.

    ``tests/reference_tableau.py`` keeps the engine's earlier form: bool
    planes, numpy row updates, column-by-column canonical form.  Both run
    H, CZ, CNOT, Pauli frames, preparations of retired qubits and X/Y/Z
    measurements, destructive or not, with forced and seeded outcomes.
    Some qubits start with no generator, so measuring them takes the new-row
    branch; a repeated measurement is deterministic, and forcing it the
    other way must raise in both.  After every step the outcomes, ranks and
    canonical texts must agree, and ``touch`` must equal the supports
    recomputed from the rows: a stale index would send a gate or a
    measurement past a row it should update.
    """

    @pytest.mark.parametrize("seed", range(10))
    def test_random_program(self, seed):
        rng = np.random.default_rng([seed, 22])
        n = int(rng.integers(6, 41))
        free = set(rng.choice(n, size=int(rng.integers(1, n // 3 + 1)), replace=False).tolist())
        start = [single(n, q, "Z") for q in range(n) if q not in free]
        sparse = StabilizerTableau.from_generators(start)
        dense = DenseTableau.from_generators(start)

        def both(step, method, *args, rng_seed=None, **kwargs):
            """Run one call on both engines, each with its own generator seeded
            by ``rng_seed``; the results, or the contradiction, must agree.
            The sparse engine's expectation is the tests' builder."""
            got = []
            for t in (sparse, dense):
                if rng_seed is not None:
                    kwargs["rng"] = np.random.default_rng(rng_seed)
                try:
                    if t is sparse and method == "expectation":
                        got.append(expectation(t, *args))
                    else:
                        got.append(getattr(t, method)(*args, **kwargs))
                except MeasurementContradictionError:
                    got.append("contradiction")
            assert got[0] == got[1], (step, method, args)
            return got[0]

        both("free", "measure", min(free), "XYZ"[seed % 3], rng_seed=[seed, 0])
        contradictions = 0
        for step in range(60):
            alive = sparse.alive
            a, b = (int(x) for x in rng.choice(alive, size=2, replace=False))
            op = int(rng.integers(0, 7))
            if op == 0:
                both(step, "apply_h", a)
            elif op == 1:
                both(step, "apply_cz", a, b)
            elif op == 2:
                both(step, "apply_cnot", a, b)
            elif op == 3:
                letters = rng.choice(list("IXYZ"), size=n)
                letters[sorted(sparse.discarded)] = "I"
                p = PauliString.from_label(str(rng.choice(["+", "-"])) + "".join(letters))
                both(step, "apply_pauli", p)
                both(step, "expectation", p)
            elif op == 4 and sparse.discarded:
                letter = str(rng.choice(["X", "-X", "Y", "-Y", "Z", "-Z"]))
                both(step, "prepare", int(rng.choice(sorted(sparse.discarded))), letter)
            else:
                basis = "XYZ"[int(rng.integers(0, 3))]
                forced = [1, -1, None][int(rng.integers(0, 3))]
                m = both(step, "measure", a, basis, outcome=forced, rng_seed=[seed, step])
                if m == "contradiction":  # forced against a fixed value: nothing changed
                    contradictions += 1
                    m = -forced
                if op == 5:  # again, now deterministic: the other value contradicts
                    assert both(step, "measure", a, basis, outcome=-m) == "contradiction"
                    contradictions += 1
                drop = len(alive) > 2 and bool(rng.integers(0, 2))
                assert both(step, "measure", a, basis, destructive=drop) == m
            assert sparse.n_generators == dense.n_generators, step
            assert tableau_text(sparse.canonical()) == dense.canonical().to_text(), step
            assert sparse.touch == _supports(sparse), step
        assert contradictions


def _text(t):
    """The text form of a tableau of either engine."""
    return t.to_text() if isinstance(t, DenseTableau) else tableau_text(t)


class TestPhaseRules:
    """The sign rules of H and CZ on rows where their phase terms fire.

    CZ adds a sign to a row with X or Y on both of its qubits, H to a row
    with Y on its qubit.  Each conjugation was worked by hand, e.g. CZ
    takes X_a Y_b to (X_a Z_b)(Z_a Y_b) = (X_a Z_a)(Z_b Y_b) =
    (-iY_a)(-iX_b) = -Y_a X_b; the dense engine must agree.
    """

    @pytest.mark.parametrize("before,after", [
        ("+XX", "+YY"), ("+YY", "+XX"), ("+XY", "-YX"), ("+YX", "-XY"), ("-XXZ", "-YYZ"),
        ("+XI", "+XZ"), ("+YI", "+YZ"), ("+ZZ", "+ZZ"), ("-YXY", "+XYY"),
    ])
    def test_cz(self, before, after):
        for engine in (StabilizerTableau, DenseTableau):
            t = engine.from_generators([PauliString.from_label(before)])
            t.apply_cz(0, 1)
            assert _text(t) == after + "\n", engine

    @pytest.mark.parametrize("before,q,after", [
        ("+Y", 0, "-Y"), ("-Y", 0, "+Y"), ("+X", 0, "+Z"), ("-Z", 0, "-X"),
        ("+YZ", 0, "-YZ"), ("+XY", 1, "-XY"), ("+YY", 0, "-YY"), ("+YX", 1, "+YZ"),
    ])
    def test_h(self, before, q, after):
        for engine in (StabilizerTableau, DenseTableau):
            t = engine.from_generators([PauliString.from_label(before)])
            t.apply_h(q)
            assert _text(t) == after + "\n", engine

    def test_both_rules_on_a_graph_state_row(self):
        # K_1 of the path 0-1-2 is Z X Z; with Y on vertex 0 (times K_0 = X Z I)
        # it is the row +Y Y Z, which CZ(0, 1) takes to +X X Z and H(0) then to +Z X Z.
        t = from_labels(*THREE_CHAIN)
        t._row_mult(1, 0)
        assert t.generator(1).to_label() == "+YYZ"
        t.apply_cz(0, 1)
        assert t.generator(1).to_label() == "+XXZ"
        t.apply_h(0)
        assert t.generator(1).to_label() == "+ZXZ"
