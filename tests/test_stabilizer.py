import itertools

import numpy as np
import pytest

from treebsm.stabilizer import (
    MeasurementContradictionError,
    PauliString,
    StabilizerTableau,
    encode_logical,
    graph_state_tableau,
    tableau_equal,
    verify_indirect_z,
)
from treebsm.trees import build_tree

from builders import all_plus, tableau_from_text


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


class TestMeasurementRules:
    """The three-qubit chain worked example, bit-exact for both bases and signs."""

    @pytest.mark.parametrize("m", [1, -1])
    def test_z_on_middle(self, m):
        t = from_labels(*THREE_CHAIN)
        assert t.measure(1, "Z", outcome=m) == m
        s = "+" if m == 1 else "-"
        expect = from_labels(f"{s}XII", f"{s}IZI", f"{s}IIX")
        assert tableau_equal(t, expect)

    @pytest.mark.parametrize("m", [1, -1])
    def test_x_on_middle(self, m):
        t = from_labels(*THREE_CHAIN)
        assert t.measure(1, "X", outcome=m) == m
        s = "+" if m == 1 else "-"
        expect = from_labels(f"{s}ZIZ", "+XIX", f"{s}IXI")
        assert tableau_equal(t, expect)

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
        assert t.to_text() == f"{sign}Z\n"

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
        assert tableau_equal(t, from_labels("+IX", f"{want}I"))

    def test_prepare_refuses_a_qubit_in_use(self):
        t = from_labels("+ZZ", "+XX")
        with pytest.raises(ValueError, match="still acted on"):
            t.prepare(1, "X")

    @pytest.mark.parametrize("letter", ["I", "XX", "+"])
    def test_prepare_needs_a_one_qubit_pauli(self, letter):
        t = all_plus(2)
        t.measure(0, "Z", rng=np.random.default_rng(0), destructive=True)
        with pytest.raises(ValueError, match="one-qubit Pauli"):
            t.prepare(0, letter)

    def test_generators_commute_after_random_circuit(self):
        rng = np.random.default_rng(9)
        t = graph_state_tableau(build_tree("3,2"))
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
        path = build_tree("1,1")  # 0-1-2 is a path
        assert tableau_equal(graph_state_tableau(path), from_labels(*THREE_CHAIN))

    def test_single_vertex(self):
        t = graph_state_tableau(build_tree("1"))
        # root plus one child: two vertices, X-Z pair generators
        assert t.n_generators == 2

    def test_star_of_two_leaves(self):
        t = graph_state_tableau(build_tree("2"))
        assert tableau_equal(t, from_labels("+XZZ", "+ZXI", "+ZIX"))


class TestCanonicalForm:
    def test_order_independence(self):
        a = from_labels("+XZ", "+ZX")
        b = from_labels("+ZX", "+XZ")
        assert tableau_equal(a, b)

    def test_sign_matters(self):
        assert not tableau_equal(from_labels("+X"), from_labels("-X"))

    def test_row_products_preserve_group(self):
        t = graph_state_tableau(build_tree("2,2"))
        mixed = t.copy()
        mixed._row_mult(0, 1)
        mixed._row_mult(3, 5)
        assert tableau_equal(t, mixed)

    def test_serialization_roundtrip(self):
        t = graph_state_tableau(build_tree("2,2"))
        again = tableau_from_text(t.to_text())
        assert tableau_equal(t, again)

    def test_text_format_is_one_generator_per_line(self):
        text = from_labels("+XZ", "+ZX").to_text()
        assert text == "+XZ\n+ZX\n"


class TestExpectation:
    def test_every_group_element_of_the_chain(self):
        # K0 K1 = (XZI)(ZXZ) = +YYZ: reordering X and Z factors gives the sign.
        t = from_labels(*THREE_CHAIN)
        assert t.expectation(PauliString.from_label("+YYZ")) == 1
        assert t.expectation(PauliString.from_label("-YYZ")) == -1
        for mask in itertools.product([False, True], repeat=3):
            if not any(mask):
                continue
            p = PauliString.identity(3)
            for g, used in zip(t.generators(), mask):
                p = p * g if used else p
            assert t.expectation(p) == 1
            assert t.expectation(PauliString(p.xs, p.zs, -p.sign)) == -1

    def test_random_and_undetermined_directions_read_zero(self):
        t = from_labels("+XX")
        assert t.expectation(PauliString.from_label("+ZI")) == 0
        assert t.expectation(PauliString.from_label("+ZZ")) == 0


class TestEncoding:
    def test_plus_state_gives_product_of_pluses(self):
        code = encode_logical(build_tree("2"), "+X", outcomes=(1, 1))
        assert tableau_equal(code, from_labels("+XI", "+IX"))
        assert code.x_logical.to_label() == "+XI"
        assert code.z_logical.to_label() == "+ZZ"

    def test_zero_state_gives_even_superposition(self):
        code = encode_logical(build_tree("2"), "+Z", outcomes=(1, 1))
        assert tableau_equal(code, from_labels("+XX", "+ZZ"))

    @pytest.mark.parametrize("o1", [1, -1])
    @pytest.mark.parametrize("o2", [1, -1])
    def test_outcome_independence(self, o1, o2):
        code = encode_logical(build_tree("2"), "+X", outcomes=(o1, o2))
        assert tableau_equal(code, from_labels("+XI", "+IX"))

    @pytest.mark.parametrize("prep,want", [("+Z", 1), ("-Z", -1)])
    def test_determinism_transfer(self, prep, want):
        # Measuring Z on all first-level qubits of an encoded computational
        # state yields the encoded value as the product of outcomes.
        rng = np.random.default_rng(21)
        for b in ("2", "3", "2,2"):
            tree = build_tree(b)
            code = encode_logical(tree, prep, outcomes=(1, 1))
            prod = 1
            for q in range(tree.branching[0]):
                prod *= code.measure(q, "Z", rng=rng)
            assert prod == want

    def test_deep_graph_stabilizers_fix_every_logical_state(self):
        # Any vertex at level 2 or deeper keeps its graph generator in the
        # code group regardless of the encoded state.
        tree = build_tree("2,2")
        for prep in ("+X", "+Z", "-Z", "+Y"):
            code = encode_logical(tree, prep, outcomes=(1, 1))
            for v in range(3, 7):  # level-2 vertices, shifted by the root drop
                gen = PauliString.identity(code.n)
                gen.xs[v - 1] = True
                gen.zs[tree.parent[v] - 1] = True
                assert code.expectation(gen) == 1


class TestIndirectZ:
    def test_level1_vertex_of_2_2(self):
        assert verify_indirect_z(build_tree("2,2"), 1, np.random.default_rng(3))

    def test_all_level1_vertices_of_3_2(self):
        tree = build_tree("3,2")
        for v in (1, 2, 3):
            assert verify_indirect_z(tree, v, np.random.default_rng(v))

    def test_leaf_target_rejected(self):
        with pytest.raises(ValueError):
            verify_indirect_z(build_tree("2"), 1, np.random.default_rng(0))

    def test_direct_and_indirect_agree_on_small_trees(self):
        rng = np.random.default_rng(4)
        for b in ("2", "3", "2,2", "3,2", "1,1,2", "2,2,1"):
            tree = build_tree(b)
            for v in range(tree.n_vertices):
                if tree.children[v]:
                    assert verify_indirect_z(tree, v, rng, trials=2)


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
    where the unsigned stabilizer group is right.
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
        t = StabilizerTableau.from_generators([PauliString.single(n, q, "Z") for q in range(n)])
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
                proj = (np.eye(2**n) + m * _dense(PauliString.single(n, a, basis))) / 2
                if np.linalg.norm(proj @ psi) ** 2 < 1e-9:
                    with pytest.raises(MeasurementContradictionError):
                        t.measure(a, basis, outcome=m, destructive=drop)
                    m, proj = -m, np.eye(2**n) - proj
                assert t.measure(a, basis, outcome=m, destructive=drop) == m
                psi = proj @ psi
                psi /= np.linalg.norm(psi)
            assert t.n_generators == len(t.alive)
            for g in t.generators():
                assert np.allclose(_dense(g) @ psi, psi), (op, g.to_label())
