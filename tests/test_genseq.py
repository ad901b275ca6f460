import itertools
import tracemalloc

import numpy as np
import pytest

from treebsm import cli, genseq
from treebsm.genseq import (
    Instruction,
    InstructionSequence,
    compile_bell_pair,
    execute_sequence,
    logical_bell_tableau,
    program_qubits,
    verify_bell_pair,
)
from treebsm.stabilizer import (
    MAX_TABLEAU_BYTES,
    PauliString,
    StabilizerTableau,
    draw_outcome,
    tableau_bytes,
)
from treebsm.trees import TreeTooLargeError, as_branching_vector, photon_count

from builders import encode_logical, generators, graph_state_tableau, instruction_from_line


class TestCompile:
    def test_instruction_count_2_2(self):
        seq = compile_bell_pair("2,2")
        assert len(seq) == 27
        assert seq.n_photons == 12
        assert seq.n_registers == 3

    def test_smallest_tree(self):
        seq = compile_bell_pair("1")
        # one photon per tree, two root registers, final CZ + two X reads
        assert seq.n_photons == 2
        assert seq.n_registers == 2
        opcodes = [i.opcode for i in seq]
        assert opcodes == ["E", "E", "CZ", "MX", "MX"]

    @pytest.mark.parametrize("b", ["1", "2", "3,2", "2,2,2", "3,2,2"])
    def test_photon_budget(self, b):
        seq = compile_bell_pair(b)
        assert seq.n_photons == 2 * (photon_count(b) - 1)

    def test_register_budget_is_depth_plus_one(self):
        for b, want in (("2", 2), ("3,2", 3), ("3,2,2", 4), ("2,2,2,2", 5)):
            assert compile_bell_pair(b).n_registers == want

    @pytest.mark.parametrize("b", ["2", "3,2", "3,2,2"])
    def test_each_column_is_emitted_once_by_the_register_growing_it(self, b):
        # Tree 1 is grown first, each vertex after its children (a subtree is
        # built before its photon is emitted).  A leaf comes from its parent's
        # register, root r or ladder register d; an inner vertex of level k
        # from ladder register k + 1, which held its subtree.
        vec = as_branching_vector(b)
        seq, per_tree = compile_bell_pair(vec), photon_count(vec) - 1
        emitted = [i.args for i in seq if i.opcode == "E"]
        assert sorted(c for _, c in emitted) == list(range(seq.n_photons))
        done: set[int] = set()
        for r, c in emitted:
            tree_id, vertex = divmod(c, per_tree)
            vertex += 1
            assert c == vec.photon_column(tree_id, vertex)
            level = next(k for k in range(vec.depth + 1) if vertex in vec.level_vertices(k))
            leaf_register = tree_id if vec.depth == 1 else vec.depth
            assert r == (leaf_register if level == vec.depth else level + 1), (r, c)
            assert {vec.photon_column(tree_id, w) for w in vec.children(vertex)} <= done
            done.add(c)
        assert [c // per_tree for _, c in emitted] == sorted((c // per_tree for _, c in emitted),
                                                             reverse=True)

    def test_schedule_shape_3_2_2(self):
        # Per first-level subtree: two leaf blocks (each two emissions plus
        # the bond/teleport tail) then the level-1 node's own tail; three
        # such subtrees per tree plus the closing bond and root reads.
        seq = compile_bell_pair("3,2,2")
        ops = [i.opcode for i in seq]
        per_grand = ["E", "E", "CZ", "E", "H", "MZ"]
        per_child = per_grand * 2 + ["CZ", "E", "H", "MZ"]
        per_tree = per_child * 3
        assert ops == per_tree * 2 + ["CZ", "MX", "MX"]

    def test_text_roundtrip(self):
        seq = compile_bell_pair("2,2")
        text = seq.to_text()
        assert text.splitlines()[0] == "E 2 8"   # tree 1's vertex 3, column 6 + 3 - 1
        again = [instruction_from_line(line) for line in text.splitlines()]
        assert again == seq.instructions

    @pytest.mark.parametrize("b", ["2,2", "3,2,2", "4,4,4"])
    def test_the_text_is_a_whole_program(self, b):
        # Read back with the shape and its counts alone, the text verifies.
        vec = as_branching_vector(b)
        lines = compile_bell_pair(vec).to_text().splitlines()
        seq = InstructionSequence(tuple(vec), vec.depth + 1, 2 * (photon_count(vec) - 1),
                                  [instruction_from_line(line) for line in lines])
        assert verify_bell_pair(seq, b).ok
        assert verify_bell_pair(seq, b, forced_outcomes=[-1] * seq.n_measurements).ok
        assert verify_bell_pair(seq, b, rng=np.random.default_rng(3)).ok

    def test_golden_program_for_two_leaves(self):
        # Second tree first, then the first tree, then the root bond/reads;
        # each photon is its target column, tree 0's first.
        assert compile_bell_pair("2").to_text() == (
            "E 1 2\nE 1 3\nE 0 0\nE 0 1\nCZ 0 1\nMX 1\nMX 0\n"
        )


class TestVerify:
    @pytest.mark.parametrize("b", ["1", "2", "3", "1,1", "2,2", "3,2", "1,2", "2,2,2", "3,2,2"])
    def test_forced_plus_outcomes(self, b):
        seq = compile_bell_pair(b)
        res = verify_bell_pair(seq, b)
        assert res.ok, res.detail
        assert res.correction == PauliString(res.correction.n)  # an all-+1 record

    def test_all_outcome_patterns_small(self):
        for b in ("1", "2", "1,1", "2,1", "1,2", "2,2"):
            seq = compile_bell_pair(b)
            for pattern in itertools.product((1, -1), repeat=seq.n_measurements):
                res = verify_bell_pair(seq, b, forced_outcomes=list(pattern))
                assert res.ok, (pattern, res.detail)

    def test_minus_one_without_a_byproduct_fails(self):
        # Measuring a register that holds no freshly emitted photon: a -1 there
        # has no byproduct in the frame rule, so no frame is guessed.
        seq = compile_bell_pair("1")
        bad = InstructionSequence(seq.branching, seq.n_registers, seq.n_photons,
                                  [Instruction("MZ", (0,))] + seq.instructions)
        res = verify_bell_pair(bad, "1", forced_outcomes=[-1, 1, 1])
        assert not res.ok and res.detail.startswith("'MZ 0' read -1")
        assert verify_bell_pair(bad, "1", forced_outcomes=[1, 1, 1]).ok

    @pytest.mark.parametrize("seed", range(4))
    def test_deterministic_measurement_takes_its_own_outcome(self, seed):
        # A leading MX on a fresh register in |+> reads +1 whatever the rng
        # holds; only the random measurements after it draw.
        seq = compile_bell_pair("1")
        lead = InstructionSequence(seq.branching, seq.n_registers, seq.n_photons,
                                   [Instruction("MX", (0,))] + seq.instructions)
        record = []
        execute_sequence(lead, rng=np.random.default_rng(seed), record=record)
        assert record[0] == 1 and len(record) == lead.n_measurements
        assert verify_bell_pair(lead, "1", rng=np.random.default_rng(seed)).ok

    def test_random_outcomes(self):
        rng = np.random.default_rng(11)
        for b in ("2,2", "3,2"):
            seq = compile_bell_pair(b)
            for _ in range(5):
                assert verify_bell_pair(seq, b, rng=rng).ok

    def test_missing_hadamard_detected(self):
        seq = compile_bell_pair("2,2")
        idx = next(i for i, ins in enumerate(seq.instructions) if ins.opcode == "H")
        bad = InstructionSequence(
            seq.branching, seq.n_registers, seq.n_photons,
            [ins for j, ins in enumerate(seq.instructions) if j != idx],
        )
        res = verify_bell_pair(bad, "2,2")
        assert not res.ok
        assert "mismatch" in res.detail

    SIGNED = ["2,2", "3,2,2", "4,4,4"]

    @pytest.mark.parametrize("b", SIGNED)
    def test_sign_negated_target_fails(self, b, monkeypatch):
        target = genseq.logical_bell_tableau

        def negated(shape):
            return StabilizerTableau.from_generators(
                PauliString(g.n, g.bits, -g.sign) for g in generators(target(shape)))

        monkeypatch.setattr(genseq, "logical_bell_tableau", negated)
        seq = compile_bell_pair(b)
        assert not verify_bell_pair(seq, b).ok
        assert not verify_bell_pair(seq, b, rng=np.random.default_rng(1)).ok

    @pytest.mark.parametrize("b", SIGNED[1:])
    def test_measurement_recording_the_wrong_sign_fails(self, b, monkeypatch):
        # The tableau keeps -m while the record says m, so every byproduct
        # is missing from the frame.  On (2,2) their product, the whole
        # error, is a stabilizer of the target, so that shape cannot see it.
        measure = StabilizerTableau.measure

        def lying(self, qubit, basis, outcome=None, rng=None, destructive=False):
            m = draw_outcome(outcome, rng)
            measure(self, qubit, basis, -m, None, destructive)
            return m

        monkeypatch.setattr(StabilizerTableau, "measure", lying)
        seq = compile_bell_pair(b)
        assert not verify_bell_pair(seq, b).ok
        assert not verify_bell_pair(seq, b, rng=np.random.default_rng(1)).ok

    def test_wrong_shape_rejected(self):
        seq = compile_bell_pair("2")
        with pytest.raises(ValueError):
            verify_bell_pair(seq, "3")

    def test_unknown_opcode_rejected(self):
        seq = compile_bell_pair("1")
        bad = InstructionSequence(
            seq.branching, seq.n_registers, seq.n_photons,
            seq.instructions + [Instruction("Q", (0,))],
        )
        with pytest.raises(ValueError):
            execute_sequence(bad, forced_outcomes=[1] * 10)


_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
_TO_Z = {"X": _H, "Y": _H @ np.diag([1, -1j]), "Z": np.eye(2)}  # eigenbasis of P -> Z's
_PAULI = {"X": np.array([[0, 1], [1, 0]]), "Y": np.array([[0, -1j], [1j, 0]]),
          "Z": np.diag([1, -1])}


class _Statevector:
    """A dense state over labelled qubits, one tensor axis each; a measured qubit's axis goes."""

    def __init__(self):
        self.psi = np.ones((), dtype=complex)
        self.labels: list[int] = []

    def add(self, label, vector):
        self.psi = np.multiply.outer(self.psi, np.asarray(vector, dtype=complex))
        self.labels.append(label)

    def apply(self, label, matrix):
        k = self.labels.index(label)
        self.psi = np.moveaxis(np.tensordot(matrix, self.psi, axes=([1], [k])), 0, k)

    def cz(self, a, b):
        index = [slice(None)] * self.psi.ndim
        index[self.labels.index(a)] = index[self.labels.index(b)] = 1
        self.psi[tuple(index)] *= -1

    def measure(self, label, basis, outcome, rng):
        """Project onto the ``outcome`` eigenspace (drawn by Born's rule if None) and drop the qubit."""
        self.apply(label, _TO_Z[basis])
        k = self.labels.index(label)
        del self.labels[k]
        plus = np.take(self.psi, 0, axis=k)
        p_plus = np.vdot(plus, plus).real / np.vdot(self.psi, self.psi).real
        if outcome is None:
            outcome = 1 if rng.random() < p_plus else -1
        assert (p_plus if outcome == 1 else 1 - p_plus) > 1e-9
        self.psi = np.take(self.psi, 0 if outcome == 1 else 1, axis=k)
        self.psi /= np.linalg.norm(self.psi)
        return outcome


class TestStatevectorOracle:
    """Compiled programs on a dense statevector: no tableau evolves the state.

    Photons are emitted in |0> and CNOT-ed from their register, a register
    is prepared in |+> on first use and after each measurement, and a
    measurement projects and removes its qubit, with outcomes forced or
    drawn by Born's rule from a seeded generator.  The leaf photons then
    take their deferred H, the Pauli frame that ``verify_bell_pair``
    reports for that record is applied, and every signed generator of
    ``logical_bell_tableau`` must fix the final photon state.  These
    programs keep at most 15 qubits.
    """

    @staticmethod
    def _run(seq, outcomes, rng):
        vec = as_branching_vector(seq.branching)
        state, live, record = _Statevector(), set(), []
        n_p = seq.n_photons
        plus = np.array([1, 1]) / np.sqrt(2)

        def reg(r):
            if r not in live:
                state.add(n_p + r, plus)
                live.add(r)
            return n_p + r

        for ins in seq:
            if ins.opcode == "E":
                r, p = ins.args
                control = reg(r)
                state.add(p, [1, 0])
                state.apply(p, _H)          # CNOT = H_t CZ H_t
                state.cz(control, p)
                state.apply(p, _H)
            elif ins.opcode == "H":
                state.apply(reg(ins.args[0]), _H)
            elif ins.opcode == "CZ":
                state.cz(reg(ins.args[0]), reg(ins.args[1]))
            else:
                forced = outcomes[len(record)] if outcomes is not None else None
                record.append(state.measure(reg(ins.args[0]), ins.opcode[1], forced, rng))
                live.remove(ins.args[0])
        for tree_id in (0, 1):
            for v in vec.level_vertices(vec.depth):
                state.apply(vec.photon_column(tree_id, v), _H)
        return state, record

    @pytest.mark.parametrize("b", ["2", "1,1", "2,1", "2,2"])
    @pytest.mark.parametrize("mode", ["plus", "minus", "alternating", "seeded"])
    def test_target_fixes_the_final_state(self, b, mode):
        seq = compile_bell_pair(b)
        assert seq.n_photons + seq.n_registers <= 15
        k = seq.n_measurements
        outcomes = {"plus": [1] * k, "minus": [-1] * k,
                    "alternating": [(-1) ** i for i in range(k)], "seeded": None}[mode]
        state, record = self._run(seq, outcomes, np.random.default_rng([k, 4]))
        res = verify_bell_pair(seq, b, forced_outcomes=record)
        assert res.ok, res.detail
        for column, letter in enumerate(res.correction.to_label()[1:]):
            if letter != "I":
                state.apply(column, _PAULI[letter])
        target = logical_bell_tableau(b)
        assert target.n_generators == len(state.labels) == seq.n_photons
        for g in generators(target):
            fixed = _Statevector()
            fixed.psi, fixed.labels = g.sign * state.psi, state.labels
            for column, letter in enumerate(g.to_label()[1:]):
                if letter != "I":
                    fixed.apply(column, _PAULI[letter])
            assert np.allclose(fixed.psi, state.psi), (record, g.to_label())


class TestCzPhaseTerm:
    """Why no compiled program reaches the phase term of ``apply_cz``.

    The term fires on a row with X on both CZ qubits.  A row only ever acts
    within one group of qubits entangled together: gates act on their own
    qubits, and a measurement multiplies only rows that share its qubit.
    Every CZ of a compiled program bonds two registers in separate groups:
    a child register that a destructive measurement retired and ``prepare``
    brought back fresh, holding only the subtree grown since, and its parent
    register; or the two roots, one per tree.  So no row acts on both, and
    the term never fires; ``TestPhaseRules`` in ``test_stabilizer.py`` pins
    it instead.  This checks that no row acts on both qubits at every CZ.
    """

    @pytest.mark.parametrize("b", ["2,2", "3,2,2", "2,2,2,2", "4,3"])
    def test_no_row_acts_on_both_registers(self, b, monkeypatch):
        apply_cz = StabilizerTableau.apply_cz
        seen = []

        def checked(self, a, b):
            seen.append(self.touch[a] & self.touch[b])
            apply_cz(self, a, b)

        monkeypatch.setattr(StabilizerTableau, "apply_cz", checked)
        seq = compile_bell_pair(b)
        for rng in (None, np.random.default_rng(5)):
            assert verify_bell_pair(seq, b, rng=rng).ok
        assert len(seen) == 2 * sum(i.opcode == "CZ" for i in seq) and not any(seen)


class TestProgramChecks:
    """Hand-built programs with indices outside their declared counts."""

    def _program(self, lines, n_registers=2, n_photons=2):
        ins = [instruction_from_line(line) for line in lines]
        return InstructionSequence((1,), n_registers, n_photons, ins)

    GOOD = ["E 1 1", "E 0 0", "CZ 0 1", "MX 1", "MX 0"]

    def test_hand_built_program_runs(self):
        assert verify_bell_pair(self._program(self.GOOD), "1").ok

    @pytest.mark.parametrize("bad", ["E 0 2", "E 0 -1"])
    def test_photon_outside_the_program(self, bad):
        seq = self._program([bad] + self.GOOD)
        with pytest.raises(ValueError, match=f"'{bad}': photon"):
            execute_sequence(seq, forced_outcomes=[1] * 10)

    @pytest.mark.parametrize("bad", ["H 2", "CZ 0 5", "E -1 0", "MZ 2"])
    def test_register_outside_the_program(self, bad):
        seq = self._program(self.GOOD[:2] + [bad] + self.GOOD[2:])
        with pytest.raises(ValueError, match=f"'{bad}': register"):
            execute_sequence(seq, forced_outcomes=[1] * 10)

    @pytest.mark.parametrize("bad", ["H", "E 0", "E 0 1 1", "CZ 0", "MX", "MZ 0 5"])
    def test_argument_count_of_each_opcode(self, bad):
        # "MZ 0 5" once ran as "MZ 0", "H" raised IndexError and "E 0" an unpacking error.
        seq = self._program(self.GOOD[:2] + [bad] + self.GOOD[2:])
        with pytest.raises(ValueError, match=f"'{bad}': {bad.split()[0]} takes"):
            execute_sequence(seq, forced_outcomes=[1] * 10)

    def test_cz_needs_two_different_registers(self):
        # "CZ 0 0" once ran as a Z on register 0.
        seq = self._program(self.GOOD[:2] + ["CZ 0 0"] + self.GOOD[2:])
        with pytest.raises(ValueError, match="'CZ 0 0': CZ needs two different registers"):
            execute_sequence(seq, forced_outcomes=[1] * 10)

    def test_register_left_unmeasured(self):
        seq = self._program(self.GOOD[:-1])
        with pytest.raises(ValueError, match="never measured out"):
            execute_sequence(seq, forced_outcomes=[1] * 10)

    def test_too_few_forced_outcomes(self):
        with pytest.raises(ValueError, match="'MX 0': no forced outcome left"):
            verify_bell_pair(compile_bell_pair("2"), "2", forced_outcomes=[1])

    def test_forced_outcomes_left_over(self):
        # (2,2) makes 6 measurements, so a record of 11 belongs to another program.
        with pytest.raises(ValueError, match=r"5 forced outcome\(s\) left after the last instruction"):
            verify_bell_pair(compile_bell_pair("2,2"), "2,2", forced_outcomes=[1] * 11)

    @pytest.mark.parametrize("n_photons", [1, 3])
    def test_one_photon_per_column_of_the_shape(self, n_photons):
        # A leaf's deferred H is applied by column, so a short count would
        # send it to a register's qubit.
        with pytest.raises(ValueError, match=f"{n_photons} photons, not the 2 columns of 1"):
            execute_sequence(self._program(self.GOOD, n_photons=n_photons),
                             forced_outcomes=[1] * 10)


class TestTarget:
    def test_full_rank_on_photons(self):
        for b in ("2", "2,2", "3,2,2"):
            t = logical_bell_tableau(b)
            assert t.n_generators == t.n == 2 * (photon_count(b) - 1)

    def test_cross_generators_couple_the_trees(self):
        t = logical_bell_tableau("2")
        labels = {g.to_label() for g in generators(t)}
        assert "+XIZZ" in labels   # logical X of one tree with logical Z of the other
        assert "+ZZXI" in labels


class TestSizeCap:
    TOWER = (120, 89, 15, 1)  # 331,201 vertices per tree, under the tree vertex cap

    def _refused_with_small_peak(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="GB"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_tower_program_is_refused_before_anything_is_allocated(self):
        # A stand-in with the tower's counts: compiling the real program
        # would itself take hundreds of MB.
        seq = InstructionSequence(self.TOWER, len(self.TOWER) + 1,
                                  2 * (photon_count(self.TOWER) - 1), [])
        self._refused_with_small_peak(lambda: execute_sequence(seq))
        self._refused_with_small_peak(lambda: verify_bell_pair(seq, self.TOWER))

    def test_verify_generation_exits_1_without_compiling(self, monkeypatch, capsys):
        def no_compile(b):
            raise AssertionError("a program was compiled")

        monkeypatch.setattr(cli, "compile_bell_pair", no_compile)
        tracemalloc.start()
        try:
            code = cli.main(["verify-generation", "--b", ",".join(map(str, self.TOWER))])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 1e6
        assert "GB" in capsys.readouterr().err

    def test_estimate_bounds_the_traced_peak(self):
        for b in ((10, 10, 2), (74, 15)):
            seq, rng = compile_bell_pair(b), np.random.default_rng(1)
            tracemalloc.start()   # after seeding, whose first call imports numpy code
            try:
                assert verify_bell_pair(seq, b, rng=rng).ok
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= tableau_bytes(program_qubits(b)) <= 2 * peak, b

    @pytest.mark.parametrize("build", [graph_state_tableau, encode_logical, logical_bell_tableau])
    def test_builders_refuse_a_tableau_over_the_cap(self, build):
        # 999,001 vertices pass the vertex cap, but the tableau would need terabytes.
        self._refused_with_small_peak(lambda: build("999,999"))
        with pytest.raises(ValueError, match=r"needs about [0-9.e+]+ GB, above the 2 GB cap"):
            build("999,999")
        with pytest.raises(TreeTooLargeError):
            build("100,100,100")

    def test_reference_shapes_fit(self):
        for b in ((15, 15, 2), (74, 15), (10, 10, 2)):
            assert tableau_bytes(program_qubits(b)) < MAX_TABLEAU_BYTES
        assert tableau_bytes(program_qubits(self.TOWER)) > 100 * MAX_TABLEAU_BYTES
