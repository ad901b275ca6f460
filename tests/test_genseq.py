import itertools
import tracemalloc

import numpy as np
import pytest

from treebsm import cli
from treebsm.genseq import (
    MAX_TABLEAU_BYTES,
    Instruction,
    InstructionSequence,
    compile_bell_pair,
    execute_sequence,
    logical_bell_tableau,
    program_qubits,
    tableau_bytes,
    verify_bell_pair,
)
from treebsm.trees import photon_count

from builders import instruction_from_line


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

    def test_emitted_photon_indices_increase(self):
        seq = compile_bell_pair("3,2,2")
        emitted = [i.args[1] for i in seq if i.opcode == "E"]
        assert emitted == sorted(emitted)
        assert emitted == list(range(seq.n_photons))

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
        assert text.splitlines()[0] == "E 2 0"
        again = [instruction_from_line(line) for line in text.splitlines()]
        assert again == seq.instructions

    def test_golden_program_for_two_leaves(self):
        # Second tree first, then the first tree, then the root bond/reads.
        assert compile_bell_pair("2").to_text() == (
            "E 1 0\nE 1 1\nE 0 2\nE 0 3\nCZ 0 1\nMX 1\nMX 0\n"
        )


class TestVerify:
    @pytest.mark.parametrize("b", ["1", "2", "3", "1,1", "2,2", "3,2", "1,2", "2,2,2", "3,2,2"])
    def test_forced_plus_outcomes(self, b):
        seq = compile_bell_pair(b)
        res = verify_bell_pair(seq, b)
        assert res.ok, res.detail

    def test_all_outcome_patterns_small(self):
        for b in ("1", "2", "1,1"):
            seq = compile_bell_pair(b)
            for pattern in itertools.product((1, -1), repeat=seq.n_measurements):
                assert verify_bell_pair(seq, b, forced_outcomes=list(pattern)).ok

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
            seq.photon_vertex,
        )
        res = verify_bell_pair(bad, "2,2")
        assert not res.ok
        assert "mismatch" in res.detail

    def test_wrong_shape_rejected(self):
        seq = compile_bell_pair("2")
        with pytest.raises(ValueError):
            verify_bell_pair(seq, "3")

    def test_unknown_opcode_rejected(self):
        seq = compile_bell_pair("1")
        bad = InstructionSequence(
            seq.branching, seq.n_registers, seq.n_photons,
            seq.instructions + [Instruction("Q", (0,))],
            seq.photon_vertex,
        )
        with pytest.raises(ValueError):
            execute_sequence(bad, forced_outcomes=[1] * 10)


class TestProgramChecks:
    """Hand-built programs with indices outside their declared counts."""

    def _program(self, lines, n_registers=2, n_photons=2):
        ins = [instruction_from_line(line) for line in lines]
        return InstructionSequence((1,), n_registers, n_photons, ins, {0: (1, 1), 1: (0, 1)})

    GOOD = ["E 1 0", "E 0 1", "CZ 0 1", "MX 1", "MX 0"]

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

    def test_register_left_unmeasured(self):
        seq = self._program(self.GOOD[:-1])
        with pytest.raises(ValueError, match="never measured out"):
            execute_sequence(seq, forced_outcomes=[1] * 10)

    def test_too_few_forced_outcomes(self):
        with pytest.raises(ValueError, match="'MX 0': no forced outcome left"):
            verify_bell_pair(compile_bell_pair("2"), "2", forced_outcomes=[1])

    def test_photon_without_a_tree_vertex(self):
        seq = compile_bell_pair("2,2")
        seq.photon_vertex = {}
        with pytest.raises(ValueError, match="photon_vertex names no tree vertex for 12 of"):
            execute_sequence(seq, forced_outcomes=[1] * seq.n_measurements)


class TestTarget:
    def test_full_rank_on_photons(self):
        for b in ("2", "2,2", "3,2,2"):
            t = logical_bell_tableau(b)
            assert t.n_generators == t.n == 2 * (photon_count(b) - 1)

    def test_cross_generators_couple_the_trees(self):
        t = logical_bell_tableau("2")
        labels = {g.to_label() for g in t.generators()}
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
        b = (10, 10, 2)
        seq = compile_bell_pair(b)
        tracemalloc.start()
        try:
            assert verify_bell_pair(seq, b, rng=np.random.default_rng(1)).ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= tableau_bytes(program_qubits(b)) <= 2 * peak

    def test_reference_shapes_fit(self):
        for b in ((15, 15, 2), (74, 15), (10, 10, 2)):
            assert tableau_bytes(program_qubits(b)) < MAX_TABLEAU_BYTES
        assert tableau_bytes(program_qubits(self.TOWER)) > 1000 * MAX_TABLEAU_BYTES
