"""Constructors that only the tests use: product states and the text parsers.

Tableaux and instruction sequences are written as text by the package
(``StabilizerTableau.to_text``, ``Instruction.to_line``); reading them back
is needed only to check those forms.
"""

from __future__ import annotations

from treebsm.genseq import Instruction
from treebsm.stabilizer import PauliString, StabilizerTableau


def all_plus(n: int) -> StabilizerTableau:
    """The n-qubit product state |+>^n."""
    return StabilizerTableau.from_generators([PauliString.single(n, q, "X") for q in range(n)])


def tableau_from_text(text: str) -> StabilizerTableau:
    """Parse the one-signed-generator-per-line form of ``StabilizerTableau.to_text``."""
    return StabilizerTableau.from_generators(
        [PauliString.from_label(line) for line in text.strip().splitlines()]
    )


def instruction_from_line(line: str) -> Instruction:
    """Parse one line of ``Instruction.to_line``."""
    opcode, *args = line.split()
    return Instruction(opcode, tuple(int(x) for x in args))
