"""Built-in tree families for threshold estimation.

The protocol loss thresholds are asymptotic statements over arbitrarily
large trees; a bounded family pins them down at desk scale.  The deep
members below were found by coordinate ascent on the exact success
recursions: redundancy concentrates in the upper levels and tapers to a
single branch at the bottom, which is what lets the per-level recovery
rates bootstrap toward one.  Family thresholds decrease toward the
asymptotic values (sqrt(2/3) for the static rules, 1/2 for the adaptive
rules) as deeper members are added:

    static towers reach 0.99 success at eta ~ 0.838 / 0.829 / 0.825
    adaptive towers at eta ~ 0.553 / 0.538 / 0.516

The small/default/large triples are strictly nested so that shrinking the
family raises the measured threshold and enlarging it lowers it.
"""

from __future__ import annotations

from .trees import BranchingVector, Protocol

# Shapes from the reference operating points, useful in any family.
_COMMON = [
    BranchingVector.of(2, 2),
    BranchingVector.of(4, 2),
    BranchingVector.of(15, 15, 2),
    BranchingVector.of(74, 15),
]

_STATIC_TOWERS = [
    BranchingVector.of(120, 89, 15, 8, 4, 1),              # 0.99 at eta ~ 0.838
    BranchingVector.of(120, 120, 24, 11, 8, 4, 1),         # ~ 0.829
    BranchingVector.of(120, 120, 30, 17, 8, 6, 4, 1),      # ~ 0.825
]

_DYNAMIC_TOWERS = [
    BranchingVector.of(90, 40, 16, 8, 4, 1),               # 0.99 at eta ~ 0.553
    BranchingVector.of(120, 46, 24, 12, 6, 3, 1),          # ~ 0.538
    BranchingVector.of(120, 48, 40, 15, 10, 6, 3, 1),      # ~ 0.516
]

STATIC_FAMILY_SMALL = tuple(_COMMON + _STATIC_TOWERS[:1])
STATIC_FAMILY_DEFAULT = tuple(_COMMON + _STATIC_TOWERS[:2])
STATIC_FAMILY_LARGE = tuple(_COMMON + _STATIC_TOWERS)

DYNAMIC_FAMILY_SMALL = tuple(_COMMON + _DYNAMIC_TOWERS[:1])
DYNAMIC_FAMILY_DEFAULT = tuple(_COMMON + _DYNAMIC_TOWERS[:2])
DYNAMIC_FAMILY_LARGE = tuple(_COMMON + _DYNAMIC_TOWERS)


def default_family(protocol: Protocol | str) -> tuple[BranchingVector, ...]:
    """The default threshold family of ``protocol``, a :class:`Protocol` or its value."""
    protocol = Protocol(protocol)
    if protocol is Protocol.STATIC:
        return STATIC_FAMILY_DEFAULT
    if protocol is Protocol.DYNAMIC:
        return DYNAMIC_FAMILY_DEFAULT
    raise ValueError(f"no default threshold family for protocol {protocol.value!r}")
