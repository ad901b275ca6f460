"""Loss-tolerant logical Bell measurements on tree-encoded photonic qubits.

Four engines over one tree shape language, the branching vector of
:mod:`treebsm.trees`, which answers vertex queries without building a tree:

* :mod:`treebsm.analytic` -- exact success and error rates of the static
  and adaptive measurement protocols, plus threshold bisection.
* :mod:`treebsm.montecarlo` -- an independent sampling oracle running the
  decision procedures on explicit loss/fault worlds, with exhaustive
  small-instance enumeration.
* :mod:`treebsm.stabilizer` / :mod:`treebsm.genseq` -- a stabilizer
  tableau engine verifying the matter-qubit program that grows a logical
  Bell pair against the pair's target state.
* :mod:`treebsm.search` -- tree-shape enumeration and the loss/error
  improvement front.

Every function exported here is called from the package, the demos or the
benchmark; constructors only the tests need live beside the tests.
"""

from .analytic import (
    BsmRates,
    Protocol,
    ThresholdResult,
    UnreachableTargetError,
    ConfigurationError,
    find_threshold,
    logical_bsm,
    logical_bsm_batch,
    parity_error,
)
from .genseq import (
    Instruction,
    InstructionSequence,
    VerifyResult,
    compile_bell_pair,
    execute_sequence,
    logical_bell_tableau,
    verify_bell_pair,
)
from .montecarlo import (
    McEstimate,
    SampleConfig,
    UnsupportedConfigurationError,
    exhaustive_dynamic,
    exhaustive_static,
    run,
    z_score,
)
from .search import (
    ParetoEntry,
    SearchBounds,
    enumerate_trees,
    evaluate_all,
    front_to_csv,
    pareto_front,
)
from .stabilizer import (
    MeasurementContradictionError,
    PauliString,
    StabilizerTableau,
)
from .trees import (
    BranchingVector,
    ChannelParams,
    TreeTooLargeError,
    photon_count,
)

__version__ = "0.1.0"
