"""Loss-tolerant logical Bell measurements on tree-encoded photonic qubits.

Four engines over one tree shape language, the branching vector of
:mod:`treebsm.trees`, which answers vertex queries without building a tree:

* :mod:`treebsm.analytic` -- exact success and error rates of the static
  and adaptive measurement protocols, plus threshold bisection.
* :mod:`treebsm.montecarlo` -- an independent sampling oracle running the
  decision procedures on explicit loss/fault worlds, with exhaustive
  small-instance enumeration.
* :mod:`treebsm.stabilizer` / :mod:`treebsm.genseq` -- a stabilizer
  tableau engine verifying the encoding and the matter-qubit program that
  grows a logical Bell pair.
* :mod:`treebsm.search` -- tree-shape enumeration and the loss/error
  improvement front.
"""

from .analytic import (
    Basis,
    BsmRates,
    LayerStats,
    LogicalBsmResult,
    Protocol,
    ThresholdResult,
    UnreachableTargetError,
    ConfigurationError,
    dynamic_layer_recursion,
    find_threshold,
    logical_bsm,
    logical_bsm_batch,
    parity_error,
    static_layer_recursion,
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
    sample_bsm_error_rates,
    z_score,
)
from .search import (
    ParetoEntry,
    SearchBounds,
    enumerate_trees,
    evaluate_all,
    front_to_csv,
    pareto_front,
    smallest_error_correcting,
)
from .stabilizer import (
    MeasurementContradictionError,
    PauliString,
    StabilizerTableau,
    encode_logical,
    graph_state_tableau,
    tableau_equal,
    verify_indirect_z,
)
from .trees import (
    BranchingVector,
    ChannelParams,
    TreeTooLargeError,
    photon_count,
)

__version__ = "0.1.0"
