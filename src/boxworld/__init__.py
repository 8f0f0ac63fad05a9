"""boxworld: exact-arithmetic nonsignaling boxes, wiring protocols, and
NAND-circuit compilation onto PR boxes.

Everything is exact: probabilities are rationals, verdicts carry
certificates, and all headline claims are established by exhaustive
enumeration at desk scale.
"""

from .boxes import (
    Box,
    NoSignalingVerdict,
    PartyMarginal,
    Relabeling,
    all_relabelings,
    check_no_signaling,
    chsh_value,
    deterministic_box,
    full_correlation_box,
    make_box,
    marginal,
    mix_boxes,
    parity_box,
    pr_box,
    relabel,
    uniform_box,
)
from .circuits import (
    NandCircuit,
    TruthTable,
    all_truth_tables,
    eval_circuit,
    format_netlist,
    gate_count,
    parse_netlist,
    prune,
    synthesize_nand,
    truth_table,
)
from .cluster import (
    ConstraintSet,
    ParityConstraint,
    box_source,
    cluster_box,
    cluster_constraints,
    ghz_local_search,
    inverted_cluster_constraints,
    protocol_source,
    satisfies,
    simulation_search,
)
from .compiler import (
    CCResult,
    CompiledProtocol,
    SimulationVerdict,
    compile_circuit,
    induced_box_fast,
    nand_block,
    nand_block_branches,
    solve_cc,
    verify_simulation,
)
from .errors import (
    BoxworldError,
    DimensionMismatch,
    Infeasible,
    MissingAssignment,
    NegativeProbability,
    NotAVertex,
    NotNormalized,
    ShapeMismatch,
    SignalingAmbiguity,
    TooLarge,
    UnownedInputBit,
    Unvalidated,
    VerificationFailed,
    WrongShape,
)
from .locality import LocalityVerdict, is_local
from .polytope import (
    HRepresentation,
    VertexReport,
    build_h_rep,
    classify_vertex,
    decompose,
    enumerate_vertices,
    is_vertex,
    parity_form_of,
)
from .wiring import (
    STOP,
    BoxBank,
    BoxInstance,
    OutcomeDistribution,
    SharedRandomness,
    TableStrategy,
    WiringProtocol,
    count_strategies,
    enumerate_strategies,
    execute_exact,
    execute_sample,
    identity_wiring,
    induced_box,
    pr_instance,
    validate_protocol,
)

__version__ = "0.1.0"
