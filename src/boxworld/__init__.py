"""boxworld: exact-arithmetic nonsignaling boxes, wiring protocols, and
NAND-circuit compilation onto PR boxes.

Everything is exact: probabilities are rationals, verdicts carry
certificates, and all headline claims are established by exhaustive
enumeration at desk scale.

The exported names load with their submodule on first use (PEP 562), so
`import boxworld` compiles none of the submodules and a CLI call loads
only what its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# (submodule, the names it exports)
_EXPORTS = (
    (
        "boxes",
        (
            "Box",
            "NoSignalingVerdict",
            "PartyMarginal",
            "Relabeling",
            "all_relabelings",
            "check_no_signaling",
            "chsh_value",
            "deterministic_box",
            "full_correlation_box",
            "make_box",
            "marginal",
            "mix_boxes",
            "parity_box",
            "pr_box",
            "relabel",
            "uniform_box",
        ),
    ),
    (
        "circuits",
        (
            "NandCircuit",
            "TruthTable",
            "all_truth_tables",
            "eval_circuit",
            "format_netlist",
            "gate_count",
            "parse_netlist",
            "prune",
            "synthesize_nand",
            "truth_table",
        ),
    ),
    (
        "cluster",
        (
            "ConstraintSet",
            "ParityConstraint",
            "box_source",
            "cluster_box",
            "cluster_constraints",
            "ghz_local_search",
            "inverted_cluster_constraints",
            "protocol_source",
            "satisfies",
            "simulation_search",
        ),
    ),
    (
        "compiler",
        (
            "CCResult",
            "CompiledProtocol",
            "SimulationVerdict",
            "compile_circuit",
            "induced_box_fast",
            "nand_block",
            "nand_block_branches",
            "solve_cc",
            "verify_simulation",
        ),
    ),
    (
        "errors",
        (
            "BoxworldError",
            "DimensionMismatch",
            "Infeasible",
            "MissingAssignment",
            "NegativeProbability",
            "NotAVertex",
            "NotNormalized",
            "ShapeMismatch",
            "SignalingAmbiguity",
            "TooLarge",
            "UnownedInputBit",
            "Unvalidated",
            "VerificationFailed",
            "WrongShape",
        ),
    ),
    ("locality", ("LocalityVerdict", "is_local")),
    (
        "polytope",
        (
            "HRepresentation",
            "VertexReport",
            "build_h_rep",
            "classify_vertex",
            "decompose",
            "enumerate_vertices",
            "is_vertex",
            "parity_form_of",
        ),
    ),
    (
        "wiring",
        (
            "STOP",
            "BoxBank",
            "BoxInstance",
            "OutcomeDistribution",
            "SharedRandomness",
            "TableStrategy",
            "WiringProtocol",
            "count_strategies",
            "enumerate_strategies",
            "execute_exact",
            "execute_sample",
            "identity_wiring",
            "induced_box",
            "pr_instance",
            "validate_protocol",
        ),
    ),
)

__all__ = tuple(name for _, names in _EXPORTS for name in names)


def __getattr__(name):
    """Import the submodule that exports `name` and bind `name` here, so
    later lookups are plain attribute reads, as with an eager import.  A
    name no submodule exports raises AttributeError, which lets
    `from boxworld import compiler` fall through to the submodule import."""
    for module, names in _EXPORTS:
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
