"""Spanning path-cycle systems with prescribed end-vertices.

Decides and constructs vertex-disjoint path/cycle covers whose path
end-vertices are exactly a prescribed even set W, through the reduction
to degree-constrained factors and general-graph matching; produces exact
infeasibility certificates; verifies the charge-redistribution argument
behind the existence theorem at runtime; and generates the sharpness
families with machine-checked witnesses.
"""

from .discharge import (
    ChargeState,
    DischargeReport,
    RuleConstants,
    discharge,
    rule_constants,
)
from .errors import GraphFormatError, UndecidedAtScaleError
from .factor import (
    DegreeSpec,
    GadgetGraph,
    PathCycleSystem,
    brute_force_f_factor,
    build_gadget,
    decompose_system,
    degree_spec_from_terminals,
    extract_f_factor,
    find_f_factor,
    solve,
)
from .families import (
    FamilyInstance,
    gen_prop1_bipartite,
    gen_prop1_even,
    gen_prop1_odd,
    gen_prop2_general,
    gen_prop2_r4,
    gen_prop2_r5,
    random_valid_instance,
    verify_claims,
    write_instance,
)
from .graphs import (
    INFINITY,
    Graph,
    distance,
    parse_graph,
    parse_terminals,
    serialize_graph,
    serialize_terminals,
)
from .matching import maximum_matching_mates
from .tutte import (
    TutteCertificate,
    evaluate_pair,
    format_certificate,
    parse_certificate,
    search_certificate,
)
from .verify import (
    GraphHypotheses,
    PropertyReport,
    check_regular,
    check_terminal_set,
    edge_connectivity,
    find_induced_star,
)

__version__ = "0.1.0"

__all__ = [
    "ChargeState",
    "DegreeSpec",
    "DischargeReport",
    "FamilyInstance",
    "GadgetGraph",
    "Graph",
    "GraphFormatError",
    "GraphHypotheses",
    "INFINITY",
    "PathCycleSystem",
    "PropertyReport",
    "RuleConstants",
    "TutteCertificate",
    "UndecidedAtScaleError",
    "brute_force_f_factor",
    "build_gadget",
    "check_regular",
    "check_terminal_set",
    "decompose_system",
    "degree_spec_from_terminals",
    "discharge",
    "distance",
    "edge_connectivity",
    "evaluate_pair",
    "extract_f_factor",
    "find_f_factor",
    "find_induced_star",
    "format_certificate",
    "gen_prop1_bipartite",
    "gen_prop1_even",
    "gen_prop1_odd",
    "gen_prop2_general",
    "gen_prop2_r4",
    "gen_prop2_r5",
    "maximum_matching_mates",
    "parse_certificate",
    "parse_graph",
    "parse_terminals",
    "random_valid_instance",
    "rule_constants",
    "search_certificate",
    "serialize_graph",
    "serialize_terminals",
    "solve",
    "verify_claims",
    "write_instance",
]
