"""Structural analysis of delay DAEs.

From the incidence structure of a delay differential-algebraic system this
package builds the bipartite structure graphs, matches equations to
variable groups of highest shift, detects exposed equations, and finds ALL
connections for an exposed equation by enumerating spanning arborescences
of its connection graph — streamed one at a time in memory proportional to
the graph, with brute-force and determinant oracles for verification.
"""

from .arborescence import (
    Arborescence,
    Digraph,
    GrowRun,
    count_arborescences,
)
from .bench import (
    BenchRecord,
    generate_scenario,
    naive_all_connections,
    run_bench,
    write_csv,
)
from .connection_graph import ConnectionGraph, build_connection_graph
from .connections import (
    EXPLICIT,
    IMPLICIT,
    Connection,
    ConnectionReport,
    ConnectionSearch,
    collect_connections,
    find_all_connections,
)
from .errors import (
    ArcNotInGraph,
    BadSize,
    CapExceeded,
    DdaeStructError,
    DuplicateOccurrence,
    IndexOutOfRange,
    LimitExceeded,
    MalformedDocument,
    NotExposed,
    RootNotInGraph,
    SchemaViolation,
)
from .graphs import (
    DdaeGraph,
    ShiftingGraph,
    VariableGroup,
    build_ddae_graph,
    build_shifting_graph,
    highest_shift_groups,
)
from .matching import (
    Matching,
    ReachReport,
    alternating_reach,
    compute_matching,
)
from .oracles import (
    brute_force_arborescences,
    classify_connection,
    shared_occurrences,
    tree_to_connection,
    validate_arborescence,
    verify_connection,
)
from .structure import (
    DdaeStructure,
    EquationStruct,
    VarOccurrence,
    parse_ddae,
    serialize_ddae,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "Arborescence",
    "ArcNotInGraph",
    "BadSize",
    "BenchRecord",
    "CapExceeded",
    "Connection",
    "ConnectionGraph",
    "ConnectionReport",
    "ConnectionSearch",
    "DdaeGraph",
    "DdaeStructError",
    "DdaeStructure",
    "Digraph",
    "DuplicateOccurrence",
    "EXPLICIT",
    "EquationStruct",
    "GrowRun",
    "IMPLICIT",
    "IndexOutOfRange",
    "LimitExceeded",
    "MalformedDocument",
    "Matching",
    "NotExposed",
    "ReachReport",
    "RootNotInGraph",
    "SchemaViolation",
    "ShiftingGraph",
    "VarOccurrence",
    "VariableGroup",
    "alternating_reach",
    "brute_force_arborescences",
    "build_connection_graph",
    "build_ddae_graph",
    "build_shifting_graph",
    "classify_connection",
    "collect_connections",
    "compute_matching",
    "count_arborescences",
    "find_all_connections",
    "generate_scenario",
    "highest_shift_groups",
    "naive_all_connections",
    "parse_ddae",
    "run_bench",
    "serialize_ddae",
    "shared_occurrences",
    "tree_to_connection",
    "validate",
    "validate_arborescence",
    "verify_connection",
    "write_csv",
]
