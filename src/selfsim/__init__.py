"""Executable calculus for self-similar groupoid actions on finite graphs.

Layers, bottom up: graphs (paths with the r/s composition convention),
automaton (the action/restriction calculus with decidable element
equality), nucleus (contracting detection), infinite_paths and dynamics
(asymptotic equivalence, limit space and solenoid deciders), schreier
(orbit graph towers), ktheory (Smith normal form and Katsura K-groups),
specfile and cli (the textual surface).
"""

from .automaton import (
    Automaton,
    Bounds,
    Element,
    GeneratorRule,
    StateMachine,
    reachable_closure,
)
from .dynamics import (
    Germ,
    ae_class,
    ae_equivalent,
    ae_equivalent_bi,
    check_recurrent,
    germ_equal,
    is_hausdorff,
    is_regular,
    level_transitive,
    make_germ,
    stable_equivalent,
    unstable_equivalent,
)
from .graphs import Graph, Path, StructureReport, concat, enumerate_paths, validate_graph
from .infinite_paths import BiInfinitePath, LeftInfinitePath, RightInfinitePath
from .ktheory import (
    AbelianGroup,
    IntMatrix,
    SNFResult,
    cokernel,
    katsura_automaton,
    katsura_ktheory,
    kernel,
    smith_normal_form,
)
from .nucleus import (
    NotContractingWithinBound,
    Nucleus,
    compute_Rk,
    compute_nucleus,
    limit_restrictions,
    moore_diagram,
)
from .schreier import (
    SchreierGraph,
    build_schreier,
    default_generating_set,
    distance_profile,
    geodesic_distance,
    project_psi,
)
from .specfile import SpecFile, format_spec, parse_path, parse_spec

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup", "Automaton", "BiInfinitePath", "Bounds", "Element",
    "GeneratorRule", "Germ", "Graph", "IntMatrix", "LeftInfinitePath",
    "NotContractingWithinBound", "Nucleus", "Path", "RightInfinitePath",
    "SchreierGraph", "SNFResult", "SpecFile", "StateMachine", "StructureReport",
    "ae_class", "ae_equivalent", "ae_equivalent_bi", "build_schreier",
    "check_recurrent", "cokernel", "compute_Rk", "compute_nucleus", "concat",
    "default_generating_set", "distance_profile", "enumerate_paths",
    "format_spec", "geodesic_distance",
    "germ_equal", "is_hausdorff", "is_regular", "katsura_automaton",
    "katsura_ktheory", "kernel", "level_transitive", "limit_restrictions",
    "make_germ", "moore_diagram", "parse_path", "parse_spec", "project_psi",
    "reachable_closure", "smith_normal_form", "stable_equivalent",
    "unstable_equivalent", "validate_graph",
]
