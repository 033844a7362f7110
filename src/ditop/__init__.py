"""Directed algebraic topology on small precubical models.

Parse PV programs into grid models, compute dihomotopy classes of
directed paths, compare natural class systems up to bisimilarity, decide
dicontractibility, check supplied dihomotopy equivalences, and compute
directed topological complexity.
"""

__version__ = "0.1.0"

from .cubecore import (
    DPath,
    PrecubicalSet,
    build_grid_complex,
    concat,
    enumerate_dpaths,
    gamma,
    grid_vertex,
    reachable,
)
from .ditc import SectionPartition, ditc_exact, ditc_upper, verify_partition
from .equivcheck import (
    DMapData,
    check_dihomotopy_equivalence,
    check_strong,
    compose_dmaps,
    compose_equivalences,
    identity_dmap,
    induced_class_map,
    map_path,
    validate_dmap,
)
from .errors import BudgetExceeded, ModelError, PathCapExceeded
from .natsys import bisimilar, build_natural_system, is_weakly_dicontractible, trivial_system
from .pvlang import PVProgram, PVSyntaxError, compile_pv, parse_pv, pretty_print
from .traceclass import ClassSet, ExtensionArrow, class_of, extend_class, trace_classes
from .zhom import (
    homology_ranks,
    is_contractible_surrogate,
    is_dicontractible,
    section_exists,
    smith_normal_form,
)
