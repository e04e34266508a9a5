"""Workbench for the complement of the enhanced power graph of a finite group.

Build small finite groups as Cayley tables, construct the enhanced power
graph and its complement, compute graph invariants exactly, classify the
surfaces the reduced complement embeds in, and verify the classification
theorems over a complete catalog of groups of order at most 15.
"""

from .epg import (
    EpgBundle,
    build_bundle,
    bundle_summary,
    enhanced_power_graph,
    partition_by_maximal_cyclic,
)
from .graphs import (
    INFINITY,
    SimpleGraph,
    complement,
    connected_components,
    cyclomatic_number,
    girth,
    induced_subgraph,
    is_bipartite,
    is_eulerian,
)
from .groups import (
    GroupError,
    GroupTable,
    MaximalCyclicFamily,
    are_isomorphic,
    catalog,
    covering_union,
    direct_product,
    element_order,
    group_from_name,
    make_alternating,
    make_cyclic,
    make_dicyclic,
    make_dihedral,
    make_symmetric,
    maximal_cyclic_subgroups,
    parse_cayley_table,
    validate_table,
)
from .subgraphs import (
    chromatic_number,
    clique_number,
    contains_subdivision,
)
from .topology import (
    RotationSystem,
    SearchBudgetExceeded,
    SurfaceVerdict,
    classify_surface,
    crosscap_complete,
    genus_complete,
    is_outerplanar,
    is_planar,
    search_embedding,
    verify_embedding,
)
from .verify import TheoremReport, run_all

__version__ = "0.1.0"
