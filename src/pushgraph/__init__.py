"""Oriented graphs under the vertex-push operation.

Push equivalence with constructive certificates, push-homomorphism search,
exact push/oriented chromatic numbers over tournament targets, the gadget
constructions this package verifies, and a constructive push-coloring of
graphs with maximum average degree below 8/3.
"""

from .coloring import (
    ColoringCertificate,
    ConfigDescriptor,
    ConfigKind,
    CounterexampleFound,
    DischargeReport,
    build_extension_tables,
    color_outerplanar_g5,
    discharge_audit,
    find_reducible_config,
    path_extend_to_c3,
    push_color_to_paley,
)
from .density import max_average_degree, mad_less_than
from .families import (
    TwoStepNeighborhoods,
    b0,
    b0_pair_report,
    c3,
    directed_cycle,
    girth8_witness,
    oriented_path,
    paley_plus,
    random_outerplanar,
    random_sparse,
    two_step_neighborhoods,
    uc4,
    y_gadget,
    zielonka,
    zielonka_half,
    zielonka_weight_split_report,
)
from .graph import (
    FormatError,
    GraphError,
    OrientedGraph,
    emit_graph,
    parse_graph,
    underlying_girth,
)
from .hom import (
    ChromaticResult,
    HomSearchResult,
    PushHomResult,
    brute_force_push_hom,
    enumerate_tournaments,
    find_hom,
    find_push_hom,
    oriented_chromatic_number,
    push_chromatic_number,
    transfer,
)
from .isomorphism import (
    IsoCertificate,
    canonical_code,
    is_homomorphism,
    is_isomorphic,
    is_isomorphism,
    refine_colors,
)
from .push import (
    AgreeDisagreeStats,
    PushHomWitness,
    SplitCertificate,
    agree_disagree,
    anti_twinned,
    cannot_identify,
    is_splitable,
    parse_push_vector,
    push,
    push_equivalent,
    push_orbit,
    repair_isomorphism,
    split_graph,
)
from .search import InconclusiveSearch, SearchBudget

__version__ = "0.1.0"
