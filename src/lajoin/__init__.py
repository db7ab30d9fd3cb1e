"""Local antimagic edge labelings of join graphs.

Constructions for the join families (paths, cycles, null graphs, complete
and complete bipartite parts), verification certificates, the magic and
nearly magic arrays behind them, and an exact small-graph solver for the
minimum color count.
"""

from .arrays import (
    ArrayError,
    LabelGrid,
    MagicArray,
    drop_column_and_rotate,
    magic_rectangle,
    nearly_magic_rectangle,
    siamese_magic_square,
    verify_magic_array,
)
from .constructions import (
    ALL_FAMILIES,
    FAMILIES,
    CitedCaseError,
    ConstructionResult,
    antimagic_complete,
    build_construction,
    family_graph,
    label_complete_join_odd_cycle,
    label_cycle_join_complete,
    label_cycle_join_cycle,
    label_cycle_join_cycle_minus_edge,
    label_cycle_join_null,
    label_cycle_join_null_minus_edge,
    label_generic_join_complete_bipartite,
    label_generic_join_cycle,
    label_generic_join_null,
    label_odd_cycle_join_even_null,
    label_p7_o3,
    label_path_join_complete,
    label_path_join_cycle,
    label_path_join_null,
    sweep_points,
    three_color_odd_cycle,
)
from .graphs import (
    Edge,
    Graph,
    ParameterError,
    build_family,
    chromatic_number_exact,
    delete_edge,
    edge,
    join,
)
from .labelings import (
    EdgeLabeling,
    LabelingCertificate,
    LabelingError,
    LabelingMatrix,
    check_complement_valid,
    check_deletion_certificate,
    complement_labeling,
    delete_labeled_edge,
    export_matrix,
    induced_sums,
    verify_local_antimagic,
)
from .solver import ConfirmationVerdict, SearchConfig, SolveReport, confirm_theorem, exact_chi_la

__version__ = "0.1.0"
