"""Edge-independent graph generative models.

Fitting, sampling, and auditing models where every edge appears
independently with its own probability: degree-preserving odds-product
fits, overlap-tunable baselines (linear, CCOP, HDOP, TSVD), the eight
reference statistics, and machine checks of the triangle / k-cycle /
clustering-coefficient density bounds implied by bounded overlap.
"""

from .graphs import (
    EdgeListParseError,
    Graph,
    degrees,
    largest_connected_component,
    load_edge_list,
    parse_edge_list,
    serialize_edge_list,
)
from .probmatrix import (
    CapacityError,
    ProbMatrix,
    ZeroVolumeError,
    convex_combine,
    empirical_overlap,
    expected_kcycles_exact,
    expected_kcycles_trace,
    expected_triangles,
    load_probmatrix,
    overlap,
    sample,
    save_probmatrix,
    to_dense,
    volume,
)
from .oddsproduct import (
    FitConvergenceError,
    FitReport,
    degree_jacobian,
    fit_odds_product,
    predicted_degrees,
)
from .modelzoo import (
    ModelSpec,
    build_model,
    ccop,
    fit_volume_shift,
    hdop,
    linear_model,
    tsvd_model,
)
from .stats import (
    DisconnectedGraphError,
    PowerLawFit,
    StatsRecord,
    assortativity,
    char_path_length,
    compare,
    fit_power_law,
    global_clustering,
    powerlaw_alpha,
    triangle_counts,
)
from .bounds import (
    BoundReport,
    check_cc_tightness,
    check_kcycle_bound,
    check_triangle_bound,
    er_construction,
)
from .cell import (
    cell_symmetrize,
    unconstrained_optimum,
    vandermonde_embedding,
    verify_embedding,
)
from .sweep import ExperimentConfig, SweepRow, parse_config, run_sweep

__version__ = "0.1.0"
