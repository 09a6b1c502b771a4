"""Strong-collapse laboratory for sparse random clique complexes.

Graph-native throughout: complexes are represented by their 1-skeletons, and
every statistic of the clique complex is derived from the graph.
"""

from .collapse_engine import (
    CollapseTrace,
    Epoch2Trace,
    PhaseReport,
    core_vertices,
    count_dominated_pairs,
    dominated_set,
    find_dominator,
    has_universal_vertex,
    prune_phase,
    run_core,
    run_epoch1,
    run_epoch2,
)
from .graph_core import (
    AdjacencyGraph,
    GraphParams,
    mix_seed,
    rng_from_seed,
    sample_er,
    splitmix64,
)
from .simplicial_oracle import (
    CliqueCensus,
    clique_census,
    euler_characteristic,
    is_dominated_via_link,
)
from .theory import (
    GammaTable,
    Prediction,
    RateBounds,
    core_size_prediction,
    epsilon_bounds,
    expected_dominated_pairs,
    expected_f0_after_t,
    expected_universal_vertices,
    gamma_fixed_point,
    gamma_sequence,
    predict,
    prob_degree_ge2,
    root_degree_pmf,
    rounds_for_epsilon,
)
from .tree_process import PoissonTree, TreeTrialStats, estimate_gamma, root_collapse, sample_tree

__version__ = "0.1.0"

__all__ = [
    "AdjacencyGraph",
    "GraphParams",
    "mix_seed",
    "rng_from_seed",
    "sample_er",
    "splitmix64",
    "CollapseTrace",
    "Epoch2Trace",
    "PhaseReport",
    "core_vertices",
    "count_dominated_pairs",
    "dominated_set",
    "find_dominator",
    "has_universal_vertex",
    "prune_phase",
    "run_core",
    "run_epoch1",
    "run_epoch2",
    "CliqueCensus",
    "clique_census",
    "euler_characteristic",
    "is_dominated_via_link",
    "GammaTable",
    "Prediction",
    "RateBounds",
    "core_size_prediction",
    "epsilon_bounds",
    "expected_dominated_pairs",
    "expected_f0_after_t",
    "expected_universal_vertices",
    "gamma_fixed_point",
    "gamma_sequence",
    "predict",
    "prob_degree_ge2",
    "root_degree_pmf",
    "rounds_for_epsilon",
    "PoissonTree",
    "TreeTrialStats",
    "estimate_gamma",
    "root_collapse",
    "sample_tree",
    "__version__",
]
