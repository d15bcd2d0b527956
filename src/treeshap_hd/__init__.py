"""Exact Shapley, Banzhaf and interaction attributions for tree ensembles.

The engine scales to deep trees by working per leaf with one bit per distinct
path feature, caching only the secondary diagonals of the per-position value
matrices, and multiplying them in O(2^k k) with a subset-zeta kernel.
"""

from .cubes import (
    BANZHAF,
    INTERACTION,
    SHAPLEY,
    Cube,
    DiagonalCache,
    build_diagonal_cache,
    cube_banzhaf,
    cube_interaction,
    cube_shapley,
    diagonal_cubes,
    map_patterns_to_cubes,
    pair_index,
)
from .engine import (
    BACKGROUND,
    PATH_DEPENDENT,
    AttributionResult,
    ExplainRequest,
    PreparedExplainer,
    brute_force_background,
    brute_force_path_dependent,
    explain,
    explain_dense,
    prepare,
    prepared_nbytes,
    projected_peak_bytes,
)
from .errors import (
    BudgetExceededError,
    DepthCapError,
    EmptyBackgroundError,
    FeatureIndexError,
    InvalidPairError,
    LayoutError,
    LengthError,
    MissingCoverError,
    NaNInputError,
    ParseError,
    SizeError,
    StructureError,
    TooManyFeaturesError,
    TreeShapHDError,
    UnsupportedFeatureError,
    ValidationError,
    ZeroCoverError,
)
from .fastmult import (
    count_operations,
    dense_from_diagonal,
    diagonal_matvec,
    matvec_recursive,
    subset_zeta,
)
from .model import (
    DecisionTree,
    EnsembleModel,
    Leaf,
    SplitNode,
    load_canonical,
    load_lightgbm_text,
    root_to_leaf_paths,
    save_canonical,
)
from .patterns import (
    LeafPatterns,
    PatternMemoryStats,
    background_distribution,
    iter_leaf_patterns,
    leaf_decision_patterns,
    path_dependent_distribution,
)

__version__ = "0.1.0"
