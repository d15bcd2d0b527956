"""Exact Shapley, Banzhaf and interaction attributions for tree ensembles.

The engine scales to deep trees by working per leaf with one bit per distinct
path feature, caching only the secondary diagonals of the per-position value
matrices, and multiplying them in O(2^k k) with a subset-zeta kernel.  The
regression oracles it is checked against live in :mod:`treeshap_hd.oracles`;
of them only ``explain_dense`` is also exported here.
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
    pair_index,
)
from .engine import (
    BACKGROUND,
    PATH_DEPENDENT,
    AttributionResult,
    ExplainRequest,
    PreparedExplainer,
    explain,
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
    diagonal_matvec,
    subset_zeta,
)
from .model import (
    DecisionTree,
    EnsembleModel,
    Leaf,
    SplitNode,
    load_canonical,
    load_lightgbm_text,
    save_canonical,
)
from .oracles import explain_dense
from .patterns import (
    LeafPatterns,
    PatternMemoryStats,
    background_distribution,
    iter_leaf_patterns,
    path_dependent_distribution,
)

__version__ = "0.1.0"
