import inspect

import treeshap_hd
import treeshap_hd.cli
import treeshap_hd.cubes
import treeshap_hd.engine
import treeshap_hd.fastmult
import treeshap_hd.model
import treeshap_hd.oracles
import treeshap_hd.patterns

# the regression oracles and their helpers; none is on the explain path
ORACLE_NAMES = (
    "BRUTE_FORCE_FEATURE_CAP",
    "DENSE_BASELINE_CAP",
    "_active_or_raise",
    "_attributions_from_game",
    "_dense_kernel",
    "_fill_completion",
    "_matvec_recursive",
    "_sparse_tables",
    "active_features",
    "brute_force_background",
    "brute_force_path_dependent",
    "dense_from_diagonal",
    "diagonal_cubes",
    "explain_dense",
    "leaf_decision_patterns",
    "map_patterns_to_cubes",
    "matvec_recursive",
    "projected_dense_peak_bytes",
    "root_to_leaf_paths",
)
HOT_MODULES = (
    treeshap_hd.engine,
    treeshap_hd.fastmult,
    treeshap_hd.cubes,
    treeshap_hd.patterns,
    treeshap_hd.model,
)


def test_oracles_live_in_their_own_module():
    assert all(hasattr(treeshap_hd.oracles, name) for name in ORACLE_NAMES)
    for module in HOT_MODULES:
        assert [name for name in ORACLE_NAMES if hasattr(module, name)] == [], module.__name__
    assert not hasattr(treeshap_hd.model.EnsembleModel, "active_features")
    # the CLI imports the ones validate and bench run, and defines none
    cli_names = [name for name in ORACLE_NAMES if hasattr(treeshap_hd.cli, name)]
    assert all(getattr(treeshap_hd.cli, name) is getattr(treeshap_hd.oracles, name) for name in cli_names)
    assert not hasattr(treeshap_hd.cli, "_load_csv_cells")


def test_package_root_exports_only_explain_dense_of_the_oracles():
    exported = [name for name in ORACLE_NAMES if hasattr(treeshap_hd, name)]
    assert exported == ["explain_dense"]
    assert treeshap_hd.explain_dense is treeshap_hd.oracles.explain_dense


def test_projected_peak_bytes_has_no_dense_option():
    assert "dense" not in inspect.signature(treeshap_hd.engine.projected_peak_bytes).parameters
