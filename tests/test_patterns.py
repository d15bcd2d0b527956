import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshap_hd.patterns as patterns_module
from treeshap_hd.cubes import INTERACTION, SHAPLEY
from treeshap_hd.engine import BACKGROUND, PATH_DEPENDENT, ExplainRequest, explain
from treeshap_hd.errors import DepthCapError, EmptyBackgroundError, MissingCoverError, NaNInputError, ZeroCoverError
from treeshap_hd.model import DecisionTree, EnsembleModel, Leaf, SplitNode
from treeshap_hd.oracles import leaf_decision_patterns, root_to_leaf_paths
from treeshap_hd.patterns import (
    PatternMemoryStats,
    background_distribution,
    iter_leaf_patterns,
    path_dependent_distribution,
)
from treeshap_hd.synthetic import (
    complete_tree_model,
    deep_path_model,
    random_dataset,
    random_distinct_model,
    random_model,
)

from oracle_utils import leaf_hit_counts


def first_leaf_patterns(tree, rows, **kw):
    return next(iter(iter_leaf_patterns(tree, np.asarray(rows, dtype=float), **kw)))


def test_repeated_feature_merges_into_one_bit(repeated_feature_tree):
    # both splits on x0 hold -> bit stays 1; a diverging second split clears it
    item = first_leaf_patterns(repeated_feature_tree, [[3.0], [7.0]])
    assert item.features == (0,)
    np.testing.assert_array_equal(item.patterns, [1, 0])


def test_two_distinct_features_shift_and_append(two_feature_tree):
    item = first_leaf_patterns(two_feature_tree, [[0.2, 0.9]])
    assert item.features == (0, 1)
    np.testing.assert_array_equal(item.patterns, [0b10])


def test_row_not_reaching_leaf_still_gets_pattern(two_feature_tree):
    item = first_leaf_patterns(two_feature_tree, [[0.9, 0.2]])
    np.testing.assert_array_equal(item.patterns, [0b01])


def test_leaf_only_tree_yields_empty_feature_tuple():
    tree = DecisionTree(Leaf(1.0))
    item = first_leaf_patterns(tree, [[0.0], [1.0]])
    assert item.features == ()
    np.testing.assert_array_equal(item.patterns, [0, 0])


def test_generator_order_matches_paths():
    model = random_model(5, max_depth=6, n_features=4, n_trees=1)
    tree = model.trees[0]
    X = random_dataset(np.random.default_rng(0), 10, 4)
    leaves = [leaf for leaf, _ in root_to_leaf_paths(tree)]
    streamed = [item.leaf for item in iter_leaf_patterns(tree, X)]
    assert all(a is b for a, b in zip(leaves, streamed))
    assert len(leaves) == len(streamed)


def test_depth_cap_enforced(two_feature_tree):
    with pytest.raises(DepthCapError):
        list(iter_leaf_patterns(two_feature_tree, [[0.1, 0.1]], cap=1))


def test_patterns_hold_at_most_32_features():
    # the deepest leaves of a 34-feature spine would lose their top bits
    tree = deep_path_model(34).trees[0]
    rows = np.full((2, 34), 0.25)
    widest = 0
    with pytest.raises(DepthCapError, match="32-bit"):
        for item in iter_leaf_patterns(tree, rows, cap=40):
            widest = max(widest, len(item.features))
            assert np.all(item.patterns < np.uint64(1) << len(item.features))
    assert widest == 32


def _spine_with_repeat(k):
    # a k-feature spine whose deepest split is repeated on the root's feature,
    # so the merge clears or keeps the pattern's top bit
    root = deep_path_model(k, 0).trees[0].root
    node = root
    while not isinstance(node.left, Leaf) or not isinstance(node.right, Leaf):
        node = node.left if isinstance(node.left, SplitNode) else node.right
    cover = node.left.cover
    node.left = SplitNode(root.feature, 0.3, Leaf(0.7, cover / 2), Leaf(-0.4, cover / 2), cover)
    return DecisionTree(root)


@pytest.mark.parametrize("k, dtype", [(8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32)])
def test_patterns_take_the_narrowest_dtype(monkeypatch, k, dtype):
    rng = np.random.default_rng(k)
    X, B = random_dataset(rng, 60, k), random_dataset(rng, 30, k)
    tree = deep_path_model(k, 0).trees[0]
    reference = leaf_decision_patterns(tree, X)  # uint32 at any depth
    for item in iter_leaf_patterns(tree, X, B):
        assert item.patterns.dtype == dtype and item.background.dtype == dtype
        assert np.array_equal(item.patterns, reference[item.leaf])
    tree = _spine_with_repeat(k)
    assert tree.max_unique_features == k
    with pytest.raises(DepthCapError, match=f"path exceeds {k - 1} unique features; raise the cap"):
        list(iter_leaf_patterns(tree, X, cap=k - 1))
    # merged patterns: the same integers as a walk in uint32
    narrow = list(iter_leaf_patterns(tree, X, B))
    monkeypatch.setattr(patterns_module, "pattern_dtype", lambda k: np.uint32)
    wide = list(iter_leaf_patterns(tree, X, B))
    for a, b in zip(narrow, wide, strict=True):
        assert a.patterns.dtype == dtype and a.features == b.features
        assert np.array_equal(a.patterns, b.patterns) and np.array_equal(a.background, b.background)


@pytest.mark.parametrize("k", [8, 9, 16, 17])
def test_narrow_patterns_explain_like_uint32_ones(monkeypatch, k):
    rng = np.random.default_rng(k)
    X, B = random_dataset(rng, 6, k), random_dataset(rng, 20, k)
    model = EnsembleModel([_spine_with_repeat(k), deep_path_model(k, 1).trees[0]], k, 0.1)
    requests = [
        ExplainRequest(model, X, B, BACKGROUND, SHAPLEY),
        ExplainRequest(model, X, None, PATH_DEPENDENT, SHAPLEY),
    ]
    if k <= 9:
        requests.append(ExplainRequest(model, X, B, BACKGROUND, INTERACTION))
    got = [explain(r) for r in requests]
    monkeypatch.setattr(patterns_module, "pattern_dtype", lambda k: np.uint32)
    for g, r in zip(got, requests):
        w = explain(r)
        assert g.values.tobytes() == w.values.tobytes() and g.base_value == w.base_value


def test_nan_rows_rejected(two_feature_tree):
    with pytest.raises(NaNInputError):
        list(iter_leaf_patterns(two_feature_tree, [[0.1, float("nan")]]))


def test_decision_patterns_stump():
    tree = DecisionTree(SplitNode(0, 0.5, Leaf(1.0), Leaf(2.0)))
    pats = leaf_decision_patterns(tree, [[0.2]])
    by_weight = {leaf.weight: p for leaf, p in pats.items()}
    np.testing.assert_array_equal(by_weight[1.0], [1])
    np.testing.assert_array_equal(by_weight[2.0], [0])


def test_decision_patterns_depth_two(two_feature_tree):
    pats = leaf_decision_patterns(two_feature_tree, [[0.2, 0.2]])
    by_weight = {leaf.weight: p for leaf, p in pats.items()}
    np.testing.assert_array_equal(by_weight[1.0], [0b11])


def test_merged_equals_unmerged_without_repeats():
    # on trees that never repeat a feature the two encodings are identical
    for seed in range(8):
        model = random_distinct_model(seed, max_depth=6, n_features=7)
        tree = model.trees[0]
        X = random_dataset(np.random.default_rng(seed), 25, 7)
        reference = leaf_decision_patterns(tree, X)
        for item in iter_leaf_patterns(tree, X):
            np.testing.assert_array_equal(item.patterns, reference[item.leaf])


def test_background_distribution_counts():
    np.testing.assert_allclose(
        background_distribution(np.array([3, 3, 1, 0]), 2), [0.25, 0.25, 0.0, 0.5]
    )


def test_background_distribution_single_row():
    np.testing.assert_allclose(background_distribution(np.array([1]), 1), [0.0, 1.0])


def test_background_distribution_identical_patterns():
    values = background_distribution(np.array([2, 2, 2, 2]), 2)
    np.testing.assert_allclose(values, [0, 0, 1, 0])
    assert values.sum() == 1.0


def test_background_distribution_empty():
    with pytest.raises(EmptyBackgroundError):
        background_distribution(np.array([], dtype=np.uint32), 1)


def _chain(covers, features, thresholds, leaf_weight=1.0):
    """Build a single path root->...->leaf with given covers; off-path children
    are leaves taking the complementary cover."""
    assert len(covers) == len(features) + 1
    node = Leaf(leaf_weight, covers[-1])
    for i in range(len(features) - 1, -1, -1):
        off = Leaf(0.0, covers[i] - covers[i + 1])
        node = SplitNode(features[i], thresholds[i], node, off, covers[i])
    return DecisionTree(node)


def _first_leaf_distribution(tree, n_features=2):
    item = first_leaf_patterns(tree, np.zeros((1, n_features)), covers=True)
    return path_dependent_distribution(item.ratios)


def test_path_dependent_repeated_feature_chain():
    tree = _chain([100.0, 60.0, 30.0], [0, 0], [10.0, 5.0])
    np.testing.assert_allclose(_first_leaf_distribution(tree), [0.7, 0.3])


def test_path_dependent_single_split():
    tree = _chain([100.0, 60.0], [0], [10.0])
    np.testing.assert_allclose(_first_leaf_distribution(tree), [0.4, 0.6])


def test_path_dependent_two_features_product():
    tree = _chain([100.0, 50.0, 12.5], [0, 1], [10.0, 10.0])
    got = _first_leaf_distribution(tree)
    # independent expansion of the two-factor product, most significant bit first
    r = [0.5, 0.25]
    want = [
        (r[0] if (u >> 1) & 1 else 1 - r[0]) * (r[1] if u & 1 else 1 - r[1])
        for u in range(4)
    ]
    np.testing.assert_allclose(got, [0.375, 0.125, 0.375, 0.125])
    np.testing.assert_allclose(got, want)


def test_path_dependent_missing_cover():
    tree = _chain([100.0, 60.0], [0], [10.0])
    tree.root.cover = None
    with pytest.raises(MissingCoverError):
        _first_leaf_distribution(tree)


def test_path_dependent_zero_cover():
    tree = _chain([100.0, 0.0], [0], [10.0])
    with pytest.raises(ZeroCoverError):
        _first_leaf_distribution(tree)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_path_dependent_distribution_sums_to_one(seed):
    model = random_model(seed, max_depth=5, n_features=4, n_trees=1)
    X = random_dataset(np.random.default_rng(seed), 3, 4)
    for item in iter_leaf_patterns(model.trees[0], X, covers=True):
        values = path_dependent_distribution(item.ratios)
        assert values.min() >= 0
        assert abs(values.sum() - 1.0) <= 1e-9


def test_one_walk_matches_separate_walks():
    # consumer and background patterns from one walk equal two walks' patterns
    for seed in range(6):
        model = random_model(seed, max_depth=7, n_features=5, n_trees=1)
        tree = model.trees[0]
        rng = np.random.default_rng(seed + 100)
        X, B = random_dataset(rng, 17, 5), random_dataset(rng, 9, 5)
        joint = list(iter_leaf_patterns(tree, X, B))
        alone_x = list(iter_leaf_patterns(tree, X))
        alone_b = list(iter_leaf_patterns(tree, B))
        assert len(joint) == len(alone_x) == len(alone_b)
        for item, ix, ib in zip(joint, alone_x, alone_b):
            assert item.leaf is ix.leaf is ib.leaf
            assert item.features == ix.features == ib.features
            np.testing.assert_array_equal(item.patterns, ix.patterns)
            np.testing.assert_array_equal(item.background, ib.patterns)
            assert ix.background is None and ix.ratios is None


def test_all_ones_pattern_count_equals_leaf_hits():
    # a pattern of all ones means every merged constraint holds, i.e. the row
    # actually reaches the leaf under plain traversal
    for seed in range(5):
        model = random_model(seed, max_depth=6, n_features=5, n_trees=1)
        tree = model.trees[0]
        X = random_dataset(np.random.default_rng(seed + 50), 64, 5)
        hits = leaf_hit_counts(tree, X)
        for item in iter_leaf_patterns(tree, X):
            all_ones = (1 << len(item.features)) - 1
            assert int((item.patterns == all_ones).sum()) == hits.get(id(item.leaf), 0)


def test_background_distribution_sums_to_one_on_random_trees():
    for seed in range(5):
        model = random_model(seed, max_depth=6, n_features=5, n_trees=1)
        X = random_dataset(np.random.default_rng(seed), 33, 5)
        for item in iter_leaf_patterns(model.trees[0], X):
            f = background_distribution(item.patterns, len(item.features))
            assert abs(f.sum() - 1.0) <= 1e-12


def test_streaming_retains_at_most_depth_plus_one_vectors():
    model = complete_tree_model(10)
    X = random_dataset(np.random.default_rng(0), 5, model.n_features)
    stats = PatternMemoryStats()
    for _ in iter_leaf_patterns(model.trees[0], X, stats=stats):
        pass
    assert stats.peak <= model.trees[0].max_path_depth + 1
    assert stats.live == 0


def test_streaming_with_background_retains_at_most_two_vectors_per_level():
    model = complete_tree_model(10)
    rng = np.random.default_rng(0)
    X = random_dataset(rng, 5, model.n_features)
    B = random_dataset(rng, 7, model.n_features)
    stats = PatternMemoryStats()
    for _ in iter_leaf_patterns(model.trees[0], X, B, stats=stats):
        pass
    assert stats.peak <= 2 * (model.trees[0].max_path_depth + 1)
    assert stats.live == 0


def test_streaming_bound_small_tree(two_feature_tree):
    stats = PatternMemoryStats()
    for _ in iter_leaf_patterns(two_feature_tree, [[0.1, 0.1]], stats=stats):
        pass
    assert stats.peak <= two_feature_tree.max_path_depth + 1
