"""Seeded synthetic models and datasets for validation sweeps and benchmarks."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .model import DecisionTree, EnsembleModel, Leaf, SplitNode


def random_dataset(rng: np.random.Generator, n_rows: int, n_features: int) -> np.ndarray:
    return rng.uniform(0.0, 1.0, size=(n_rows, n_features))


def _random_subtree(rng, depth, max_depth, features, parent_cover, with_covers):
    cover = parent_cover if with_covers else None
    is_leaf = depth >= max_depth or (depth > 0 and rng.random() < 0.25)
    if is_leaf:
        return Leaf(float(rng.normal()), cover)
    split = rng.uniform(0.25, 0.75)
    left_cover = parent_cover * split
    right_cover = parent_cover - left_cover  # exact: children sum to the parent
    return SplitNode(
        int(rng.choice(features)),
        float(rng.uniform(0.05, 0.95)),
        _random_subtree(rng, depth + 1, max_depth, features, left_cover, with_covers),
        _random_subtree(rng, depth + 1, max_depth, features, right_cover, with_covers),
        cover,
    )


def random_model(
    seed: int,
    max_depth: int = 6,
    n_features: int = 8,
    n_active: int | None = None,
    n_trees: int = 2,
    with_covers: bool = True,
    base_score: float = 0.0,
) -> EnsembleModel:
    """Random ensemble with repeated features allowed along paths."""
    rng = np.random.default_rng(seed)
    n_active = n_features if n_active is None else min(n_active, n_features)
    pool = rng.choice(n_features, size=n_active, replace=False)
    trees = []
    for _ in range(n_trees):
        root = _random_subtree(rng, 0, max_depth, pool, 1000.0 * (1 + rng.random()), with_covers)
        if isinstance(root, Leaf):  # keep every tree at least a stump
            root = SplitNode(
                int(rng.choice(pool)), 0.5, root, Leaf(float(rng.normal()), 500.0), 1000.0
            )
            root.left.cover = 500.0 if with_covers else None
            if not with_covers:
                root.cover = root.right.cover = None
        trees.append(DecisionTree(root))
    return EnsembleModel(trees, n_features, base_score)


def _distinct_subtree(rng, depth, max_depth, available, parent_cover):
    if depth >= max_depth or not available or (depth > 0 and rng.random() < 0.2):
        return Leaf(float(rng.normal()), parent_cover)
    feature = available[int(rng.integers(len(available)))]
    remaining = [f for f in available if f != feature]
    split = rng.uniform(0.25, 0.75)
    left_cover = parent_cover * split
    return SplitNode(
        feature,
        float(rng.uniform(0.05, 0.95)),
        _distinct_subtree(rng, depth + 1, max_depth, remaining, left_cover),
        _distinct_subtree(rng, depth + 1, max_depth, remaining, parent_cover - left_cover),
        parent_cover,
    )


def random_distinct_model(
    seed: int, max_depth: int = 5, n_features: int = 8, n_trees: int = 1
) -> EnsembleModel:
    """Random ensemble whose paths never repeat a feature (merged == unmerged)."""
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_trees):
        root = _distinct_subtree(rng, 0, max_depth, list(range(n_features)), 1000.0)
        if isinstance(root, Leaf):
            root = SplitNode(0, 0.5, Leaf(1.0, 400.0), root, 1000.0)
            root.right.cover = 600.0
        trees.append(DecisionTree(root))
    return EnsembleModel(trees, n_features, 0.0)


def complete_tree_model(depth: int, seed: int = 0) -> EnsembleModel:
    """Full binary tree of the given depth; level i splits on feature i."""
    rng = np.random.default_rng(seed)

    def build(level, cover):
        if level == depth:
            return Leaf(float(rng.normal()), cover)
        split = rng.uniform(0.3, 0.7)
        left_cover = cover * split
        return SplitNode(
            level,
            float(rng.uniform(0.2, 0.8)),
            build(level + 1, left_cover),
            build(level + 1, cover - left_cover),
            cover,
        )

    return EnsembleModel([DecisionTree(build(0, float(1 << depth)))], max(depth, 1), 0.0)


def deep_path_model(depth: int, seed: int = 0) -> EnsembleModel:
    """Benchmark tree: a depth-D spine with distinct features and a leaf off
    every spine node, so the deepest leaves exercise all D unique features
    while the leaf count stays D+1 (depth scaling is then driven by the
    per-leaf kernel, not by leaf proliferation)."""
    if depth < 0:
        raise ValidationError(f"depth must be >= 0, got {depth}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(depth)

    def build(level, cover):
        if level == depth:
            return Leaf(float(rng.normal()), cover)
        split = rng.uniform(0.4, 0.6)
        spine_cover = cover * split
        off_leaf = Leaf(float(rng.normal()), cover - spine_cover)
        spine = build(level + 1, spine_cover)
        node = SplitNode(int(order[level]), 0.5, spine, off_leaf, cover)
        if rng.random() < 0.5:  # vary which side continues downward
            node.left, node.right = node.right, node.left
        return node

    return EnsembleModel([DecisionTree(build(0, float(1 << max(depth, 10))))], depth, 0.0)
