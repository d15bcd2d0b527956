import pytest

from treeshap_hd.model import DecisionTree, EnsembleModel, Leaf, SplitNode


@pytest.fixture
def stump_model():
    """x0 < 0.5 -> weight 1.0 (cover 6), else weight 0.0 (cover 4); two features."""
    root = SplitNode(0, 0.5, Leaf(1.0, 6.0), Leaf(0.0, 4.0), 10.0)
    return EnsembleModel([DecisionTree(root)], 2, 0.0)


@pytest.fixture
def repeated_feature_tree():
    """Root x0 < 10, left child splits x0 < 5 again;  right children are leaves."""
    inner = SplitNode(0, 5.0, Leaf(1.0, 30.0), Leaf(2.0, 30.0), 60.0)
    root = SplitNode(0, 10.0, inner, Leaf(3.0, 40.0), 100.0)
    return DecisionTree(root)


@pytest.fixture
def two_feature_tree():
    """Root x0 < 0.5, left child x1 < 0.5; right children are leaves."""
    inner = SplitNode(1, 0.5, Leaf(1.0, 3.0), Leaf(2.0, 4.0), 7.0)
    root = SplitNode(0, 0.5, inner, Leaf(3.0, 3.0), 10.0)
    return DecisionTree(root)


def leaf_weights_in_order(tree):
    from treeshap_hd.oracles import root_to_leaf_paths

    return [leaf.weight for leaf, _ in root_to_leaf_paths(tree)]
