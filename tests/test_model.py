import json
import os

import numpy as np
import pytest

from treeshap_hd.errors import (
    FeatureIndexError,
    NaNInputError,
    ParseError,
    UnsupportedFeatureError,
    ValidationError,
)
from treeshap_hd.model import (
    DecisionTree,
    Leaf,
    SplitNode,
    load_canonical,
    load_lightgbm_text,
    save_canonical,
)
from treeshap_hd.oracles import root_to_leaf_paths
from treeshap_hd.synthetic import random_dataset, random_model

from oracle_utils import (
    LEFT_CHAIN_SPLITS,
    left_chain_predictions,
    route_row,
    write_lightgbm_left_chain,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

MINIMAL_DOC = {
    "n_features": 1,
    "base_score": 0.0,
    "trees": [
        [
            {"kind": "split", "feature": 0, "threshold": 0.5, "cmp": "lt",
             "left": 1, "right": 2, "cover": 10.0},
            {"kind": "leaf", "weight": 1.0, "cover": 4.0},
            {"kind": "leaf", "weight": 2.0, "cover": 6.0},
        ]
    ],
}


def write_doc(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_load_minimal_document(tmp_path):
    model = load_canonical(write_doc(tmp_path, MINIMAL_DOC))
    assert len(model.trees) == 1
    assert model.trees[0].max_path_depth == 1
    assert model.trees[0].max_unique_features == 1
    np.testing.assert_array_equal(model.predict([[0.2], [0.7]]), [1.0, 2.0])


def test_leaf_only_tree_predicts_constant(tmp_path):
    doc = {"n_features": 3, "base_score": 0.25,
           "trees": [[{"kind": "leaf", "weight": 3.5}]]}
    model = load_canonical(write_doc(tmp_path, doc))
    np.testing.assert_allclose(model.predict([[0, 1, 2], [9, 9, 9]]), 3.75)
    assert model.trees[0].max_path_depth == 0


def test_cover_sum_mismatch_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["trees"][0][1]["cover"] = 5.0  # 5 + 6 != 10
    with pytest.raises(ValidationError):
        load_canonical(write_doc(tmp_path, doc))


def test_child_cover_above_parent_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["trees"][0][1]["cover"] = 12.0
    with pytest.raises(ValidationError):
        load_canonical(write_doc(tmp_path, doc))


def test_nan_threshold_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["trees"][0][0]["threshold"] = float("nan")
    with pytest.raises(ValidationError):
        load_canonical(write_doc(tmp_path, doc))


def test_infinite_threshold_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["trees"][0][0]["threshold"] = 1e400  # serializes as Infinity
    with pytest.raises(ValidationError):
        load_canonical(write_doc(tmp_path, doc))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
def test_non_finite_base_score_rejected(tmp_path, value):
    # json writes and reads NaN and Infinity; explain would return a NaN base value.
    # An integer past float range has no finite float either.
    doc = dict(MINIMAL_DOC, base_score=value)
    with pytest.raises(ValidationError, match="base_score must be finite"):
        load_canonical(write_doc(tmp_path, doc))


@pytest.mark.parametrize("node, key", [(0, "threshold"), (0, "cover"), (1, "weight"), (1, "cover")])
def test_node_integer_past_float_range_rejected(tmp_path, node, key):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["trees"][0][node][key] = 10**400
    with pytest.raises(ValidationError, match="finite"):
        load_canonical(write_doc(tmp_path, doc))


def test_dangling_child_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["trees"][0][0]["right"] = 7
    with pytest.raises(ValidationError):
        load_canonical(write_doc(tmp_path, doc))


def test_node_referenced_twice_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["trees"][0][0]["right"] = 1  # both children point at node 1
    with pytest.raises(ValidationError):
        load_canonical(write_doc(tmp_path, doc))


def test_orphan_node_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["trees"][0].append({"kind": "leaf", "weight": 9.0})
    with pytest.raises(ValidationError):
        load_canonical(write_doc(tmp_path, doc))


def test_feature_index_out_of_range(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["trees"][0][0]["feature"] = 1
    with pytest.raises(FeatureIndexError):
        load_canonical(write_doc(tmp_path, doc))


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("trees"),
    lambda d: d.__setitem__("n_features", "three"),
    lambda d: d["trees"][0][0].__setitem__("cmp", "ge"),
    lambda d: d["trees"][0][0].__setitem__("kind", "branch"),
    lambda d: d["trees"][0][0].pop("threshold"),
])
def test_malformed_documents_raise_parse_error(tmp_path, mangle):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    mangle(doc)
    with pytest.raises(ParseError):
        load_canonical(write_doc(tmp_path, doc))


def test_invalid_json_raises_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_canonical(path)


def test_predict_rejects_nan_rows(stump_model):
    with pytest.raises(NaNInputError):
        stump_model.predict([[float("nan"), 0.1]])


def test_predict_rejects_wrong_width(stump_model):
    with pytest.raises(ValidationError):
        stump_model.predict([[0.1, 0.2, 0.3]])


def test_predict_stump_sides(stump_model):
    np.testing.assert_array_equal(
        stump_model.predict([[0.2, 9.0], [0.7, 9.0], [0.5, 9.0]]), [1.0, 0.0, 0.0]
    )


def test_paths_of_stump(stump_model):
    paths = list(root_to_leaf_paths(stump_model.trees[0]))
    assert len(paths) == 2
    assert [len(p) for _, p in paths] == [1, 1]
    assert [leaf.weight for leaf, _ in paths] == [1.0, 0.0]  # left first


def test_paths_of_leaf_only_tree():
    tree = DecisionTree(Leaf(3.5))
    paths = list(root_to_leaf_paths(tree))
    assert len(paths) == 1
    assert paths[0][1] == []


def test_paths_depth_two_complete_dfs_order():
    tree = DecisionTree(
        SplitNode(0, 0.5,
                  SplitNode(1, 0.5, Leaf(1.0), Leaf(2.0)),
                  SplitNode(1, 0.5, Leaf(3.0), Leaf(4.0)))
    )
    paths = list(root_to_leaf_paths(tree))
    assert [leaf.weight for leaf, _ in paths] == [1.0, 2.0, 3.0, 4.0]
    assert all(len(p) == 2 for _, p in paths)


def test_paths_enumerate_every_leaf_once():
    model = random_model(11, max_depth=6, n_features=5, n_trees=3)
    for tree in model.trees:
        seen = [id(leaf) for leaf, _ in root_to_leaf_paths(tree)]
        assert len(seen) == len(set(seen))
        X = random_dataset(np.random.default_rng(0), 200, 5)
        reached = {id(route_row(tree.root, row)) for row in X}
        assert reached <= set(seen)


def test_canonical_roundtrip_bit_exact(tmp_path):
    for seed in range(5):
        model = random_model(seed, max_depth=5, n_features=6, n_trees=2, base_score=0.125)
        model.feature_names = [f"f{i}" for i in range(6)]
        path = tmp_path / f"m{seed}.json"
        save_canonical(model, path)
        back = load_canonical(path)
        X = random_dataset(np.random.default_rng(seed), 100, 6)
        assert np.array_equal(model.predict(X), back.predict(X))
        assert back.feature_names == model.feature_names


# ---------------------------------------------------------------------------
# LightGBM importer
# ---------------------------------------------------------------------------

def test_lightgbm_fixture_matches_frozen_predictions():
    model = load_lightgbm_text(os.path.join(FIXTURES, "lightgbm_model.txt"))
    rows = np.loadtxt(os.path.join(FIXTURES, "lightgbm_rows.csv"), delimiter=",", skiprows=1)
    want = np.loadtxt(os.path.join(FIXTURES, "lightgbm_expected.csv"), skiprows=1)
    assert len(rows) >= 100
    got = model.predict(rows)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_lightgbm_covers_populated():
    model = load_lightgbm_text(os.path.join(FIXTURES, "lightgbm_model.txt"))
    root = model.trees[0].root
    assert root.cover == 1000.0
    assert root.cmp == "le"
    assert abs(root.left.cover + root.right.cover - root.cover) < 1e-9


def test_lightgbm_stump_leaf_values(tmp_path):
    # a depth-2 stump: each of four probe rows isolates one dumped leaf value
    text = "\n".join([
        "tree",
        "max_feature_idx=1",
        "",
        "Tree=0",
        "num_leaves=4",
        "split_feature=0 1 1",
        "threshold=0.5 0.25 0.75",
        "decision_type=2 2 2",
        "left_child=1 -1 -3",
        "right_child=2 -2 -4",
        "leaf_value=1.5 -2.5 3.5 -4.5",
        "leaf_count=10 20 30 40",
        "internal_count=100 30 70",
        "",
        "end of trees",
    ])
    path = tmp_path / "stump.txt"
    path.write_text(text)
    model = load_lightgbm_text(path)
    probes = [[0.2, 0.1], [0.2, 0.9], [0.9, 0.5], [0.9, 0.9]]
    np.testing.assert_array_equal(model.predict(probes), [1.5, -2.5, 3.5, -4.5])


def test_lightgbm_le_semantics_at_threshold(tmp_path):
    text = "\n".join([
        "tree", "max_feature_idx=0", "",
        "Tree=0", "num_leaves=2", "split_feature=0", "threshold=0.5",
        "decision_type=2", "left_child=-1", "right_child=-2",
        "leaf_value=1.0 2.0", "", "end of trees",
    ])
    path = tmp_path / "le.txt"
    path.write_text(text)
    model = load_lightgbm_text(path)
    np.testing.assert_array_equal(model.predict([[0.5]]), [1.0])  # ties go left


def test_lightgbm_categorical_rejected(tmp_path):
    text = "\n".join([
        "tree", "max_feature_idx=0", "",
        "Tree=0", "num_leaves=2", "split_feature=0", "threshold=1",
        "decision_type=1", "left_child=-1", "right_child=-2",
        "leaf_value=1.0 2.0", "", "end of trees",
    ])
    path = tmp_path / "cat.txt"
    path.write_text(text)
    with pytest.raises(UnsupportedFeatureError):
        load_lightgbm_text(path)


def test_lightgbm_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ParseError):
        load_lightgbm_text(path)


def test_lightgbm_single_leaf_tree(tmp_path):
    text = "\n".join([
        "tree", "max_feature_idx=1", "",
        "Tree=0", "num_leaves=1", "leaf_value=0.75", "leaf_count=500",
        "", "end of trees",
    ])
    path = tmp_path / "leafonly.txt"
    path.write_text(text)
    model = load_lightgbm_text(path)
    np.testing.assert_array_equal(model.predict([[1.0, 2.0]]), [0.75])


def _lightgbm_dump(tmp_path, header=(), decision_type="2"):
    """A one-stump dump; ``header`` lines go between the banner and the trees."""
    text = "\n".join([
        "tree", "version=v3", *header, "max_feature_idx=0", "",
        "Tree=0", "num_leaves=2", "split_feature=0", "threshold=0.5",
        f"decision_type={decision_type}", "left_child=-1", "right_child=-2",
        "leaf_value=1.0 2.0", "leaf_count=4 6", "internal_count=10", "",
        "end of trees",
    ])
    path = tmp_path / "model.txt"
    path.write_text(text)
    return path


def test_lightgbm_plain_stump_loads(tmp_path):
    header = ("num_class=1", "num_tree_per_iteration=1")
    model = load_lightgbm_text(_lightgbm_dump(tmp_path, header))
    np.testing.assert_array_equal(model.predict([[0.5], [0.7]]), [1.0, 2.0])


@pytest.mark.parametrize("line", ["num_class=3", "num_tree_per_iteration=3"])
def test_lightgbm_multiclass_rejected(tmp_path, line):
    with pytest.raises(UnsupportedFeatureError):
        load_lightgbm_text(_lightgbm_dump(tmp_path, (line,)))


def test_lightgbm_average_output_rejected(tmp_path):
    with pytest.raises(UnsupportedFeatureError):
        load_lightgbm_text(_lightgbm_dump(tmp_path, ("average_output",)))


def test_lightgbm_zero_as_missing_rejected(tmp_path):
    # bits 2-3 of decision_type hold the missing type; 1 is Zero (here with default_left)
    with pytest.raises(UnsupportedFeatureError):
        load_lightgbm_text(_lightgbm_dump(tmp_path, decision_type=str((1 << 2) | 2)))


@pytest.mark.parametrize(
    "line, bad, message",
    [
        ("leaf_value=1.0 2.0", "leaf_value=nan 2", "leaf_value must be finite"),
        ("leaf_value=1.0 2.0", "leaf_value=1.0 inf", "leaf_value must be finite"),
        ("threshold=0.5", "threshold=nan", "threshold must be finite"),
        ("leaf_count=4 6", "leaf_count=4 nan", "leaf_count must be finite and non-negative"),
        ("leaf_count=4 6", "leaf_count=-4 14", "leaf_count must be finite and non-negative"),
        ("internal_count=10", "internal_count=nan", "internal_count must be finite and non-negative"),
        ("internal_count=10", "internal_count=-inf", "internal_count must be finite and non-negative"),
    ],
    ids=["leaf_value-nan", "leaf_value-inf", "threshold-nan", "leaf_count-nan", "leaf_count-negative",
         "internal_count-nan", "internal_count-negative"],
)
def test_lightgbm_non_finite_values_rejected(tmp_path, line, bad, message):
    # float() parses these; a NaN threshold sends every row right, and a NaN
    # count passes the cover sums, whose comparisons are all false
    path = _lightgbm_dump(tmp_path)
    text = path.read_text()
    assert line in text
    path.write_text(text.replace(line, bad))
    with pytest.raises(ValidationError, match=f"Tree=0: {message}"):
        load_lightgbm_text(path)


def test_deep_chain_canonical_roundtrip(tmp_path):
    # a 1,100-split chain: loading, predicting and saving walk it without recursion
    model = load_lightgbm_text(write_lightgbm_left_chain(tmp_path / "chain.txt"))
    assert model.trees[0].max_path_depth == LEFT_CHAIN_SPLITS
    X = random_dataset(np.random.default_rng(0), 200, 2)
    np.testing.assert_array_equal(model.predict(X), left_chain_predictions(X))
    path = tmp_path / "chain.json"
    save_canonical(model, path)
    back = load_canonical(path)
    assert back.trees[0].max_path_depth == LEFT_CHAIN_SPLITS
    np.testing.assert_array_equal(back.predict(X), left_chain_predictions(X))
