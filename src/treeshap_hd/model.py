"""Decision-tree ensembles: canonical JSON documents, LightGBM text dumps, prediction.

The internal convention is "split predicate true -> left child".  Canonical
models use a strict ``x < threshold`` predicate; models imported from a
LightGBM text dump keep that library's ``x <= threshold`` semantics, flagged
per node via ``cmp``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FeatureIndexError,
    NaNInputError,
    ParseError,
    UnsupportedFeatureError,
    ValidationError,
)

COVER_REL_TOL = 1e-6


@dataclass(eq=False)
class Leaf:
    """Terminal node holding the additive weight and an optional training cover."""

    weight: float
    cover: float | None = None


@dataclass(eq=False)
class SplitNode:
    """Internal node: rows satisfying the split predicate go to ``left``.

    ``cmp`` is ``"lt"`` for a strict ``x < threshold`` predicate and ``"le"``
    for ``x <= threshold`` (LightGBM imports).
    """

    feature: int
    threshold: float
    left: "SplitNode | Leaf"
    right: "SplitNode | Leaf"
    cover: float | None = None
    cmp: str = "lt"

    def goes_left(self, values: np.ndarray) -> np.ndarray:
        if self.cmp == "lt":
            return values < self.threshold
        return values <= self.threshold


@dataclass(eq=False)
class DecisionTree:
    """A proper binary tree; depth statistics are derived at construction.

    ``leaves_by_k[k]`` counts the leaves whose paths hold k distinct features.
    """

    root: SplitNode | Leaf
    max_path_depth: int = field(init=False)
    max_unique_features: int = field(init=False)
    leaves_by_k: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        depth = 0
        self.leaves_by_k = {}
        for _leaf, path in _paths_from(self.root):
            depth = max(depth, len(path))
            k = len(dict.fromkeys(n.feature for n in path))
            self.leaves_by_k[k] = self.leaves_by_k.get(k, 0) + 1
        self.max_path_depth = depth
        self.max_unique_features = max(self.leaves_by_k)


@dataclass(eq=False)
class EnsembleModel:
    """Additive ensemble: prediction = base_score + sum of reached-leaf weights."""

    trees: list[DecisionTree]
    n_features: int
    base_score: float = 0.0
    feature_names: list[str] | None = None

    def predict(self, rows) -> np.ndarray:
        """Predict one value per row via standard traversal (predicate true -> left).

        Raises NaNInputError on any NaN feature value; missing values are out
        of scope.
        """
        X = np.asarray(rows, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValidationError(
                f"expected rows with {self.n_features} columns, got shape {X.shape}"
            )
        if np.isnan(X).any():
            raise NaNInputError("input rows contain NaN")
        out = np.full(X.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            _add_leaf_weights(tree.root, X, out)
        return out


def _add_leaf_weights(root, X, out) -> None:
    # an explicit stack, left child first, so no path depth hits the recursion limit
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if isinstance(node, Leaf):
            out[idx] += node.weight
            continue
        go_left = node.goes_left(X[idx, node.feature])
        stack.append((node.right, idx[~go_left]))
        stack.append((node.left, idx[go_left]))


def _paths_from(root):
    stack = [(root, [])]
    while stack:
        node, path = stack.pop()
        if isinstance(node, Leaf):
            yield node, path
        else:
            stack.append((node.right, path + [node]))
            stack.append((node.left, path + [node]))


# ---------------------------------------------------------------------------
# canonical JSON format
# ---------------------------------------------------------------------------

def load_canonical(path) -> EnsembleModel:
    """Load and validate a model from the canonical JSON document at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"not a valid model document: {exc}") from exc
    return model_from_dict(doc)


def model_from_dict(doc) -> EnsembleModel:
    """Build a validated EnsembleModel from a parsed canonical document."""
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    for key in ("n_features", "base_score", "trees"):
        if key not in doc:
            raise ParseError(f"model document missing required field {key!r}")
    n_features = doc["n_features"]
    if not isinstance(n_features, int) or n_features < 0:
        raise ParseError("n_features must be a non-negative integer")
    base_score = doc["base_score"]
    if not isinstance(base_score, (int, float)) or isinstance(base_score, bool):
        raise ParseError("base_score must be a number")
    if not _is_finite(base_score):
        raise ValidationError("base_score must be finite")
    names = doc.get("feature_names")
    if names is not None:
        if not isinstance(names, list) or len(names) != n_features:
            raise ParseError("feature_names must list one name per feature")
        names = [str(n) for n in names]
    if not isinstance(doc["trees"], list):
        raise ParseError("trees must be an array")
    trees = [
        DecisionTree(_build_tree_nodes(nodes, n_features, t))
        for t, nodes in enumerate(doc["trees"])
    ]
    for tree in trees:
        _check_covers(tree.root)
    return EnsembleModel(trees, n_features, float(base_score), names)


def _build_tree_nodes(nodes, n_features, tree_idx):
    where = f"tree {tree_idx}"
    if not isinstance(nodes, list) or not nodes:
        raise ParseError(f"{where}: each tree must be a non-empty node array")
    built: list[SplitNode | Leaf] = []
    children: list[tuple[int, int] | None] = []
    for i, node in enumerate(nodes):
        if not isinstance(node, dict) or "kind" not in node:
            raise ParseError(f"{where} node {i}: nodes must be objects with a 'kind'")
        kind = node["kind"]
        cover = _parse_cover(node, f"{where} node {i}")
        if kind == "leaf":
            weight = node.get("weight")
            if not _is_number(weight):
                raise ParseError(f"{where} node {i}: leaf needs a numeric 'weight'")
            if not _is_finite(weight):
                raise ValidationError(f"{where} node {i}: leaf weight must be finite")
            built.append(Leaf(float(weight), cover))
            children.append(None)
        elif kind == "split":
            feature = node.get("feature")
            if not isinstance(feature, int) or isinstance(feature, bool) or feature < 0:
                raise ParseError(f"{where} node {i}: split needs an integer 'feature'")
            if feature >= n_features:
                raise FeatureIndexError(
                    f"{where} node {i}: feature {feature} >= n_features {n_features}"
                )
            threshold = node.get("threshold")
            if not _is_number(threshold):
                raise ParseError(f"{where} node {i}: split needs a numeric 'threshold'")
            if not _is_finite(threshold):
                raise ValidationError(f"{where} node {i}: threshold must be finite")
            cmp = node.get("cmp", "lt")
            if cmp not in ("lt", "le"):
                raise ParseError(f"{where} node {i}: cmp must be 'lt' or 'le'")
            left, right = node.get("left"), node.get("right")
            if not isinstance(left, int) or not isinstance(right, int):
                raise ParseError(f"{where} node {i}: split needs integer child indices")
            built.append(SplitNode(feature, float(threshold), None, None, cover, cmp))
            children.append((left, right))
        else:
            raise ParseError(f"{where} node {i}: unknown node kind {kind!r}")

    # Link children and verify every node is reachable from node 0 exactly once.
    referenced = [False] * len(nodes)
    stack = [0]
    referenced[0] = True
    while stack:
        i = stack.pop()
        if children[i] is None:
            continue
        for c in children[i]:
            if not 0 <= c < len(nodes):
                raise ValidationError(f"{where} node {i}: dangling child reference {c}")
            if referenced[c]:
                raise ValidationError(f"{where} node {c}: referenced more than once")
            referenced[c] = True
            stack.append(c)
        node = built[i]
        node.left = built[children[i][0]]
        node.right = built[children[i][1]]
    if not all(referenced):
        orphan = referenced.index(False)
        raise ValidationError(f"{where} node {orphan}: unreachable from the root")
    return built[0]


def _parse_cover(node, where):
    cover = node.get("cover")
    if cover is None:
        return None
    if not _is_number(cover):
        raise ParseError(f"{where}: cover must be a number when present")
    if not _is_finite(cover) or cover < 0:
        raise ValidationError(f"{where}: cover must be finite and non-negative")
    return float(cover)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    # a JSON integer past float range is not finite as a float either
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _check_covers(root) -> None:
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            continue
        covers = (node.cover, node.left.cover, node.right.cover)
        if all(c is not None for c in covers):
            parent, left, right = covers
            tol = COVER_REL_TOL * max(parent, 1e-300)
            if left > parent + tol or right > parent + tol:
                raise ValidationError("child cover exceeds parent cover")
            if abs(left + right - parent) > tol:
                raise ValidationError(
                    f"child covers {left}+{right} do not sum to parent cover {parent}"
                )
        stack.extend((node.left, node.right))


def save_canonical(model: EnsembleModel, path) -> None:
    """Write ``model`` as a canonical JSON document (inverse of load_canonical)."""
    doc = {
        "n_features": model.n_features,
        "base_score": model.base_score,
        "trees": [_flatten_tree(tree) for tree in model.trees],
    }
    if model.feature_names is not None:
        doc["feature_names"] = model.feature_names
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _flatten_tree(tree: DecisionTree) -> list[dict]:
    """Node records in pre-order (node, left subtree, right subtree), by explicit stack."""
    nodes: list[dict] = []
    stack = [(tree.root, None, None)]  # (node, parent record, side it fills)
    while stack:
        node, parent, side = stack.pop()
        if parent is not None:
            parent[side] = len(nodes)
        if isinstance(node, Leaf):
            rec = {"kind": "leaf", "weight": node.weight}
        else:
            rec = {
                "kind": "split",
                "feature": node.feature,
                "threshold": node.threshold,
                "cmp": node.cmp,
                "left": -1,
                "right": -1,
            }
            stack.append((node.right, rec, "right"))
            stack.append((node.left, rec, "left"))
        if node.cover is not None:
            rec["cover"] = node.cover
        nodes.append(rec)
    return nodes


# ---------------------------------------------------------------------------
# LightGBM text dump importer
# ---------------------------------------------------------------------------

_LGBM_CATEGORICAL_MASK = 1  # decision_type bit 0 marks a categorical split
_LGBM_MISSING_ZERO = 1  # decision_type bits 2-3: missing type None 0, Zero 1, NaN 2


def load_lightgbm_text(path) -> EnsembleModel:
    """Import a LightGBM ``model.txt`` dump.

    Numerical splits use ``value <= threshold -> left`` semantics and are
    stored with ``cmp="le"``.  ``internal_count``/``leaf_count`` populate the
    covers.  What the engine would mis-compute is rejected: categorical
    splits, multiclass dumps (one tree per class and iteration), averaged
    output (random-forest mode), and splits that route zeros as missing.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a UTF-8 LightGBM dump: {exc}") from None
    blocks = _lgbm_blocks(text)
    if not blocks:
        raise ParseError("no Tree= blocks found in LightGBM dump")
    header, tree_blocks = blocks
    for key in ("num_class", "num_tree_per_iteration"):
        if header.get(key, "1") != "1":
            raise UnsupportedFeatureError(
                f"{key}={header[key]}: only one tree per iteration is supported"
            )
    if "average_output" in header:
        raise UnsupportedFeatureError("average_output: averaged ensembles are not supported")

    n_features = None
    if "max_feature_idx" in header:
        n_features = _lgbm_int(header["max_feature_idx"], "max_feature_idx") + 1
    feature_names = header.get("feature_names", "").split() or None

    trees = []
    max_feature = -1
    for t, block in enumerate(tree_blocks):
        root, used_max = _lgbm_tree(block, t)
        max_feature = max(max_feature, used_max)
        trees.append(DecisionTree(root))
    if n_features is None:
        n_features = max_feature + 1
    if max_feature >= n_features:
        raise ParseError("split_feature index exceeds max_feature_idx")
    if feature_names is not None and len(feature_names) != n_features:
        feature_names = None
    model = EnsembleModel(trees, n_features, 0.0, feature_names)
    for tree in model.trees:
        _check_covers(tree.root)
    return model


def _lgbm_blocks(text: str):
    lines = [ln.strip() for ln in text.splitlines()]
    header: dict[str, str] = {}
    tree_blocks: list[dict[str, str]] = []
    current: dict[str, str] | None = None
    for ln in lines:
        if not ln:
            current = None
            continue
        if "=" not in ln:
            if current is None:
                header[ln] = ""  # a bare flag such as average_output
            continue
        key, _, value = ln.partition("=")
        if key == "Tree":
            current = {}
            tree_blocks.append(current)
            continue
        if current is not None:
            current[key] = value
        else:
            header[key] = value
    if not tree_blocks:
        return None
    return header, tree_blocks


def _lgbm_floats(block, key, tree_idx):
    if key not in block:
        raise ParseError(f"Tree={tree_idx}: missing {key} array")
    try:
        return [float(x) for x in block[key].split()]
    except ValueError as exc:
        raise ParseError(f"Tree={tree_idx}: bad {key} array") from exc


def _lgbm_finite(block, key, tree_idx, counts=False):
    # float() parses nan and inf, which would route rows or weigh leaves silently
    values = _lgbm_floats(block, key, tree_idx)
    if not all(math.isfinite(x) and (x >= 0 or not counts) for x in values):
        what = "finite and non-negative" if counts else "finite"
        raise ValidationError(f"Tree={tree_idx}: {key} must be {what}")
    return values


def _lgbm_int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{what}={value!r} is not an integer") from None


def _lgbm_ints(block, key, tree_idx):
    values = _lgbm_floats(block, key, tree_idx)
    if not all(x.is_integer() for x in values):  # False for inf and nan too
        raise ParseError(f"Tree={tree_idx}: {key} must hold integers")
    return [int(x) for x in values]


def _lgbm_tree(block, tree_idx):
    num_leaves = _lgbm_int(block.get("num_leaves", "0"), f"Tree={tree_idx}: num_leaves")
    leaf_value = _lgbm_finite(block, "leaf_value", tree_idx)
    if num_leaves != len(leaf_value):
        raise ParseError(f"Tree={tree_idx}: num_leaves disagrees with leaf_value")
    leaf_count = None
    if "leaf_count" in block:
        leaf_count = _lgbm_finite(block, "leaf_count", tree_idx, counts=True)

    if num_leaves == 1:
        cover = leaf_count[0] if leaf_count else None
        return Leaf(leaf_value[0], cover), -1

    split_feature = _lgbm_ints(block, "split_feature", tree_idx)
    threshold = _lgbm_finite(block, "threshold", tree_idx)
    left_child = _lgbm_ints(block, "left_child", tree_idx)
    right_child = _lgbm_ints(block, "right_child", tree_idx)
    n_internal = len(split_feature)
    if min(split_feature, default=0) < 0:
        raise ParseError(f"Tree={tree_idx}: negative split_feature")
    internal_count = None
    if "internal_count" in block:
        internal_count = _lgbm_finite(block, "internal_count", tree_idx, counts=True)
    per_node = {"threshold": threshold, "left_child": left_child, "right_child": right_child}
    if internal_count is not None:
        per_node["internal_count"] = internal_count
    for key, values in per_node.items():
        if len(values) != n_internal:
            raise ParseError(f"Tree={tree_idx}: {key} must hold one entry per split")
    if leaf_count is not None and len(leaf_count) != num_leaves:
        raise ParseError(f"Tree={tree_idx}: leaf_count must hold one entry per leaf")
    if "decision_type" in block:
        for dt in _lgbm_ints(block, "decision_type", tree_idx):
            if dt & _LGBM_CATEGORICAL_MASK:
                raise UnsupportedFeatureError(
                    f"Tree={tree_idx}: categorical splits are not supported"
                )
            if (dt >> 2) & 3 == _LGBM_MISSING_ZERO:
                raise UnsupportedFeatureError(
                    f"Tree={tree_idx}: splits that treat zero as missing are not supported"
                )

    seen = set()

    def node_at(ref: int):
        if ref in seen:  # a cycle, or a node shared by two parents
            raise ParseError(f"Tree={tree_idx}: node reference {ref} revisits a node")
        seen.add(ref)
        if ref < 0:  # negative refs address leaves as -(index)-1
            i = -ref - 1
            if i >= num_leaves:
                raise ParseError(f"Tree={tree_idx}: leaf reference {ref} out of range")
            cover = leaf_count[i] if leaf_count else None
            return Leaf(leaf_value[i], cover)
        if ref >= n_internal:
            raise ParseError(f"Tree={tree_idx}: node reference {ref} out of range")
        cover = internal_count[ref] if internal_count else None
        return SplitNode(split_feature[ref], threshold[ref], None, None, cover, cmp="le")

    # pre-order by explicit stack, left child first: nodes are built and
    # checked in the order a recursive build visits them, at any depth
    root = None
    stack = [(None, None, 0)]  # (parent, side it fills, node reference)
    while stack:
        parent, side, ref = stack.pop()
        node = node_at(ref)
        if parent is None:
            root = node
        else:
            setattr(parent, side, node)
        if isinstance(node, SplitNode):
            stack.append((node, "right", right_child[ref]))
            stack.append((node, "left", left_child[ref]))
    return root, max(split_feature)
