"""Per-leaf decision patterns over unique path features, and leaf distributions.

Every root-to-leaf path gets one bit per *distinct* feature appearing on it,
ordered by first appearance (the root's feature occupies the most significant
bit).  A bit is 1 iff every split on that feature follows the path.  Repeated
features are merged by AND-ing split outcomes into the existing bit, so a
depth-D path never produces more than D bits and usually far fewer.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    DepthCapError,
    EmptyBackgroundError,
    MissingCoverError,
    NaNInputError,
    ValidationError,
    ZeroCoverError,
)
from .model import DecisionTree, Leaf

DEFAULT_FEATURE_CAP = 26  # 2**26 doubles per work vector; hard memory guard

_DTYPE = np.uint32
_ONE = _DTYPE(1)


class LeafPatterns(NamedTuple):
    leaf: Leaf
    features: tuple[int, ...]  # unique path features, first appearance first
    patterns: np.ndarray  # uint32, one merged pattern per data row


class PatternMemoryStats:
    """Counts row-length pattern vectors a generator currently retains.

    ``peak`` must stay at or below depth+1 on any tree: the generator frees a
    node's vector as soon as both children have been derived from it.
    """

    def __init__(self) -> None:
        self.live = 0
        self.peak = 0

    def _alloc(self) -> None:
        self.live += 1
        self.peak = max(self.peak, self.live)

    def _free(self) -> None:
        self.live -= 1


def _as_rows(rows) -> np.ndarray:
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError(f"expected a 2-D dataset, got shape {X.shape}")
    if np.isnan(X).any():
        raise NaNInputError("dataset contains NaN")
    return X


def iter_leaf_patterns(
    tree: DecisionTree,
    rows,
    cap: int = DEFAULT_FEATURE_CAP,
    stats: PatternMemoryStats | None = None,
) -> Iterator[LeafPatterns]:
    """Stream each leaf's merged per-row patterns, depth-first, left child first.

    Yields leaves in exactly the order of :func:`root_to_leaf_paths`.  The
    working set is bounded: a node's pattern vector is reused in place for its
    left child, and only right-sibling vectors wait on the stack, so at most
    depth+1 vectors are held at any instant (``stats`` instruments this).
    """
    X = _as_rows(rows)
    if stats is None:
        stats = PatternMemoryStats()
    pat = np.zeros(X.shape[0], dtype=_DTYPE)
    stats._alloc()
    stack = [(tree.root, pat, ())]
    del pat
    while stack:
        node, pat, feats = stack.pop()
        if isinstance(node, Leaf):
            item = LeafPatterns(node, feats, pat)
            del pat
            yield item
            del item
            stats._free()
            continue
        s = node.goes_left(X[:, node.feature]).astype(_DTYPE)
        if node.feature not in feats:
            if len(feats) >= cap:
                raise DepthCapError(
                    f"path exceeds {cap} unique features; raise the cap to proceed"
                )
            feats = feats + (node.feature,)
            np.left_shift(pat, _ONE, out=pat)
            right = pat + (_ONE - s)
            stats._alloc()
            pat += s  # parent vector becomes the left child's in place
        else:
            pos = feats.index(node.feature)
            f_bit = _ONE << _DTYPE(len(feats) - 1 - pos)
            keep = _DTYPE((1 << len(feats)) - 1) - f_bit
            right = pat & (keep + f_bit * (_ONE - s))
            stats._alloc()
            pat &= keep + f_bit * s
        stack.append((node.right, right, feats))
        stack.append((node.left, pat, feats))
        del pat, right, s


def leaf_decision_patterns(tree: DecisionTree, rows, cap: int = DEFAULT_FEATURE_CAP):
    """Unmerged reference patterns: one bit per path node, no feature merging.

    Breadth-first construction, child pattern = (parent << 1) + outcome.  Kept
    as an oracle for :func:`iter_leaf_patterns` on trees without repeated
    features, where the two encodings coincide.
    """
    X = _as_rows(rows)
    store = {tree.root: np.zeros(X.shape[0], dtype=_DTYPE)}
    depth = {tree.root: 0}
    out: dict[Leaf, np.ndarray] = {}
    queue = deque([tree.root])
    while queue:
        node = queue.popleft()
        pat = store.pop(node)
        d = depth.pop(node)
        if isinstance(node, Leaf):
            out[node] = pat
            continue
        if d >= cap:
            raise DepthCapError(f"path exceeds {cap} bits")
        s = node.goes_left(X[:, node.feature]).astype(_DTYPE)
        store[node.left] = (pat << _ONE) + s
        store[node.right] = (pat << _ONE) + (_ONE - s)
        depth[node.left] = depth[node.right] = d + 1
        queue.append(node.left)
        queue.append(node.right)
    return out


def background_distribution(patterns: np.ndarray, k: int) -> np.ndarray:
    """Empirical distribution of background patterns: out[p] = count(p) / m."""
    if len(patterns) == 0:
        raise EmptyBackgroundError("background dataset is empty")
    counts = np.bincount(patterns, minlength=1 << k)
    return counts / len(patterns)


def path_dependent_distribution(leaf: Leaf, path) -> np.ndarray:
    """Cover-ratio product distribution over the leaf's merged patterns.

    For each unique path feature, r = product over that feature's nodes of
    cover(on-path child) / cover(node); the pattern with bit set contributes
    factor r, bit clear contributes 1 - r, independently per feature.
    """
    ratios: dict[int, float] = {}
    order: list[int] = []
    for node, child in zip(path, list(path[1:]) + [leaf]):
        if node.cover is None or child.cover is None:
            raise MissingCoverError("path-dependent mode needs covers on every path node")
        if node.cover <= 0 or child.cover <= 0:
            raise ZeroCoverError("zero cover on a used path; training statistics corrupt")
        if node.feature not in ratios:
            ratios[node.feature] = 1.0
            order.append(node.feature)
        ratios[node.feature] *= child.cover / node.cover
    values = np.ones(1, dtype=np.float64)
    for feature in order:
        r = ratios[feature]
        values = np.kron(values, np.array([1.0 - r, r]))
    return values
