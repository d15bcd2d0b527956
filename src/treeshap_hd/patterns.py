"""Per-leaf decision patterns over unique path features, and leaf distributions.

Every root-to-leaf path gets one bit per *distinct* feature appearing on it,
ordered by first appearance (the root's feature occupies the most significant
bit).  A bit is 1 iff every split on that feature follows the path.  Repeated
features are merged by AND-ing split outcomes into the existing bit, so a
depth-D path never produces more than D bits and usually far fewer.

:func:`iter_leaf_patterns` is the one tree walk.  Per leaf it yields what the
engine needs: the consumer rows' patterns, the background rows' patterns, and
on request the per-feature cover ratios.  :func:`background_distribution`
counts background patterns and :func:`path_dependent_distribution` expands
cover ratios into a leaf's distribution.
"""

from __future__ import annotations

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


def pattern_dtype(k: int) -> type:
    """The narrowest unsigned dtype whose bits hold patterns of k features."""
    return np.uint8 if k <= 8 else np.uint16 if k <= 16 else np.uint32


class LeafPatterns(NamedTuple):
    """One leaf's path features and the rows' merged patterns.

    The patterns are in the tree's :func:`pattern_dtype`, as narrow as
    ``uint8``: widen them (``astype``) before arithmetic that can carry past
    the tree's k bits, such as a shift or an added bit, which would wrap.
    """

    leaf: Leaf
    features: tuple[int, ...]  # unique path features, first appearance first
    patterns: np.ndarray  # one merged pattern per data row, in the tree's pattern_dtype
    background: np.ndarray | None = None  # the same, one per background row
    ratios: tuple[float, ...] | None = None  # per feature, its cover ratio


class PatternMemoryStats:
    """Counts row-length pattern vectors a generator currently retains.

    ``peak`` must stay at or below depth+1 per dataset on any tree: the walk
    frees a node's vectors as soon as both children have been derived from them.
    """

    def __init__(self) -> None:
        self.live = 0
        self.peak = 0

    def _alloc(self, vectors: int) -> None:
        self.live += vectors
        self.peak = max(self.peak, self.live)

    def _free(self, vectors: int) -> None:
        self.live -= vectors


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
    background=None,
    *,
    covers: bool = False,
    cap: int = DEFAULT_FEATURE_CAP,
    stats: PatternMemoryStats | None = None,
) -> Iterator[LeafPatterns]:
    """The one tree walk: each leaf's merged patterns, depth-first, left child first.

    Per leaf it yields the consumer rows' patterns and, when ``background`` is
    given, the background rows' patterns over the same features.  With
    ``covers``, it also yields per feature the product, in path order, of
    cover(child) / cover(node) over that feature's splits on the path, and
    checks every split's covers (:class:`MissingCoverError`,
    :class:`ZeroCoverError`).  The working set is bounded: a node's pattern
    vectors are reused in place for its left child, and only right-sibling
    vectors wait on the stack, so at most depth+1 vectors per dataset are held
    at any instant (``stats`` instruments this).  Patterns are of
    ``pattern_dtype(tree.max_unique_features)``, at most 32 bits.
    """
    data = [_as_rows(rows)]
    if background is not None:
        data.append(_as_rows(background))
    if stats is None:
        stats = PatternMemoryStats()
    dtype = pattern_dtype(tree.max_unique_features)
    one, width = dtype(1), np.iinfo(dtype).bits  # width: the features a pattern holds
    pats = [np.zeros(D.shape[0], dtype=dtype) for D in data]
    stats._alloc(len(data))
    stack = [(tree.root, pats, (), () if covers else None)]
    while stack:
        node, pats, feats, ratios = stack.pop()
        if isinstance(node, Leaf):
            item = LeafPatterns(node, feats, *pats, ratios=ratios)
            yield item
            del item
            stats._free(len(data))
            continue
        new = node.feature not in feats
        if new:
            if len(feats) >= cap:
                raise DepthCapError(
                    f"path exceeds {cap} unique features; raise the cap to proceed"
                )
            if len(feats) >= width:
                raise DepthCapError(f"path exceeds {width} unique features: patterns are {width}-bit")
            pos = len(feats)
            feats = feats + (node.feature,)
        else:
            pos = feats.index(node.feature)
            f_bit = one << dtype(len(feats) - 1 - pos)
            keep = dtype((1 << len(feats)) - 1) - f_bit
        left_ratios = right_ratios = ratios
        if covers:
            c, cl, cr = node.cover, node.left.cover, node.right.cover
            if c is None or cl is None or cr is None:
                raise MissingCoverError("path-dependent mode needs covers on every path node")
            if min(c, cl, cr) <= 0:
                raise ZeroCoverError("zero cover on a used path; training statistics corrupt")
            head, r, tail = ratios[:pos], 1.0 if new else ratios[pos], ratios[pos + 1 :]
            left_ratios = head + (r * (cl / c),) + tail
            right_ratios = head + (r * (cr / c),) + tail
        rights = []
        for D, pat in zip(data, pats):
            s = node.goes_left(D[:, node.feature]).astype(dtype)
            if new:
                np.left_shift(pat, one, out=pat)
                rights.append(pat + (one - s))
                pat += s  # parent vector becomes the left child's in place
            else:
                rights.append(pat & (keep + f_bit * (one - s)))
                pat &= keep + f_bit * s
        stats._alloc(len(data))
        stack.append((node.right, rights, feats, right_ratios))
        stack.append((node.left, pats, feats, left_ratios))
        del pats, rights, pat, s


def background_distribution(patterns: np.ndarray, k: int) -> np.ndarray:
    """Empirical distribution of background patterns: out[p] = count(p) / m."""
    if len(patterns) == 0:
        raise EmptyBackgroundError("background dataset is empty")
    counts = np.bincount(patterns, minlength=1 << k)
    return counts / len(patterns)


def path_dependent_distribution(ratios) -> np.ndarray:
    """Cover-ratio product distribution over a leaf's merged patterns.

    ``ratios`` holds one cover ratio r per unique path feature, as
    :func:`iter_leaf_patterns` yields them with ``covers=True``; the pattern
    with a feature's bit set contributes factor r, bit clear 1 - r,
    independently per feature.
    """
    values = np.ones(1, dtype=np.float64)
    for r in ratios:
        values = np.multiply.outer(values, (1.0 - r, r)).reshape(-1)
    return values
