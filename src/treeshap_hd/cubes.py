"""Weighted cubes, linear value functionals on them, and the diagonal cache.

A cube is a conjunction of positive and negated Boolean literals with a real
weight; the game it induces pays the weight exactly when every positive
literal's player participates and no negated literal's player does.  Shapley,
Banzhaf and pairwise Shapley-interaction values of such games have closed
forms in (|positive|, |negative|); each closed form here is gate-checked
against definitional enumeration in the test suite before anything downstream
trusts it.

The diagonal cache holds, per unique-feature count k, the secondary diagonal
of every per-position value matrix.  An explain run builds one in memory up
to its deepest leaf's k; nothing stores it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DepthCapError, InvalidPairError, ValidationError
from .patterns import DEFAULT_FEATURE_CAP

SHAPLEY = "shapley"
BANZHAF = "banzhaf"
INTERACTION = "interaction"
FUNCTIONALS = (SHAPLEY, BANZHAF, INTERACTION)


@dataclass(frozen=True)
class Cube:
    """Weighted conjunction of literals; ``positive`` and ``negative`` are disjoint."""

    positive: frozenset
    negative: frozenset
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "positive", frozenset(self.positive))
        object.__setattr__(self, "negative", frozenset(self.negative))
        if self.positive & self.negative:
            raise ValueError("a cube may not contain a literal and its negation")

    def value(self, members) -> float:
        """Game value: weight iff all positive players are in, no negative player is."""
        members = set(members)
        if self.positive <= members and not (members & self.negative):
            return self.weight
        return 0.0

    @property
    def players(self) -> frozenset:
        return self.positive | self.negative


def _ratio(a: int, b: int, c: int) -> float:
    # a! * b! / c! computed exactly in integers; one correctly-rounded division
    return math.factorial(a) * math.factorial(b) / math.factorial(c)


def cube_shapley(cube: Cube, position) -> float:
    """Shapley value of ``position`` in the cube's game (0 for non-players)."""
    p, q = len(cube.positive), len(cube.negative)
    if position in cube.positive:
        return cube.weight * _ratio(p - 1, q, p + q)
    if position in cube.negative:
        return -cube.weight * _ratio(p, q - 1, p + q)
    return 0.0


def cube_banzhaf(cube: Cube, position) -> float:
    """Banzhaf value: exactly one of 2^(p+q-1) coalitions yields a marginal."""
    p, q = len(cube.positive), len(cube.negative)
    if position in cube.positive:
        return cube.weight * 2.0 ** (1 - p - q)
    if position in cube.negative:
        return -cube.weight * 2.0 ** (1 - p - q)
    return 0.0


def cube_interaction(cube: Cube, i, j) -> float:
    """Pairwise Shapley interaction index of (i, j) in the cube's game."""
    if i == j:
        raise InvalidPairError("interaction needs two distinct positions")
    p, q = len(cube.positive), len(cube.negative)
    in_pos = (i in cube.positive, j in cube.positive)
    in_neg = (i in cube.negative, j in cube.negative)
    if not ((in_pos[0] or in_neg[0]) and (in_pos[1] or in_neg[1])):
        return 0.0  # non-players are dummies
    if all(in_pos):
        return cube.weight * _ratio(p - 2, q, p + q - 1)
    if all(in_neg):
        return cube.weight * _ratio(p, q - 2, p + q - 1)
    return -cube.weight * _ratio(p - 1, q - 1, p + q - 1)


# ---------------------------------------------------------------------------
# pattern -> cube constructions
# ---------------------------------------------------------------------------

def map_patterns_to_cubes(features, cap: int = DEFAULT_FEATURE_CAP):
    """Cube table {consumer pattern: {background pattern: Cube}}, 3^k entries.

    Starting from the empty cube at (0, 0), each feature f expands an entry
    three ways: consumer bit 1 / background bit 0 adds the positive literal f,
    0/1 adds the negated literal, 1/1 adds nothing, and 0/0 never exists, so
    entries live exactly where row | col is all ones.
    """
    features = list(features)
    k = len(features)
    if not 1 <= k <= cap:
        raise DepthCapError(f"need 1 <= k <= {cap}, got {k}")
    table = {0: {0: (frozenset(), frozenset())}}
    for f in features:
        expanded: dict[int, dict[int, tuple]] = {}
        for pc, row in table.items():
            for pb, (pos, neg) in row.items():
                expanded.setdefault(2 * pc + 1, {})[2 * pb] = (pos | {f}, neg)
                expanded.setdefault(2 * pc, {})[2 * pb + 1] = (pos, neg | {f})
                expanded.setdefault(2 * pc + 1, {})[2 * pb + 1] = (pos, neg)
        table = expanded
    return {
        pc: {pb: Cube(pos, neg) for pb, (pos, neg) in row.items()}
        for pc, row in table.items()
    }


def diagonal_cubes(k: int, cap: int = DEFAULT_FEATURE_CAP):
    """The 2^k cubes on the secondary diagonal: row a -> cube at column ~a.

    Same expansion as :func:`map_patterns_to_cubes` minus the neither-literal
    case; feature positions are the anonymous integers 0..k-1, bit k-1-j of
    the row index holding position j's literal sign (set bit = positive).
    """
    if not 1 <= k <= cap:
        raise DepthCapError(f"need 1 <= k <= {cap}, got {k}")
    table = {0: (frozenset(), frozenset())}
    for j in range(k):
        expanded = {}
        for a, (pos, neg) in table.items():
            expanded[2 * a + 1] = (pos | {j}, neg)
            expanded[2 * a] = (pos, neg | {j})
        table = expanded
    return {a: Cube(pos, neg) for a, (pos, neg) in table.items()}


# ---------------------------------------------------------------------------
# the depth-indexed diagonal cache
# ---------------------------------------------------------------------------

def pair_index(k: int, j1: int, j2: int) -> int:
    """Row index of ordered pair (j1 < j2) in the k-choose-2 lexicographic list."""
    if not 0 <= j1 < j2 < k:
        raise InvalidPairError(f"need 0 <= j1 < j2 < {k}, got ({j1}, {j2})")
    return j1 * k - j1 * (j1 + 1) // 2 + (j2 - j1 - 1)


@dataclass
class DiagonalCache:
    """Per unique-feature count k, the secondary diagonals of all value matrices.

    ``levels[k]`` is a (rows, 2^k) array: one row per feature position for
    scalar functionals, one per ordered position pair (lexicographic) for
    interaction.  The construction never looks at feature identities, so one
    cache serves every path with the same unique-feature count.
    """

    kind: str
    depth: int
    levels: dict[int, np.ndarray]

    def diagonal(self, k: int, position: int) -> np.ndarray:
        return self.levels[k][position]

    def pair_diagonal(self, k: int, j1: int, j2: int) -> np.ndarray:
        return self.levels[k][pair_index(k, j1, j2)]

    @property
    def nbytes(self) -> int:
        return sum(arr.nbytes for arr in self.levels.values())


def cache_nbytes(depth: int, kind: str) -> int:
    """Bytes of ``build_diagonal_cache(depth, kind)``, known before building it."""
    rows = (lambda k: k * (k - 1) // 2) if kind == INTERACTION else (lambda k: k)
    return 8 * sum(rows(k) << k for k in range(1, depth + 1))


def build_diagonal_cache(
    depth: int,
    kind: str = SHAPLEY,
    cap: int = DEFAULT_FEATURE_CAP,
) -> DiagonalCache:
    """Evaluate the functional on every diagonal cube for every k in 1..depth.

    Closed forms are applied vectorized over the 2^k diagonal rows; the result
    is bit-identical to looping :func:`diagonal_cubes` through the per-cube
    functions (a property the tests assert).
    """
    if kind not in FUNCTIONALS:
        raise ValidationError(f"unknown functional {kind!r}")
    if not 1 <= depth <= cap:
        raise DepthCapError(f"need 1 <= depth <= {cap}, got {depth}")
    levels = {k: _diagonal_level(k, kind) for k in range(1, depth + 1)}
    return DiagonalCache(kind, depth, levels)


def _diagonal_level(k: int, kind: str) -> np.ndarray:
    rows = np.arange(1 << k, dtype=np.uint32)
    n_pos = np.bitwise_count(rows).astype(np.int64)  # positives in the diagonal cube
    if kind == BANZHAF:
        out = np.empty((k, 1 << k), dtype=np.float64)
        magnitude = 2.0 ** (1 - k)
        for j in range(k):
            bit = (rows >> np.uint32(k - 1 - j)) & 1
            out[j] = np.where(bit == 1, magnitude, -magnitude)
        return out
    if kind == SHAPLEY:
        # value depends only on the literal sign and p = popcount(row)
        pos_val = np.full(k + 1, np.nan)
        neg_val = np.full(k + 1, np.nan)
        for p in range(k + 1):
            if p >= 1:
                pos_val[p] = _ratio(p - 1, k - p, k)
            if p <= k - 1:
                neg_val[p] = -_ratio(p, k - p - 1, k)
        out = np.empty((k, 1 << k), dtype=np.float64)
        for j in range(k):
            bit = (rows >> np.uint32(k - 1 - j)) & 1
            out[j] = np.where(bit == 1, pos_val[n_pos], neg_val[n_pos])
        return out
    both_pos = np.full(k + 1, np.nan)
    both_neg = np.full(k + 1, np.nan)
    mixed = np.full(k + 1, np.nan)
    for p in range(k + 1):
        if p >= 2:
            both_pos[p] = _ratio(p - 2, k - p, k - 1)
        if p <= k - 2:
            both_neg[p] = _ratio(p, k - p - 2, k - 1)
        if 1 <= p <= k - 1:
            mixed[p] = -_ratio(p - 1, k - p - 1, k - 1)
    out = np.empty((k * (k - 1) // 2, 1 << k), dtype=np.float64)
    for j1, j2 in combinations(range(k), 2):
        b1 = (rows >> np.uint32(k - 1 - j1)) & 1
        b2 = (rows >> np.uint32(k - 1 - j2)) & 1
        vals = np.where(
            (b1 == 1) & (b2 == 1),
            both_pos[n_pos],
            np.where((b1 == 0) & (b2 == 0), both_neg[n_pos], mixed[n_pos]),
        )
        out[pair_index(k, j1, j2)] = vals
    return out
