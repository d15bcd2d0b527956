"""Weighted cubes, linear value functionals on them, and the diagonal cache.

A cube is a conjunction of positive and negated Boolean literals with a real
weight; the game it induces pays the weight exactly when every positive
literal's player participates and no negated literal's player does.  Shapley,
Banzhaf and pairwise Shapley-interaction values of such games have closed
forms in (|positive|, |negative|); each closed form here is gate-checked
against definitional enumeration in the test suite before anything downstream
trusts it.

The diagonal cache holds, per unique-feature count k, the secondary diagonal
of every per-position value matrix.  A level is a few popcount tables
(``_generated_level``) from which ``level[rows, cols]`` builds entries.  An
explain run stores its levels up to k = 16, built whole; for deeper leaves
the kernel builds each chunk of a row just before it multiplies that chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

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
    is bit-identical to looping :func:`treeshap_hd.oracles.diagonal_cubes`
    through the per-cube functions (a property the tests assert).
    """
    if kind not in FUNCTIONALS:
        raise ValidationError(f"unknown functional {kind!r}")
    if not 1 <= depth <= cap:
        raise DepthCapError(f"need 1 <= depth <= {cap}, got {depth}")
    levels = {k: _generated_level(k, kind)[:, :] for k in range(1, depth + 1)}
    return DiagonalCache(kind, depth, levels)


class _SignedRows:
    """(r, n) diagonals: entry a of row i is ``tables[signs]`` at a (a table is
    n doubles or a scalar), ``signs`` the bits of a at the descending
    positions ``bits[i]``.  ``level[rows]`` takes rows and shares the tables
    and the sign plans; ``level[rows, cols]`` builds those entries as a new
    C-order array."""

    def __init__(self, bits, tables: dict, n: int, plans=None):
        self.bits, self.tables, self.shape = bits, tables, (len(bits), n)
        # (row bits, piece width) -> _sign_plan, dropped with the level
        self.plans = {} if plans is None else plans

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, key):
        if not isinstance(key, tuple):
            return _SignedRows(self.bits[key], self.tables, self.shape[1], self.plans)
        # each row's run from entry start, n long: n divides start, so each
        # bit at or above n has one value all through the run, and every
        # sign case of the bits below n copies its table's part once
        rows, cols = key
        start, stop, _ = cols.indices(self.shape[1])
        bits, width = self.bits[rows], stop - start
        out = np.empty((len(bits), width))
        for row, row_bits in zip(out, bits):
            plan = self.plans.get((row_bits, width)) or _sign_plan(row_bits, width)
            if width < self.shape[1]:  # kept for the row's other pieces; a whole row is built once
                self.plans[row_bits, width] = plan
            shape, high_bits, cases = plan
            high, view = tuple((start >> s) & 1 for s in high_bits), row.reshape(shape)
            for signs, index in cases:
                table = self.tables[high + signs]
                view[index] = table if isinstance(table, float) else table[start:stop].reshape(shape)[index]
        return out


def _sign_plan(bits: tuple, n: int):
    # how a row's run of n entries splits by its signs: the (-1, 2,
    # 2^(s1-s2-1), 2, 2^s2) view at the bits below n, the bits at or above
    # n, and per sign combination of the low bits its index into the view.
    # Kept with the level, not process-wide: a process-wide cache would keep
    # a first run's plans, bytes the memory projection does not count, for
    # every later run
    low = [s for s in bits if 1 << s < n]
    dims = [1 << (s - below - 1) for s, below in zip(low, low[1:] + [-1])]
    shape = (-1, *(x for d in dims for x in (2, d)))
    cases = [
        (signs, (slice(None), *(x for sign in signs for x in (sign, slice(None)))))
        for signs in product((0, 1), repeat=len(low))
    ]
    return shape, [s for s in bits if 1 << s >= n], cases


# the 2^k-entry tables _generated_level gathers per level (Banzhaf's are scalars)
_GENERATED_TABLES = {SHAPLEY: 2, INTERACTION: 3, BANZHAF: 0}


def _generated_level(k: int, kind: str) -> _SignedRows:
    """Level k of the cache as popcount tables, for the kernel to build chunk by chunk.

    A value depends only on the row's literal signs (position j's is bit
    k-1-j of the row index a) and p = popcount(a): Shapley takes ``neg`` or
    ``pos`` by its position's sign, interactions ``both_neg``, ``mixed`` or
    ``both_pos`` by the pair's two, and Banzhaf one scalar per sign.
    """
    pairs = combinations(range(k), 2) if kind == INTERACTION else ((j,) for j in range(k))
    bits = [tuple(k - 1 - j for j in row) for row in pairs]
    if kind == BANZHAF:
        magnitude = 2.0 ** (1 - k)
        return _SignedRows(bits, {(0,): -magnitude, (1,): magnitude}, 1 << k)
    n_pos = np.bitwise_count(np.arange(1 << k, dtype=np.uint32))  # positives in the diagonal cube
    if kind == SHAPLEY:
        pos = np.full(k + 1, np.nan)
        neg = np.full(k + 1, np.nan)
        for p in range(k + 1):
            if p >= 1:
                pos[p] = _ratio(p - 1, k - p, k)
            if p <= k - 1:
                neg[p] = -_ratio(p, k - p - 1, k)
        return _SignedRows(bits, {(0,): neg[n_pos], (1,): pos[n_pos]}, 1 << k)
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
    mix = mixed[n_pos]
    tables = {(0, 0): both_neg[n_pos], (0, 1): mix, (1, 0): mix, (1, 1): both_pos[n_pos]}
    return _SignedRows(bits, tables, 1 << k)
