"""Attribution pipeline: one tree walk x a value-matrix kernel, one leaf loop.

Per tree, one walk (:func:`iter_leaf_patterns`) yields each leaf's consumer
patterns with its background patterns or cover ratios.  Per leaf, the loop
(1) builds the leaf's distribution f (empirical counts or cover-ratio
products), (2) multiplies each of the leaf's per-position value matrices by
it with a kernel, scaled by the leaf weight, and (3) gathers each consumer's
entry by its own pattern.  The all-ones entry of f is the share of background
rows (or of cover) that reaches the leaf, so the leaf adds weight x f[-1] to
the base value.  Each tree's result is added to the output as soon as the
tree finishes, in model order, so a run holds at most threads + 1 per-tree
results at once.

Two kernels share the loop.  :func:`explain` multiplies the cached secondary
diagonals with the O(k 2^k) zeta kernel; :func:`explain_dense` multiplies the
full sparse value matrices in O(3^k) per leaf, kept as an independent
regression anchor.  :func:`projected_peak_bytes` is the one memory projection
that budget guards consult.  Also here: definitional brute-force oracles
(subset enumeration over the model's active features).
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
import math
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse

from .cubes import (
    BANZHAF,
    INTERACTION,
    SHAPLEY,
    build_diagonal_cache,
    cache_nbytes,
    cube_banzhaf,
    cube_interaction,
    cube_shapley,
    map_patterns_to_cubes,
    pair_index,
)
from .errors import (
    BudgetExceededError,
    DepthCapError,
    EmptyBackgroundError,
    MissingCoverError,
    TooManyFeaturesError,
    ValidationError,
    ZeroCoverError,
)
from .fastmult import diagonal_matvec
from .model import EnsembleModel, Leaf
from .patterns import (
    DEFAULT_FEATURE_CAP,
    _as_rows,
    background_distribution,
    iter_leaf_patterns,
    path_dependent_distribution,
)

BACKGROUND = "background"
PATH_DEPENDENT = "path-dependent"
MODES = (BACKGROUND, PATH_DEPENDENT)

BRUTE_FORCE_FEATURE_CAP = 14
DENSE_BASELINE_CAP = 12  # explain_dense enumerates 3^k cube entries per leaf

# Python objects a run allocates: generators, futures, and the tuples
# the interpreter's free lists keep after the leaf loop discards them.
# Measured at up to 255 KiB (20 depth-10 interaction trees, 2,801 leaves).
_INTERPRETER_BYTES = 256 << 10


@dataclass
class ExplainRequest:
    model: EnsembleModel
    consumers: np.ndarray
    background: np.ndarray | None = None
    mode: str = BACKGROUND
    functional: str = SHAPLEY


@dataclass
class AttributionResult:
    """values is (n, f) for scalar functionals, (n, f, f) for interactions."""

    values: np.ndarray
    base_value: float


@dataclass
class ExplainStats:
    """What an :func:`explain` or :func:`explain_dense` run held; pass it as ``stats=``.

    ``table_bytes`` counts the kernel's value tables (the diagonal caches, or
    the sparse matrices); ``peak_bytes`` is the largest per-leaf working set,
    tables excluded; ``leaf_nonzeros`` lists, per leaf with k >= 1 in model
    and depth-first order, the stored entries of one of its value matrices
    (2^k diagonal entries, or 3^k sparse ones).  A run adds to what the
    object already holds.
    """

    table_bytes: int = 0
    peak_bytes: int = 0
    leaf_nonzeros: list = field(default_factory=list)


def _checked_rows(rows, n_features, what):
    X = _as_rows(rows)
    if X.shape[1] != n_features:
        raise ValidationError(
            f"{what} has {X.shape[1]} columns, model expects {n_features}"
        )
    return X


def _prepare(request: ExplainRequest):
    if request.mode not in MODES:
        raise ValidationError(f"unknown mode {request.mode!r}")
    if request.functional not in (SHAPLEY, BANZHAF, INTERACTION):
        raise ValidationError(f"unknown functional {request.functional!r}")
    model = request.model
    X = _checked_rows(request.consumers, model.n_features, "consumer dataset")
    B = None
    if request.mode == BACKGROUND:
        if request.background is None or len(request.background) == 0:
            raise EmptyBackgroundError("background mode needs at least one row")
        B = _checked_rows(request.background, model.n_features, "background dataset")
    return model, X, B


def _max_unique_features(model: EnsembleModel, depth_cap: int) -> int:
    k_max = max((t.max_unique_features for t in model.trees), default=0)
    if k_max > depth_cap:
        raise DepthCapError(f"model needs {k_max} unique features, cap is {depth_cap}")
    return k_max


def projected_peak_bytes(
    request: ExplainRequest, *, threads: int = 1, dense: bool = False
) -> int:
    """Upper estimate of the bytes an :func:`explain` run allocates at its peak.

    Counts the kernel's tables (the diagonal cache, plus the Shapley cache for
    interactions; with ``dense``, the sparse matrices :func:`explain_dense`
    builds and the cube table they come from), per worker thread one leaf's
    working vectors and the pattern stacks of its tree walk, the output, and
    threads + 1 per-tree results, the most a pool holds as it reduces trees
    while they finish (the serial path holds one).  The consumer and
    background rows are not counted.
    """
    model = request.model
    interaction = request.functional == INTERACTION
    n = len(request.consumers)
    background = request.background if request.mode == BACKGROUND else None
    m = 0 if background is None else len(background)
    n_trees = len(model.trees)
    k_max = max((t.max_unique_features for t in model.trees), default=0)
    depth = max((t.max_path_depth for t in model.trees), default=0)

    if dense:
        per_k = (lambda k: k * (k + 1) // 2) if interaction else (lambda k: k)
        tables = sum(per_k(k) * (12 * 3**k + 4 * ((1 << k) + 1)) for k in range(1, k_max + 1))
        # the Python cube table each level is assembled from: 420-520 B an entry at k = 8-10
        tables += 640 * 3**k_max
    else:
        tables = cache_nbytes(k_max, request.functional)
        if interaction:
            tables += cache_nbytes(k_max, SHAPLEY)
    # six 2^k_max vectors: a leaf's distribution, its bincount and the kernel's
    # vector, or the temporaries of building the cache's deepest level; two
    # gathered rows; per dataset, depth + 1 live pattern vectors and a split's
    # temporaries
    worker = (48 << k_max) + 16 * n + 4 * (depth + 3) * (n + m)
    workers = max(1, min(threads, n_trees))
    F = model.n_features
    result = 8 * n * F * (F + 1 if interaction else 1)
    in_flight = min(threads + 1, n_trees)
    diagonal_fill = 16 * n * F if interaction else 0  # two (n, F) temporaries
    return (
        _INTERPRETER_BYTES + tables + workers * worker + result * (1 + in_flight) + diagonal_fill
    )


class _Kernel(NamedTuple):
    """The value matrices the leaf loop multiplies, and the product that applies one.

    ``tables[k]`` is (the functional's matrices, the Shapley matrices for
    interactions, stored entries per matrix); ``nbytes`` sizes all of them.
    """

    tables: dict
    apply: Callable
    nbytes: int


def _diagonal_kernel(k_max: int, functional: str, cap: int) -> _Kernel:
    """Fast path: :func:`diagonal_matvec` over cached secondary diagonals."""
    main = shap = None
    if k_max:
        main = build_diagonal_cache(k_max, functional, cap=cap)
        if functional == INTERACTION:
            shap = build_diagonal_cache(k_max, SHAPLEY, cap=cap)
    tables = {
        k: (main.levels[k], shap.levels[k] if shap else None, 1 << k)
        for k in range(1, k_max + 1)
    }
    nbytes = sum(cache.nbytes for cache in (main, shap) if cache is not None)
    # a lambda, so diagonal_matvec is looked up per call and a wrapper swapped
    # into this module (as the benchmark's trace does) takes effect
    return _Kernel(tables, lambda diag, f: diagonal_matvec(diag, f), nbytes)


def _leaf_loop(request, model, X, B, kernel, *, depth_cap, threads, stats):
    """The leaf loop both entry points share; ``kernel`` supplies the value matrices.

    Trees are reduced in model order as they finish, so results, the base
    value included, are bit-identical for any thread count.  The serial path
    holds one tree's result at a time; the pool holds at most threads + 1, the
    one being reduced and the trees submitted after it.
    """
    F = model.n_features
    n = X.shape[0]
    interaction = request.functional == INTERACTION
    shape = (n, F, F) if interaction else (n, F)
    bg_bytes = B.shape[0] * 4 if B is not None else 0

    def tree_values(tree):
        apply = kernel.apply
        acc = np.zeros(shape)
        phi = np.zeros((n, F)) if interaction else None
        held = ExplainStats() if stats is not None else None
        base = 0.0
        for item in iter_leaf_patterns(tree, X, B, covers=B is None, cap=depth_cap):
            feats = item.features
            k = len(feats)
            if B is not None:
                f = background_distribution(item.background, k)
            else:
                f = path_dependent_distribution(item.ratios)
            w = item.leaf.weight
            base += w * f[-1]  # f[-1]: the share that reaches the leaf
            if k == 0:
                continue  # constant leaf: contributes to the base value only
            main, shap, entries = kernel.tables[k]
            pc = item.patterns
            if held is not None:
                held.peak_bytes = max(held.peak_bytes, 3 * f.nbytes + pc.nbytes + bg_bytes)
                held.leaf_nonzeros.append(entries)
            if interaction:
                for j, feat in enumerate(feats):
                    phi[:, feat] += w * apply(shap[j], f)[pc]
                for (j1, f1), (j2, f2) in combinations(enumerate(feats), 2):
                    contrib = w * apply(main[pair_index(k, j1, j2)], f)[pc]
                    acc[:, f1, f2] += contrib
                    acc[:, f2, f1] += contrib
            else:
                for j, feat in enumerate(feats):
                    acc[:, feat] += w * apply(main[j], f)[pc]
        return acc, phi, base, held

    values = np.zeros(shape)
    phi_total = np.zeros((n, F)) if interaction else None
    base_total = np.zeros(1)  # the trees' shares of the base value

    def add_tree(result):
        acc, phi, base, held = result
        np.add(values, acc, out=values)
        base_total[0] += base
        if interaction:
            np.add(phi_total, phi, out=phi_total)
        if held is not None:
            stats.peak_bytes = max(stats.peak_bytes, held.peak_bytes)
            stats.leaf_nonzeros += held.leaf_nonzeros

    if threads > 1 and len(model.trees) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            pending = deque()
            for tree in model.trees:
                pending.append(pool.submit(tree_values, tree))
                if len(pending) > threads:
                    add_tree(pending.popleft().result())
            while pending:
                add_tree(pending.popleft().result())
    else:
        for tree in model.trees:
            add_tree(tree_values(tree))

    if interaction:
        idx = np.arange(F)
        values[:, idx, idx] = phi_total - values.sum(axis=2)
    if stats is not None:
        stats.table_bytes += kernel.nbytes
    return AttributionResult(values, float(model.base_score + base_total[0]))


def explain(
    request: ExplainRequest,
    *,
    threads: int = 1,
    memory_budget_bytes: int | None = None,
    depth_cap: int = DEFAULT_FEATURE_CAP,
    stats: ExplainStats | None = None,
) -> AttributionResult:
    """Exact attributions for every consumer row.

    Deterministic for a fixed model and datasets: leaves are processed in
    depth-first order and trees are reduced in model order, so repeated runs
    (any thread count) are bit-identical.  With ``memory_budget_bytes`` set,
    raises :class:`BudgetExceededError` before any work when
    :func:`projected_peak_bytes` exceeds it.
    """
    if threads < 1:
        raise ValidationError("threads must be >= 1")
    model, X, B = _prepare(request)
    k_max = _max_unique_features(model, depth_cap)
    if memory_budget_bytes is not None:
        projected = projected_peak_bytes(request, threads=threads)
        if projected > memory_budget_bytes:
            raise BudgetExceededError(
                f"projected peak {projected} bytes exceeds budget {memory_budget_bytes}"
            )
    kernel = _diagonal_kernel(k_max, request.functional, depth_cap)
    return _leaf_loop(
        request, model, X, B, kernel, depth_cap=depth_cap, threads=threads, stats=stats
    )


# ---------------------------------------------------------------------------
# brute-force oracles (definitional enumeration over active features)
# ---------------------------------------------------------------------------

def _attributions_from_game(V: np.ndarray, active, functional: str, n_features: int):
    """Definitional Shapley / Banzhaf / interaction values from a game vector.

    ``V[s]`` is the game value of the coalition whose members are the active
    features at the set bits of ``s``.
    """
    nA = len(active)
    total = 1 << nA
    masks = np.arange(total)
    sizes = np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)

    def shapley_vector():
        phi = np.zeros(n_features)
        if nA == 0:
            return phi
        w = np.array(
            [
                math.factorial(s) * math.factorial(nA - 1 - s) / math.factorial(nA)
                for s in range(nA)
            ]
        )
        for i, feat in enumerate(active):
            bit = 1 << i
            sub = masks[(masks & bit) == 0]
            phi[feat] = float(np.sum(w[sizes[sub]] * (V[sub | bit] - V[sub])))
        return phi

    if functional == SHAPLEY:
        return shapley_vector()
    if functional == BANZHAF:
        phi = np.zeros(n_features)
        for i, feat in enumerate(active):
            bit = 1 << i
            sub = masks[(masks & bit) == 0]
            phi[feat] = float(np.sum(V[sub | bit] - V[sub]) * 2.0 ** (1 - nA))
        return phi

    vals = np.zeros((n_features, n_features))
    if nA >= 2:
        coef = np.array(
            [
                math.factorial(s) * math.factorial(nA - 2 - s) / math.factorial(nA - 1)
                for s in range(nA - 1)
            ]
        )
        for (i1, f1), (i2, f2) in combinations(list(enumerate(active)), 2):
            b1, b2 = 1 << i1, 1 << i2
            sub = masks[(masks & (b1 | b2)) == 0]
            delta = V[sub | b1 | b2] - V[sub | b1] - V[sub | b2] + V[sub]
            pairwise = float(np.sum(coef[sizes[sub]] * delta))
            vals[f1, f2] = pairwise
            vals[f2, f1] = pairwise
    phi = shapley_vector()
    idx = np.arange(n_features)
    vals[idx, idx] = phi - vals.sum(axis=1)
    return vals


def _active_or_raise(model: EnsembleModel, max_active: int):
    active = model.active_features()
    if len(active) > max_active:
        raise TooManyFeaturesError(
            f"{len(active)} active features; brute force capped at {max_active}"
        )
    return active


def brute_force_background(
    model: EnsembleModel,
    x,
    background,
    functional: str = SHAPLEY,
    max_active: int = BRUTE_FORCE_FEATURE_CAP,
):
    """Oracle: v(S) = mean prediction over background rows composited with x on S.

    Returns (values, base_value) for the single consumer row ``x``.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    B = _checked_rows(background, model.n_features, "background dataset")
    active = _active_or_raise(model, max_active)
    nA = len(active)
    total = 1 << nA
    m = B.shape[0]
    composite = np.repeat(B[None, :, :], total, axis=0)
    masks = np.arange(total)
    for i, feat in enumerate(active):
        chosen = (masks >> i) & 1 == 1
        composite[chosen, :, feat] = x[feat]
    preds = model.predict(composite.reshape(total * m, model.n_features))
    V = preds.reshape(total, m).mean(axis=1)
    return _attributions_from_game(V, active, functional, model.n_features), float(V[0])


def brute_force_path_dependent(
    model: EnsembleModel,
    x,
    functional: str = SHAPLEY,
    max_active: int = BRUTE_FORCE_FEATURE_CAP,
):
    """Oracle: v(S) by traversal, following x on S-features and cover-weighting
    both branches elsewhere.  Returns (values, base_value)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    active = _active_or_raise(model, max_active)
    bit_of = {feat: i for i, feat in enumerate(active)}
    total = 1 << len(active)
    masks = np.arange(total)

    def game(node):
        if isinstance(node, Leaf):
            return np.full(total, node.weight)
        left = game(node.left)
        right = game(node.right)
        for nd in (node, node.left, node.right):
            if nd.cover is None:
                raise MissingCoverError("path-dependent oracle needs covers")
        if node.cover <= 0 or node.left.cover <= 0 or node.right.cover <= 0:
            raise ZeroCoverError("zero cover in path-dependent oracle")
        consumer = left if bool(node.goes_left(np.array([x[node.feature]]))[0]) else right
        mixed = (node.left.cover / node.cover) * left + (
            node.right.cover / node.cover
        ) * right
        has = (masks >> bit_of[node.feature]) & 1 == 1
        return np.where(has, consumer, mixed)

    V = np.full(total, model.base_score, dtype=np.float64)
    for tree in model.trees:
        V = V + game(tree.root)
    return _attributions_from_game(V, active, functional, model.n_features), float(V[0])


# ---------------------------------------------------------------------------
# dense baseline: full sparse value matrices, O(3^k) per leaf
# ---------------------------------------------------------------------------

def _sparse_tables(k: int, functional: str):
    cube_rows = map_patterns_to_cubes(range(k))
    rows, cols, cubes = [], [], []
    for pc, row in cube_rows.items():
        for pb, cube in row.items():
            rows.append(pc)
            cols.append(pb)
            cubes.append(cube)
    shape = (1 << k, 1 << k)

    def matrix(values):
        return scipy.sparse.csr_matrix((values, (rows, cols)), shape=shape)

    if functional == INTERACTION:
        mats = [
            matrix([cube_interaction(c, j1, j2) for c in cubes])
            for j1, j2 in combinations(range(k), 2)
        ]
        shap = [matrix([cube_shapley(c, j) for c in cubes]) for j in range(k)]
        return mats, shap, len(cubes)
    fn = cube_shapley if functional == SHAPLEY else cube_banzhaf
    mats = [matrix([fn(c, j) for c in cubes]) for j in range(k)]
    return mats, None, len(cubes)


def _dense_kernel(k_max: int, functional: str) -> _Kernel:
    """Regression anchor: the sparse value matrices, O(3^k) per product."""
    tables = {k: _sparse_tables(k, functional) for k in range(1, k_max + 1)}
    nbytes = sum(
        mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        for mats, shap, _entries in tables.values()
        for mat in mats + (shap or [])
    )
    return _Kernel(tables, lambda mat, f: mat.dot(f), nbytes)


def explain_dense(
    request: ExplainRequest,
    *,
    depth_cap: int = DENSE_BASELINE_CAP,
    stats: ExplainStats | None = None,
) -> AttributionResult:
    """Same contract as :func:`explain`, via full sparse value matrices.

    Regression anchor for the fast path: the matrices are assembled from the
    cube table entry by entry and multiplied sparsely, no diagonals involved.
    """
    model, X, B = _prepare(request)
    kernel = _dense_kernel(_max_unique_features(model, depth_cap), request.functional)
    return _leaf_loop(request, model, X, B, kernel, depth_cap=depth_cap, threads=1, stats=stats)
