"""Regression oracles: slow, definitional references the engine is checked against.

None of this is on the path of :func:`treeshap_hd.engine.explain`.  In order:
the model's paths and active features; the brute-force oracles, which
evaluate the game on every coalition of the active features; the dense
baseline :func:`explain_dense`, the engine's leaf loop over full sparse value
matrices in O(3^k) per leaf; the quadrant recursion the zeta kernel unrolls;
the cube tables the closed forms are evaluated on; unmerged decision patterns.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
import math

import numpy as np

from .cubes import BANZHAF, INTERACTION, SHAPLEY, Cube, cube_banzhaf, cube_interaction, cube_shapley
from .engine import AttributionResult, ExplainRequest, _checked_rows, _Kernel, _leaf_loop, _loop_bytes
from .engine import _max_unique_features, _runs, _validated
from .errors import DepthCapError, LengthError, MissingCoverError, SizeError, StructureError
from .errors import TooManyFeaturesError, ZeroCoverError
from .fastmult import _require_power_of_two
from .model import DecisionTree, EnsembleModel, Leaf, _paths_from
from .patterns import DEFAULT_FEATURE_CAP, _as_rows

BRUTE_FORCE_FEATURE_CAP = 14
DENSE_BASELINE_CAP = 12  # explain_dense enumerates 3^k cube entries per leaf


def root_to_leaf_paths(tree: DecisionTree):
    """Yield (leaf, internal-node path) for every leaf, depth-first, left child first.

    This order is the contract every per-leaf stream in the pipeline follows;
    pattern generators iterate leaves identically.
    """
    yield from _paths_from(tree.root)


def active_features(model: EnsembleModel) -> list[int]:
    """Sorted feature ids used by at least one split."""
    used: set[int] = set()
    for tree in model.trees:
        for _leaf, path in root_to_leaf_paths(tree):
            used.update(n.feature for n in path)
    return sorted(used)


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
    active = active_features(model)
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


def _sparse_tables(k: int, functional: str):
    import scipy.sparse  # only the dense baseline needs scipy; the CLI starts without it

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
        pairs = list(combinations(range(k), 2))
        mats = [matrix([cube_interaction(c, j1, j2) for c in cubes]) for j1, j2 in pairs]
        shap = [matrix([cube_shapley(c, j) for c in cubes]) for j in range(k)]
        return mats, shap, pairs
    fn = cube_shapley if functional == SHAPLEY else cube_banzhaf
    mats = [matrix([fn(c, j) for c in cubes]) for j in range(k)]
    return mats, None, None


def _dense_kernel(k_max: int, functional: str) -> _Kernel:
    """Regression anchor: the sparse value matrices, O(3^k) per product."""
    tables = {k: _runs(*_sparse_tables(k, functional)) for k in range(1, k_max + 1)}
    return _Kernel(tables.get, k_max, lambda mats, r0, r1, fs: np.array([[m.dot(f) for m in mats[r0:r1]] for f in fs]))


def explain_dense(
    request: ExplainRequest, *, depth_cap: int = DENSE_BASELINE_CAP
) -> AttributionResult:
    """Same contract as :func:`treeshap_hd.engine.explain`, via full sparse value matrices.

    Regression anchor for the fast path: the matrices are assembled from the
    cube table entry by entry and multiplied sparsely, no diagonals involved.
    """
    model, X, B = _validated(request)
    kernel = _dense_kernel(_max_unique_features(model, depth_cap), request.functional)
    return _leaf_loop(request, model, X, B, kernel, depth_cap=depth_cap)


def projected_dense_peak_bytes(request: ExplainRequest) -> int:
    """Upper estimate of the bytes an :func:`explain_dense` run allocates at its peak:
    its sparse matrices and the cube table they come from, in place of the
    diagonal kernel's tables in :func:`treeshap_hd.engine.projected_peak_bytes`."""
    k_max = max((t.max_unique_features for t in request.model.trees), default=0)
    per_k = (lambda k: k * (k + 1) // 2) if request.functional == INTERACTION else (lambda k: k)
    tables = sum(per_k(k) * (12 * 3**k + 4 * ((1 << k) + 1)) for k in range(1, k_max + 1))
    # the Python cube table each level is assembled from: 420-520 B an entry at k = 8-10
    tables += 640 * 3**k_max
    return tables + _loop_bytes(request, k_max)


def matvec_recursive(M, v, check: bool = False, tol: float = 1e-9) -> np.ndarray:
    """Readable halving recursion for M @ v; the test oracle, not the hot path.

    With ``check`` set, raises StructureError wherever the quadrant identities
    fail beyond ``tol``.
    """
    M = np.asarray(M, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] != v.size:
        raise LengthError(f"shape mismatch: M {M.shape}, v {v.shape}")
    _require_power_of_two(v.size)
    return _matvec_recursive(M, v, check, tol)


def _matvec_recursive(M, v, check, tol):
    n = v.size
    if n == 1:
        return M[0, 0] * v
    h = n >> 1
    M2 = M[:h, h:]
    M3 = M[h:, :h]
    if check:
        if np.abs(M[:h, :h]).max() > tol:
            raise StructureError("zero quadrant holds nonzero entries")
        if np.abs(M[h:, h:] - (M2 + M3)).max() > tol:
            raise StructureError("sum quadrant does not equal the mixed quadrants")
    r1 = _matvec_recursive(M2, v[h:], check, tol)
    r2 = _matvec_recursive(M3, v[:h] + v[h:], check, tol)
    return np.concatenate([r1, r1 + r2])


def dense_from_diagonal(diag, max_k: int = 12) -> np.ndarray:
    """The unique dense completion of a secondary diagonal under the identities.

    Built by the quadrant recursion itself (zero block, two mixed blocks from
    the half-diagonals, sum block), deliberately sharing no code with the
    zeta-based kernel so the two can check each other.  Equivalent closed
    form: M[a][b] = sum of diag[a'] over a' subset of a with ~a' subset of b.
    """
    diag = np.asarray(diag, dtype=np.float64)
    n = diag.size
    _require_power_of_two(n)
    if n > (1 << max_k):
        raise SizeError(f"dense completion capped at 2^{max_k} rows, got {n}")
    M = np.zeros((n, n), dtype=np.float64)
    _fill_completion(M, diag)
    return M


def _fill_completion(block, diag):
    n = diag.size
    if n == 1:
        block[0, 0] = diag[0]
        return
    h = n >> 1
    _fill_completion(block[:h, h:], diag[:h])
    _fill_completion(block[h:, :h], diag[h:])
    np.add(block[:h, h:], block[h:, :h], out=block[h:, h:])


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


def leaf_decision_patterns(tree: DecisionTree, rows, cap: int = DEFAULT_FEATURE_CAP):
    """Unmerged reference patterns: one bit per path node, no feature merging.

    Breadth-first construction, child pattern = (parent << 1) + outcome.  Kept
    as an oracle for :func:`treeshap_hd.patterns.iter_leaf_patterns` on trees
    without repeated features, where the two encodings coincide.  Patterns
    are ``uint32`` whatever the tree's depth.
    """
    X = _as_rows(rows)
    one = np.uint32(1)
    out: dict[Leaf, np.ndarray] = {}
    queue = deque([(tree.root, np.zeros(X.shape[0], dtype=np.uint32), 0)])
    while queue:
        node, pat, d = queue.popleft()
        if isinstance(node, Leaf):
            out[node] = pat
            continue
        if d >= cap:
            raise DepthCapError(f"path exceeds {cap} bits")
        s = node.goes_left(X[:, node.feature]).astype(np.uint32)
        queue.append((node.left, (pat << one) + s, d + 1))
        queue.append((node.right, (pat << one) + (one - s), d + 1))
    return out
