"""Attribution pipeline: one tree walk x a value-matrix kernel, one leaf loop.

Per tree, one walk (:func:`iter_leaf_patterns`) yields each leaf's consumer
patterns with its background patterns or cover ratios.  Each leaf then takes
two steps:

- **prepare** builds the leaf's distribution f (empirical counts or
  cover-ratio products), adds its share of the base value, and multiplies the
  leaf's per-position value matrices by f with a kernel, scaled by the leaf
  weight.  The all-ones entry of f is the share of background rows (or of
  cover) that reaches the leaf, so the leaf adds weight x f[-1] to the base
  value.
- **emit** gathers each consumer's entry of each product by its own pattern
  and adds it into one feature-major output, (F, n) or (F, F, n).

Only emit reads the consumer rows.  :func:`explain` takes both steps per
block of max(1, span >> k) matrices, span = max(n, 2^K, min(K 2^K, 2^12))
for n consumer rows and K the model's largest k, in one serial pass: trees
in model order, leaves depth-first, every leaf adding into the same output,
so a run holds no per-tree results.  Consecutive leaves with the same k
whose products together fit in one block of fewer than 2^12 doubles, up to
three, share one kernel call: each leaf's rows are filled from its own f,
and each leaf is then scaled and emitted in walk order, with the bits,
adds and multiplies of one call per leaf.  :func:`prepare` takes the first
step for every leaf once and keeps the products;
:meth:`PreparedExplainer.rows` walks the trees on any consumer rows and
takes the second, with the same bits as :func:`explain`.

The loop multiplies the cached secondary diagonals with the O(k 2^k) zeta
kernel.  Each run owns one kernel :class:`~treeshap_hd.fastmult.Workspace`,
so blocks of at most one kernel chunk (2^16 doubles) allocate nothing once
the workspace has grown to the run's largest, run under one ufunc-buffer
scope for the run, and rebuild their pass views only when the block shape
changes; a block is consumed before the next kernel call.  A
leaf's consumer patterns, in its tree's narrow pattern dtype, are cast to
``intp`` once per block, not on every gather.
:func:`projected_peak_bytes` is the one memory projection that
budget guards consult.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .cubes import BANZHAF, INTERACTION, SHAPLEY, _GENERATED_TABLES, _generated_level
from .cubes import build_diagonal_cache, cache_nbytes
from .errors import BudgetExceededError, DepthCapError, EmptyBackgroundError, ValidationError
from .fastmult import _CHUNK, Workspace, diagonal_matvec
from .model import EnsembleModel
from .patterns import (
    DEFAULT_FEATURE_CAP,
    _as_rows,
    background_distribution,
    iter_leaf_patterns,
    path_dependent_distribution,
    pattern_dtype,
)

BACKGROUND = "background"
PATH_DEPENDENT = "path-dependent"
MODES = (BACKGROUND, PATH_DEPENDENT)

# Python objects a run allocates: generators, and the tuples the
# interpreter's free lists keep after the leaf loop discards them.  Measured
# at 9 KiB left after a run (20 depth-10 interaction trees, 2,801 leaves, one
# row, path-dependent; 2 KiB in background mode); the rest is margin.
_INTERPRETER_BYTES = 64 << 10

# levels up to this k are stored; a deeper level's rows are longer than one
# kernel chunk, which the kernel builds from the level's popcount tables
_STORED_K = 16

# 2^12 doubles, 32 KiB: the floor of the block span (_block_span), the size
# consecutive leaves that share a kernel call stay under (_leaves_per_call),
# and the row count whose span prepare takes, so a depth-8 leaf takes one
# kernel call per run of matrices
_SMALL_SPAN = 1 << 12

# one kernel call multiplies the products of up to this many consecutive
# leaves with the same k, when together they fit in one small block
_BATCH_LEAVES = 3


@dataclass
class ExplainRequest:
    """What to explain; :func:`prepare` reads everything but ``consumers``."""

    model: EnsembleModel
    consumers: np.ndarray | None
    background: np.ndarray | None = None
    mode: str = BACKGROUND
    functional: str = SHAPLEY


@dataclass
class AttributionResult:
    """values is (n, f) for scalar functionals, (n, f, f) for interactions."""

    values: np.ndarray
    base_value: float


def _checked_rows(rows, n_features, what):
    X = _as_rows(rows)
    if X.shape[1] != n_features:
        raise ValidationError(
            f"{what} has {X.shape[1]} columns, model expects {n_features}"
        )
    return X


def _validated(request: ExplainRequest, *, consumers: bool = True):
    """The request's model, consumer rows (None unless ``consumers``) and background rows."""
    if request.mode not in MODES:
        raise ValidationError(f"unknown mode {request.mode!r}")
    if request.functional not in (SHAPLEY, BANZHAF, INTERACTION):
        raise ValidationError(f"unknown functional {request.functional!r}")
    model = request.model
    X = None
    if consumers:
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


def _block_span(n: int, k_max: int) -> int:
    """Entries in the leaf loop's largest block of products, for n consumer rows.

    A leaf with k features multiplies max(1, span >> k) matrices per kernel
    call: a block holds one gathered row, f of the deepest leaf, or up to
    2^12 entries, enough for all K·2^K products of a leaf with K <= 8
    features, so the shallow leaves of a deep model take several rows per
    call, small leaves all of theirs, and Python and numpy call costs do not
    swamp their few additions.
    """
    return max(n, 1 << k_max, min(k_max << k_max, _SMALL_SPAN))


def _matrices_per_leaf(k: int, functional: str) -> int:
    # interactions: k Shapley matrices and one per pair of positions
    return k + k * (k - 1) // 2 if functional == INTERACTION else k


def prepared_nbytes(model: EnsembleModel, functional: str) -> int:
    """Bytes of the products :func:`prepare` keeps: 2^k doubles per matrix of every leaf."""
    return sum(
        count * _matrices_per_leaf(k, functional) * (8 << k)
        for tree in model.trees
        for k, count in tree.leaves_by_k.items()
    )


def output_nbytes(n: int, n_features: int, functional: str) -> int:
    """Bytes of the output for n consumer rows, with what the interaction diagonal needs.

    (F, n), or (F, F, n), the (F, n) Shapley buffer and the one (F, n)
    temporary of the diagonal fill.
    """
    return 8 * n * n_features * (n_features + 2 if functional == INTERACTION else 1)


def projected_peak_bytes(
    request: ExplainRequest, *, chunk_rows: int | None = None, n_rows: int | None = None, _store_all=False
) -> int:
    """Upper estimate of the bytes an :func:`explain` run allocates at its peak.

    Counts the kernel's tables (the diagonal cache's levels up to k = 16, or
    all with ``_store_all``, and the deepest generated level's popcount
    tables, plus the same for Shapley values for interactions), one leaf's
    working vectors and the pattern stacks of its tree walk, and the output,
    which every leaf adds into.  The consumer and background rows are not
    counted.  ``n_rows``, when given, is the run's row count in place of
    ``len(request.consumers)``, which is then not read.

    With ``chunk_rows``, the estimate is for a two-phase run instead:
    :func:`prepare`, whose products it adds, then
    :meth:`PreparedExplainer.rows` on chunks of at most ``chunk_rows`` rows,
    one at a time; ``request.consumers`` is not read.
    """
    k_max = max((t.max_unique_features for t in request.model.trees), default=0)
    stored = k_max if _store_all else min(k_max, _STORED_K)
    kinds = (request.functional, SHAPLEY) if request.functional == INTERACTION else (request.functional,)
    tables = sum(cache_nbytes(stored, kind) for kind in kinds)
    if k_max > stored:  # the deepest generated level's tables
        tables += sum(_GENERATED_TABLES[kind] for kind in kinds) << (k_max + 3)
    if chunk_rows is not None:
        tables += prepared_nbytes(request.model, request.functional)
    return tables + _loop_bytes(request, k_max, chunk_rows, n_rows)


def _loop_bytes(request: ExplainRequest, k_max: int, chunk_rows=None, n_rows=None) -> int:
    """What :func:`projected_peak_bytes` counts besides the kernel's tables:
    working vectors, pattern stacks, output and the interpreter's objects."""
    model = request.model
    n = chunk_rows if chunk_rows is not None else len(request.consumers) if n_rows is None else n_rows
    background = request.background if request.mode == BACKGROUND else None
    m = 0 if background is None else len(background)
    # per entry of each dataset, the deepest pattern stack: depth + 1 live
    # vectors and a split's temporaries, in the tree's pattern dtype
    stack = max(
        (
            (t.max_path_depth + 3) * np.dtype(pattern_dtype(t.max_unique_features)).itemsize
            for t in model.trees
        ),
        default=0,
    )
    # six 2^k_max vectors: a leaf's distribution, its bincount and the kernel's
    # vector, or the temporaries of building the cache's deepest level; a
    # block of products, at most _block_span entries, with the zeta passes'
    # copy of up to 1.5 blocks; the kernel's workspace, which holds blocks of
    # up to one kernel chunk; the leaves waiting for a shared kernel call,
    # their consumer patterns and their distributions, which fit in a
    # workspace block with their products; one gathered row and a leaf's
    # intp consumer patterns; the pattern stacks
    block = _block_span(n if chunk_rows is None else max(n, _SMALL_SPAN), k_max)
    workspace = 8 * min(_CHUNK, block)
    waiting = (_BATCH_LEAVES - 1) * n * np.dtype(pattern_dtype(k_max)).itemsize + workspace
    working = (48 << k_max) + 20 * block + workspace + waiting + 16 * n + stack * (n + m)
    output = output_nbytes(n, model.n_features, request.functional)
    return _INTERPRETER_BYTES + working + output


class _Kernel(NamedTuple):
    """The value matrices the leaf loop multiplies, and the product that applies a block.

    ``runs(k)`` returns a leaf's runs of matrices in the order it emits them,
    each (matrices, position pairs): for interactions the Shapley matrices
    (pairs None) and then the pair matrices, else the functional's matrices;
    ``k_max`` is the largest k it serves.  ``apply(mats, r0, r1, fs)``
    returns the (L, r1 - r0, 2^k) products of matrices r0..r1-1 with each of
    the L vectors fs, which may be overwritten by its next call.
    """

    runs: Callable
    k_max: int
    apply: Callable


def _runs(main, shap=None, pairs=None) -> tuple:
    return ((shap, None), (main, pairs)) if shap is not None else ((main, None),)


def _diagonal_kernel(k_max: int, functional: str, cap: int, store_all: bool = False) -> _Kernel:
    """Fast path: one :func:`diagonal_matvec` per block of secondary diagonals.

    Levels up to ``_STORED_K`` (all with ``store_all``) are views of the cache;
    a deeper level's tables are gathered when first needed, the last one kept.
    Small blocks are multiplied in the kernel's one :class:`Workspace`, so a
    block is valid until the next call.
    """
    stored = k_max if store_all else min(k_max, _STORED_K)
    kinds = (functional, SHAPLEY) if functional == INTERACTION else (functional,)
    caches = [build_diagonal_cache(stored, kind, cap=cap) for kind in kinds] if stored else []

    def level_runs(k):
        levels = [c.levels[k] for c in caches] if k <= stored else [_generated_level(k, t) for t in kinds]
        # for interactions, the position pairs in the order the level's rows hold them
        return _runs(*levels, pairs=list(combinations(range(k), 2)) if functional == INTERACTION else None)

    tables = {k: level_runs(k) for k in range(1, stored + 1)}
    current = {}  # the generated level in use, freed before the next is gathered

    def runs(k):
        if k not in tables and k not in current:
            current.clear()
            current[k] = level_runs(k)
        return tables[k] if k in tables else current[k]

    workspace = Workspace()
    # a lambda, so diagonal_matvec is looked up per call and a wrapper swapped
    # into this module (as the benchmark's trace does) takes effect; the row
    # slice is a view of the cache level, or shares the generated tables
    return _Kernel(runs, k_max, lambda level, r0, r1, fs: diagonal_matvec(level[r0:r1], fs, workspace))


class _Leaf(NamedTuple):
    """A leaf waiting for the leaf body: its features, weight, consumer
    patterns (in the tree's pattern dtype) and distribution."""

    features: tuple
    weight: float
    patterns: np.ndarray
    f: np.ndarray


def _leaves_per_call(kernel, k, span) -> int:
    """How many consecutive leaves with k features one kernel call multiplies.

    Up to ``_BATCH_LEAVES`` whose matrices are one run and, all together, one
    block of at most ``span`` and fewer than ``_SMALL_SPAN`` doubles; any
    other leaf takes its calls alone.  The cap keeps a batch from growing
    the run's workspace past 32 KiB where the span is wider, as for
    :func:`explain` on more than 4,096 rows.
    """
    runs = kernel.runs(k)
    if len(runs) > 1:
        return 1
    size = len(runs[0][0]) << k
    return max(1, min(_BATCH_LEAVES, span // size, (_SMALL_SPAN - 1) // size))


def _walk(model, X, B, depth_cap, kernel, span, sink) -> float:
    """The one tree walk; returns the base value.

    Per leaf, builds its distribution f and adds its share of the base value.
    A leaf with features then waits in a batch of consecutive leaves with
    its k, up to :func:`_leaves_per_call` of them; a full batch, or one that
    the next leaf's k or the walk's end closes, goes through the leaf body
    (:func:`_prepare_and_emit`), so every leaf reaches ``sink.emit`` in walk
    order.  Trees go in model order and leaves depth-first; each tree's
    share is summed apart and added in model order.
    """
    base_total = 0.0
    batch, per_call = [], {}
    for tree in model.trees:
        base = 0.0
        for item in iter_leaf_patterns(tree, X, B, covers=B is None, cap=depth_cap):
            if B is not None:
                f = background_distribution(item.background, len(item.features))
            else:
                f = path_dependent_distribution(item.ratios)
            base += item.leaf.weight * f[-1]  # f[-1]: the share that reaches the leaf
            k = len(item.features)
            if k:
                if batch and len(batch[0].features) != k:
                    _prepare_and_emit(batch, kernel, span, sink)
                    batch = []
                batch.append(_Leaf(item.features, item.leaf.weight, item.patterns, f))
                if k not in per_call:
                    per_call[k] = _leaves_per_call(kernel, k, span)
                if len(batch) == per_call[k]:
                    _prepare_and_emit(batch, kernel, span, sink)
                    batch = []
            del f, item  # a leaf that does not wait is freed before the next one's f is built
        base_total += base
    if batch:
        _prepare_and_emit(batch, kernel, span, sink)
    return float(model.base_score + base_total)


class _Output:
    """The feature-major output leaves add into, for n consumer rows.

    (F, n), or for interactions (F, F, n) with an (F, n) Shapley buffer; one
    contiguous row add per product.
    """

    __slots__ = ("out", "phi")

    def __init__(self, n_features: int, n: int, interaction: bool):
        F = n_features
        self.out = np.zeros((F, F, n) if interaction else (F, n))
        self.phi = np.zeros((F, n)) if interaction else None

    def emit(self, features, pairs, P, r0, pc, w=None) -> None:
        """The emit step: gathers row r of P, the product of matrix r0 + r, at the
        consumer patterns pc, scales it by w if given, and adds it into the
        output: a pair's row into both of its entries, an interaction run's
        Shapley row into the buffer.  pc is ``intp``: numpy would cast any
        other index dtype on every row's gather."""
        acc = self.phi if pairs is None and self.phi is not None else self.out
        for r, g in enumerate(P, r0):
            t = g[pc]
            if w is not None:
                t *= w
            if pairs is None:
                acc[features[r]] += t
            else:
                j1, j2 = pairs[r]
                acc[features[j1], features[j2]] += t
                acc[features[j2], features[j1]] += t
            del t  # freed before the next row's gather allocates

    def values(self) -> np.ndarray:
        """The (n, F) or (n, F, F) transposed view of the output.

        An interaction row's diagonal entry is its Shapley value less its pair
        values.  Those are summed pair by pair: numpy's sum over the pair axis
        adds in another order when n is 1, and no row's bits may depend on how
        many rows there are.
        """
        out = self.out
        if self.phi is not None:
            pair_sums = out[:, 0].copy()
            for j in range(1, out.shape[1]):
                pair_sums += out[:, j]
            np.subtract(self.phi, pair_sums, out=self.phi)
            del pair_sums
            idx = np.arange(out.shape[0])
            out[idx, idx] = self.phi
        return np.moveaxis(out, -1, 0)


class _Products:
    """The sink :func:`prepare` gives the leaf body: every block, times the leaf
    weight, into one flat buffer in walk order.

    With no consumer rows, every block's rows are longer than n, so the leaf
    body always passes the weight.
    """

    __slots__ = ("flat", "pos")

    def __init__(self, size: int):
        self.flat = np.empty(size)
        self.pos = 0

    def emit(self, features, pairs, P, r0, pc, w) -> None:
        end = self.pos + P.size
        np.multiply(P, w, out=self.flat[self.pos:end].reshape(P.shape))
        self.pos = end


def _leaf_loop(request, model, X, B, kernel, *, depth_cap):
    """The one-pass run both entry points share; ``kernel`` supplies the matrices."""
    n = X.shape[0]
    span = _block_span(n, kernel.k_max)
    output = _Output(model.n_features, n, request.functional == INTERACTION)
    base_value = _walk(model, X, B, depth_cap, kernel, span, output)
    return AttributionResult(output.values(), base_value)


def _prepare_and_emit(leaves, kernel, span, sink):
    """The leaf body: the products of each leaf's matrices with its f, a block at a time.

    ``leaves`` are consecutive leaves with the same k.  A block multiplies
    the same matrices by every leaf's f in one kernel call, and each leaf's
    rows then go to ``sink.emit`` in walk order.  A leaf's products are
    scaled by its weight before they go to the sink, unless their rows are
    longer than n: then the weight goes with them, and the sink scales each
    gathered row instead, the same products from fewer multiplies.  The sink
    gets a leaf's consumer patterns as ``intp``, cast once per block.
    """
    # a function of the module, not a closure, so a run allocates no cells for it
    k = len(leaves[0].features)
    block = max(1, span >> k)
    scale_rows = (1 << k) > len(leaves[0].patterns)
    fs = [leaf.f for leaf in leaves]
    for level, pairs in kernel.runs(k):
        rows = len(level)
        for r0 in range(0, rows, block):
            G = kernel.apply(level, r0, min(r0 + block, rows), fs)
            for leaf, P in zip(leaves, G):
                if not scale_rows:
                    P *= leaf.weight
                pc = leaf.patterns.astype(np.intp)
                sink.emit(leaf.features, pairs, P, r0, pc, leaf.weight if scale_rows else None)
            del G, P, pc


def explain(
    request: ExplainRequest,
    *,
    threads: int = 1,
    memory_budget_bytes: int | None = None,
    depth_cap: int = DEFAULT_FEATURE_CAP,
    _store_all: bool = False,
) -> AttributionResult:
    """Exact attributions for every consumer row.

    ``values`` is (n, F), or (n, F, F) for interactions: the transposed view
    of the feature-major buffer the leaves add into, not a C-order copy.
    Deterministic for a fixed model and datasets: one serial loop takes the
    trees in model order and their leaves depth-first, and adds each leaf's
    products straight into the output, so repeated runs are bit-identical,
    and each row's values do not depend on the other rows.  ``threads`` is
    accepted and ignored (it must still be at least 1).  With
    ``memory_budget_bytes`` set, raises :class:`BudgetExceededError` before
    any work when :func:`projected_peak_bytes` exceeds it.  ``_store_all``
    stores every diagonal level, the layout ``bench`` times, with the same
    bits.
    """
    if threads < 1:
        raise ValidationError("threads must be >= 1")
    model, X, B = _validated(request)
    k_max = _max_unique_features(model, depth_cap)
    if memory_budget_bytes is not None:
        projected = projected_peak_bytes(request, _store_all=_store_all)
        if projected > memory_budget_bytes:
            raise BudgetExceededError(
                f"projected peak {projected} bytes exceeds budget {memory_budget_bytes}"
            )
    kernel = _diagonal_kernel(k_max, request.functional, depth_cap, _store_all)
    return _leaf_loop(request, model, X, B, kernel, depth_cap=depth_cap)


class PreparedExplainer:
    """Every leaf's prepared products, for explaining any consumer rows later.

    Made by :func:`prepare`.  ``base_value`` is the run's base value and
    ``nbytes`` the bytes of the products it holds
    (:func:`prepared_nbytes`).
    """

    def __init__(self, model, functional, runs, products, base_value, depth_cap):
        self._model = model
        self._interaction = functional == INTERACTION
        self._runs = runs  # k -> per run, (matrices, position pairs)
        self._products = products  # every leaf's runs in walk order, flat
        self._depth_cap = depth_cap
        self.base_value = base_value
        self.nbytes = products.nbytes

    def rows(self, consumers) -> AttributionResult:
        """Attributions for these consumer rows, bit-identical to :func:`explain`'s.

        Walks the trees on the consumer rows only and takes each leaf's emit
        step over its prepared products.  Each row's values do not depend on
        the other rows, so rows may come in chunks of any size.
        """
        model = self._model
        X = _checked_rows(consumers, model.n_features, "consumer dataset")
        output = _Output(model.n_features, X.shape[0], self._interaction)
        products = self._products
        pos = 0
        for tree in model.trees:
            for item in iter_leaf_patterns(tree, X, cap=self._depth_cap):
                k = len(item.features)
                pc = item.patterns.astype(np.intp)
                for rows, pairs in self._runs.get(k, ()):
                    end = pos + (rows << k)
                    P = products[pos:end].reshape(rows, 1 << k)
                    output.emit(item.features, pairs, P, 0, pc)
                    pos = end
        return AttributionResult(output.values(), self.base_value)


def prepare(request: ExplainRequest, *, depth_cap: int = DEFAULT_FEATURE_CAP) -> PreparedExplainer:
    """The consumer-free half of :func:`explain`: every leaf's prepare step, once.

    Walks the trees with the background rows (or the covers) alone and keeps
    each leaf's products with its value matrices, scaled by its weight, in
    walk order: :func:`prepared_nbytes` bytes.  ``request.consumers`` is not
    read.  The products and the base value are those :func:`explain` computes,
    with the same kernel adds and multiplies.
    """
    model, _, B = _validated(request, consumers=False)
    k_max = _max_unique_features(model, depth_cap)
    kernel = _diagonal_kernel(k_max, request.functional, depth_cap)
    span = _block_span(_SMALL_SPAN, k_max)
    sink = _Products(prepared_nbytes(model, request.functional) // 8)
    no_rows = np.empty((0, model.n_features))
    base_value = _walk(model, no_rows, B, depth_cap, kernel, span, sink)
    pairs = {k: list(combinations(range(k), 2)) for k in range(1, k_max + 1)}
    if request.functional == INTERACTION:
        runs = {k: _runs(len(p), k, p) for k, p in pairs.items()}
    else:
        runs = {k: _runs(k) for k in pairs}
    return PreparedExplainer(model, request.functional, runs, sink.flat, base_value, depth_cap)
