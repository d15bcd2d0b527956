import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import treeshap_hd
import treeshap_hd.engine as engine_module
import treeshap_hd.fastmult as fastmult_module
import treeshap_hd.oracles as oracles_module
from treeshap_hd.cli import RunConfig, _bench_request
from treeshap_hd.cubes import BANZHAF, INTERACTION, SHAPLEY, build_diagonal_cache
from treeshap_hd.engine import (
    BACKGROUND,
    PATH_DEPENDENT,
    ExplainRequest,
    explain,
    prepare,
    prepared_nbytes,
    projected_peak_bytes,
)
from treeshap_hd.errors import (
    BudgetExceededError,
    DepthCapError,
    EmptyBackgroundError,
    NaNInputError,
    TooManyFeaturesError,
    TreeShapHDError,
)
from treeshap_hd.fastmult import count_operations
from treeshap_hd.model import DecisionTree, EnsembleModel, Leaf, SplitNode
from treeshap_hd.patterns import iter_leaf_patterns
from treeshap_hd.oracles import (
    brute_force_background,
    brute_force_path_dependent,
    explain_dense,
    projected_dense_peak_bytes,
)
from treeshap_hd.synthetic import deep_path_model, random_dataset, random_model

ALL_FUNCTIONALS = (SHAPLEY, BANZHAF, INTERACTION)


def request_for(model, seed, mode=BACKGROUND, functional=SHAPLEY, n=4, m=8):
    rng = np.random.default_rng(seed)
    X = random_dataset(rng, n, model.n_features)
    B = random_dataset(rng, m, model.n_features) if mode == BACKGROUND else None
    return ExplainRequest(model, X, B, mode, functional)


def test_stump_background_attribution(stump_model):
    request = ExplainRequest(
        stump_model, np.array([[0.2, 0.7]]), np.array([[0.9, 0.7]]), BACKGROUND, SHAPLEY
    )
    result = explain(request)
    np.testing.assert_allclose(result.values, [[1.0, 0.0]], atol=1e-12)
    assert result.base_value == pytest.approx(0.0)


def test_identical_background_gives_zero_attributions():
    model = random_model(3, max_depth=5, n_features=4)
    row = random_dataset(np.random.default_rng(0), 1, 4)
    request = ExplainRequest(model, row, row.copy(), BACKGROUND, SHAPLEY)
    result = explain(request)
    np.testing.assert_allclose(result.values, 0.0, atol=1e-12)
    assert result.base_value == pytest.approx(float(model.predict(row)[0]))


def test_repeated_feature_model_matches_bruteforce():
    # depth-3 tree with a repeated feature, 5 features, m=8, n=4
    inner = SplitNode(0, 0.3, Leaf(1.0, 20.0), Leaf(-2.0, 30.0), 50.0)
    mid = SplitNode(2, 0.6, inner, Leaf(0.5, 25.0), 75.0)
    root = SplitNode(0, 0.7, mid, Leaf(2.0, 25.0), 100.0)
    model = EnsembleModel([DecisionTree(root)], 5, 0.1)
    rng = np.random.default_rng(42)
    X = random_dataset(rng, 4, 5)
    B = random_dataset(rng, 8, 5)
    result = explain(ExplainRequest(model, X, B, BACKGROUND, SHAPLEY))
    for r in range(4):
        want, base = brute_force_background(model, X[r], B, SHAPLEY)
        np.testing.assert_allclose(result.values[r], want, atol=1e-9)
        assert result.base_value == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("functional", ALL_FUNCTIONALS)
def test_background_matches_bruteforce_on_random_models(functional):
    for seed in range(6):
        model = random_model(seed, max_depth=4, n_features=5, n_trees=2)
        request = request_for(model, seed, BACKGROUND, functional)
        result = explain(request)
        for r in range(len(request.consumers)):
            want, base = brute_force_background(
                model, request.consumers[r], request.background, functional
            )
            np.testing.assert_allclose(result.values[r], want, atol=1e-9)
            assert result.base_value == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("functional", ALL_FUNCTIONALS)
def test_path_dependent_matches_bruteforce_on_random_models(functional):
    for seed in range(6):
        model = random_model(seed + 100, max_depth=4, n_features=5, n_trees=2)
        request = request_for(model, seed, PATH_DEPENDENT, functional)
        result = explain(request)
        for r in range(len(request.consumers)):
            want, base = brute_force_path_dependent(model, request.consumers[r], functional)
            np.testing.assert_allclose(result.values[r], want, atol=1e-9)
            assert result.base_value == pytest.approx(base, abs=1e-9)


def test_path_dependent_base_value_is_cover_expectation(stump_model):
    request = ExplainRequest(stump_model, np.array([[0.2, 0.0]]), None, PATH_DEPENDENT, SHAPLEY)
    result = explain(request)
    assert result.base_value == pytest.approx(0.6)  # covers 10 -> 6/4, weights 1/0
    np.testing.assert_allclose(result.values, [[0.4, 0.0]], atol=1e-12)


@pytest.mark.parametrize("mode", (BACKGROUND, PATH_DEPENDENT))
@pytest.mark.parametrize("functional", ALL_FUNCTIONALS)
def test_dense_baseline_agrees(mode, functional):
    for seed in (0, 1, 2):
        model = random_model(seed + 20, max_depth=6, n_features=6, n_trees=2)
        request = request_for(model, seed, mode, functional)
        fast = explain(request)
        dense = explain_dense(request)
        np.testing.assert_allclose(fast.values, dense.values, atol=1e-9)
        assert fast.base_value == pytest.approx(dense.base_value, abs=1e-12)


def test_dense_baseline_nonzero_counts_are_three_to_the_k():
    # every (consumer, background) pattern pair of a cube is a stored entry
    for k in (1, 2):
        mats, _, _ = oracles_module._sparse_tables(k, SHAPLEY)
        assert [m.nnz for m in mats] == [3**k] * k


def test_dense_baseline_depth_cap():
    model = random_model(5, max_depth=6, n_features=8)
    request = request_for(model, 0, BACKGROUND, SHAPLEY)
    with pytest.raises(DepthCapError):
        explain_dense(request, depth_cap=1)


def test_local_accuracy_background():
    for seed in range(8):
        model = random_model(seed + 40, max_depth=6, n_features=6, n_trees=3, base_score=0.5)
        request = request_for(model, seed, BACKGROUND, SHAPLEY, n=6, m=12)
        result = explain(request)
        predictions = model.predict(request.consumers)
        totals = result.base_value + result.values.sum(axis=1)
        np.testing.assert_allclose(totals, predictions, atol=1e-8)


def test_local_accuracy_path_dependent():
    for seed in range(8):
        model = random_model(seed + 60, max_depth=6, n_features=6, n_trees=3, base_score=-0.25)
        request = request_for(model, seed, PATH_DEPENDENT, SHAPLEY, n=6)
        result = explain(request)
        predictions = model.predict(request.consumers)
        totals = result.base_value + result.values.sum(axis=1)
        np.testing.assert_allclose(totals, predictions, atol=1e-8)


def test_interaction_rows_sum_to_shapley():
    for seed in range(4):
        model = random_model(seed + 80, max_depth=5, n_features=5, n_trees=2)
        shap_request = request_for(model, seed, BACKGROUND, SHAPLEY)
        pair_request = request_for(model, seed, BACKGROUND, INTERACTION)
        phi = explain(shap_request).values
        tensor = explain(pair_request).values
        np.testing.assert_allclose(tensor.sum(axis=2), phi, atol=1e-8)


def test_interaction_symmetry_is_exact():
    model = random_model(9, max_depth=5, n_features=5, n_trees=2)
    request = request_for(model, 1, BACKGROUND, INTERACTION)
    tensor = explain(request).values
    assert np.array_equal(tensor, np.swapaxes(tensor, 1, 2))


def test_additivity_across_trees():
    model = random_model(17, max_depth=5, n_features=5, n_trees=4)
    request = request_for(model, 2, BACKGROUND, SHAPLEY)
    whole = explain(request)
    parts = np.zeros_like(whole.values)
    for tree in model.trees:
        single = EnsembleModel([tree], model.n_features, 0.0)
        sub = ExplainRequest(single, request.consumers, request.background, BACKGROUND, SHAPLEY)
        parts += explain(sub).values
    np.testing.assert_allclose(whole.values, parts, atol=1e-10)


def test_determinism_and_thread_count_invariance():
    # threads is accepted and ignored: every count gives the same bits
    model = random_model(23, max_depth=6, n_features=6, n_trees=4)
    for mode in (BACKGROUND, PATH_DEPENDENT):
        for functional in ALL_FUNCTIONALS:
            request = request_for(model, 3, mode, functional, n=8, m=16)
            first = explain(request, threads=1)
            for threads in (1, 2, 3):
                again = explain(request, threads=threads)
                assert np.array_equal(first.values, again.values), (mode, functional, threads)
                assert first.base_value == again.base_value


@pytest.mark.parametrize("functional", ALL_FUNCTIONALS)
def test_values_are_a_view_of_the_feature_major_output(functional):
    model = random_model(5, max_depth=5, n_features=6, n_trees=3)
    values = explain(request_for(model, 0, BACKGROUND, functional, n=5)).values
    assert values.shape == ((5, 6, 6) if functional == INTERACTION else (5, 6))
    # rows are the last, contiguous axis of the buffer under the view
    assert np.moveaxis(values, 0, -1).flags.c_contiguous


@pytest.mark.parametrize("mode", (BACKGROUND, PATH_DEPENDENT))
@pytest.mark.parametrize("functional", ALL_FUNCTIONALS)
def test_values_do_not_depend_on_block_size(functional, mode):
    # a leaf's rows are multiplied in blocks of max(1, span >> k), span =
    # max(n, 2^8, 8 2^8) here: with 4 rows or 1 a depth-8 leaf's 28 pair rows
    # take blocks of 8 and depth-7 leaves share calls two at a time, with
    # 4500 rows the pairs take 17 and 11 a call and three depth-7 leaves share one
    model = random_model(7, max_depth=8, n_features=20, n_trees=3)
    rng = np.random.default_rng(7)
    X = random_dataset(rng, 4500, 20)
    B = random_dataset(rng, 50, 20) if mode == BACKGROUND else None
    assert max(t.max_unique_features for t in model.trees) == 8
    many = explain(ExplainRequest(model, X, B, mode, functional))
    # one row's interaction diagonal is summed in the order many rows' are
    for rows in (4, 1):
        few = explain(ExplainRequest(model, X[:rows], B, mode, functional))
        assert np.array_equal(few.values, many.values[:rows])
        assert few.base_value == many.base_value


@pytest.mark.parametrize("mode", (BACKGROUND, PATH_DEPENDENT))
@pytest.mark.parametrize("functional", ALL_FUNCTIONALS)
def test_prepared_rows_match_explain(functional, mode):
    # the same bits and base value from rows explained in uneven chunks,
    # one of a single row, and the same kernel adds and multiplies
    model = random_model(11, max_depth=7, n_features=9, n_trees=4, base_score=0.2)
    request = request_for(model, 11, mode, functional, n=40, m=30)
    with count_operations() as once:
        want = explain(request)
    with count_operations() as prepared_ops:
        prepared = prepare(replace(request, consumers=None))
    parts = [prepared.rows(request.consumers[a:b]) for a, b in ((0, 13), (13, 14), (14, 40))]
    assert np.array_equal(np.concatenate([p.values for p in parts]), want.values)
    assert all(p.base_value == want.base_value for p in parts)
    assert prepared.base_value == want.base_value
    assert (prepared_ops.adds, prepared_ops.muls) == (once.adds, once.muls) != (0, 0)
    assert prepared.nbytes == prepared_nbytes(model, functional)


def _recorded_calls(monkeypatch):
    # (leaves, rows, 2^k) of every kernel call the engine makes
    calls = []
    real = engine_module.diagonal_matvec

    def recorded(d, fs, *rest):
        calls.append((len(fs),) + d.shape)
        return real(d, fs, *rest)

    monkeypatch.setattr(engine_module, "diagonal_matvec", recorded)
    return calls


def test_blocks_fill_the_projected_span(monkeypatch):
    # a block holds up to max(n, 2^K, min(K 2^K, 2^12)) entries, the span
    # projected_peak_bytes counts, so the shallow leaves of a deep model take
    # their rows at once; shapes are (leaves, rows, 2^k), and a spine has one
    # leaf per k but the last, whose two leaves are too large to share a call
    model = deep_path_model(10, 0)
    X = random_dataset(np.random.default_rng(3), 4, 10)
    shapes = _recorded_calls(monkeypatch)
    explain(ExplainRequest(model, X, None, PATH_DEPENDENT, SHAPLEY))
    # leaves k = 1..8 in one call each, k = 9 in blocks of 8 rows and 1, and
    # the two k = 10 leaves in blocks of 4, 4 and 2
    want = Counter({(1, k, 1 << k): 1 for k in range(1, 9)})
    want.update({(1, 8, 512): 1, (1, 1, 512): 1, (1, 4, 1024): 4, (1, 2, 1024): 2})
    assert Counter(shapes) == want


def _workspace_cases():
    # leaves whose row lengths interleave, and row lengths with blocks of two
    # shapes: in the depth-8 ensemble (span 2048) batches of 1, 2 and 3 leaves
    # of one k, in interaction runs a leaf's Shapley rows and its pair rows
    spine_rows = random_dataset(np.random.default_rng(3), 4, 10)
    ensemble = random_model(4, max_depth=8, n_features=12, n_trees=6)
    rng = np.random.default_rng(4)
    X, B = random_dataset(rng, 50, 12), random_dataset(rng, 40, 12)
    return {
        "spine-10": (deep_path_model(10, 0), spine_rows, None, PATH_DEPENDENT),
        "depth-8-ensemble": (ensemble, X, B, BACKGROUND),
    }


@pytest.mark.parametrize("functional", [SHAPLEY, BANZHAF, INTERACTION])
@pytest.mark.parametrize("case", ["spine-10", "depth-8-ensemble"])
def test_workspace_runs_match_plain_kernel_calls(monkeypatch, case, functional):
    # explain, _store_all and prepare + rows, against the same runs with every
    # block in a new workspace or a new array of the kernel
    model, X, B, mode = _workspace_cases()[case]
    request = ExplainRequest(model, X, B, mode, functional)

    def runs():
        prepared = prepare(replace(request, consumers=None))
        return [explain(request), explain(request, _store_all=True), prepared.rows(X), prepared.rows(X[1:3])]

    got = runs()
    shapes = Counter()
    real = fastmult_module.diagonal_matvec

    def plain(d, fs, *rest):
        shapes[(len(fs),) + d.shape] += 1
        return real(d, fs)

    monkeypatch.setattr(engine_module, "diagonal_matvec", plain)
    want = runs()
    for g, w in zip(got, want):
        assert g.values.tobytes() == w.values.tobytes() and g.base_value == w.base_value
    # one row length takes blocks of two shapes in the workspace
    small = [s for s in shapes if np.prod(s) <= fastmult_module._CHUNK]
    assert len({s[-1] for s in small}) < len(small)


def _law_cases():
    rng = np.random.default_rng(8)
    ensemble = random_model(8, max_depth=8, n_features=14, n_trees=5)
    X, B = random_dataset(rng, 6, 14), random_dataset(rng, 30, 14)
    spine_rows = random_dataset(rng, 3, 10)
    return {
        "depth-8-ensemble": (ensemble, X, B, BACKGROUND),
        "spine-10": (deep_path_model(10, 0), spine_rows, None, PATH_DEPENDENT),
    }


@pytest.mark.parametrize("functional", ALL_FUNCTIONALS)
@pytest.mark.parametrize("case", ["depth-8-ensemble", "spine-10"])
def test_whole_runs_obey_the_op_count_law(case, functional):
    # a run's kernel adds and multiplies are those of one 2^k multiply per
    # matrix of every leaf, however its blocks are cut and its leaves batched:
    # adds = sum of leaves_by_k[k] m(k) k 2^k, muls = sum of leaves_by_k[k] m(k) 2^k,
    # with m(k) = k matrices a leaf, or k + k(k-1)/2 for interactions
    model, X, B, mode = _law_cases()[case]
    assert max(t.max_unique_features for t in model.trees) in (8, 10)
    request = ExplainRequest(model, X, B, mode, functional)
    leaves = Counter()
    for tree in model.trees:
        leaves.update(tree.leaves_by_k)
    m = {k: k + k * (k - 1) // 2 if functional == INTERACTION else k for k in leaves}
    law = (
        sum(c * m[k] * k * 2**k for k, c in leaves.items()),
        sum(c * m[k] * 2**k for k, c in leaves.items()),
    )
    for run in (
        lambda: explain(request),
        lambda: explain(request, _store_all=True),
        lambda: prepare(replace(request, consumers=None)),
    ):
        with count_operations() as ops:
            run()
        assert (ops.adds, ops.muls) == law


@pytest.mark.parametrize("mode", (BACKGROUND, PATH_DEPENDENT))
@pytest.mark.parametrize("functional", (SHAPLEY, BANZHAF))
def test_batched_leaves_match_one_leaf_per_call(monkeypatch, functional, mode):
    # consecutive leaves with one k share a kernel call; each leaf's rows are
    # filled from its own f and reach the output (or prepare's products) in
    # walk order, so every run has the bits, base value, adds and multiplies
    # of the same run with one leaf a call, in fewer calls
    model = random_model(12, max_depth=7, n_features=10, n_trees=4, base_score=0.1)
    request = request_for(model, 12, mode, functional, n=40, m=30)

    def runs():
        with count_operations() as ops:
            prepared = prepare(replace(request, consumers=None))
            whole = [explain(request), explain(request, _store_all=True)]
        parts = [prepared.rows(request.consumers[a:b]) for a, b in ((0, 13), (13, 14), (14, 40))]
        values = [r.values.tobytes() for r in whole] + [b"".join(p.values.tobytes() for p in parts)]
        bases = [r.base_value for r in whole + parts] + [prepared.base_value]
        return values, bases, (ops.adds, ops.muls), prepared._products.tobytes()

    calls = _recorded_calls(monkeypatch)
    got = runs()
    batched = list(calls)
    calls.clear()
    cap = engine_module._BATCH_LEAVES
    monkeypatch.setattr(engine_module, "_BATCH_LEAVES", 1)
    want = runs()
    assert got == want
    assert max(c[0] for c in batched) == cap > 1
    assert {c[0] for c in calls} == {1} and len(batched) < len(calls)
    # a batch holds leaves of one k: its leaves multiply the same rows
    assert sum(c[0] * c[1] for c in batched) == sum(c[1] for c in calls)


def test_batches_close_at_a_change_of_k(monkeypatch):
    # leaves wait for a shared call only behind leaves with their own k
    model = random_model(12, max_depth=7, n_features=10, n_trees=4)
    request = request_for(model, 12, BACKGROUND, SHAPLEY, n=40, m=30)
    walk = [
        len(item.features)
        for tree in model.trees
        for item in iter_leaf_patterns(tree, request.consumers)
        if item.features
    ]
    calls = _recorded_calls(monkeypatch)
    explain(request)
    # every leaf takes its k rows in one call here (span 2^12 >= L k 2^k)
    assert [c[1:] for c in calls for _ in range(c[0])] == [(k, 1 << k) for k in walk]


def test_background_required():
    model = random_model(1, max_depth=3, n_features=3)
    X = random_dataset(np.random.default_rng(0), 2, 3)
    with pytest.raises(EmptyBackgroundError):
        explain(ExplainRequest(model, X, None, BACKGROUND, SHAPLEY))
    with pytest.raises(EmptyBackgroundError):
        explain(ExplainRequest(model, X, np.zeros((0, 3)), BACKGROUND, SHAPLEY))


def test_nan_consumers_rejected():
    model = random_model(1, max_depth=3, n_features=3)
    X = np.array([[0.1, float("nan"), 0.2]])
    B = random_dataset(np.random.default_rng(0), 2, 3)
    with pytest.raises(NaNInputError):
        explain(ExplainRequest(model, X, B, BACKGROUND, SHAPLEY))


def test_memory_budget_enforced():
    model = random_model(2, max_depth=6, n_features=6)
    request = request_for(model, 0)
    with pytest.raises(BudgetExceededError):
        explain(request, memory_budget_bytes=64)


def test_depth_cap_propagates():
    model = random_model(2, max_depth=6, n_features=6)
    request = request_for(model, 0)
    k_max = max(t.max_unique_features for t in model.trees)
    if k_max > 1:
        with pytest.raises(DepthCapError):
            explain(request, depth_cap=1)


def test_cache_test_hook_corrupts_results(monkeypatch):
    # explain reads its diagonals from engine.build_diagonal_cache at call time
    model = random_model(4, max_depth=5, n_features=5)
    request = request_for(model, 0)
    clean = explain(request)

    def corrupted(*args, **kwargs):
        cache = build_diagonal_cache(*args, **kwargs)
        for level in cache.levels.values():
            level += 0.5
        return cache

    monkeypatch.setattr(engine_module, "build_diagonal_cache", corrupted)
    dirty = explain(request)
    assert np.abs(dirty.values - clean.values).max() > 1e-6


def _bad_input_calls():
    model = random_model(1, max_depth=3, n_features=3)
    X = random_dataset(np.random.default_rng(0), 2, 3)
    return {
        "mode": lambda: explain(ExplainRequest(model, X, X, "marginal", SHAPLEY)),
        "functional": lambda: explain(ExplainRequest(model, X, X, BACKGROUND, "owen")),
        "threads": lambda: explain(ExplainRequest(model, X, X, BACKGROUND, SHAPLEY), threads=0),
        "cache kind": lambda: build_diagonal_cache(3, "owen"),
        "1-D rows": lambda: explain(ExplainRequest(model, X[0], X, BACKGROUND, SHAPLEY)),
    }


@pytest.mark.parametrize("case", sorted(_bad_input_calls()))
def test_bad_input_raises_package_error(case):
    with pytest.raises(TreeShapHDError):
        _bad_input_calls()[case]()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", (BACKGROUND, PATH_DEPENDENT))
@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("n_trees", (1, 20))
@pytest.mark.parametrize("functional", (SHAPLEY, INTERACTION))
def test_projected_peak_bounds_measured_peak(functional, n_trees, threads, mode):
    model = random_model(0, max_depth=6, n_features=16, n_trees=n_trees)
    request = request_for(model, 0, mode, functional, n=400, m=50)
    peak = _traced_peak(lambda: explain(request, threads=threads))
    projected = projected_peak_bytes(request)
    assert peak <= projected <= 4 * peak, (peak, projected)


# the measured-peak case above as a process's first explain, the call every
# CLI run makes: prints its tracemalloc peak and its projected peak
_FIRST_CALL = """
import sys, tracemalloc
import numpy as np
from treeshap_hd.engine import ExplainRequest, explain, projected_peak_bytes
from treeshap_hd.synthetic import random_dataset, random_model

functional, mode, n_trees = sys.argv[1], sys.argv[2], int(sys.argv[3])
model = random_model(0, max_depth=6, n_features=16, n_trees=n_trees)
rng = np.random.default_rng(0)
X = random_dataset(rng, 400, 16)
B = random_dataset(rng, 50, 16) if mode == "background" else None
request = ExplainRequest(model, X, B, mode, functional)
tracemalloc.start()
explain(request)
print(tracemalloc.get_traced_memory()[1], projected_peak_bytes(request))
"""


@pytest.mark.parametrize("mode", (BACKGROUND, PATH_DEPENDENT))
@pytest.mark.parametrize("functional", (SHAPLEY, INTERACTION))
def test_projected_peak_bounds_a_first_call(functional, mode):
    # in a fresh interpreter, so the bound holds whatever ran before in this
    # process: a first call pays the one-time allocations later calls skip
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(treeshap_hd.__file__)))
    argv = [sys.executable, "-c", _FIRST_CALL, functional, mode, "1"]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    peak, projected = map(int, run.stdout.split())
    assert peak <= projected <= 4 * peak, (peak, projected)


def test_projected_peak_bounds_ensemble_peak():
    # the real-ensemble benchmark's model and row counts: leaves wait for
    # shared kernel calls, in blocks of up to 2^11 doubles
    model = random_model(0, max_depth=8, n_features=20, n_trees=100)
    request = request_for(model, 3101, BACKGROUND, SHAPLEY, n=1000, m=200)
    explain(request)
    peak = _traced_peak(lambda: explain(request))
    projected = projected_peak_bytes(request)
    assert peak <= projected <= 4 * peak, (peak, projected)


@pytest.mark.parametrize("dense, depth", ((False, 12), (False, 17), (True, 8)))
def test_projected_peak_bounds_bench_peak(dense, depth):
    # the figure bench records; from k = 17 on the kernel runs in chunked order
    request = _bench_request(RunConfig(seed=3), depth)
    run = (lambda: explain_dense(request)) if dense else (lambda: explain(request))
    run()  # a first dense call imports scipy, which bench imports before any run
    peak = _traced_peak(run)
    assert peak <= (projected_dense_peak_bytes if dense else projected_peak_bytes)(request), peak


@pytest.mark.parametrize("depth, functional", ((19, SHAPLEY), (17, INTERACTION)))
def test_projected_peak_bounds_generated_levels(depth, functional):
    # past k = 16 the projection counts the stored levels and the deepest
    # generated level's popcount tables, not the whole cache
    request = _bench_request(RunConfig(seed=3, functional=functional), depth)
    peak = _traced_peak(lambda: explain(request))
    projected = projected_peak_bytes(request)
    assert peak <= projected <= 4 * peak, (peak, projected)
    assert projected < projected_peak_bytes(request, _store_all=True)


@pytest.mark.parametrize("functional", ALL_FUNCTIONALS)
def test_generated_levels_match_the_stored_layout(functional):
    # k = 17 rows are generated chunk by chunk; storing every level gives
    # the same values, base value, adds and multiplies
    model = deep_path_model(17, 0)
    X = random_dataset(np.random.default_rng(17), 3, 17)
    request = ExplainRequest(model, X, None, PATH_DEPENDENT, functional)
    with count_operations() as ops:
        got = explain(request)
    with count_operations() as stored_ops:
        want = explain(request, _store_all=True)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.base_value == want.base_value
    assert (ops.adds, ops.muls) == (stored_ops.adds, stored_ops.muls)


def test_budget_counts_the_output():
    # the output and its Shapley buffer, 2000 x 16 x 17 doubles (4.35 MB),
    # exceed 4 MB; the cache and working vectors are far smaller
    model = random_model(0, max_depth=6, n_features=16, n_trees=20)
    request = request_for(model, 0, PATH_DEPENDENT, INTERACTION, n=2000)
    with pytest.raises(BudgetExceededError):
        explain(request, memory_budget_bytes=4_000_000)
    peak = _traced_peak(lambda: explain(request))
    assert peak <= projected_peak_bytes(request), peak


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("functional", (SHAPLEY, INTERACTION))
def test_trees_add_into_one_output(functional, threads):
    # every leaf adds straight into the output, so twenty trees peak within
    # one output's bytes of their first tree alone, for any thread count
    model = random_model(0, max_depth=6, n_features=16, n_trees=20)
    request = request_for(model, 0, PATH_DEPENDENT, functional, n=2000)
    first = EnsembleModel(model.trees[:1], model.n_features, model.base_score)
    alone = ExplainRequest(first, request.consumers, None, PATH_DEPENDENT, functional)
    output_bytes = 8 * 2000 * 16 * (16 if functional == INTERACTION else 1)
    growth = _traced_peak(lambda: explain(request, threads=threads)) - _traced_peak(
        lambda: explain(alone, threads=threads)
    )
    assert growth < output_bytes, (growth, output_bytes)


def _deep_spine_cases():
    # path-dependent cases keep their "k-functional" ids; background ones add the mode
    for k in (17, 18, 19):
        for functional in (BANZHAF, SHAPLEY):
            yield pytest.param(k, functional, PATH_DEPENDENT, id=f"{k}-{functional}")
            yield pytest.param(k, functional, BACKGROUND, id=f"{k}-{functional}-{BACKGROUND}")
    for functional in (BANZHAF, SHAPLEY):
        yield pytest.param(20, functional, PATH_DEPENDENT, id=f"20-{functional}")
    # five passes with bit >= 2^16 per transform
    yield pytest.param(21, SHAPLEY, PATH_DEPENDENT, id=f"21-{SHAPLEY}")


@pytest.mark.parametrize("k, functional, mode", _deep_spine_cases())
def test_deep_spine_matches_bruteforce(k, functional, mode):
    # k >= 17 runs the zeta passes in chunked order; at k = 19 the leaves'
    # 2^19-entry rows are longer than the rows explained, so each gathered
    # row is scaled by the leaf weight instead of the block
    model = deep_path_model(k, 0)
    rng = np.random.default_rng(k)
    # at k = 21 one row's path-dependent brute force takes about 1 s and 271 MB
    n_rows = 1 if k > 20 else 2
    X = random_dataset(rng, n_rows, k)
    B = random_dataset(rng, 2, k) if mode == BACKGROUND else None
    result = explain(ExplainRequest(model, X, B, mode, functional))
    for r in range(n_rows):
        if B is None:
            want, base = brute_force_path_dependent(model, X[r], functional, max_active=k)
        else:
            want, base = brute_force_background(model, X[r], B, functional, max_active=k)
        np.testing.assert_allclose(result.values[r], want, rtol=0, atol=1e-8)
        assert result.base_value == pytest.approx(base, abs=1e-8)


@pytest.mark.parametrize("functional", (SHAPLEY, BANZHAF))
def test_deep_ensemble_matches_bruteforce(functional):
    # three depth-16 trees: leaves up to k = 15, whose blocks hold several
    # rows per kernel chunk, over 18 active features
    model = random_model(0, max_depth=16, n_features=18, n_trees=3)
    rng = np.random.default_rng(16)
    X = random_dataset(rng, 1, 18)
    B = random_dataset(rng, 3, 18)
    result = explain(ExplainRequest(model, X, B, BACKGROUND, functional))
    want, base = brute_force_background(model, X[0], B, functional, max_active=18)
    np.testing.assert_allclose(result.values[0], want, rtol=0, atol=1e-8)
    assert result.base_value == pytest.approx(base, abs=1e-8)


def test_bruteforce_single_leaf_model():
    model = EnsembleModel([DecisionTree(Leaf(4.0, 10.0))], 3, 0.0)
    values, base = brute_force_background(model, [0.1, 0.2, 0.3], [[0.5, 0.5, 0.5]])
    np.testing.assert_array_equal(values, np.zeros(3))
    assert base == 4.0


def test_bruteforce_ignores_unused_features(stump_model):
    values, _ = brute_force_background(stump_model, [0.2, 0.9], [[0.9, 0.1]])
    assert values[1] == 0.0  # feature 1 never splits


def test_bruteforce_feature_cap(two_feature_tree):
    model = EnsembleModel([two_feature_tree], 2, 0.0)  # two active features
    with pytest.raises(TooManyFeaturesError):
        brute_force_background(model, [0.1, 0.1], [[0.2, 0.2]], max_active=1)


def test_path_dependent_full_coalition_is_prediction():
    # v(all features) follows the consumer everywhere: the game's top value
    # must be the model prediction, which local accuracy then pins down
    model = random_model(31, max_depth=5, n_features=4, n_trees=2, base_score=1.5)
    x = random_dataset(np.random.default_rng(8), 1, 4)[0]
    values, base = brute_force_path_dependent(model, x, SHAPLEY)
    assert base + values.sum() == pytest.approx(float(model.predict([x])[0]), abs=1e-10)
