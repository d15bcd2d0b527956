"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import math
import time
from itertools import combinations, product

import numpy as np
import pytest

from treeshap_hd.cli import RunConfig, cmd_bench
from treeshap_hd.cubes import (
    BANZHAF,
    INTERACTION,
    SHAPLEY,
    Cube,
    cube_banzhaf,
    cube_interaction,
    cube_shapley,
)
from treeshap_hd.engine import BACKGROUND, PATH_DEPENDENT, ExplainRequest, explain
from treeshap_hd.fastmult import count_operations, diagonal_matvec
from treeshap_hd.oracles import (
    brute_force_background,
    brute_force_path_dependent,
    dense_from_diagonal,
    explain_dense,
    map_patterns_to_cubes,
    matvec_recursive,
)
from treeshap_hd.patterns import PatternMemoryStats, iter_leaf_patterns
from treeshap_hd.synthetic import complete_tree_model, random_dataset, random_model

from oracle_utils import shapley_from_game, cube_game

ALL_FUNCTIONALS = (SHAPLEY, BANZHAF, INTERACTION)


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} - {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {description} {detail}"


def _sweep_case(seed):
    """One seeded random model + datasets inside the sweep envelope
    (depth <= 8, <= 12 active features, repeated features, m <= 32, n <= 16)."""
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(2, 9))
    n_features = int(rng.integers(3, 13))
    n_trees = int(rng.integers(1, 4))
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 33))
    model = random_model(seed, max_depth=depth, n_features=n_features, n_trees=n_trees,
                         base_score=float(rng.normal()) * 0.1)
    X = random_dataset(rng, n, n_features)
    B = random_dataset(rng, m, n_features)
    return model, X, B


def test_criterion_01_background_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        model, X, B = _sweep_case(seed)
        for functional in ALL_FUNCTIONALS:
            result = explain(ExplainRequest(model, X, B, BACKGROUND, functional))
            for r in range(len(X)):
                want, base = brute_force_background(model, X[r], B, functional)
                worst = max(worst, float(np.max(np.abs(result.values[r] - want))))
                worst = max(worst, abs(result.base_value - base))
    elapsed = time.perf_counter() - start
    _report(1, "background SHAP matches brute force over 200 random models",
            worst <= 1e-8 and elapsed < 120.0,
            f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_path_dependent_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(200, 400):
        model, X, _ = _sweep_case(seed)
        for functional in ALL_FUNCTIONALS:
            result = explain(ExplainRequest(model, X, None, PATH_DEPENDENT, functional))
            for r in range(len(X)):
                want, base = brute_force_path_dependent(model, X[r], functional)
                worst = max(worst, float(np.max(np.abs(result.values[r] - want))))
                worst = max(worst, abs(result.base_value - base))
    elapsed = time.perf_counter() - start
    _report(2, "path-dependent SHAP matches brute force over 200 random models",
            worst <= 1e-8 and elapsed < 120.0,
            f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_dense_baseline_regression():
    worst = 0.0
    for i, seed in enumerate(range(400, 450)):
        model, X, B = _sweep_case(seed)
        functional = ALL_FUNCTIONALS[i % 3]
        mode = BACKGROUND if i % 2 == 0 else PATH_DEPENDENT
        request = ExplainRequest(model, X, B if mode == BACKGROUND else None, mode, functional)
        fast = explain(request)
        dense = explain_dense(request)
        worst = max(worst, float(np.max(np.abs(fast.values - dense.values))))
        worst = max(worst, abs(fast.base_value - dense.base_value))
    _report(3, "fast path equals the dense 3^k baseline on 50 models",
            worst <= 1e-9, f"max dev {worst:.2e}")


def test_criterion_04_kernel_against_dense_reconstruction():
    rng = np.random.default_rng(77)
    worst_rel = 0.0
    worst_rec = 0.0
    for k in range(1, 11):
        n = 1 << k
        for case in range(1000):
            diag = rng.normal(size=n)
            f = rng.normal(size=n)
            M = dense_from_diagonal(diag)
            want = M @ f
            got = diagonal_matvec(diag, f)
            scale = max(np.abs(diag).max() * np.abs(f).sum(), 1e-300)
            worst_rel = max(worst_rel, float(np.abs(got - want).max() / scale))
            if case < 100:
                rec = matvec_recursive(M, f)
                worst_rec = max(worst_rec, float(np.abs(rec - got).max()))
    _report(4, "fast kernel matches dense reconstruction (1000 cases per k in 1..10)",
            worst_rel <= 1e-10 and worst_rec <= 1e-12,
            f"rel {worst_rel:.2e}, recursive {worst_rec:.2e}")


def test_criterion_05_operation_count_law():
    rng = np.random.default_rng(5)
    ok = True
    for k in range(1, 21):
        n = 1 << k
        with count_operations() as ops:
            diagonal_matvec(rng.normal(size=n), rng.normal(size=n))
        if ops.adds != k * n or ops.muls != n:
            ok = False
            break
    _report(5, "every multiplication costs exactly k*2^k adds + 2^k muls (k <= 20)", ok)


def _check_quadrants(M, tol=0.0):
    """Exhaustively verify zero/sum quadrant identities at all levels/prefixes."""
    n = M.shape[0]
    if n == 1:
        return True
    h = n // 2
    if np.abs(M[:h, :h]).max() > tol:
        return False
    if np.abs(M[h:, h:] - (M[:h, h:] + M[h:, :h])).max() > 1e-12:
        return False
    return all(
        _check_quadrants(Q) for Q in (M[:h, h:], M[h:, :h], M[h:, h:])
    )


def test_criterion_06_structural_invariants():
    ok = True
    for k in range(1, 7):
        n = 1 << k
        table = map_patterns_to_cubes(range(k))
        full = n - 1
        evaluators = [("shapley", lambda c, j=j: cube_shapley(c, j)) for j in range(k)]
        evaluators += [("banzhaf", lambda c, j=j: cube_banzhaf(c, j)) for j in range(k)]
        evaluators += [
            ("interaction", lambda c, p=p: cube_interaction(c, p[0], p[1]))
            for p in combinations(range(k), 2)
        ]
        for _name, evaluate in evaluators:
            M = np.zeros((n, n))
            for pc, row in table.items():
                for pb, cube in row.items():
                    M[pc, pb] = evaluate(cube)
            nonzero_rows, nonzero_cols = np.nonzero(M)
            if not np.all((nonzero_rows | nonzero_cols) == full):
                ok = False
            if not _check_quadrants(M):
                ok = False
    _report(6, "value matrices satisfy the quadrant identities and the all-ones support (k <= 6)", ok)


def test_criterion_07_scaling_benchmarks():
    start = time.perf_counter()
    config = RunConfig(seed=3)
    _, low = cmd_bench(config, depths=range(8, 13), methods=("hd", "dense"), repeats=2)
    _, high = cmd_bench(config, depths=range(12, 20), methods=("hd",), repeats=3)
    low_recs = {(r["depth"], r["method"]): r for r in low.records}
    high_recs = {r["depth"]: r for r in high.records}

    ratios = [
        low_recs[(d, "hd")]["wall_time_seconds"] / low_recs[(d, "dense")]["wall_time_seconds"]
        for d in range(8, 13)
    ]
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))

    growth = [
        high_recs[d + 1]["wall_time_seconds"] / high_recs[d]["wall_time_seconds"]
        for d in range(14, 19)
    ]
    growth_ok = all(1.7 <= g <= 2.6 for g in growth)

    ks = np.arange(12, 19)
    x = ks + np.log2(ks)
    y = np.log2([high_recs[int(k)]["projected_bytes"] for k in ks])
    slope = float(np.polyfit(x, y, 1)[0])
    memory_ok = 0.95 <= slope <= 1.1

    dense_ks = np.arange(8, 13)
    dx = dense_ks + np.log2(dense_ks)
    dy = np.log2([low_recs[(int(k), "dense")]["projected_bytes"] for k in dense_ks])
    dense_slope = float(np.polyfit(dx, dy, 1)[0])
    dense_ok = dense_slope > 1.3  # 3^k growth reads ~1.5 on this axis

    elapsed = time.perf_counter() - start
    _report(
        7,
        "memory fits 2^k*k and runtime ratios behave (hd/dense falling, hd doubling)",
        decreasing and growth_ok and memory_ok and dense_ok and elapsed < 600.0,
        f"ratios {['%.3f' % r for r in ratios]}, growth {['%.2f' % g for g in growth]}, "
        f"slope {slope:.3f}, dense slope {dense_slope:.2f}, {elapsed:.0f}s",
    )


def test_criterion_08_local_accuracy():
    worst = 0.0
    for seed in range(0, 400, 5):
        model, X, B = _sweep_case(seed)
        for mode in (BACKGROUND, PATH_DEPENDENT):
            request = ExplainRequest(model, X, B if mode == BACKGROUND else None, mode, SHAPLEY)
            result = explain(request)
            totals = result.base_value + result.values.sum(axis=1)
            worst = max(worst, float(np.max(np.abs(totals - model.predict(X)))))
    _report(8, "base value plus attributions reproduces every prediction",
            worst <= 1e-8, f"max dev {worst:.2e}")


def test_criterion_09_streaming_memory_bound():
    model = complete_tree_model(10)
    X = random_dataset(np.random.default_rng(0), 7, model.n_features)
    stats = PatternMemoryStats()
    for _ in iter_leaf_patterns(model.trees[0], X, stats=stats):
        pass
    _report(9, "pattern generator retains at most depth+1 vectors on a depth-10 tree",
            stats.peak <= 11 and stats.live == 0, f"peak {stats.peak}")


def _enumerated_values(pos_mask, neg_mask, n, weight):
    """Vectorized definitional enumeration for one cube over players 0..n-1."""
    subsets = np.arange(1 << n)
    C = np.where(
        ((subsets & pos_mask) == pos_mask) & ((subsets & neg_mask) == 0), weight, 0.0
    )
    sizes = np.bitwise_count(subsets.astype(np.uint64)).astype(np.int64)
    shap = np.zeros(n)
    banzhaf = np.zeros(n)
    if n:
        fact = [float(math.factorial(s)) for s in range(n + 1)]
        w = np.array([fact[s] * fact[n - 1 - s] / fact[n] for s in range(n)])
        for i in range(n):
            bit = 1 << i
            sub = subsets[(subsets & bit) == 0]
            marginals = C[sub | bit] - C[sub]
            shap[i] = float(np.sum(w[sizes[sub]] * marginals))
            banzhaf[i] = float(np.sum(marginals)) * 2.0 ** (1 - n)
    inter = {}
    if n >= 2:
        fact = [float(math.factorial(s)) for s in range(n + 1)]
        coef = np.array([fact[s] * fact[n - 2 - s] / fact[n - 1] for s in range(n - 1)])
        for i, j in combinations(range(n), 2):
            bi, bj = 1 << i, 1 << j
            sub = subsets[(subsets & (bi | bj)) == 0]
            delta = C[sub | bi | bj] - C[sub | bi] - C[sub | bj] + C[sub]
            inter[(i, j)] = float(np.sum(coef[sizes[sub]] * delta))
    return shap, banzhaf, inter


def test_criterion_10_per_cube_functional_gate():
    worst = 0.0
    rng = np.random.default_rng(10)
    for n in range(0, 11):
        for signs in product((1, 0), repeat=n):
            pos = frozenset(i for i in range(n) if signs[i])
            neg = frozenset(i for i in range(n) if not signs[i])
            weight = float(rng.uniform(0.5, 2.0))
            cube = Cube(pos, neg, weight)
            pos_mask = sum(1 << i for i in pos)
            neg_mask = sum(1 << i for i in neg)
            shap, banzhaf, inter = _enumerated_values(pos_mask, neg_mask, n, weight)
            for i in range(n):
                worst = max(worst, abs(cube_shapley(cube, i) - shap[i]))
                worst = max(worst, abs(cube_banzhaf(cube, i) - banzhaf[i]))
            for (i, j), want in inter.items():
                worst = max(worst, abs(cube_interaction(cube, i, j) - want))
            # sanity of the vectorized enumeration itself at small sizes
            if n <= 4:
                game = cube_game(pos, neg, weight)
                slow = shapley_from_game(list(range(n)), game)
                for i in range(n):
                    assert abs(shap[i] - slow[i]) <= 1e-12
    _report(10, "per-cube closed forms match enumeration for all sign cubes, p+q <= 10",
            worst <= 1e-12, f"max dev {worst:.2e}")
