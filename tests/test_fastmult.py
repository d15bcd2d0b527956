from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshap_hd.cubes import (
    BANZHAF,
    INTERACTION,
    SHAPLEY,
    Cube,
    _generated_level,
    build_diagonal_cache,
    cube_banzhaf,
    cube_interaction,
    cube_shapley,
    pair_index,
)
from treeshap_hd.errors import LayoutError, LengthError, SizeError, StructureError
from treeshap_hd.fastmult import (
    _BUFSIZE,
    _CHUNK,
    _transforms,
    _zeta_inplace,
    Workspace,
    count_operations,
    diagonal_matvec,
    subset_zeta,
)
from treeshap_hd.oracles import dense_from_diagonal, map_patterns_to_cubes, matvec_recursive

from oracle_utils import diagonal_matvec_reference, zeta_naive, zeta_reference


def test_zeta_identity_on_singleton():
    np.testing.assert_array_equal(subset_zeta([5.0]), [5.0])


def test_zeta_spreads_the_empty_set_everywhere():
    np.testing.assert_array_equal(subset_zeta([1.0, 0, 0, 0]), [1, 1, 1, 1])


def test_zeta_keeps_the_full_set_alone():
    np.testing.assert_array_equal(subset_zeta([0.0, 0, 0, 1]), [0, 0, 0, 1])


def test_zeta_rejects_non_power_of_two():
    with pytest.raises(LengthError):
        subset_zeta([1.0, 2.0, 3.0])


def test_zeta_does_not_mutate_input():
    v = np.ones(8)
    subset_zeta(v)
    np.testing.assert_array_equal(v, np.ones(8))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**31 - 1))
def test_zeta_matches_naive_subset_sums(k, seed):
    v = np.random.default_rng(seed).normal(size=1 << k)
    np.testing.assert_allclose(subset_zeta(v), zeta_naive(v), atol=1e-12)


def test_diagonal_matvec_k1_example():
    out = diagonal_matvec([2.0, 3.0], [1.0, 1.0])
    np.testing.assert_allclose(out, [2.0, 8.0])
    np.testing.assert_allclose(dense_from_diagonal([2.0, 3.0]), [[0, 2], [3, 5]])


def test_diagonal_matvec_zero_vector_is_zero():
    for k in (1, 3, 5):
        out = diagonal_matvec(np.random.default_rng(k).normal(size=1 << k), np.zeros(1 << k))
        np.testing.assert_array_equal(out, np.zeros(1 << k))


def test_diagonal_matvec_k2_unit_column():
    out = diagonal_matvec([1.0, 1, 1, 1], [1.0, 0, 0, 0])
    np.testing.assert_allclose(out, [0, 0, 0, 1])


def test_diagonal_matvec_length_mismatch():
    with pytest.raises(LengthError):
        diagonal_matvec([1.0, 2.0], [1.0, 2.0, 3.0, 4.0])


def test_dense_from_diagonal_zeroes():
    np.testing.assert_array_equal(dense_from_diagonal(np.zeros(8)), np.zeros((8, 8)))


def test_dense_from_diagonal_recovers_the_diagonal():
    rng = np.random.default_rng(3)
    for k in range(1, 7):
        diag = rng.normal(size=1 << k)
        M = dense_from_diagonal(diag)
        n = 1 << k
        np.testing.assert_array_equal(M[np.arange(n), n - 1 - np.arange(n)], diag)


def test_dense_from_diagonal_subset_sum_formula():
    # closed form: M[a][b] = sum of diag[s] over s subset of a with ~s subset of b
    rng = np.random.default_rng(4)
    for k in range(1, 6):
        n = 1 << k
        diag = rng.normal(size=n)
        M = dense_from_diagonal(diag)
        full = n - 1
        for a in range(n):
            for b in range(n):
                want = sum(
                    diag[s]
                    for s in range(n)
                    if (s & a) == s and ((full ^ s) & b) == (full ^ s)
                )
                assert abs(M[a, b] - want) <= 1e-12


def test_dense_from_diagonal_size_cap():
    with pytest.raises(SizeError):
        dense_from_diagonal(np.zeros(1 << 13))


def test_matvec_agrees_with_dense_oracle():
    rng = np.random.default_rng(11)
    for k in range(1, 11):
        n = 1 << k
        for _ in range(30):
            diag = rng.normal(size=n)
            f = rng.normal(size=n)
            M = dense_from_diagonal(diag)
            want = M @ f
            got = diagonal_matvec(diag, f)
            bound = 1e-10 * max(np.abs(diag).max() * np.abs(f).sum(), 1e-30)
            assert np.abs(got - want).max() <= bound


def test_recursive_variant_agrees():
    rng = np.random.default_rng(12)
    for k in range(1, 9):
        n = 1 << k
        diag = rng.normal(size=n)
        f = rng.normal(size=n)
        M = dense_from_diagonal(diag)
        got = matvec_recursive(M, f, check=True)
        np.testing.assert_allclose(got, diagonal_matvec(diag, f), atol=1e-12)


def test_recursive_base_case():
    np.testing.assert_array_equal(matvec_recursive([[3.0]], [4.0]), [12.0])


def test_recursive_structure_check_fires():
    M = np.array([[1.0, 2.0], [3.0, 5.0]])  # nonzero top-left quadrant
    with pytest.raises(StructureError):
        matvec_recursive(M, np.ones(2), check=True)
    M2 = np.array([[0.0, 2.0], [3.0, 9.0]])  # bottom-right != sum
    with pytest.raises(StructureError):
        matvec_recursive(M2, np.ones(2), check=True)


def test_operation_counts_exact():
    rng = np.random.default_rng(13)
    for k in range(0, 13):
        n = 1 << k
        with count_operations() as ops:
            diagonal_matvec(rng.normal(size=n), rng.normal(size=n))
        assert ops.adds == k * n
        assert ops.muls == n


def test_operation_counter_nesting_restores_previous():
    with count_operations() as outer:
        diagonal_matvec([1.0, 2.0], [1.0, 1.0])
        with count_operations() as inner:
            diagonal_matvec([1.0, 2.0], [1.0, 1.0])
        diagonal_matvec([1.0, 2.0], [1.0, 1.0])
    assert inner.adds == 2
    assert outer.adds == 4  # the inner context's work is not double counted


def test_reconstruction_matches_densified_cube_table():
    # cross-module: completing the extracted diagonal reproduces the full
    # functional matrix built entry by entry from the cube table
    for k in range(1, 7):
        n = 1 << k
        table = map_patterns_to_cubes(range(k))
        for j in range(k):
            dense = np.zeros((n, n))
            for pc, row in table.items():
                for pb, cube in row.items():
                    dense[pc, pb] = cube_shapley(cube, j)
            diag = dense[np.arange(n), n - 1 - np.arange(n)]
            np.testing.assert_allclose(dense_from_diagonal(diag), dense, atol=1e-12)
            cache = build_diagonal_cache(k, SHAPLEY)
            np.testing.assert_array_equal(cache.levels[k][j], diag)


@pytest.mark.parametrize("k", range(1, 13))
def test_block_matvec_is_stacked_single_calls(k):
    rng = np.random.default_rng(100 + k)
    n = 1 << k
    f = rng.normal(size=n)
    for r in sorted({1, 3, k}):
        block = rng.normal(size=(r, n))
        with count_operations() as ops:
            got = diagonal_matvec(block, f)
        assert got.shape == (r, n)
        assert ops.adds == r * k * n
        assert ops.muls == r * n
        assert np.array_equal(got, np.stack([diagonal_matvec(row, f) for row in block]))
        with pytest.raises(LengthError):
            diagonal_matvec(block, np.ones(2 * n))
        with pytest.raises(LengthError):
            diagonal_matvec(np.ones((r, 2 * n)), f)


def _reference_products(diag, f, stacked):
    # diagonal_matvec_reference on each vector of a stack, or on the one vector
    want = np.stack([diagonal_matvec_reference(diag, v) for v in (f if stacked else [f])])
    return want if stacked else want[0]


def test_workspace_blocks_match_new_arrays():
    # blocks of at most _CHUNK doubles are multiplied in the workspace with
    # the bits and op counts of the reference passes, under the workspace's
    # cut ufunc buffer; the buffer grows to the largest such block, never past
    # _CHUNK doubles, and the views of the last shape stay alive.  Longer
    # blocks are new arrays and leave the workspace as it was
    rng = np.random.default_rng(17)
    workspace = Workspace()
    # (leaves in a stack, or None for one vector; the diagonal's shape)
    cases = [
        (None, (1, 256)), (None, (3, 256)), (None, (1, 256)), (2, (1, 256)), (None, (2, 256)),
        (None, (1, 512)), (None, (512,)), (3, (3, 256)), (None, (1, 1 << 12)), (2, (4, 256)),
        (None, (4, 1024)), (3, (2, 8)), (3, (2, 8)),
        (None, (3, 1 << 12)), (2, (5, 1 << 11)), (3, (1, 1 << 13)), (None, (1 << 16,)),
        (None, (3, 1 << 15)), (4, (2, 1 << 13)), (2, (1, 1 << 16)), (None, (1 << 17,)), (2, (3, 1 << 12)),
    ]
    largest = 0
    for leaves, shape in cases:
        diag = rng.normal(size=shape)
        f = rng.normal(size=shape[-1] if leaves is None else (leaves, shape[-1]))
        before = diag.copy(), f.copy()
        want = _reference_products(diag, f, leaves)
        with count_operations() as ops:
            got = diagonal_matvec(diag, list(f) if leaves else f, workspace)
        assert got.shape == want.shape == ((leaves,) if leaves else ()) + shape
        assert got.tobytes() == want.tobytes()
        assert (ops.adds, ops.muls) == ((shape[-1].bit_length() - 1) * got.size, got.size)
        assert np.array_equal(diag, before[0]) and np.array_equal(f, before[1])
        small = got.size <= _CHUNK
        assert np.shares_memory(got, workspace.flat) == small
        if small:
            largest = max(largest, got.size)
            assert workspace.shape == (leaves or 1,) + shape
        assert workspace.flat.size == largest <= _CHUNK
    assert largest == _CHUNK
    assert workspace.context.run(np.getbufsize) == _BUFSIZE != np.getbufsize()


@pytest.mark.parametrize("shape", [(1, 1 << 11), (1, 1 << 12), (2, 1 << 15), (4, 1 << 15)])
def test_standalone_calls_do_not_alias(shape):
    # without a workspace, a block of one chunk or less runs in a new
    # workspace and a longer one in a new array: no result shares memory
    # with an earlier one, which keeps its values, and each has the bits and
    # op counts of the reference passes, for one vector and for a stack
    rng = np.random.default_rng(19)
    k = shape[-1].bit_length() - 1
    diag = rng.normal(size=shape)
    earlier = []
    for leaves in (None, None, 2, 2):
        f = rng.normal(size=shape[-1] if leaves is None else (leaves, shape[-1]))
        with count_operations() as ops:
            got = diagonal_matvec(diag, f)
        want = _reference_products(diag, f, leaves)
        assert got.tobytes() == want.tobytes()
        assert (ops.adds, ops.muls) == (k * got.size, got.size)
        assert not any(np.shares_memory(got, e) for e, _ in earlier)
        earlier.append((got, want))
    for got, want in earlier:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", (1, 3, 8, 13))
def test_stacked_vectors_are_single_calls(k):
    # an (L, 2^k) stack, as an array or a list of vectors, gives group i the
    # bits of a call with vector i alone, for L times the adds and muls
    rng = np.random.default_rng(300 + k)
    n = 1 << k
    diag, F = rng.normal(size=(min(k, 3), n)), rng.normal(size=(3, n))
    want = np.stack([diagonal_matvec(diag, f) for f in F])
    for stack in (F, list(F)):
        with count_operations() as ops:
            got = diagonal_matvec(diag, stack)
        assert got.tobytes() == want.tobytes()
        assert (ops.adds, ops.muls) == (3 * k * diag.size, 3 * diag.size)
    assert diagonal_matvec(diag[0], F).tobytes() == want[:, 0].tobytes()
    with pytest.raises(LengthError):
        diagonal_matvec(diag, [F[0], F[1, :-1]])


def _edge_values(rng, shape):
    """Normal draws laced with -0.0, subnormals and a few values near +-1e308."""
    x = rng.normal(size=shape)
    flat = x.reshape(-1)
    n = flat.size
    flat[rng.random(n) < 0.1] = -0.0
    sub = rng.random(n) < 0.1
    flat[sub] = rng.integers(-1000, 1000, sub.sum()) * 5e-324
    flat[rng.integers(0, n, 2)] = (1.7e308, -1.7e308)
    return x


def _signed_zeros_and_subnormals(rng, shape):
    return rng.choice([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308], size=shape)


@pytest.mark.parametrize("k", range(1, 22))
def test_kernel_is_bit_identical_to_reference_passes(k):
    # bit for bit, not allclose: neither the pass layout, nor the buffering,
    # nor the chunked order of long rows (k > 16) may change one addition
    rng = np.random.default_rng(200 + k)
    n = 1 << k
    for make in (_edge_values, _signed_zeros_and_subnormals):
        v, f = make(rng, n), make(rng, n)
        with np.errstate(over="ignore", invalid="ignore"):
            with count_operations() as ops:
                got = subset_zeta(v)
            assert got.tobytes() == zeta_reference(v.copy()).tobytes()
            assert (ops.adds, ops.muls) == (k * n // 2, 0)
            for shape in (n, (1, n), (2, n), (3, n)):
                diag = make(rng, shape)
                with count_operations() as ops:
                    got = diagonal_matvec(diag, f)
                assert got.tobytes() == diagonal_matvec_reference(diag, f).tobytes()
                assert (ops.adds, ops.muls) == (k * diag.size, diag.size)


def test_zeta_rejects_a_layout_it_would_copy():
    # reshape(-1) of a non-C-contiguous array is a copy: the passes would
    # transform the copy and leave the caller's array as it was
    v = np.arange(32.0).reshape(8, 4).T
    with pytest.raises(LayoutError):
        _zeta_inplace(v)
    np.testing.assert_array_equal(v, np.arange(32.0).reshape(8, 4).T)
    np.testing.assert_array_equal(subset_zeta(v), subset_zeta(np.ascontiguousarray(v)))
    rng = np.random.default_rng(17)
    strided = rng.normal(size=(3, 32))[:, ::2]
    f = rng.normal(size=16)
    assert np.array_equal(
        diagonal_matvec(strided, f), diagonal_matvec(np.ascontiguousarray(strided), f)
    )


def test_kernel_leaves_the_ufunc_buffer_size_alone():
    # large blocks run their passes with numpy's buffer cut down; the setting is
    # scoped, so a caller's own buffer size holds after every kind of exit
    rng = np.random.default_rng(18)
    seen = []
    with np.errstate():
        np.setbufsize(4096)
        for k in (12, 17):
            diagonal_matvec(rng.normal(size=(2, 1 << k)), rng.normal(size=1 << k))
            assert np.getbufsize() == 4096
        _transforms(np.zeros(1 << 17), [lambda i, cols: seen.append(np.getbufsize())])
        assert np.getbufsize() == 4096 and seen == [_BUFSIZE, _BUFSIZE]
        # a block of one chunk or less, as subset_zeta passes it, is cut too
        _transforms(np.zeros((2, 1 << 10)), [lambda i, cols: seen.append(np.getbufsize())])
        assert np.getbufsize() == 4096 and seen[2:] == [_BUFSIZE]
        with pytest.raises(LayoutError):
            _zeta_inplace(np.zeros((1 << 13, 2)).T)
        assert np.getbufsize() == 4096

        def fail(i, cols):
            raise RuntimeError("inside the unbuffered passes")

        with pytest.raises(RuntimeError):
            _transforms(np.zeros(1 << 17), [fail])
        assert np.getbufsize() == 4096

    def in_worker(seed):
        before = np.getbufsize()
        diagonal_matvec(np.random.default_rng(seed).normal(size=1 << 17), np.ones(1 << 17))
        return before, np.getbufsize()

    with ThreadPoolExecutor(max_workers=2) as pool:
        for before, after in pool.map(in_worker, range(4)):
            assert after == before
    assert np.getbufsize() == 8192  # numpy's default, outside every scope


def _closed_form_rows(k, kind, bits):
    # the diagonal rows with literal bits ``bits``, entry a evaluated by the
    # per-cube closed forms on a diagonal cube with a's popcount of positive
    # literals and a's signs at the row's positions (0, or 0 and 1)
    value = {
        SHAPLEY: lambda c: cube_shapley(c, 0),
        BANZHAF: lambda c: cube_banzhaf(c, 0),
        INTERACTION: lambda c: cube_interaction(c, 0, 1),
    }[kind]
    a = np.arange(1 << k)
    n_pos = np.bitwise_count(a)
    rows = np.empty((len(bits), 1 << k))
    for row, row_bits in zip(rows, bits):
        signs = [(a >> s) & 1 for s in row_bits]
        case = signs[0] if len(signs) == 1 else 2 * signs[0] + signs[1]
        for c, lead in enumerate(product((0, 1), repeat=len(row_bits))):
            table = np.full(k + 1, np.nan)
            for p in range(sum(lead), k - len(lead) + sum(lead) + 1):
                positive = {j for j, s in enumerate(lead) if s}
                positive |= set(range(len(lead), len(lead) + p - sum(lead)))
                table[p] = value(Cube(positive, set(range(k)) - positive))
            hit = case == c
            row[hit] = table[n_pos[hit]]
    return rows


def _blocks_under_test(k, kind):
    # one-row and multi-row blocks; for interactions, pairs with both bits
    # below 16, both at or above it (k >= 18), and one on each side
    if kind != INTERACTION:
        return [(0, 1), (k - 1, k), (1, 6), (k - 4, k)]
    singles = [pair_index(k, k - 2, k - 1), pair_index(k, 0, k - 1), pair_index(k, 0, 3)]
    if k >= 18:
        singles.append(pair_index(k, 0, 1))
    rows = k * (k - 1) // 2
    return [(r, r + 1) for r in singles] + [(0, 6), (rows - 4, rows)]


@pytest.mark.parametrize("kind", (SHAPLEY, BANZHAF, INTERACTION))
@pytest.mark.parametrize("k", (9, 17, 18, 19))
def test_generated_rows_multiply_like_stored_rows(k, kind):
    # rows longer than one 2^16-double chunk build each chunk of their
    # diagonal from the level's popcount tables (at k = 9 a piece holds
    # whole rows); the products, adds and multiplies are bit for bit those
    # of the stored rows
    generated = _generated_level(k, kind)
    f = np.random.default_rng(k).normal(size=1 << k)
    stored = _generated_level(k, kind)[:, :] if kind != INTERACTION else None
    for r0, r1 in _blocks_under_test(k, kind):
        rows = generated[r0:r1]
        want_rows = _closed_form_rows(k, kind, rows.bits)
        if stored is not None:
            assert np.array_equal(want_rows, stored[r0:r1])
        with count_operations() as ops:
            got = diagonal_matvec(rows, f)
        with count_operations() as want_ops:
            want = diagonal_matvec(want_rows, f)
        assert got.tobytes() == want.tobytes(), (k, kind, r0, r1)
        assert (ops.adds, ops.muls) == (want_ops.adds, want_ops.muls)
