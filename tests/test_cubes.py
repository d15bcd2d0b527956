import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshap_hd.cubes import (
    BANZHAF,
    INTERACTION,
    SHAPLEY,
    Cube,
    _GENERATED_TABLES,
    _generated_level,
    _ratio,
    build_diagonal_cache,
    cache_nbytes,
    cube_banzhaf,
    cube_interaction,
    cube_shapley,
    pair_index,
)
from treeshap_hd.errors import DepthCapError, InvalidPairError
from treeshap_hd.fastmult import _CHUNK
from treeshap_hd.oracles import diagonal_cubes, map_patterns_to_cubes

from oracle_utils import banzhaf_from_game, cube_game, interaction_from_game, shapley_from_game
from test_fastmult import _blocks_under_test, _closed_form_rows


def test_cube_rejects_contradictory_literals():
    with pytest.raises(ValueError):
        Cube(frozenset({1}), frozenset({1}))


def test_cube_game_semantics():
    cube = Cube(frozenset({0}), frozenset({1}), weight=2.5)
    assert cube.value({0}) == 2.5
    assert cube.value({0, 2}) == 2.5
    assert cube.value({0, 1}) == 0.0
    assert cube.value(set()) == 0.0


# ---------------------------------------------------------------------------
# pattern -> cube tables
# ---------------------------------------------------------------------------

def test_two_feature_table_matches_known_cells():
    table = map_patterns_to_cubes(["age", "sugar"])
    # row index = consumer pattern, column = background pattern, msb = age
    assert table[0b10][0b01] == Cube({"age"}, {"sugar"})
    assert table[0b01][0b10] == Cube({"sugar"}, {"age"})
    assert table[0b00][0b11] == Cube(set(), {"age", "sugar"})
    assert table[0b11][0b00] == Cube({"age", "sugar"}, set())
    assert table[0b11][0b01] == Cube({"age"}, set())
    assert table[0b11][0b10] == Cube({"sugar"}, set())
    assert table[0b01][0b11] == Cube(set(), {"age"})
    assert table[0b10][0b11] == Cube(set(), {"sugar"})
    assert table[0b11][0b11] == Cube(set(), set())
    assert 0b00 not in table or 0b00 not in table[0b00]


@pytest.mark.parametrize("k,count", [(1, 3), (2, 9), (3, 27)])
def test_table_entry_counts(k, count):
    table = map_patterns_to_cubes(range(k))
    assert sum(len(row) for row in table.values()) == count


def test_table_entries_only_where_or_is_all_ones():
    for k in range(1, 9):
        table = map_patterns_to_cubes(range(k))
        full = (1 << k) - 1
        for pc, row in table.items():
            for pb in row:
                assert pc | pb == full


def test_k3_bottom_right_cell_is_empty_cube():
    table = map_patterns_to_cubes(range(3))
    assert table[0b111][0b111] == Cube(set(), set())


def test_k1_table():
    table = map_patterns_to_cubes(["f"])
    assert table[1][0] == Cube({"f"}, set())
    assert table[0][1] == Cube(set(), {"f"})
    assert table[1][1] == Cube(set(), set())


def test_diagonal_cubes_k1():
    d = diagonal_cubes(1)
    assert d[1] == Cube({0}, set())
    assert d[0] == Cube(set(), {0})


def test_diagonal_cubes_k2_row_two():
    assert diagonal_cubes(2)[0b10] == Cube({0}, {1})


def test_diagonal_matches_full_table():
    for k in range(1, 9):
        table = map_patterns_to_cubes(range(k))
        diag = diagonal_cubes(k)
        full = (1 << k) - 1
        assert len(diag) == 1 << k
        for a, cube in diag.items():
            assert table[a][full - a] == cube


def test_depth_cap_errors():
    with pytest.raises(DepthCapError):
        map_patterns_to_cubes(range(5), cap=4)
    with pytest.raises(DepthCapError):
        diagonal_cubes(0)


# ---------------------------------------------------------------------------
# per-cube functionals vs definitional enumeration
# ---------------------------------------------------------------------------

def test_shapley_single_positive_literal():
    assert cube_shapley(Cube({1}, set()), 1) == 1.0


def test_shapley_mixed_pair():
    cube = Cube({1}, {2})
    assert cube_shapley(cube, 1) == pytest.approx(0.5, abs=1e-15)
    assert cube_shapley(cube, 2) == pytest.approx(-0.5, abs=1e-15)


def test_shapley_two_positive_one_negative():
    cube = Cube({1, 2}, {3})
    assert cube_shapley(cube, 1) == pytest.approx(1 / 6, abs=1e-15)
    assert cube_shapley(cube, 2) == pytest.approx(1 / 6, abs=1e-15)
    assert cube_shapley(cube, 3) == pytest.approx(-1 / 3, abs=1e-15)
    assert cube_shapley(cube, 1) + cube_shapley(cube, 2) + cube_shapley(cube, 3) == pytest.approx(0.0, abs=1e-15)


def test_banzhaf_examples():
    assert cube_banzhaf(Cube({1}, set()), 1) == 1.0
    cube = Cube({1}, {2})
    assert cube_banzhaf(cube, 1) == 0.5
    assert cube_banzhaf(cube, 2) == -0.5
    assert cube_banzhaf(Cube(set(), set()), 1) == 0.0


def test_interaction_examples():
    assert cube_interaction(Cube({1, 2}, set()), 1, 2) == 1.0
    assert cube_interaction(Cube({1}, set()), 1, 2) == 0.0  # 2 is a dummy
    assert cube_interaction(Cube({1}, {2}), 1, 2) == -1.0


def test_interaction_rejects_equal_positions():
    with pytest.raises(InvalidPairError):
        cube_interaction(Cube({1}, {2}), 1, 1)


def _sign_cubes(n, weight):
    """All 2^n positive/negative literal assignments over players 0..n-1."""
    for signs in product((True, False), repeat=n):
        pos = frozenset(i for i in range(n) if signs[i])
        neg = frozenset(i for i in range(n) if not signs[i])
        yield Cube(pos, neg, weight)


@pytest.mark.parametrize("n", range(0, 7))
def test_functionals_match_enumeration_exhaustively(n):
    weight = 1.25
    for cube in _sign_cubes(n, weight):
        game = cube_game(cube.positive, cube.negative, weight)
        players = list(range(n))
        want_shap = shapley_from_game(players, game)
        want_banzhaf = banzhaf_from_game(players, game)
        for i in players:
            assert cube_shapley(cube, i) == pytest.approx(want_shap[i], abs=1e-12)
            assert cube_banzhaf(cube, i) == pytest.approx(want_banzhaf[i], abs=1e-12)
        for i, j in combinations(players, 2):
            want = interaction_from_game(players, game, i, j)
            assert cube_interaction(cube, i, j) == pytest.approx(want, abs=1e-12)
        # a position outside the cube is a dummy
        assert cube_shapley(cube, n + 5) == 0.0
        assert cube_banzhaf(cube, n + 5) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10), st.floats(-10, 10))
def test_shapley_efficiency(p, q, weight):
    if p + q > 10:
        p, q = p % 5, q % 5
    cube = Cube(frozenset(range(p)), frozenset(range(p, p + q)), weight)
    total = sum(cube_shapley(cube, i) for i in range(p + q))
    full = cube.value(set(range(p + q)))
    empty = cube.value(set())
    assert total == pytest.approx(full - empty, abs=1e-12)


def test_linearity_of_weighted_sums():
    # the functional of a weighted cube sum is the weighted sum of per-cube values
    rng = np.random.default_rng(7)
    players = list(range(5))
    for _ in range(10):
        cubes = []
        for _ in range(4):
            pos = frozenset(int(i) for i in rng.choice(5, rng.integers(0, 3), replace=False))
            rest = [i for i in players if i not in pos]
            neg = frozenset(int(i) for i in rng.choice(rest, rng.integers(0, 3), replace=False))
            cubes.append(Cube(pos, neg, float(rng.normal())))

        def game(members):
            return sum(c.value(members) for c in cubes)

        want = shapley_from_game(players, game)
        for i in players:
            got = sum(cube_shapley(c, i) for c in cubes)
            assert got == pytest.approx(want[i], abs=1e-12)


# ---------------------------------------------------------------------------
# diagonal cache
# ---------------------------------------------------------------------------

def test_cache_depth_one_shapley():
    cache = build_diagonal_cache(1, SHAPLEY)
    np.testing.assert_array_equal(cache.levels[1][0], [-1.0, 1.0])


def test_cache_depth_two_shapley_row_three():
    cache = build_diagonal_cache(2, SHAPLEY)
    assert cache.levels[2][0][0b11] == pytest.approx(0.5)


def test_cache_depth_two_banzhaf():
    cache = build_diagonal_cache(2, BANZHAF)
    np.testing.assert_allclose(cache.levels[2][0], [-0.5, -0.5, 0.5, 0.5])
    np.testing.assert_allclose(cache.levels[2][1], [-0.5, 0.5, -0.5, 0.5])


@pytest.mark.parametrize("kind", [SHAPLEY, BANZHAF])
def test_cache_provenance_matches_per_cube_loop(kind):
    fn = cube_shapley if kind == SHAPLEY else cube_banzhaf
    cache = build_diagonal_cache(8, kind)
    for k in range(1, 9):
        cubes = diagonal_cubes(k)
        for j in range(k):
            want = np.array([fn(cubes[a], j) for a in range(1 << k)])
            np.testing.assert_array_equal(cache.levels[k][j], want)


def test_interaction_cache_provenance():
    cache = build_diagonal_cache(6, INTERACTION)
    for k in range(2, 7):
        cubes = diagonal_cubes(k)
        for j1, j2 in combinations(range(k), 2):
            want = np.array([cube_interaction(cubes[a], j1, j2) for a in range(1 << k)])
            np.testing.assert_array_equal(cache.levels[k][pair_index(k, j1, j2)], want)


def test_pair_index_is_lexicographic():
    k = 5
    expected = {pair: idx for idx, pair in enumerate(combinations(range(k), 2))}
    for (j1, j2), idx in expected.items():
        assert pair_index(k, j1, j2) == idx
    with pytest.raises(InvalidPairError):
        pair_index(k, 3, 3)


def test_cache_depth_cap():
    with pytest.raises(DepthCapError):
        build_diagonal_cache(30)


def test_cache_nbytes_matches_projection():
    for kind in (SHAPLEY, INTERACTION):
        cache = build_diagonal_cache(6, kind)
        assert cache.nbytes == cache_nbytes(6, kind)


def test_factorial_ratio_accuracy_up_to_cap():
    for a in range(0, 27):
        for b in range(0, 27 - a):
            exact = Fraction(math.factorial(a) * math.factorial(b), math.factorial(a + b))
            got = _ratio(a, b, a + b)
            assert abs(got - float(exact)) <= 1e-14 * float(exact)


@pytest.mark.parametrize("kind", [SHAPLEY, BANZHAF, INTERACTION])
def test_generated_level_tables_match_their_count(kind):
    # the projection counts _GENERATED_TABLES 2^k-entry tables per generated level
    tables = _generated_level(6, kind).tables.values()
    arrays = {id(t): t for t in tables if isinstance(t, np.ndarray)}.values()
    assert sum(t.nbytes for t in arrays) == _GENERATED_TABLES[kind] * 8 << 6


@pytest.mark.parametrize("kind", (SHAPLEY, BANZHAF, INTERACTION))
@pytest.mark.parametrize("k", (9, 17, 18, 19))
def test_generated_level_builds_closed_form_entries(k, kind):
    # level[rows, cols] holds the closed-form rows' entries at cols, for
    # column slices at 0 and at chunk boundaries; a row's bits at or above
    # the slice's width take their values from the slice's start
    level = _generated_level(k, kind)
    n = 1 << k
    width = min(_CHUNK, n >> 1)
    for r0, r1 in _blocks_under_test(k, kind):
        want = _closed_form_rows(k, kind, level.bits[r0:r1])
        for c0 in sorted({0, width, n - width}):
            got = level[r0:r1, c0 : c0 + width]
            assert got.flags.c_contiguous and got.shape == (r1 - r0, width)
            assert np.array_equal(got, want[:, c0 : c0 + width]), (r0, r1, c0)
