import math
import warnings
from itertools import combinations, product

import numpy as np
import pytest

from ripl_lab import levels
from ripl_lab import (
    LevelError,
    LevelStructure,
    SparsityPattern,
    best_approx_in_levels,
    count_supports,
    random_sparse_vector,
    support_blocks,
    validate_boundaries,
)


def test_validate_accepts_simple_partition():
    assert validate_boundaries((0, 2, 4), 4) == (0, 2, 4)


def test_validate_rejects_non_monotone():
    with pytest.raises(LevelError, match="non-monotone"):
        validate_boundaries((0, 4, 2), 4)


def test_validate_rejects_wrong_last_boundary():
    with pytest.raises(LevelError, match="!= ambient"):
        validate_boundaries((0, 2, 3), 4)


def test_validate_rejects_empty_level():
    with pytest.raises(LevelError, match="empty level"):
        validate_boundaries((0, 2, 2, 4))


def test_validate_requires_leading_zero():
    with pytest.raises(LevelError):
        validate_boundaries((1, 4))


def test_boundaries_are_integers_not_truncated():
    # int() used to turn (0, 2.7, 4) into (0, 2, 4)
    with pytest.raises(TypeError):
        LevelStructure((0, 2.7, 4))
    assert LevelStructure((0, np.int64(2), 4)).boundaries == (0, 2, 4)


def test_level_structure_basics():
    ls = LevelStructure((0, 2, 4, 8))
    assert ls.r == 3
    assert ls.n == 8
    assert ls.widths == (2, 2, 4)
    assert ls.level_range(1) == (1, 2)
    assert ls.level_range(3) == (5, 8)
    assert LevelStructure.from_dict(ls.to_dict()) == ls


def test_pattern_rejects_budget_over_width():
    ls = LevelStructure((0, 2, 4))
    with pytest.raises(LevelError, match="exceeds level width"):
        SparsityPattern(ls, (3, 1))


def test_pattern_budgets_are_integers_not_truncated():
    # int() used to turn s = (1.5, 1) into (1, 1)
    lv = LevelStructure((0, 2, 4))
    with pytest.raises(TypeError):
        SparsityPattern(lv, (1.5, 1))
    assert SparsityPattern(lv, (np.int32(1), 1)).s == (1, 1)


def test_pattern_ratio_examples():
    ls = LevelStructure((0, 4, 16))
    assert SparsityPattern(ls, (2, 8)).ratio == 4.0
    assert SparsityPattern(ls, (3, 3)).ratio == 1.0
    # the ratio is a plain value; ripl_threshold alone warns about an infinite one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SparsityPattern(ls, (2, 0)).ratio == math.inf
    assert SparsityPattern(ls, (0, 0)).ratio == 1.0


def test_best_approx_example():
    p = SparsityPattern(LevelStructure((0, 2, 4)), (1, 1))
    z, sigma = best_approx_in_levels(np.array([3.0, 1.0, 2.0, 0.0]), p)
    assert np.array_equal(z, [3, 0, 2, 0])
    assert sigma == 1.0
    with pytest.raises(LevelError):
        best_approx_in_levels([1, 0, 0], p)


def test_best_approx_admissible_input_unchanged():
    p = SparsityPattern(LevelStructure((0, 2, 4)), (1, 1))
    x = np.array([0, 2j, 0, -1], dtype=complex)
    z, sigma = best_approx_in_levels(x, p)
    assert np.array_equal(z, x)
    assert sigma == 0.0


def test_best_approx_full_budget_is_identity():
    ls = LevelStructure((0, 3, 5))
    p = SparsityPattern(ls, ls.widths)
    x = np.arange(5, dtype=complex)
    z, sigma = best_approx_in_levels(x, p)
    assert np.array_equal(z, x)
    assert sigma == 0.0


def test_best_approx_tie_breaks_to_lowest_index():
    p = SparsityPattern(LevelStructure((0, 3)), (1,))
    z, sigma = best_approx_in_levels(np.array([2.0, 2.0, 2.0]), p)
    assert np.array_equal(z, [2, 0, 0])
    assert sigma == 4.0


def test_best_approx_idempotent():
    rng = np.random.default_rng(5)
    p = SparsityPattern(LevelStructure((0, 3, 7, 10)), (1, 2, 1))
    x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    z, _ = best_approx_in_levels(x, p)
    z2, sigma2 = best_approx_in_levels(z, p)
    assert np.array_equal(z, z2)
    assert sigma2 == 0.0


def test_best_approx_matches_support_bruteforce():
    # sigma equals the minimum over all admissible supports of the l1 tail
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(4, 13))
        cut = int(rng.integers(1, n))
        ls = LevelStructure((0, cut, n))
        s = (int(rng.integers(0, cut + 1)), int(rng.integers(0, n - cut + 1)))
        p = SparsityPattern(ls, s)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        _, sigma = best_approx_in_levels(x, p)
        # every support with at most s_k indices per level: all counts c <= s
        best = min(
            float(np.sum(np.abs(x))) - float(np.sum(np.abs(x[idx])))
            for c in product(*(range(sk + 1) for sk in s))
            for block in support_blocks(SparsityPattern(ls, c))
            for idx in block
        )
        assert sigma == pytest.approx(best, abs=1e-12)


def test_enumerate_exact_example():
    p = SparsityPattern(LevelStructure((0, 2, 4)), (1, 1))
    blocks = list(support_blocks(p))
    assert len(blocks) == 1 and blocks[0].dtype == np.intp
    assert blocks[0].tolist() == [[0, 2], [0, 3], [1, 2], [1, 3]]


def test_enumerate_zero_budget_single_empty():
    p = SparsityPattern(LevelStructure((0, 2, 4)), (0, 0))
    blocks = list(support_blocks(p))
    assert len(blocks) == 1
    assert blocks[0].shape == (1, 0)


def test_enumerate_count_matches_binomials():
    p = SparsityPattern(LevelStructure((0, 3, 7, 12)), (2, 1, 3))
    expected = math.comb(3, 2) * math.comb(4, 1) * math.comb(5, 3)
    assert count_supports(p) == expected
    assert sum(len(block) for block in support_blocks(p)) == expected


@pytest.mark.parametrize("bounds, s", [
    ((0, 8, 16, 24), (2, 2, 2)),  # 21,952 supports of size 6, many blocks
    ((0, 10, 20), (5, 5)),  # 63,504 supports of size 10, as certify-fh32 enumerates
    ((0, 3, 7, 12), (2, 1, 3)),  # 120 supports, one partial block
    ((0, 190, 200), (190, 1)),  # 16 * 191^2 bytes exceeds the cap: one support a block
    ((0, 2, 4), (0, 0)),  # k = 0: one (1, 0) block
])
def test_support_blocks_bound_order_and_count(bounds, s):
    p = SparsityPattern(LevelStructure(bounds), s)
    k = sum(s)
    blocks = list(support_blocks(p))
    for block in blocks:
        assert block.dtype == np.intp and block.shape[1] == k
        assert 16 * k * k * len(block) <= levels._STACK_BYTES or len(block) == 1
    per_level = [combinations(range(lo, hi), sk) for lo, hi, sk in zip(bounds, bounds[1:], s)]
    oracle = [list(sum(pick, ())) for pick in product(*per_level)]
    assert np.concatenate(blocks).tolist() == oracle
    assert count_supports(p) == len(oracle) == sum(len(block) for block in blocks)


def test_random_sparse_vector_contract():
    p = SparsityPattern(LevelStructure((0, 4, 12)), (2, 3))
    rng = np.random.default_rng(11)
    x = random_sparse_vector(p, rng, "unit")
    assert np.count_nonzero(x[:4]) == 2
    assert np.count_nonzero(x[4:]) == 3
    mods = np.abs(x[np.abs(x) > 0])
    assert np.all(np.abs(mods - 1.0) <= 1e-12)


def test_random_sparse_vector_deterministic():
    p = SparsityPattern(LevelStructure((0, 4, 12)), (2, 3))
    x1 = random_sparse_vector(p, np.random.default_rng(42), "gaussian")
    x2 = random_sparse_vector(p, np.random.default_rng(42), "gaussian")
    assert np.array_equal(x1, x2)


def test_pattern_serialization_roundtrip():
    p = SparsityPattern(LevelStructure((0, 2, 4, 8)), (1, 0, 3))
    d = p.to_dict()
    assert d == {"N": 8, "boundaries": [0, 2, 4, 8], "s": [1, 0, 3]}
    assert SparsityPattern.from_dict(d) == p
