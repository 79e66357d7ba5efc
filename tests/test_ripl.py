import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from ripl_lab import (
    EnumerationBudgetError,
    LevelStructure,
    SparsityPattern,
    build_measurement,
    certify_recovery,
    dft_matrix,
    draw_scheme,
    fourier_haar_matrix,
    haar_matrix,
    ricl_exact,
    ricl_monte_carlo,
    ripl_threshold,
    support_blocks,
)


def test_threshold_reference_values():
    assert ripl_threshold(1, 1.0) == pytest.approx(4 / math.sqrt(41), abs=1e-15)
    assert ripl_threshold(4, 1.0) == pytest.approx(1 / math.sqrt(7.25), abs=1e-15)
    # r = 1, rho = 4: 1 * (sqrt(4) + 1/4)^2 + 1 = 6.0625
    assert ripl_threshold(1, 4.0) == pytest.approx(1 / math.sqrt(6.0625), abs=1e-15)


def test_threshold_strictly_decreasing():
    for r in range(1, 6):
        assert ripl_threshold(r + 1, 1.0) < ripl_threshold(r, 1.0)
    for rho in (1.0, 2.0, 4.0, 9.0):
        assert ripl_threshold(2, rho * 2) < ripl_threshold(2, rho)


def test_threshold_infinite_ratio():
    with pytest.warns(RuntimeWarning):
        assert ripl_threshold(3, math.inf) == 0.0


def test_threshold_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ripl_threshold(0, 1.0)
    with pytest.raises(ValueError):
        ripl_threshold(1, 0.5)


def test_ricl_exact_row_selector_cases():
    a = np.array([[1.0, 0.0]])
    lv = LevelStructure((0, 1, 2))
    rep = ricl_exact(a, SparsityPattern(lv, (1, 1)))
    assert rep.delta == pytest.approx(1.0, abs=1e-12)
    assert rep.witness_support == (1, 2)
    rep0 = ricl_exact(a, SparsityPattern(lv, (1, 0)))
    assert rep0.delta == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("make", [dft_matrix, haar_matrix, lambda n: fourier_haar_matrix(n)[0]])
def test_ricl_exact_zero_for_saturated_isometries(make):
    n = 16
    u = np.asarray(make(n), dtype=complex)
    lv = LevelStructure((0, 4, 16))
    scheme = draw_scheme(lv, lv.widths, r0=2, seed=0)
    op = build_measurement(u, scheme)
    rep = ricl_exact(op, SparsityPattern(lv, (2, 1)))
    assert rep.delta <= 1e-10


def test_ricl_exact_count_enumeration_matches_all_counts():
    # exact-count enumeration equals the <=-count maximum (interlacing)
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(4, 10))
        cut = int(rng.integers(1, n))
        lv = LevelStructure((0, cut, n))
        s = (min(2, cut), min(2, n - cut))
        pattern = SparsityPattern(lv, s)
        mrows = int(rng.integers(2, n + 2))
        a = (rng.standard_normal((mrows, n)) + 1j * rng.standard_normal((mrows, n))) / math.sqrt(n)
        rep = ricl_exact(a, pattern)
        gram = a.conj().T @ a
        worst = 0.0
        # every nonempty support with at most s_k indices per level: all counts c <= s
        for c in product(range(s[0] + 1), range(s[1] + 1)):
            if sum(c) == 0:
                continue
            for idx in np.concatenate(list(support_blocks(SparsityPattern(lv, c)))):
                vals = np.linalg.eigvalsh(gram[np.ix_(idx, idx)])
                lmin, lmax = vals[0], vals[-1]
                worst = max(worst, lmax - 1.0, 1.0 - lmin)
        assert rep.delta == pytest.approx(worst, abs=1e-10)


def _three_level_case():
    # 28^3 = 21,952 supports of size 6 over three levels of width 8
    rng = np.random.default_rng(0)
    a = (rng.standard_normal((16, 24)) + 1j * rng.standard_normal((16, 24))) / math.sqrt(32)
    return a, SparsityPattern(LevelStructure((0, 8, 16, 24)), (2, 2, 2))


def test_ricl_exact_across_blocks_matches_product_oracle():
    a, pattern = _three_level_case()
    rep = ricl_exact(a, pattern)
    b = pattern.levels.boundaries
    per_level = [combinations(range(lo, hi), 2) for lo, hi in zip(b, b[1:])]
    idx = np.array([sum(pick, ()) for pick in product(*per_level)], dtype=np.intp)
    gram = a.conj().T @ a
    vals = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
    deltas = np.maximum(vals[:, -1] - 1.0, 1.0 - vals[:, 0])
    j = int(np.argmax(deltas))
    assert rep.supports_examined == len(idx) == 21952
    # the witness lies past the first block, so the maximum is carried across blocks
    assert j >= len(next(support_blocks(pattern)))
    assert rep.delta == pytest.approx(deltas[j], abs=1e-12)
    assert rep.witness_support == tuple(int(i) + 1 for i in idx[j])
    assert np.allclose(rep.lam_min, vals[:, 0], rtol=0, atol=1e-12)
    assert np.allclose(rep.lam_max, vals[:, -1], rtol=0, atol=1e-12)


def test_ricl_exact_peak_memory_stays_within_the_block_cap():
    # one block's Gram stack is at most 512 KiB (4,096 rows would gather
    # 2.4 MB); with the two 176 KB per-support arrays the peak stays near 1 MB
    a, pattern = _three_level_case()
    tracemalloc.start()
    try:
        ricl_exact(a, pattern)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_ricl_exact_known_spectrum():
    # A* A = Q diag(spectrum) Q*, one level with s = n: delta = max(1.9 - 1, 1 - 0.2)
    rng = np.random.default_rng(8)
    spectrum = np.array([0.2, 0.5, 1.0, 1.3, 1.9])
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    a = np.diag(np.sqrt(spectrum)) @ q.conj().T
    rep = ricl_exact(a, SparsityPattern(LevelStructure((0, 5)), (5,)))
    assert rep.delta == pytest.approx(0.9, abs=1e-12)
    assert rep.lam_min[0] == pytest.approx(0.2, abs=1e-12)
    assert rep.lam_max[0] == pytest.approx(1.9, abs=1e-12)


def test_ricl_exact_one_by_one():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    rep = ricl_exact(a, SparsityPattern(LevelStructure((0, 6)), (1,)))
    norms2 = np.sum(np.abs(a) ** 2, axis=0)
    assert rep.delta == pytest.approx(np.max(np.abs(norms2 - 1.0)), abs=1e-12)
    assert np.allclose(rep.lam_min, norms2, atol=1e-12)
    assert np.array_equal(rep.lam_min, rep.lam_max)


def test_ricl_exact_complex_phase():
    # Gram [[1, 1j], [-1j, 1]] has eigenvalues {0, 2}
    a = np.array([[1.0, 1j], [0.0, 0.0]])
    rep = ricl_exact(a, SparsityPattern(LevelStructure((0, 2)), (2,)))
    assert rep.delta == pytest.approx(1.0, abs=1e-12)
    assert rep.lam_min[0] == pytest.approx(0.0, abs=1e-12)
    assert rep.lam_max[0] == pytest.approx(2.0, abs=1e-12)


def test_ricl_exact_monotone_in_budgets():
    rng = np.random.default_rng(6)
    a = (rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))) / math.sqrt(8)
    lv = LevelStructure((0, 4, 8))
    d1 = ricl_exact(a, SparsityPattern(lv, (1, 1))).delta
    d2 = ricl_exact(a, SparsityPattern(lv, (2, 1))).delta
    d3 = ricl_exact(a, SparsityPattern(lv, (2, 3))).delta
    assert d1 <= d2 + 1e-12 <= d3 + 2e-12


def test_ricl_exact_budget_guard():
    a = np.eye(32, dtype=complex)
    lv = LevelStructure((0, 16, 32))
    with pytest.raises(EnumerationBudgetError):
        ricl_exact(a, SparsityPattern(lv, (8, 8)), max_supports=1000)


def test_ricl_exact_witness_recheck_catches_batched_eigen_error(monkeypatch):
    # the batched (3-D) eigen step drifts by 1e-9; the witness's single
    # eigvalsh does not, so the self-check must refuse the certificate
    rng = np.random.default_rng(10)
    a = (rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))) / math.sqrt(8)
    pattern = SparsityPattern(LevelStructure((0, 4, 8)), (2, 1))
    eigvalsh = np.linalg.eigvalsh

    def drifting(mats):
        vals = eigvalsh(mats)
        return vals + 1e-9 if np.ndim(mats) == 3 else vals

    ricl_exact(a, pattern)
    monkeypatch.setattr(np.linalg, "eigvalsh", drifting)
    with pytest.raises(RuntimeError, match="witness support"):
        ricl_exact(a, pattern)


def test_ricl_exact_zero_pattern():
    rep = ricl_exact(np.eye(4, dtype=complex), SparsityPattern(LevelStructure((0, 4)), (0,)))
    assert rep.delta == 0.0
    # nothing reads the Gram of an empty pattern, so it is never formed (4 MB at n = 512)
    tracemalloc.start()
    try:
        rep = ricl_exact(np.ones((4, 512), dtype=complex),
                         SparsityPattern(LevelStructure((0, 512)), (0,)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.delta == 0.0 and rep.supports_examined == 1
    assert peak < 1e6


def test_ricl_exact_spectra_only_on_request():
    a, pattern = _three_level_case()
    full = ricl_exact(a, pattern)
    bare = ricl_exact(a, pattern, spectra=False)
    assert bare == full and bare.supports_examined == len(full.lam_min)
    assert bare.lam_min is None and bare.lam_max is None
    # certify keeps them only for a caller that asks; (1, 1, 1) doubles to ``pattern``
    half = SparsityPattern(pattern.levels, (1, 1, 1))
    assert certify_recovery(a, half).ricl.lam_min is None
    assert np.array_equal(certify_recovery(a, half, spectra=True).ricl.lam_min, full.lam_min)


def test_ricl_exact_rejects_non_finite_matrices():
    pattern = SparsityPattern(LevelStructure((0, 4, 8)), (1, 1))
    one_inf = np.eye(6, 8)
    one_inf[2, 5] = np.inf
    for a in (np.full((6, 8), np.nan), one_inf):
        with pytest.raises(ValueError, match="the matrix has non-finite entries"):
            ricl_exact(a, pattern)


def test_ricl_monte_carlo_rejects_non_finite_matrices():
    pattern = SparsityPattern(LevelStructure((0, 4, 8)), (1, 1))
    with pytest.raises(ValueError, match="the matrix has non-finite entries"):
        ricl_monte_carlo(np.full((6, 8), np.nan), pattern, trials=20, seed=1)


def test_ricl_monte_carlo_saturated_is_zero():
    u, lv = fourier_haar_matrix(8)
    scheme = draw_scheme(lv, lv.widths, r0=lv.r, seed=0)
    op = build_measurement(u, scheme)
    rep = ricl_monte_carlo(op, SparsityPattern(lv, (1, 1, 1)), trials=50, seed=1)
    assert rep.delta <= 1e-10


@pytest.mark.parametrize("trials", [2.9, "3", 0])
def test_ricl_monte_carlo_rejects_non_integer_trials(trials):
    # int(2.9) used to run 2 trials without a word
    a = np.eye(4, dtype=complex)
    pattern = SparsityPattern(LevelStructure((0, 4)), (1,))
    with pytest.raises(ValueError, match=f"trials must be an integer >= 1, got {trials!r}"):
        ricl_monte_carlo(a, pattern, trials=trials, seed=1)
    assert ricl_monte_carlo(a, pattern, trials=np.int64(3), seed=1).supports_examined == 3


def test_ricl_monte_carlo_nested_monotone_and_below_exact():
    u, lv = fourier_haar_matrix(16)
    pattern = SparsityPattern(lv, (1, 1, 1, 1))
    op = build_measurement(u, draw_scheme(lv, (2, 2, 2, 4), r0=2, seed=5))
    exact = ricl_exact(op, pattern).delta
    prev = 0.0
    for trials in (10, 100, 1000):
        val = ricl_monte_carlo(op, pattern, trials=trials, seed=11).delta
        assert prev <= val + 1e-15
        assert val <= exact + 1e-10
        prev = val


def test_ricl_monte_carlo_below_exact_fuzzed():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 9))
        mrows = int(rng.integers(2, n + 2))
        a = (rng.standard_normal((mrows, n)) + 1j * rng.standard_normal((mrows, n))) / math.sqrt(n)
        cut = int(rng.integers(1, n))
        pattern = SparsityPattern(LevelStructure((0, cut, n)), (1, min(1, n - cut)))
        exact = ricl_exact(a, pattern).delta
        report = ricl_monte_carlo(a, pattern, trials=40, seed=int(rng.integers(2**31)))
        mc = report.delta
        assert mc <= exact + 1e-10
        cols = a[:, np.nonzero(report.witness_vector)[0]]
        vals = np.linalg.eigvalsh(cols.conj().T @ cols)
        assert mc >= max(vals[-1] - 1.0, 1.0 - vals[0]) - 1e-12


def test_ricl_monte_carlo_close_to_exact_with_many_trials():
    u, lv = fourier_haar_matrix(16)
    pattern = SparsityPattern(lv, (1, 1, 1, 1))
    op = build_measurement(u, draw_scheme(lv, (2, 2, 2, 4), r0=2, seed=5))
    exact = ricl_exact(op, pattern).delta
    mc = ricl_monte_carlo(op, pattern, trials=10000, seed=11).delta
    assert 0.8 * exact <= mc <= exact + 1e-10


def test_certify_saturated_sufficient():
    u, lv = fourier_haar_matrix(8)
    op = build_measurement(u, draw_scheme(lv, lv.widths, r0=lv.r, seed=0))
    report = certify_recovery(op, SparsityPattern(lv, (1, 1, 1)))
    assert report.verdict == "sufficient"
    assert report.delta <= 1e-10
    assert report.method == "exact"


def test_certify_row_selector_insufficient():
    a = np.array([[1.0, 0.0]])
    pattern = SparsityPattern(LevelStructure((0, 1, 2)), (1, 1))
    report = certify_recovery(a, pattern)
    # 2s clamps back to (1, 1); the witness e2 gives delta = 1 above any threshold
    assert report.doubled_pattern.s == (1, 1)
    assert report.doubling_clamped == (True, True)
    assert report.verdict == "insufficient"
    assert report.delta >= 1.0 - 1e-12


def test_certify_monte_carlo_fallback_refutes():
    # tiny budget forces the sampled route; a rank-deficient A is refuted
    rng = np.random.default_rng(2)
    a = np.zeros((2, 12), dtype=complex)
    a[0, 0] = 1.0
    a[1, 1] = 1.0
    lv = LevelStructure((0, 6, 12))
    pattern = SparsityPattern(lv, (2, 2))
    report = certify_recovery(a, pattern, max_supports=10, mc_trials=200, seed=9)
    assert report.method == "monte-carlo"
    assert report.verdict == "insufficient"


def test_certify_monte_carlo_inconclusive_near_isometry():
    u, lv = fourier_haar_matrix(16)
    op = build_measurement(u, draw_scheme(lv, lv.widths, r0=4, seed=0))
    pattern = SparsityPattern(lv, (1, 1, 1, 2))
    report = certify_recovery(op, pattern, max_supports=3, mc_trials=50, seed=4)
    # the sampled lower bound of a saturated isometry is ~0, below threshold
    assert report.method == "monte-carlo"
    assert report.verdict == "inconclusive"
