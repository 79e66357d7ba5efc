import numpy as np
import pytest

from ripl_lab import (
    CoherenceProfile,
    LevelStructure,
    SearchBudgetError,
    SparsityPattern,
    dft_matrix,
    fourier_haar_matrix,
    gaussian_matrix,
    global_coherence,
    haar_matrix,
    local_coherence,
    nonuniform_local_coherence,
    relative_sparsity,
)


def test_global_coherence_identity_and_dft():
    assert global_coherence(np.eye(5)) == 1.0
    assert global_coherence(dft_matrix(8)) == pytest.approx(1.0 / 8, abs=1e-15)


def test_local_coherence_identity_blocks():
    ls = LevelStructure((0, 2, 4))
    mu = local_coherence(np.eye(4), ls, ls)
    assert np.array_equal(mu, [[1, 0], [0, 1]])


def test_local_coherence_max_equals_global():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    samp = LevelStructure((0, 3, 8))
    spars = LevelStructure((0, 2, 5, 8))
    mu = local_coherence(u, samp, spars)
    assert mu.max() == pytest.approx(global_coherence(u), abs=0)
    fh, lv = fourier_haar_matrix(16)
    g = gaussian_matrix(8, 8, np.random.default_rng(3))
    g[-1, -1] = 2 * np.abs(g).max()  # the maximum sits in the last block
    for mat, levels in ((dft_matrix(16), lv), (haar_matrix(16), lv), (fh, lv), (g, spars)):
        profile = CoherenceProfile.from_matrix(mat, levels, levels)
        assert profile.mu_global == global_coherence(mat)


def test_local_coherence_dimension_mismatch():
    with pytest.raises(ValueError):
        local_coherence(np.eye(4), LevelStructure((0, 2, 6)), LevelStructure((0, 4)))


def test_nonuniform_variant_examples():
    assert np.allclose(
        nonuniform_local_coherence([[1.0, 0.25], [0.0, 1.0]]), [[1.0, 0.5], [0.0, 1.0]]
    )
    const = np.full((3, 3), 0.3)
    assert np.allclose(nonuniform_local_coherence(const), const)
    diag = np.diag([0.5, 0.25])
    assert np.allclose(nonuniform_local_coherence(diag), diag)


def test_nonuniform_variant_dominates_fuzzed():
    rng = np.random.default_rng(13)
    for _ in range(100):
        mu = rng.random((4, 4))
        tilde = nonuniform_local_coherence(mu)
        assert np.all(tilde >= mu - 1e-15)


def test_profile_invariants_fourier_haar():
    u, lv = fourier_haar_matrix(32)
    prof = CoherenceProfile.from_matrix(u, lv, lv)
    n = 32
    assert 1.0 / n <= prof.mu_global <= 1.0 + 1e-12
    assert np.all(prof.mu_local <= prof.mu_global + 1e-12)
    assert np.all(prof.mu_tilde >= prof.mu_local - 1e-15)


def test_relative_sparsity_identity_alignment():
    ls = LevelStructure((0, 2, 4))
    rep = relative_sparsity(np.eye(4), ls, ls, (1, 2), phases=2)
    assert np.allclose(rep.values, [1.0, 2.0], atol=1e-12)
    assert rep.exact


def test_relative_sparsity_zero_budget():
    ls = LevelStructure((0, 2, 4))
    rep = relative_sparsity(np.eye(4), ls, ls, (0, 0), phases=2)
    assert np.array_equal(rep.values, [0.0, 0.0])


def test_relative_sparsity_monotone_in_budgets():
    u, lv = fourier_haar_matrix(8)
    small = relative_sparsity(u, lv, lv, (1, 0, 1), phases=4).values
    large = relative_sparsity(u, lv, lv, (1, 1, 2), phases=4).values
    assert np.all(large >= small - 1e-12)


def test_relative_sparsity_phase_refinement_non_decreasing():
    u, lv = fourier_haar_matrix(8)
    prev = None
    for phases in (2, 4, 8):
        vals = relative_sparsity(u, lv, lv, (1, 1, 1), phases=phases).values
        if prev is not None:
            assert np.all(vals >= prev - 1e-12)
        prev = vals


def test_relative_sparsity_flags_complex_as_lower_bound():
    u, lv = fourier_haar_matrix(8)
    rep = relative_sparsity(u, lv, lv, (1, 0, 0), phases=4)
    assert not rep.exact
    assert rep.certificates[0][0]  # certifying support recorded


def test_relative_sparsity_fourier_haar_interference_bound():
    # recorded constant: S_k <= 0.91 * sum_l 2^(-|k-l|/2) s_l at N = 16
    u, lv = fourier_haar_matrix(16)
    s = (1, 1, 1, 1)
    rep = relative_sparsity(u, lv, lv, s, phases=4)
    for k in range(4):
        bound = sum(2.0 ** (-abs(k - l) / 2) * s[l] for l in range(4))
        assert rep.values[k] <= 0.91 * bound


def test_relative_sparsity_upper_bound_diagnostic():
    u, lv = fourier_haar_matrix(16)
    rep = relative_sparsity(u, lv, lv, (1, 1, 1, 1), phases=4)
    assert np.all(rep.values <= rep.upper_bound + 1e-10)


def test_relative_sparsity_budget_guard():
    u, lv = fourier_haar_matrix(16)
    with pytest.raises(SearchBudgetError):
        relative_sparsity(u, lv, lv, (2, 2, 4, 8), phases=4, max_evaluations=1000)


def test_relative_sparsity_requires_even_phase_grid():
    ls = LevelStructure((0, 2, 4))
    with pytest.raises(ValueError, match="even"):
        relative_sparsity(np.eye(4), ls, ls, (1, 1), phases=3)


def test_relative_sparsity_rejects_foreign_pattern():
    ls = LevelStructure((0, 2, 4))
    other = SparsityPattern(LevelStructure((0, 1, 4)), (1, 1))
    with pytest.raises(ValueError):
        relative_sparsity(np.eye(4), ls, ls, other, phases=2)
