import numpy as np
import pytest

from ripl_lab import (
    CoherenceProfile,
    LevelStructure,
    dft_matrix,
    fourier_haar_matrix,
    fourier_haar_table,
    gaussian_matrix,
    global_coherence,
    haar_matrix,
    local_coherence,
    nonuniform_local_coherence,
)
from ripl_lab.operators import _FourierHaarBlocks


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


def _random_levels(rng, n):
    inner = rng.choice(np.arange(1, n), size=min(n - 1, int(rng.integers(0, 6))), replace=False)
    return LevelStructure((0, *sorted(int(b) for b in inner), n))


@pytest.mark.parametrize("n", [2**r for r in range(1, 11)] + [4096])
def test_fourier_haar_table_matches_dense_block_maxima(n):
    u, levels = fourier_haar_matrix(n)
    table = fourier_haar_table(n)
    assert table.shape == (n, levels.r + 1)
    rng = np.random.default_rng(n)
    cases = [(levels, levels)] + [(_random_levels(rng, n), _random_levels(rng, n))
                                  for _ in range(3 if n > 2 else 0)]
    for sampling, sparsity in cases:
        dense = local_coherence(u, sampling, sparsity)
        fast = local_coherence(_FourierHaarBlocks(n), sampling, sparsity)
        assert np.max(np.abs(fast - dense)) <= 1e-15
        dense_p = CoherenceProfile.from_local(dense, sampling, sparsity)
        fast_p = CoherenceProfile.from_local(fast, sampling, sparsity)
        assert abs(fast_p.mu_global - dense_p.mu_global) <= 1e-15
        assert np.max(np.abs(fast_p.mu_tilde - dense_p.mu_tilde)) <= 1e-15
    if n <= 16:  # the dyadic bands agree bit for bit at small N
        fast = local_coherence(_FourierHaarBlocks(n), levels, levels)
        assert np.array_equal(fast, local_coherence(u, levels, levels))


def test_fourier_haar_table_on_custom_boundaries():
    u, _ = fourier_haar_matrix(64)
    for bounds in ((0, 64), (0, 1, 2, 3, 64), (0, 5, 17, 40, 63, 64), (0, 31, 33, 64)):
        for other in ((0, 64), (0, 7, 9, 64), (0, 2, 4, 8, 16, 32, 64)):
            sampling, sparsity = LevelStructure(bounds), LevelStructure(other)
            for pair in ((sampling, sparsity), (sparsity, sampling)):
                dense = local_coherence(u, *pair)
                fast = local_coherence(_FourierHaarBlocks(64), *pair)
                assert np.max(np.abs(fast - dense)) <= 1e-15


def test_fourier_haar_table_validates_n_and_levels():
    for n, message in ((3, "power of two >= 2, got 3"), (0, "got 0"),
                       (8192, "capped at N = 4096")):
        with pytest.raises(ValueError, match=message):
            fourier_haar_table(n)
    with pytest.raises(ValueError, match="sampling levels end at 8"):
        local_coherence(_FourierHaarBlocks(16), LevelStructure((0, 8)), LevelStructure((0, 16)))


def test_n_cap_message_holds_for_dense_and_table():
    # the table path builds nothing dense, so the message names both paths
    message = r"dense construction capped at N = 4096; the \|U\|\^2 table keeps the same cap"
    for build in (fourier_haar_table, fourier_haar_matrix):
        with pytest.raises(ValueError, match=message + r" \(got N = 8192\)"):
            build(8192)
