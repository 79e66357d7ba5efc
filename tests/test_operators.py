import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ripl_lab import (
    LevelStructure,
    dft_matrix,
    fourier_haar_matrix,
    fourier_haar_table,
    gaussian_matrix,
    global_coherence,
    haar_matrix,
    is_isometry,
    load_matrix,
    matrix_content_hash,
    save_matrix,
)
from ripl_lab.operators import _FourierHaarBlocks, _band_rows

POW2 = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]


def test_dft_2_explicit():
    f = dft_matrix(2)
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(f, expected, atol=1e-15)


def test_dft_rejects_non_power_of_two():
    for bad in (0, 3, 6, 100):
        with pytest.raises(ValueError):
            dft_matrix(bad)


@pytest.mark.parametrize("n", POW2)
def test_dft_unitary(n):
    assert is_isometry(dft_matrix(n), 1e-10)


def test_dft_unimodular_kernel():
    f = dft_matrix(16)
    assert np.max(np.abs(np.abs(f) ** 2 - 1.0 / 16)) < 1e-15


def test_haar_2_explicit():
    h = haar_matrix(2)
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(h, expected, atol=1e-15)


def test_haar_4_third_column():
    h = haar_matrix(4)
    expected = np.array([1, -1, 0, 0]) / np.sqrt(2)
    assert np.allclose(h[:, 2], expected, atol=1e-15)


@pytest.mark.parametrize("n", POW2)
def test_haar_orthonormal(n):
    assert is_isometry(haar_matrix(n), 1e-10)


def _haar_per_translate(n):
    """The Haar basis built one translate at a time: the oracle for haar_matrix."""
    h = np.zeros((n, n))
    h[:, 0] = 1.0 / np.sqrt(n)
    col = 1
    for scale in range(n.bit_length() - 1):
        support = n >> scale
        half = support // 2
        amp = np.sqrt(2.0**scale / n)
        for t in range(2**scale):
            lo = t * support
            h[lo : lo + half, col] = amp
            h[lo + half : lo + support, col] = -amp
            col += 1
    return h


def test_haar_matches_per_translate_oracle_bit_for_bit():
    # compared as integers, so a -0.0 where the oracle has +0.0 fails
    for n in POW2 + [2048, 4096]:
        assert np.array_equal(haar_matrix(n).view(np.uint64),
                              _haar_per_translate(n).view(np.uint64)), n


def test_haar_scaling_and_mother_columns():
    n = 8
    h = haar_matrix(n)
    assert np.allclose(h[:, 0], 1 / np.sqrt(n))
    assert np.allclose(h[:, 1], np.array([1, 1, 1, 1, -1, -1, -1, -1]) / np.sqrt(n))


def test_haar_piecewise_constant_sparsity():
    # one jump: at most one wavelet per scale plus the two coarse columns
    n = 64
    r = 6
    x = np.ones(n)
    x[23:] = -2.0
    coeffs = haar_matrix(n).T @ x
    assert np.count_nonzero(np.abs(coeffs) > 1e-12) <= r + 1


def test_fourier_haar_2_is_identity():
    u, _ = fourier_haar_matrix(2)
    assert np.max(np.abs(u - np.eye(2))) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 256, 1024])
def test_fourier_haar_unitary(n):
    u, _ = fourier_haar_matrix(n)
    assert is_isometry(u, 1e-10)


def test_fourier_haar_fully_coherent():
    u, _ = fourier_haar_matrix(8)
    assert global_coherence(u) == pytest.approx(1.0, abs=1e-12)
    # the extreme entry sits in the first row/column block
    assert abs(u[0, 0]) == pytest.approx(1.0, abs=1e-12)


def _bands(n):
    """Band-ordered frequencies: W_1 = {0, 1},
    W_{k+1} = {-2^k+1..-2^(k-1)} u {2^(k-1)+1..2^k}."""
    bands = [(0, 1)]
    for k in range(1, n.bit_length() - 1):
        neg = tuple(range(-(2**k) + 1, -(2 ** (k - 1)) + 1))
        pos = tuple(range(2 ** (k - 1) + 1, 2**k + 1))
        bands.append(neg + pos)
    return bands


def test_band_layout_partition():
    for n in (4, 16, 128):
        bands = _bands(n)
        r = n.bit_length() - 1
        widths = [2 ** max(k - 1, 1) for k in range(1, r + 1)]
        assert [len(b) for b in bands] == widths
        flat = [w for band in bands for w in band]
        assert sorted(flat) == list(range(-n // 2 + 1, n // 2 + 1))
        assert sorted(np.mod(flat, n).tolist()) == list(range(n))
        _, levels = fourier_haar_matrix(n)
        assert levels.widths == tuple(widths)


def test_band_layout_second_band():
    assert _bands(8) == [(0, 1), (-1, 2), (-3, -2, 3, 4)]
    _, levels = fourier_haar_matrix(8)
    assert levels.boundaries == (0, 2, 4, 8)


def test_fourier_haar_matches_dense_product():
    for n in POW2:
        bands = _bands(n)
        freqs = [w for band in bands for w in band]
        rows = np.add(freqs, n // 2 - 1)  # dft_matrix row i holds frequency i - N/2 + 1
        u, levels = fourier_haar_matrix(n)
        assert np.max(np.abs(u - dft_matrix(n)[rows] @ haar_matrix(n))) <= 1e-12, n
        assert levels == LevelStructure.dyadic(len(bands))


def test_fourier_haar_blocks_equal_one_transform_bit_for_bit():
    # N = 256 fills U in 2 column blocks, N = 1024 in 32
    for n in (256, 1024):
        u, _ = fourier_haar_matrix(n)
        whole = np.fft.ifft(haar_matrix(n), axis=0, norm="ortho")[_band_rows(n)]
        assert np.array_equal(u.view(np.uint64), whole.view(np.uint64)), n


def test_band_rows_keep_the_list_built_order():
    # the band order as it was built before, from a Python list of frequencies
    def listed(n):
        freqs = [0, 1]
        for k in range(1, n.bit_length() - 1):
            freqs += range(-(2**k) + 1, -(2 ** (k - 1)) + 1)
            freqs += range(2 ** (k - 1) + 1, 2**k + 1)
        return np.mod(freqs, n)

    for n in (2, 4, 16, 512, 4096):
        got, want = _band_rows(n), listed(n)
        assert got.dtype == want.dtype and np.array_equal(got, want), n


def test_fourier_haar_table_is_u_first_translates_bit_for_bit():
    for n in (16, 512):
        u, _ = fourier_haar_matrix(n)
        first = np.abs(u[:, [0] + [2**s for s in range(n.bit_length() - 1)]]) ** 2
        assert np.array_equal(fourier_haar_table(n).view(np.uint64), first.view(np.uint64)), n


@pytest.mark.parametrize("build", [
    lambda: fourier_haar_table(4096),
    lambda: [start for start, _ in _FourierHaarBlocks(4096)],  # one full pass over the blocks
], ids=["table", "blocks"])
def test_fourier_haar_columns_hold_no_n_by_n_temporary(build):
    # one float64 N x N temporary at N = 4096 would take 128 MB
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_gaussian_column_norms_and_determinism():
    rng = np.random.default_rng(17)
    g = gaussian_matrix(256, 1000, rng)
    mean_colnorm = float(np.mean(np.sum(g**2, axis=0)))
    assert abs(mean_colnorm - 1.0) < 0.1
    g2 = gaussian_matrix(256, 1000, np.random.default_rng(17))
    assert np.array_equal(g, g2)


def test_is_isometry_examples():
    assert is_isometry(np.eye(3), 1e-12)
    assert not is_isometry(2 * np.eye(3), 1e-9)
    with pytest.raises(ValueError):
        is_isometry(np.ones((2, 3)))
    u, _ = fourier_haar_matrix(64)
    assert is_isometry(u, 1e-10)


def test_matrix_file_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    mat = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    path = tmp_path / "m.bin"
    save_matrix(path, mat)
    back = load_matrix(path)
    assert np.array_equal(back, mat.astype(np.complex128))
    # container layout: 16-byte header + interleaved float64 payload
    assert path.stat().st_size == 16 + 5 * 3 * 2 * 8


def test_matrix_content_hash_stable():
    mat = np.eye(3)
    assert matrix_content_hash(mat) == matrix_content_hash(mat.astype(complex))
    assert matrix_content_hash(mat) != matrix_content_hash(2 * mat)


def test_matrix_container_round_trips_bit_for_bit(tmp_path):
    # a signed zero, an infinite and a NaN part must come back unchanged
    mat = np.array([[complex(-0.0, 1.0), complex(1.0, math.inf)],
                    [complex(math.nan, -0.0), complex(-math.inf, math.nan)]])
    path = tmp_path / "m.bin"
    save_matrix(path, mat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = load_matrix(path)
    assert back.dtype == np.complex128 and back.flags.writeable
    assert matrix_content_hash(back) == matrix_content_hash(mat)
    assert back.tobytes() == mat.tobytes()
