"""Concrete isometries and their file formats.

Provides the unitary DFT over the symmetric frequency range
{-N/2+1, ..., N/2}, the orthonormal Haar wavelet basis with
coarse-to-fine column ordering, the product of the band-reordered DFT
with the Haar basis (the flagship coherent isometry whose rows group
into dyadic frequency bands, inverse FFTs of 512 KiB column blocks, from
which measurements gather rows without U; recovery past its dense stack
budget reads only the blocks' transform-row order and applies each drawn
A as a fast Haar transform and an FFT), its table of squared moduli
per (row, Haar scale), read by coherence, and an i.i.d. Gaussian baseline.

Matrices serialize to a small binary container (two little-endian uint64
dims followed by row-major float64 interleaved re/im).
"""
from __future__ import annotations

import hashlib
import operator
import struct

import numpy as np

from .levels import _STACK_BYTES, LevelStructure

__all__ = [
    "dft_matrix",
    "haar_matrix",
    "fourier_haar_matrix",
    "fourier_haar_table",
    "gaussian_matrix",
    "is_isometry",
    "save_matrix",
    "load_matrix",
    "matrix_content_hash",
]

_MAX_DENSE_N = 4096


def _require_pow2(n):
    n = operator.index(n)
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"N must be a power of two >= 2, got {n}")
    if n > _MAX_DENSE_N:
        raise ValueError(f"dense construction capped at N = {_MAX_DENSE_N}; "
                         f"the |U|^2 table keeps the same cap (got N = {n})")
    return n


def dft_matrix(n):
    """Unitary DFT matrix of size N = 2^r.

    Row i (0-based) holds the frequency w = i - N/2 + 1, so rows run over
    w = -N/2+1, ..., N/2; entry (w, j) is exp(2*pi*1j*(j-1)*w/N)/sqrt(N).
    """
    n = _require_pow2(n)
    freqs = np.arange(-n // 2 + 1, n // 2 + 1)
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(freqs, j) / n) / np.sqrt(n)


def _haar_columns(n, cols):
    """Haar columns ``cols`` (ints) as float64 (N, len(cols)), for H, U and |U|^2: column 0 is
    1/sqrt(N); column 2^s + t is sqrt(2^s/N), then its negation, on [tN/2^s, (t+1)N/2^s)."""
    h = np.zeros((n, len(cols)))
    for k, j in enumerate(cols):
        s = max(j.bit_length() - 1, 0)  # the scale, 2^s <= j < 2^(s+1); column 0 takes s = t = 0
        lo, half = j % 2**s * (n >> s), n >> (s + 1)  # the support is [lo, lo + 2 half)
        amp = np.sqrt(2.0**s / n) if j else 1.0 / np.sqrt(n)
        h[lo:lo + half, k] = amp
        h[lo + half:lo + 2 * half, k] = -amp if j else amp  # the scaling column is constant
    return h


def haar_matrix(n):
    """Orthonormal Haar basis as columns, coarse to fine.

    Column 1 is the constant scaling vector, column 2 the mother wavelet
    (+ on the first half, - on the second), and columns 2^{k-1}+1..2^k
    hold the wavelets at scale k-1 ordered by translate, left to right.
    """
    n = _require_pow2(n)
    return _haar_columns(n, range(n))


def _band_rows(n):
    """Transform row (w mod N) of each frequency w of U, in band order."""
    bands = [np.arange(2)]
    for k in range(1, n.bit_length() - 1):
        bands += np.arange(-(2**k) + 1, -(2 ** (k - 1)) + 1), np.arange(2 ** (k - 1) + 1, 2**k + 1)
    return np.concatenate(bands) % n


class _FourierHaarBlocks:
    """U of :func:`fourier_haar_matrix` (its ``shape`` and ``dtype``) as 512 KiB column blocks:
    iterating yields (start, block), the inverse FFT of Haar columns start.. in transform-row
    order, so U[i, start + j] is block[rows[i], j] and a caller gathers only the rows it needs."""

    def __init__(self, n):
        n = _require_pow2(n)
        self.shape, self.dtype, self.rows = (n, n), np.dtype(np.complex128), _band_rows(n)

    def __iter__(self):
        n = self.shape[0]
        width = max(1, _STACK_BYTES // (16 * n))  # columns per block: at most 512 KiB of U
        for start in range(0, n, width):
            h = _haar_columns(n, range(start, min(start + width, n)))
            yield start, np.fft.ifft(h, axis=0, norm="ortho")


def fourier_haar_matrix(n):
    """Band-reordered DFT times the Haar basis, with its sampling levels.

    Returns (U, levels).  U is unitary, every row of :class:`_FourierHaarBlocks`,
    the orthonormal inverse FFTs of its Haar columns: transform row (w mod N)
    is the :func:`dft_matrix` row of frequency w.  The rows run over the
    dyadic frequency bands W_1 = {0, 1}, W_{k+1} = {-2^k+1..-2^{k-1}}
    union {2^{k-1}+1..2^k}, ascending within each band (a byte-stable
    order that affects no block maximum), so the k-th row block is band
    W_k and ``levels`` is ``LevelStructure.dyadic(r)``, boundaries 2^k.
    """
    blocks = _FourierHaarBlocks(n)
    u = np.empty(blocks.shape, dtype=blocks.dtype)
    for start, block in blocks:
        u[:, start:start + block.shape[1]] = block[blocks.rows]
    return u, LevelStructure.dyadic(blocks.shape[0].bit_length() - 1)


def fourier_haar_table(n):
    """|U|^2 of ``fourier_haar_matrix(n)`` per (row, Haar scale), without U.

    Translates of one Haar wavelet differ by a phase after the DFT, so
    |U_ij|^2 depends only on row i and the scale of column j.  Returns an
    (N, r+1) array: rows in U's band order, column 0 the scaling vector's
    and column 1 + s the scale-s wavelets', so Haar column j reads table
    column ``j.bit_length()``.
    """
    n = _require_pow2(n)
    h = _haar_columns(n, [0] + [2**s for s in range(n.bit_length() - 1)])  # first translates
    return np.abs(np.fft.ifft(h, axis=0, norm="ortho")[_band_rows(n)]) ** 2


def gaussian_matrix(m, n, rng):
    """m x N matrix of i.i.d. real Gaussian entries with variance 1/m."""
    m = operator.index(m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, operator.index(n)))


def is_isometry(mat, tol=1e-10):
    """True iff ||M* M - I||_max <= tol (square matrices only)."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"is_isometry needs a square matrix, got {mat.shape}")
    gram = mat.conj().T @ mat
    return float(np.max(np.abs(gram - np.eye(mat.shape[0])))) <= tol


def _matrix_bytes(mat):
    mat = np.ascontiguousarray(mat, dtype="<c16")
    rows, cols = mat.shape
    return struct.pack("<QQ", rows, cols) + mat.tobytes()


def save_matrix(path, mat):
    """Write the binary container: uint64 rows, uint64 cols, re/im f64."""
    with open(path, "wb") as fh:
        fh.write(_matrix_bytes(mat))


def load_matrix(path):
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"truncated matrix file {path}")
        rows, cols = struct.unpack("<QQ", header)
        payload = fh.read()
    if len(payload) != rows * cols * 16:
        raise ValueError(f"matrix file {path} has wrong payload size")
    # astype copies, so the returned array is writeable
    return np.frombuffer(payload, "<c16").reshape(rows, cols).astype(np.complex128)


def matrix_content_hash(mat):
    """sha256 hex digest of the binary container form of ``mat``."""
    return hashlib.sha256(_matrix_bytes(mat)).hexdigest()
