"""Concrete isometries and their file formats.

Provides the unitary DFT over the symmetric frequency range
{-N/2+1, ..., N/2}, the orthonormal Haar wavelet basis with
coarse-to-fine column ordering, the product of the band-reordered DFT
with the Haar basis (the flagship coherent isometry whose rows group
into dyadic frequency bands, built by one inverse FFT), its table of
squared moduli per (row, Haar scale), which coherence reads without
building the N x N product, and an i.i.d. Gaussian baseline matrix.

Matrices serialize to a small binary container (two little-endian uint64
dims followed by row-major float64 interleaved re/im).
"""
from __future__ import annotations

import hashlib
import operator
import struct

import numpy as np

from .levels import LevelStructure

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


def haar_matrix(n):
    """Orthonormal Haar basis as columns, coarse to fine.

    Column 1 is the constant scaling vector, column 2 the mother wavelet
    (+ on the first half, - on the second), and columns 2^{k-1}+1..2^k
    hold the wavelets at scale k-1 ordered by translate, left to right.
    """
    n = _require_pow2(n)
    h = np.zeros((n, n))
    h[:, 0] = 1.0 / np.sqrt(n)
    rows = np.arange(n)
    for scale in range(n.bit_length() - 1):
        # row i lies in translate i // support, which is column 2^scale + i // support
        support = n >> scale
        amp = np.sqrt(2.0**scale / n)
        h[rows, 2**scale + rows // support] = np.where(rows % support < support // 2, amp, -amp)
    return h


def _band_rows(n):
    """Transform row (w mod N) of each frequency w of U, in band order."""
    freqs = [0, 1]
    for k in range(1, n.bit_length() - 1):
        freqs += range(-(2**k) + 1, -(2 ** (k - 1)) + 1)
        freqs += range(2 ** (k - 1) + 1, 2**k + 1)
    return np.mod(freqs, n)


def fourier_haar_matrix(n):
    """Band-reordered DFT times the Haar basis, with its sampling levels.

    Returns (U, levels).  U is unitary and is computed as one orthonormal
    inverse FFT of the Haar columns: row (w mod N) of that transform is
    the :func:`dft_matrix` row of frequency w.  The rows run over the
    dyadic frequency bands W_1 = {0, 1}, W_{k+1} = {-2^k+1..-2^{k-1}}
    union {2^{k-1}+1..2^k}, ascending within each band (a byte-stable
    order that affects no block maximum), so the k-th row block is band
    W_k and ``levels`` is ``LevelStructure.dyadic(r)``, boundaries 2^k.
    """
    n = _require_pow2(n)
    # one complex N x N buffer: transformed in place, then its rows are
    # permuted in place cycle by cycle through a single row buffer
    u = np.empty((n, n), dtype=np.complex128)
    u[...] = haar_matrix(n)
    np.fft.ifft(u, axis=0, norm="ortho", out=u)
    source = _band_rows(n)  # row i of U is transform row source[i]
    placed = np.zeros(n, dtype=bool)
    for start in range(n):
        if placed[start]:
            continue
        row = u[start].copy()
        i = start
        while source[i] != start:
            u[i] = u[source[i]]
            placed[i] = True
            i = source[i]
        u[i] = row
        placed[i] = True
    return u, LevelStructure.dyadic(n.bit_length() - 1)


def fourier_haar_table(n):
    """|U|^2 of ``fourier_haar_matrix(n)`` per (row, Haar scale), without U.

    Translates of one Haar wavelet differ by a phase after the DFT, so
    |U_ij|^2 depends only on row i and the scale of column j.  Returns an
    (N, r+1) array: rows in U's band order, column 0 the scaling vector's
    and column 1 + s the scale-s wavelets', so Haar column j reads table
    column ``j.bit_length()``.
    """
    n = _require_pow2(n)
    h = np.zeros((n, n.bit_length()))
    h[:, 0] = 1.0 / np.sqrt(n)
    for scale in range(n.bit_length() - 1):  # each scale's first translate, as haar_matrix
        half = n >> (scale + 1)
        h[:half, scale + 1] = np.sqrt(2.0**scale / n)
        h[half : 2 * half, scale + 1] = -h[0, scale + 1]
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
