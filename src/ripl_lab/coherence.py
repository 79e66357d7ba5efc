"""Coherence profiles of an isometry.

The global coherence is the largest squared entry modulus.  The local
coherence matrix refines it per (sampling level, sparsity level) block;
its nonuniform variant mu~_{k,l} = max_t sqrt(mu_{k,l} mu_{k,t}) is the
(entrywise larger) quantity required by nonuniform recovery conditions.
Fourier--Haar U, given as its column blocks, has its block maxima read
from the operator's (N, r+1) table of |U|^2 per (row, Haar scale), so
U is never built.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levels import LevelStructure
from .operators import _FourierHaarBlocks, fourier_haar_table

__all__ = [
    "CoherenceProfile",
    "global_coherence",
    "local_coherence",
    "nonuniform_local_coherence",
]


def global_coherence(u):
    """max_{i,j} |U_ij|^2 over a square matrix."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"coherence needs a square matrix, got {u.shape}")
    return float(np.max(np.abs(u) ** 2))


def _check_partition(u, levels, what):
    if levels.n != u.shape[0]:
        raise ValueError(f"{what} levels end at {levels.n}, matrix has {u.shape[0]} rows")


def local_coherence(u, sampling, sparsity):
    """r x r matrix of block maxima of |U_ij|^2.

    Entry (k, l) is the maximum over rows in sampling level k and
    columns in sparsity level l.  Fourier--Haar U's column blocks are
    read from ``fourier_haar_table(N)``: Haar column j reads table column
    ``j.bit_length()``, so a sparsity level spans the table columns of its
    first and last Haar columns.
    """
    u = u if isinstance(u, _FourierHaarBlocks) else np.asarray(u)
    if len(u.shape) != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"local coherence needs a square matrix, got {u.shape}")
    _check_partition(u, sampling, "sampling")
    _check_partition(u, sparsity, "sparsity")
    bounds = list(zip(sparsity.boundaries[:-1], sparsity.boundaries[1:]))
    if isinstance(u, _FourierHaarBlocks):
        sq = fourier_haar_table(u.shape[0])
        slices = [slice(lo.bit_length(), (hi - 1).bit_length() + 1) for lo, hi in bounds]
    else:
        sq, slices = np.abs(u) ** 2, [slice(lo, hi) for lo, hi in bounds]
    out = np.empty((sampling.r, len(slices)))
    for k in range(sampling.r):
        rows = sq[sampling.level_slice(k + 1)]
        for l, cols in enumerate(slices):
            out[k, l] = rows[:, cols].max()
    return out


def nonuniform_local_coherence(mu_local):
    """mu~_{k,l} = max_t sqrt(mu_{k,l} mu_{k,t}), entrywise >= mu_local."""
    mu = np.asarray(mu_local, dtype=float)
    if np.any(mu < 0):
        raise ValueError("local coherences must be non-negative")
    row_max = mu.max(axis=1, keepdims=True)
    return np.sqrt(mu * row_max)


@dataclass(frozen=True)
class CoherenceProfile:
    """Global, local and nonuniform-local coherences of one isometry."""

    mu_global: float
    mu_local: np.ndarray
    mu_tilde: np.ndarray
    sampling: LevelStructure
    sparsity: LevelStructure

    @classmethod
    def from_matrix(cls, u, sampling, sparsity):
        return cls.from_local(local_coherence(u, sampling, sparsity), sampling, sparsity)

    @classmethod
    def from_local(cls, mu_local, sampling, sparsity):
        # the blocks partition U, so their largest maximum is the global one
        return cls(
            mu_global=float(mu_local.max()),
            mu_local=mu_local,
            mu_tilde=nonuniform_local_coherence(mu_local),
            sampling=sampling,
            sparsity=sparsity,
        )

    def to_dict(self):
        return {
            "mu_global": self.mu_global,
            "mu_local": self.mu_local.tolist(),
            "mu_tilde": self.mu_tilde.tolist(),
            "sampling_boundaries": list(self.sampling.boundaries),
            "sparsity_boundaries": list(self.sparsity.boundaries),
        }
