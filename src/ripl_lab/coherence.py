"""Coherence profiles and relative sparsities of an isometry.

The global coherence is the largest squared entry modulus.  The local
coherence matrix refines it per (sampling level, sparsity level) block;
its nonuniform variant mu~_{k,l} = max_t sqrt(mu_{k,l} mu_{k,t}) is the
(entrywise larger) quantity required by nonuniform recovery conditions.
For Fourier--Haar the block maxima come from the operator's (N, r+1)
table of |U|^2 per (row, Haar scale), so U is never built.
The relative sparsity S_k is the worst-case energy a unit-inf-norm
level-sparse vector can place into sampling block k.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .levels import LevelStructure, SparsityPattern, count_supports, support_blocks

__all__ = [
    "CoherenceProfile",
    "RelativeSparsityReport",
    "SearchBudgetError",
    "fourier_haar_local_coherence",
    "global_coherence",
    "local_coherence",
    "nonuniform_local_coherence",
    "relative_sparsity",
]


class SearchBudgetError(RuntimeError):
    """An exhaustive search would exceed its configured budget."""


def global_coherence(u):
    """max_{i,j} |U_ij|^2 over a square matrix."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"coherence needs a square matrix, got {u.shape}")
    return float(np.max(np.abs(u) ** 2))


def _check_partition(u, levels, what):
    if levels.n != u.shape[0]:
        raise ValueError(f"{what} levels end at {levels.n}, matrix has {u.shape[0]} rows")


def _block_maxima(sq, sampling, column_slices):
    out = np.empty((sampling.r, len(column_slices)))
    for k in range(sampling.r):
        rows = sq[sampling.level_slice(k + 1)]
        for l, cols in enumerate(column_slices):
            out[k, l] = rows[:, cols].max()
    return out


def local_coherence(u, sampling, sparsity):
    """r x r matrix of block maxima of |U_ij|^2.

    Entry (k, l) is the maximum over rows in sampling level k and
    columns in sparsity level l.
    """
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"local coherence needs a square matrix, got {u.shape}")
    _check_partition(u, sampling, "sampling")
    _check_partition(u, sparsity, "sparsity")
    slices = [sparsity.level_slice(l) for l in range(1, sparsity.r + 1)]
    return _block_maxima(np.abs(u) ** 2, sampling, slices)


def fourier_haar_local_coherence(table, sampling, sparsity):
    """``local_coherence`` of the Fourier--Haar matrix from ``fourier_haar_table(N)``.

    Haar column j reads table column ``j.bit_length()``, so a sparsity level
    spans the table columns of its first and last Haar columns."""
    table = np.asarray(table)
    _check_partition(table, sampling, "sampling")
    _check_partition(table, sparsity, "sparsity")
    bounds = sparsity.boundaries
    slices = [slice(lo.bit_length(), (hi - 1).bit_length() + 1)
              for lo, hi in zip(bounds[:-1], bounds[1:])]
    return _block_maxima(table, sampling, slices)


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

    def rows_csv(self):
        """Rows (k, l, mu, mu_tilde), 1-based levels."""
        rows = []
        for k in range(self.sampling.r):
            for l in range(self.sparsity.r):
                rows.append((k + 1, l + 1, self.mu_local[k, l], self.mu_tilde[k, l]))
        return rows


@dataclass(frozen=True)
class RelativeSparsityReport:
    """Per-sampling-level worst-case energies with their certificates.

    ``exact`` is True only when the phase grid provably attains the
    maximum (real matrix, +-1 grid); otherwise the values are lower
    bounds from the exhaustive grid search.  ``certificates[k]`` is the
    (1-based support indices, phase multipliers) pair achieving values[k].
    ``upper_bound`` is the cheap analytic bound
    sum_{i in level k} (sum_l s_l * max_{j in level l} |U_ij|)^2,
    a soft diagnostic bracketing the search from above.
    """

    values: np.ndarray
    exact: bool
    supports_examined: int
    evaluations: int
    certificates: tuple
    upper_bound: np.ndarray


def _analytic_upper_bound(absu, sampling, sparsity, s):
    ub = np.empty(sampling.r)
    per_level_max = np.stack(
        [absu[:, sparsity.level_slice(l)].max(axis=1) for l in range(1, sparsity.r + 1)],
        axis=1,
    )
    row_bound = per_level_max @ np.asarray(s, dtype=float)
    for k in range(1, sampling.r + 1):
        ub[k - 1] = float(np.sum(row_bound[sampling.level_slice(k)] ** 2))
    return ub


def relative_sparsity(u, sampling, sparsity, s, phases=2, max_evaluations=10**6):
    """Exhaustive search for the relative sparsities S_1..S_r.

    Maximizes ||P_k U z||^2 over vectors z supported on exactly s_l
    indices per sparsity level with entries drawn from the unimodular
    grid exp(2*pi*1j*q/phases).  The search is exact for real matrices
    with phases = 2 and otherwise yields certified lower bounds that are
    non-decreasing under grid refinement (phases -> 2*phases).

    ``phases`` must be even: a negation-closed grid guarantees that
    filling every level to its full budget never decreases the per-level
    maximum (choose the sign of an added coordinate to make the cross
    term non-negative), so supports with smaller counts can be skipped.
    """
    u = np.asarray(u)
    pattern = s if isinstance(s, SparsityPattern) else SparsityPattern(sparsity, tuple(s))
    if pattern.levels.boundaries != sparsity.boundaries:
        raise ValueError("sparsity pattern is bound to a different level structure")
    _check_partition(u, sampling, "sampling")
    _check_partition(u, sparsity, "sparsity")
    phases = int(phases)
    if phases < 2 or phases % 2 != 0:
        raise ValueError("phases must be an even integer >= 2")

    total = pattern.total
    n_supports = count_supports(pattern)
    n_phase = phases**total
    if n_supports * max(n_phase, 1) > max_evaluations:
        raise SearchBudgetError(
            f"{n_supports} supports x {n_phase} phase vectors exceeds "
            f"budget {max_evaluations}"
        )

    absu = np.abs(u)
    ub = _analytic_upper_bound(absu, sampling, sparsity, pattern.s)
    r = sampling.r
    best = np.zeros(r)
    certs = [((), ())] * r
    if total == 0:
        exact = True
        return RelativeSparsityReport(best, exact, 1, 1, tuple(certs), ub)

    grid = np.exp(2j * np.pi * np.arange(phases) / phases)
    combos = np.array(list(product(range(phases), repeat=total)), dtype=np.intp)
    z_grid = grid[combos]  # (P, total)
    level_slices = [sampling.level_slice(k) for k in range(1, r + 1)]

    examined = 0
    for idx in (row for chunk in support_blocks(pattern) for row in chunk):
        examined += 1
        e = z_grid @ u[:, idx].T  # (P, N)
        energy = np.abs(e) ** 2
        for k in range(r):
            block = energy[:, level_slices[k]].sum(axis=1)
            j = int(np.argmax(block))
            if block[j] > best[k]:
                best[k] = float(block[j])
                certs[k] = (tuple((idx + 1).tolist()), tuple(z_grid[j]))

    exact = bool(np.isrealobj(u) or np.max(np.abs(u.imag)) == 0.0) and phases == 2
    return RelativeSparsityReport(
        values=best,
        exact=exact,
        supports_examined=examined,
        evaluations=examined * n_phase,
        certificates=tuple(certs),
        upper_bound=ub,
    )
