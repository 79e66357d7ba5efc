"""Multilevel random subsampling and the scaled measurement matrix.

A scheme draws m_k row indices i.i.d. uniformly (with replacement) from
each sampling level; the first r0 levels may instead be saturated, i.e.
taken in full, deterministically.  The measurement matrix stacks the
selected rows of an isometry scaled by 1/sqrt(p_k) with
p_k = m_k / (N_k - N_{k-1}), which makes A* A an unbiased estimate of
the identity.

Also implements the measurement allocation, one formula
m_k = ceil(scale * w_k * (a log(2m~) + b)), clamped to [1, width_k] and
solved as a fixed point in the total m~ inside the log, with one row per
mode (s the total sparsity, r the level count):

- "uniform-general", the general local-coherence condition:
  scale = C delta^-2, w_k = width_k sum_l mu_{k,l} s_l,
  a = r log(2N) log^2(2s), b = log(1/eps);
- "haar-uniform", its Fourier--Haar corollary: scale = C delta^-2,
  w_k the 2^-|k-l| kernel over bands l > r0, a = log^2(2N) log^2(2s),
  b = log(1/eps);
- "haar-nonuniform", the nonuniform comparison condition: scale = C,
  w_k the 2^-|k-l|/2 kernel, a = 0, b = log(s/eps) log(N).

Every allocation takes an explicit user constant C: the underlying
sufficient conditions hold only up to unspecified absolute constants,
so guarantees are faithful only for sufficiently large C.
"""
from __future__ import annotations

import math
import numbers
import operator
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .coherence import CoherenceProfile
from .levels import LevelError, LevelStructure, SparsityPattern
from .operators import _FourierHaarBlocks

__all__ = [
    "SamplingScheme",
    "MeasurementOperator",
    "AllocationResult",
    "draw_scheme",
    "build_measurement",
    "allocate_uniform",
    "allocate_haar",
    "haar_interference_weights",
]


@dataclass(frozen=True)
class SamplingScheme:
    """Per-level draws t_{k,1..m_k} (1-based, repetitions allowed)."""

    levels: LevelStructure
    m: tuple
    draws: tuple
    saturated: tuple
    r0: int = 0
    seed: int | None = None

    def __post_init__(self):
        if len(self.m) != self.levels.r or len(self.draws) != self.levels.r:
            raise LevelError("scheme vectors must have one entry per level")
        _check_counts(self.levels, self.m, self.r0)
        for k in range(1, self.levels.r + 1):
            lo, hi = self.levels.level_range(k)
            mk = self.m[k - 1]
            dk = self.draws[k - 1]
            if len(dk) != mk:
                raise LevelError(f"level {k}: {len(dk)} draws but m_k = {mk}")
            if any(not lo <= t <= hi for t in dk):
                raise LevelError(f"level {k}: draw outside range {lo}..{hi}")
            if self.saturated[k - 1]:
                if dk != tuple(range(lo, hi + 1)):
                    raise LevelError(f"level {k} marked saturated but draws differ")

    def densities(self):
        """p_k = m_k / level width (1.0 on saturated levels)."""
        return tuple(mk / wk for mk, wk in zip(self.m, self.levels.widths))

    def to_dict(self):
        return {
            "N": self.levels.n,
            "boundaries": list(self.levels.boundaries),
            "m": list(self.m),
            "r0": self.r0,
            "seed": self.seed,
            "saturated": list(self.saturated),
            "draws": [list(d) for d in self.draws],
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            levels=LevelStructure.from_dict(d),
            m=tuple(d["m"]),
            draws=tuple(tuple(x) for x in d["draws"]),
            saturated=tuple(bool(v) for v in d["saturated"]),
            r0=operator.index(d.get("r0", 0)),
            seed=d.get("seed"),
        )


def _as_seed_sequence(seed):
    """A fresh SeedSequence: spawning from it never advances the caller's."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                      pool_size=seed.pool_size)
    return np.random.SeedSequence(operator.index(seed))


def _trial_count(trials):
    """``trials`` as an int if it is an integer >= 1; numpy integers count, floats do not."""
    if not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    return int(trials)


def _check_counts(levels, m, r0=0):
    """Validate per-level sample counts against the levels and r0.

    Levels 1..r0 must be requested at full width; the others need
    m_k >= 1.  Returns m as ints.
    """
    m = tuple(operator.index(v) for v in m)
    if len(m) != levels.r:
        raise LevelError(f"m has {len(m)} entries for {levels.r} levels")
    if not 0 <= r0 <= levels.r:
        raise LevelError(f"r0 = {r0} out of range 0..{levels.r}")
    widths = levels.widths
    for k in range(1, r0 + 1):
        if m[k - 1] != widths[k - 1]:
            raise LevelError(
                f"level {k} <= r0 must be fully sampled: m_k = {m[k - 1]}, "
                f"width = {widths[k - 1]}"
            )
    for k in range(r0 + 1, levels.r + 1):
        if m[k - 1] < 1:
            raise LevelError(f"level {k}: m_k must be >= 1")
    return m


def draw_scheme(levels, m, r0=0, seed=0):
    """Draw an (N, m)-multilevel scheme, saturating the first r0 levels.

    Levels 1..r0 take every index of their range deterministically and
    must be requested at full width; levels above r0 draw m_k indices
    i.i.d. uniformly with replacement.  Each level consumes an
    independently derived random stream, so the draws for level k do not
    depend on the other levels' counts.
    """
    m = _check_counts(levels, m, r0)
    ss = _as_seed_sequence(seed)
    streams = ss.spawn(levels.r)
    draws = []
    saturated = []
    for k in range(1, levels.r + 1):
        lo, hi = levels.level_range(k)
        if k <= r0:
            draws.append(tuple(range(lo, hi + 1)))
            saturated.append(True)
        else:
            rng = np.random.default_rng(streams[k - 1])
            draws.append(tuple(int(t) for t in rng.integers(lo, hi + 1, size=m[k - 1])))
            saturated.append(False)
    seed_val = int(seed) if isinstance(seed, (int, np.integer)) else None
    return SamplingScheme(
        levels=levels,
        m=m,
        draws=tuple(draws),
        saturated=tuple(saturated),
        r0=int(r0),
        seed=seed_val,
    )


def k_factor(levels, m):
    """K = max_k (width_k / m_k), the worst inverse sampling density."""
    return max(w / mk for w, mk in zip(levels.widths, m))


def measurement_norm(scheme):
    """||A|| of ``build_measurement(u, scheme)`` for every square isometry u.

    The rows of u are orthonormal, so A A^H is block diagonal with one
    (c / p_k) J_c block per index drawn c times in level k:
    ||A|| = sqrt(max_k c_k / p_k), c_k the largest multiplicity in level k
    (1 on saturated levels, where p_k = 1).
    """
    return math.sqrt(max(max(Counter(dk).values()) / pk
                         for dk, pk in zip(scheme.draws, scheme.densities())))


@dataclass(frozen=True)
class MeasurementOperator:
    """Row-subsampled isometry with 1/sqrt(p_k) level scalings and its K."""

    a: np.ndarray
    k_factor: float


def _fill_measurements(outs, schemes, u):
    """Gather and scale each scheme's rows of ``u``, a square array (one block) or Fourier--Haar
    U's column blocks, straight into its ``out``, in one pass over the blocks."""
    n = schemes[0].levels.n
    if len(u.shape) != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square source matrix, got {u.shape}")
    if u.shape[0] != n:
        raise ValueError(f"scheme levels end at {n}, matrix is {u.shape[0]} x {u.shape[1]}")
    blocks, rows = (u, u.rows) if isinstance(u, _FourierHaarBlocks) else ([(0, u)], np.arange(n))
    picks = [[(rows[np.asarray(dk, dtype=np.intp) - 1], math.sqrt(pk))
              for dk, pk in zip(scheme.draws, scheme.densities())] for scheme in schemes]
    for start, block in blocks:
        cols = slice(start, start + block.shape[1])
        for out, scheme_picks in zip(outs, picks):
            row = 0
            for idx, root_p in scheme_picks:
                np.divide(block[idx], root_p, out=out[row:row + len(idx), cols])
                row += len(idx)


def build_measurement(u, scheme):
    """Assemble the scaled measurement matrix from an isometry and a scheme; from
    Fourier--Haar U's column blocks only the drawn rows are computed, bit for bit."""
    u = u if isinstance(u, _FourierHaarBlocks) else np.asarray(u)
    a = np.empty((sum(scheme.m), scheme.levels.n), dtype=np.result_type(u.dtype, 1.0))
    _fill_measurements([a], [scheme], u)
    return MeasurementOperator(a=a, k_factor=k_factor(scheme.levels, scheme.m))


@dataclass(frozen=True)
class AllocationResult:
    """Per-level sample counts from an allocation formula.

    ``raw`` holds the real-valued right-hand sides at the converged
    implicit log argument, before ceiling and clamping; ``clamped_low``
    and ``clamped_high`` flag levels pushed up to 1 or down to the level
    width.  ``log_arg`` is the converged total inside log(2m) (the
    unsaturated total when r0 > 0).
    """

    m: tuple
    raw: tuple
    clamped_low: tuple
    clamped_high: tuple
    iterations: int
    log_arg: int
    r0: int
    mode: str
    notes: tuple = ()

    @property
    def total(self):
        return sum(self.m)

    def to_dict(self):
        return {
            "m": list(self.m),
            "raw": list(self.raw),
            "clamped_low": list(self.clamped_low),
            "clamped_high": list(self.clamped_high),
            "iterations": self.iterations,
            "log_arg": self.log_arg,
            "r0": self.r0,
            "mode": self.mode,
            "notes": list(self.notes),
        }


# mode -> (Fourier--Haar kernel decay, kernel sums over bands l > r0 only, row), where
# row(C, delta, eps, r, N, s) gives (scale, a, b) of the allocation formula
_MODES = {
    "uniform-general": (None, None, lambda c, delta, eps, r, n, s: (
        c * delta**-2, r * math.log(2.0 * n) * math.log(2.0 * s) ** 2, math.log(1.0 / eps))),
    "haar-uniform": (0.5, True, lambda c, delta, eps, r, n, s: (
        c * delta**-2, math.log(2.0 * n) ** 2 * math.log(2.0 * s) ** 2, math.log(1.0 / eps))),
    "haar-nonuniform": (1.0 / math.sqrt(2.0), False, lambda c, delta, eps, r, n, s: (
        c, 0.0, math.log(s / eps) * math.log(n))),
}


def _allocate(mode, levels, total_s, weights, delta, eps, c, r0, notes=()):
    """Least fixed point of m_k = clamp(ceil(scale w_k (a log(2 m~) + b))).

    m~ is the unsaturated total sum_{k > r0} m_k (the grand total when
    r0 = 0); the first r0 levels are taken in full.  Iterating upward
    from the all-floor vector is monotone (the formula is non-decreasing
    in m~) and bounded by the widths, hence reaches the least fixed
    point.  Each note is also issued as a RuntimeWarning.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < c < math.inf:
        raise ValueError(f"C must be a finite number > 0, got {c}")
    r = levels.r
    if not 0 <= r0 <= r:
        raise ValueError(f"r0 = {r0} out of range 0..{r}")
    if total_s < 1:
        raise ValueError("allocation needs at least one nonzero sparsity")
    for note in notes:
        warnings.warn(note, RuntimeWarning, stacklevel=3)
    scale, a, b = _MODES[mode][2](c, delta, eps, r, levels.n, total_s)
    widths = levels.widths
    m = list(widths[:r0]) + [1] * (r - r0)
    for it in range(1, 21):
        arg = sum(m[r0:])
        log_term = a * math.log(2.0 * max(arg, 1)) + b
        raw = [math.nan] * r0 + [scale * w * log_term for w in weights[r0:]]
        ceil = [math.ceil(v) for v in raw[r0:]]
        new = m[:r0] + [min(max(v, 1), wk) for v, wk in zip(ceil, widths[r0:])]
        if new == m:
            return AllocationResult(
                m=tuple(m),
                raw=tuple(raw),
                clamped_low=(False,) * r0 + tuple(v < 1 for v in ceil),
                clamped_high=(False,) * r0 + tuple(v > wk for v, wk in zip(ceil, widths[r0:])),
                iterations=it,
                log_arg=arg,
                r0=r0,
                mode=mode,
                notes=tuple(notes),
            )
        m = new
    raise RuntimeError("allocation fixed point not stable after 20 iterations")


def allocate_uniform(coh, s, delta, eps, c, r0=0):
    """Per-level counts from the general local-coherence condition.

    The "uniform-general" row of the allocation formula, with
    w_k = (N_k - N_{k-1}) sum_l mu_{k,l} s_l on the profile's sampling
    levels and the pattern ``s`` on its sparsity levels.
    """
    if not isinstance(coh, CoherenceProfile) or not isinstance(s, SparsityPattern):
        raise TypeError("allocate_uniform needs a CoherenceProfile and a SparsityPattern")
    if s.levels.boundaries != coh.sparsity.boundaries:
        raise ValueError("pattern bound to different sparsity levels than the profile")
    interference = coh.mu_local @ np.asarray(s.s, dtype=float)  # sum_l mu_{k,l} s_l
    weights = [wk * float(ik) for wk, ik in zip(coh.sampling.widths, interference)]
    return _allocate("uniform-general", coh.sampling, s.total, weights, delta, eps, c, r0)


def haar_interference_weights(s, mode="uniform", r0=0):
    """Fourier--Haar interference kernel weights per band.

    w_k = s_k + sum_{l != k} decay^{|k-l|} s_l with decay = 1/2 for the
    uniform kernel and 1/sqrt(2) for the nonuniform kernel; the uniform
    kernel restricts the interference sum to bands l > r0, matching the
    fully-sampled variant of the condition.
    """
    decay, from_r0, _ = _MODES.get(f"haar-{mode}", (None,) * 3)
    if decay is None:
        raise ValueError(f"unknown mode {mode!r}")
    s = tuple(operator.index(v) for v in s)
    r = len(s)
    weights = []
    for k in range(r):
        w = float(s[k])
        for l in range(r0 if from_r0 else 0, r):
            if l != k:
                w += decay ** abs(k - l) * s[l]
        weights.append(w)
    return tuple(weights)


def allocate_haar(s, delta, eps, c, r0=0, mode="uniform"):
    """Per-band Fourier sample counts for the Fourier--Haar system.

    ``mode`` "uniform" is the "haar-uniform" row of the allocation
    formula, the closed-form local-coherence condition with the
    2^-|k-l| kernel.  When r0 > 0 the first r0 bands are taken in full;
    this variant is valid under the hypothesis N_{r0} <= s_{r0+1} (the
    saturated bands must not out-measure the first free sparsity), which
    is checked and warned about when violated.

    ``mode`` "nonuniform" is the "haar-nonuniform" row, the comparison
    condition m_k = ceil(C * w_k * log(s/eps) * log(N)) with the larger
    2^-|k-l|/2 kernel; it involves no delta (ignored) and no implicit
    total.
    """
    if not isinstance(s, SparsityPattern):
        s = SparsityPattern(LevelStructure.dyadic(len(s)), s)
    levels = s.levels
    if levels.boundaries != LevelStructure.dyadic(levels.r).boundaries:
        raise LevelError("Fourier--Haar allocation needs dyadic levels N_k = 2^k")
    weights = haar_interference_weights(s.s, mode, r0)
    notes = ()
    if mode == "uniform" and 1 <= r0 < levels.r and levels.boundaries[r0] > s.s[r0]:
        notes = (f"hypothesis N_r0 <= s_(r0+1) violated: {levels.boundaries[r0]} > {s.s[r0]}",)
    return _allocate(f"haar-{mode}", levels, s.total, weights, delta, eps, c, r0, notes)
