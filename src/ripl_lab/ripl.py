"""Restricted isometry constants in levels: exact and sampled.

The constant delta_{s,M} of a matrix A is the smallest delta with
(1 - delta) ||x||^2 <= ||A x||^2 <= (1 + delta) ||x||^2 for every
level-sparse x.  Exact computation enumerates supports with exactly s_k
indices per level and takes extremal eigenvalues of each Gram submatrix
G = A_D* A_D; supports with smaller counts are dominated by eigenvalue
interlacing (a principal submatrix cannot widen the spectrum), so the
exact-count maximum equals the full maximum.  The Monte-Carlo variant
samples random level-sparse vectors and is always a lower bound.

Also provides the recovery-sufficiency threshold
1 / sqrt(r (sqrt(rho) + 1/4)^2 + 1) on delta_{2s,M} and a certifier
combining the two.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .levels import SparsityPattern, count_supports, random_sparse_vector, support_blocks
from .sampling import MeasurementOperator, _as_seed_sequence

__all__ = [
    "EnumerationBudgetError",
    "RiclReport",
    "CertificationReport",
    "ricl_exact",
    "ricl_monte_carlo",
    "ripl_threshold",
    "certify_recovery",
]


class EnumerationBudgetError(RuntimeError):
    """Exact enumeration would exceed the configured support budget."""


def _as_matrix(a):
    if isinstance(a, MeasurementOperator):
        return a.a
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class RiclReport:
    """Restricted isometry constant with its certificate.

    For the exact method ``delta`` is attained by ``witness_support``,
    a tuple of 1-based indices;
    for the Monte-Carlo method ``delta`` is a lower bound on the exact
    value and ``witness_vector`` is the best sampled direction.
    ``lam_min`` and ``lam_max`` are the exact method's per-support
    extremal eigenvalues, in enumeration order.
    """

    delta: float
    method: str
    pattern: SparsityPattern
    witness_support: tuple | None = None
    witness_vector: np.ndarray | None = None
    supports_examined: int = 0
    # kept out of ==, hash and repr so exact reports stay comparable and hashable
    lam_min: np.ndarray | None = field(default=None, compare=False, repr=False)
    lam_max: np.ndarray | None = field(default=None, compare=False, repr=False)

    def to_dict(self):
        d = {
            "delta": self.delta,
            "method": self.method,
            "pattern": self.pattern.to_dict(),
            "supports_examined": self.supports_examined,
        }
        if self.witness_support is not None:
            d["witness_support"] = list(self.witness_support)
        if self.witness_vector is not None:
            d["witness_vector_re"] = self.witness_vector.real.tolist()
            d["witness_vector_im"] = self.witness_vector.imag.tolist()
        return d


def ricl_exact(a, pattern, max_supports=10**6):
    """Exact restricted isometry constant in levels by enumeration.

    Enumerates every support with exactly s_k indices per level (which
    suffices, see module docstring), computes the extremal eigenvalues
    of each Gram submatrix with LAPACK (``np.linalg.eigvalsh``, one call
    per block of :func:`~ripl_lab.levels.support_blocks`, gathered with
    one fancy index), and maximizes max(lambda_max - 1, 1 - lambda_min).
    Ties go to the support that comes first in the lexicographic
    enumeration; ``witness_support`` holds its 1-based indices.  The
    result checks itself: one more ``eigvalsh`` of the witness's Gram
    block must reproduce delta to 1e-12, or a ``RuntimeError`` is raised.
    ``lam_min`` and ``lam_max`` of the report hold every support's
    extremes in that order.  Raises
    :class:`EnumerationBudgetError` when the support count exceeds
    ``max_supports``.
    """
    mat = _as_matrix(a)
    if mat.shape[1] != pattern.levels.n:
        raise ValueError(
            f"matrix has {mat.shape[1]} columns, pattern lives in dimension {pattern.levels.n}"
        )
    n_supports = count_supports(pattern)
    if n_supports > max_supports:
        raise EnumerationBudgetError(
            f"{n_supports} supports exceed the budget {max_supports}"
        )
    gram = mat.conj().T @ mat
    if pattern.total == 0:
        return RiclReport(0.0, "exact-enumeration", pattern, (), None, 1,
                          np.empty(0), np.empty(0))

    lam_min = np.empty(n_supports)
    lam_max = np.empty(n_supports)
    best = -math.inf
    best_support = None
    examined = 0
    for idx in support_blocks(pattern):
        vals = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
        stop = examined + len(idx)
        lam_min[examined:stop] = vals[:, 0]
        lam_max[examined:stop] = vals[:, -1]
        deltas = np.maximum(vals[:, -1] - 1.0, 1.0 - vals[:, 0])
        j = int(np.argmax(deltas))
        if deltas[j] > best:
            best = float(deltas[j])
            best_support = tuple((idx[j] + 1).tolist())
        examined = stop

    # the certificate checks itself: delta is attained on its witness (a
    # batched and a single eigvalsh agree to rounding, far inside 1e-12)
    witness = np.asarray(best_support) - 1
    vals = np.linalg.eigvalsh(gram[np.ix_(witness, witness)])
    recheck = max(float(vals[-1]) - 1.0, 1.0 - float(vals[0]))
    if abs(recheck - best) > 1e-12:
        raise RuntimeError(
            f"witness support gives delta {recheck!r}, enumeration found {best!r}"
        )

    return RiclReport(
        delta=max(best, 0.0),
        method="exact-enumeration",
        pattern=pattern,
        witness_support=best_support,
        supports_examined=examined,
        lam_min=lam_min,
        lam_max=lam_max,
    )


def ricl_monte_carlo(a, pattern, trials, seed):
    """Sampled lower bound on the restricted isometry constant in levels.

    Each trial draws a random level-sparse vector from its own derived
    stream and evaluates |  ||Ax||^2 / ||x||^2 - 1 |; every record-breaking
    support is then refined to its exact max(lambda_max - 1, 1 - lambda_min)
    with LAPACK (``np.linalg.eigvalsh`` on its Gram submatrix).  With a
    fixed master seed the estimate is non-decreasing in ``trials`` (the
    first T streams do not depend on the total) and never exceeds the
    exact constant.
    """
    mat = _as_matrix(a)
    if mat.shape[1] != pattern.levels.n:
        raise ValueError(
            f"matrix has {mat.shape[1]} columns, pattern lives in dimension {pattern.levels.n}"
        )
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if pattern.total == 0:
        return RiclReport(0.0, "monte-carlo", pattern, (), None, 0)

    ss = _as_seed_sequence(seed)
    streams = ss.spawn(trials)
    best = -math.inf
    best_x = None
    records = set()  # every record-breaking support; the set is prefix-stable
    # under nested trial counts, keeping the estimate monotone
    for child in streams:
        rng = np.random.default_rng(child)
        x = random_sparse_vector(pattern, rng, magnitude_model="gaussian")
        norm2 = float(np.real(np.vdot(x, x)))
        val = abs(float(np.linalg.norm(mat @ x) ** 2) / norm2 - 1.0)
        if val > best:
            best = val
            best_x = x
            records.add(tuple(np.nonzero(x)[0]))

    delta = max(best, 0.0)
    for idx in records:
        idx = np.asarray(idx, dtype=np.intp)
        cols = mat[:, idx]
        vals = np.linalg.eigvalsh(cols.conj().T @ cols)
        delta = max(delta, float(vals[-1] - 1.0), float(1.0 - vals[0]))
    return RiclReport(
        delta=delta,
        method="monte-carlo",
        pattern=pattern,
        witness_vector=best_x,
        supports_examined=trials,
    )


def ripl_threshold(r, rho):
    """Recovery-sufficiency bound 1 / sqrt(r (sqrt(rho) + 1/4)^2 + 1).

    A restricted isometry constant delta_{2s,M} strictly below this
    value guarantees stable and robust l1 recovery.  An infinite
    sparsity ratio gives 0 (with a warning): no constant can satisfy a
    strict inequality against it.
    """
    r = int(r)
    if r < 1:
        raise ValueError(f"level count must be >= 1, got {r}")
    rho = float(rho)
    if math.isinf(rho):
        warnings.warn(
            "infinite sparsity ratio: recovery threshold degenerates to 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    if rho < 1.0:
        raise ValueError(f"sparsity ratio must be >= 1, got {rho}")
    return 1.0 / math.sqrt(r * (math.sqrt(rho) + 0.25) ** 2 + 1.0)


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of comparing delta_{2s,M} against the recovery threshold."""

    verdict: str  # "sufficient" | "insufficient" | "inconclusive"
    delta: float
    threshold: float
    rho: float
    method: str
    doubled_pattern: SparsityPattern
    doubling_clamped: tuple
    ricl: RiclReport

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "delta": self.delta,
            "threshold": self.threshold,
            "rho": self.rho,
            "method": self.method,
            "doubled_s": list(self.doubled_pattern.s),
            "doubling_clamped": list(self.doubling_clamped),
            "ricl": self.ricl.to_dict(),
        }


def certify_recovery(a, pattern, max_supports=10**6, mc_trials=2000, seed=None):
    """Certify recovery sufficiency via the doubled-order constant.

    Computes delta_{2s,M} (budgets 2 s_k, clamped to the level widths)
    exactly when the enumeration budget allows, otherwise as a
    Monte-Carlo lower bound, and compares against
    ripl_threshold(r, rho(s)).  An exact constant decides either way; a
    lower bound can only refute (at or above the threshold) or be
    inconclusive.  "insufficient" means this sufficient condition fails,
    not that recovery is impossible.
    """
    doubled, clamped = pattern.doubled()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rho = pattern.ratio
    threshold = ripl_threshold(pattern.levels.r, rho) if math.isfinite(rho) else 0.0
    if math.isinf(rho):
        warnings.warn(
            "infinite sparsity ratio: certification can never be sufficient",
            RuntimeWarning,
            stacklevel=2,
        )

    if count_supports(doubled) <= max_supports:
        report = ricl_exact(a, doubled, max_supports=max_supports)
        verdict = "sufficient" if report.delta < threshold else "insufficient"
        method = "exact"
    else:
        if seed is None:
            raise ValueError("Monte-Carlo fallback needs a seed")
        report = ricl_monte_carlo(a, doubled, trials=mc_trials, seed=seed)
        verdict = "insufficient" if report.delta >= threshold else "inconclusive"
        method = "monte-carlo"

    return CertificationReport(
        verdict=verdict,
        delta=report.delta,
        threshold=threshold,
        rho=rho,
        method=method,
        doubled_pattern=doubled,
        doubling_clamped=clamped,
        ricl=report,
    )
