"""Level partitions, per-level sparsity budgets, support enumeration as
0-based index blocks and best level-sparse approximation.

A level structure partitions the index set {1..N} into r contiguous
levels via a strictly increasing boundary vector (0, B_1, ..., B_r = N);
level k covers indices {B_{k-1}+1, ..., B_k}.  The same structure is
used both for sparsity levels and for sampling levels.  A sparsity
pattern attaches a non-negative per-level budget s_k <= B_k - B_{k-1}.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = [
    "LevelError",
    "LevelStructure",
    "SparsityPattern",
    "validate_boundaries",
    "best_approx_in_levels",
    "support_blocks",
    "count_supports",
    "random_sparse_vector",
]


class LevelError(ValueError):
    """A level structure or sparsity pattern violates its invariants."""


def validate_boundaries(boundaries, n=None):
    """Validate a candidate boundary vector (0, B_1, ..., B_r).

    Raises :class:`LevelError` if the vector does not start at 0, is not
    strictly increasing (an equal pair would mean an empty level), or its
    last entry differs from an explicitly expected dimension ``n``.
    """
    b = tuple(operator.index(v) for v in boundaries)
    if len(b) < 2:
        raise LevelError("need at least one level: boundaries (0, ..., N)")
    if b[0] != 0:
        raise LevelError(f"boundaries must start at 0, got {b[0]}")
    for lo, hi in zip(b, b[1:]):
        if hi == lo:
            raise LevelError(f"empty level: repeated boundary {hi}")
        if hi < lo:
            raise LevelError(f"non-monotone boundaries: {lo} followed by {hi}")
    if n is not None and b[-1] != operator.index(n):
        raise LevelError(f"last boundary {b[-1]} != ambient dimension {n}")
    return b


@dataclass(frozen=True)
class LevelStructure:
    """Partition of {1..N} into r contiguous levels.

    ``boundaries`` includes the leading 0, i.e. (0, B_1, ..., B_r) with
    B_r = N.  Indices are 1-based in all public interfaces except the
    rows of :func:`support_blocks`; use :meth:`level_slice` for 0-based
    numpy slicing.
    """

    boundaries: tuple

    def __post_init__(self):
        object.__setattr__(self, "boundaries", validate_boundaries(self.boundaries))

    @property
    def r(self):
        return len(self.boundaries) - 1

    @property
    def n(self):
        return self.boundaries[-1]

    @property
    def widths(self):
        return tuple(hi - lo for lo, hi in zip(self.boundaries, self.boundaries[1:]))

    def level_range(self, k):
        """1-based inclusive index range (lo, hi) of level k (1-based)."""
        if not 1 <= k <= self.r:
            raise LevelError(f"level {k} out of range 1..{self.r}")
        return self.boundaries[k - 1] + 1, self.boundaries[k]

    def level_slice(self, k):
        """0-based slice of level k for numpy indexing."""
        lo, hi = self.level_range(k)
        return slice(lo - 1, hi)

    def to_dict(self):
        return {"N": self.n, "boundaries": list(self.boundaries)}

    @classmethod
    def from_dict(cls, d):
        validate_boundaries(d["boundaries"], d.get("N"))
        return cls(tuple(d["boundaries"]))

    @classmethod
    def single_level(cls, n):
        return cls((0, n))

    @classmethod
    def dyadic(cls, r):
        """The r dyadic levels of N = 2^r, boundaries (0, 2, 4, ..., 2^r)."""
        return cls((0,) + tuple(2**k for k in range(1, operator.index(r) + 1)))


@dataclass(frozen=True)
class SparsityPattern:
    """Per-level sparsity budgets s = (s_1, ..., s_r) bound to a structure."""

    levels: LevelStructure
    s: tuple

    def __post_init__(self):
        s = tuple(operator.index(v) for v in self.s)
        object.__setattr__(self, "s", s)
        if len(s) != self.levels.r:
            raise LevelError(f"pattern length {len(s)} != level count {self.levels.r}")
        for k, (sk, wk) in enumerate(zip(s, self.levels.widths), start=1):
            if sk < 0:
                raise LevelError(f"negative sparsity s_{k} = {sk}")
            if sk > wk:
                raise LevelError(f"s_{k} = {sk} exceeds level width {wk}")

    @property
    def total(self):
        return sum(self.s)

    @property
    def ratio(self):
        """Sparsity ratio rho = max s_k / s_l over pairs with s_l > 0.

        Defined only over levels with positive budget.  A mix of zero and
        positive budgets gives +inf, since the defining maximum is
        unbounded; the degenerate all-zero pattern returns 1.0.
        """
        pos = [v for v in self.s if v > 0]
        if not pos:
            return 1.0
        if len(pos) < len(self.s):
            return math.inf
        return max(pos) / min(pos)

    def doubled(self):
        """Pattern with budgets 2 s_k, each clamped to its level width.

        Returns (pattern, clamped) where ``clamped`` flags levels at which
        2 s_k exceeded the width and was reduced.
        """
        widths = self.levels.widths
        s2 = tuple(min(2 * sk, wk) for sk, wk in zip(self.s, widths))
        clamped = tuple(2 * sk > wk for sk, wk in zip(self.s, widths))
        return SparsityPattern(self.levels, s2), clamped

    def to_dict(self):
        d = self.levels.to_dict()
        d["s"] = list(self.s)
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(LevelStructure.from_dict(d), tuple(d["s"]))


def _check_length(x, pattern):
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] != pattern.levels.n:
        raise LevelError(
            f"vector length {x.shape} incompatible with N = {pattern.levels.n}"
        )
    return x


def best_approx_in_levels(x, pattern):
    """Best approximation of x by a vector with <= s_k nonzeros per level.

    Within each level the s_k largest-magnitude entries are kept and the
    rest zeroed; magnitude ties are broken toward the lowest index.
    Returns ``(z, sigma)`` where sigma = ||x - z||_1 is the l1 error,
    which is the minimal l1 distance from x to the level-sparse set.
    """
    x = _check_length(x, pattern)
    z = np.zeros_like(x)
    for k in range(1, pattern.levels.r + 1):
        sl = pattern.levels.level_slice(k)
        sk = pattern.s[k - 1]
        if sk == 0:
            continue
        block = x[sl]
        # stable sort on -|x|: equal magnitudes keep ascending index order
        order = np.argsort(-np.abs(block), kind="stable")[:sk]
        kept = np.zeros_like(block)
        kept[order] = block[order]
        z[sl] = kept
    sigma = float(np.sum(np.abs(x - z)))
    return z, sigma


# bytes of one batched stack: the complex Gram stack gathered from one block
# of supports here, the operators of one solver stack in recovery (which
# still holds at least two trials), and one block of columns of the
# Fourier--Haar matrix built in operators
_STACK_BYTES = 1 << 19


def support_blocks(pattern):
    """Yield every support with exactly s_k indices per level, in blocks.

    Each block is an ``np.intp`` array of shape (rows, k), k = s_1 + ... +
    s_r, whose rows are 0-based column indices in ascending order.  A
    block's complex Gram stack, 16 k^2 bytes per support, stays within
    ``_STACK_BYTES`` (512 KiB), except that every block holds at least one
    support.  The blocks list the supports in lexicographic order: flat
    support ids are decoded in mixed radix over the per-level subset
    counts, last level fastest.  A zero budget contributes one empty
    pick, so the all-zero pattern yields one (1, 0) block.
    """
    b = pattern.levels.boundaries
    picks = [
        np.array(list(combinations(range(lo, hi), sk)), dtype=np.intp)
        .reshape(math.comb(hi - lo, sk), sk)
        for lo, hi, sk in zip(b, b[1:], pattern.s)
    ]
    radices = tuple(len(p) for p in picks)
    total = math.prod(radices)
    k = pattern.total
    rows = max(1, _STACK_BYTES // (16 * k * k)) if k else 1
    for start in range(0, total, rows):
        ids = np.unravel_index(np.arange(start, min(start + rows, total)), radices)
        yield np.concatenate([p[i] for p, i in zip(picks, ids)], axis=1)


def count_supports(pattern):
    """Number of supports :func:`support_blocks` yields."""
    return math.prod(math.comb(wk, sk) for sk, wk in zip(pattern.s, pattern.levels.widths))


_MAGNITUDE_MODELS = ("unit", "gaussian")


def random_sparse_vector(pattern, rng, magnitude_model="unit"):
    """Random vector with exactly s_k nonzeros in each level.

    ``magnitude_model`` is "unit" (unimodular entries, uniform phase) or
    "gaussian" (standard complex normal entries).  Deterministic for a
    given ``rng`` state.
    """
    if magnitude_model not in _MAGNITUDE_MODELS:
        raise ValueError(f"unknown magnitude model {magnitude_model!r}")
    levels = pattern.levels
    x = np.zeros(levels.n, dtype=np.complex128)
    for k in range(1, levels.r + 1):
        sk = pattern.s[k - 1]
        if sk == 0:
            continue
        lo, hi = levels.level_range(k)
        pick = rng.choice(hi - lo + 1, size=sk, replace=False) + (lo - 1)
        if magnitude_model == "unit":
            vals = np.exp(2j * np.pi * rng.random(sk))
        else:
            vals = (rng.standard_normal(sk) + 1j * rng.standard_normal(sk)) / np.sqrt(2)
        x[pick] = vals
    return x
