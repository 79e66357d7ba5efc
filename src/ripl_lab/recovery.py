"""Quadratically-constrained basis pursuit and recovery diagnostics.

Solves min_z sum_j w_j |z_j| subject to ||A z - y|| <= eta, one weight
w_j > 0 per column, with a primal-dual proximal splitting: the primal
step is a coordinate-wise complex soft-threshold (shrinking the modulus,
preserving the phase, by tau w_j), the dual step is the
projection onto the eta-ball around y (which degenerates to the affine
projection onto {u : u = y} when eta = 0, so one code path covers both).
Step sizes come from the exact spectral norm ||A||, which the caller
supplies (a LAPACK SVD for a bare matrix, the closed form of
:func:`~ripl_lab.sampling.measurement_norm` for a drawn scheme), and a
primal weight omega: tau = 1/(1.02 omega ||A||), sigma = omega/(1.02 ||A||),
so the step condition sigma tau ||A||^2 < 1 holds for every omega.  The
weight starts at 1 and every 100 iterations moves, in log space, a
fraction theta = 0.2 of the way to ||dq|| / ||dz||, the ratio of the dual
and primal moves since the last update (the adaptive primal weight of
PDLP, Applegate et al. 2021), which balances iterates of unequal scale.
Optimality is certified
with a duality-gap estimate: a rescaled copy of the dual iterate is
always dual-feasible, so objective - dual value bounds the suboptimality
from above.

Also provides error metrics against the level-sparse approximation
bounds (diagnostic ratios: the bounds hold up to unspecified constants)
and a seeded multi-trial recovery experiment harness.  The solver works
in complex128 only, so a real operator (the Gaussian baseline's) runs as
its complex cast.  The solver takes a stack of operators as a forward/adjoint
pair, and the harness solves the trials of a run together in such stacks:
every trial takes its step in one set of batched numpy calls and leaves
the stack at its own convergence check, and every result is bit for bit
that of a solve on its own (:func:`solve_qcbp` is a stack of one on the
same loop).  A stack holds dense operators, at most 512 KiB of them (at
least two trials), sized before the first draw; or, for Fourier--Haar U
once two trials' A would pass that cap (sum(m) N > 16,384), it is
matrix-free: A z = ifft(H z)[drawn rows] / sqrt(p_k), with H z the fast
Haar synthesis, so it holds only each trial's drawn rows and takes as
many trials as 512 KiB of complex iterates.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .levels import _STACK_BYTES, best_approx_in_levels, random_sparse_vector
from .operators import _FourierHaarBlocks, gaussian_matrix
from .sampling import (
    _as_seed_sequence,
    _check_counts,
    _fill_measurements,
    _trial_count,
    draw_scheme,
    measurement_norm,
)

__all__ = [
    "QcbpProblem",
    "SolveResult",
    "ExperimentResult",
    "solve_qcbp",
    "recovery_metrics",
    "exact_recovery_experiment",
    "gaussian_recovery_experiment",
    "inverse_sqrt_level_weights",
]


def inverse_sqrt_level_weights(pattern):
    """Weights w_k = 1/sqrt(s_k); a zero budget gives an infinite weight,
    which the soft-threshold interprets as forcing that level to zero."""
    return tuple(math.inf if sk == 0 else 1.0 / math.sqrt(sk) for sk in pattern.s)


@dataclass(frozen=True)
class QcbpProblem:
    """min sum_j w_j |z_j|  s.t.  ||A z - y|| <= eta.

    ``w`` has one weight > 0 per column (None: all ones); +inf forces z_j = 0."""

    a: np.ndarray
    y: np.ndarray
    eta: float = 0.0
    w: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.a)
        object.__setattr__(self, "a", a)
        y = np.asarray(self.y, dtype=np.complex128).ravel()
        object.__setattr__(self, "y", y)
        if a.ndim != 2:
            raise ValueError(f"A must be a matrix, got shape {a.shape}")
        if y.shape[0] != a.shape[0]:
            raise ValueError(f"y has length {y.shape[0]}, A has {a.shape[0]} rows")
        if not self.eta >= 0:  # NaN fails this too
            raise ValueError("eta must be >= 0")
        w = np.ones(a.shape[1]) if self.w is None else np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if w.shape != (a.shape[1],):
            raise ValueError(f"w has shape {w.shape}, A has {a.shape[1]} columns")
        if not np.all(w > 0):  # NaN fails this too
            raise ValueError("weights must be > 0")


@dataclass(frozen=True)
class SolveResult:
    xhat: np.ndarray
    objective: float
    residual: float
    iterations: int
    converged: bool
    gap: float


_CHECK_EVERY = 25  # iterations between convergence checks
_WEIGHT_EVERY = 100  # iterations between primal-weight updates
_WEIGHT_SMOOTHING = 0.2  # theta: log-space step toward ||dq|| / ||dz||
_STABILITY_WINDOW = 100  # iterations over which the objective must be stable
_FEASIBILITY_TOL = 1e-9


def _soft_threshold(z, thresh):
    # thresh > 0, so a zero entry gives thresh/0 = inf and a scale of 0
    return z * np.maximum(1.0 - thresh / np.abs(z), 0.0)


# The batched kernels below reproduce, row by row, the bits of the 1-D
# calls of a solve on its own (np.linalg.norm(x, axis=1) and complex
# np.vecdot do not).
def _row_norms(x):
    """The 2-norm of each complex row, as the 1-D np.linalg.norm computes it."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


class _DenseStack:
    """A (B, m, N) complex128 stack of operators, one A per trial (a real A as its complex
    cast), as the forward/adjoint pair :func:`_solve_stack` takes."""

    def __init__(self, a):
        self.a = a

    def forward(self, z):
        return (self.a @ z[:, :, None])[:, :, 0]

    def adjoint(self, q):
        """A_b^H q_b for each trial b, with no conjugate copy of the stack."""
        return np.conj(np.conj(q)[:, None, :] @ self.a)[:, 0, :]

    def keep(self, trials):
        """Keep the operators of ``trials`` (ascending), moved to the stack's prefix in place."""
        for dst, src in enumerate(trials):
            if dst != src:
                self.a[dst] = self.a[src]
        self.a = self.a[:len(trials)]


class _FourierHaarStack:
    """The A of each trial's Fourier--Haar scheme, never built: U = P F H, so
    A z = ifft(H z)[rows] / sqrt(p_k) and A^H q = H^T fft(the scatter-add of q / sqrt(p_k)).

    Holds each trial's transform rows ``u.rows[draws - 1]`` and their divisors sqrt(p_k).
    H z is r Haar synthesis passes over the amplitude-scaled z (x + d and x - d into the even
    and odd slots), H^T x their r analysis passes, each O(N) per trial."""

    def __init__(self, u, schemes):
        self.rows = np.array([u.rows[np.concatenate(scheme.draws) - 1] for scheme in schemes])
        self.roots = np.array([np.repeat(np.sqrt(scheme.densities()), scheme.m)
                               for scheme in schemes])
        n = u.shape[1]
        scales = 2 ** np.arange(n.bit_length() - 1)
        # Haar column 0 has amplitude sqrt(1/N), and each of the 2^s columns of scale s sqrt(2^s/N)
        self.amp = np.sqrt(np.concatenate(([1.0], np.repeat(scales, scales))) / n)

    def forward(self, z):
        c = z * self.amp
        x = c[:, :1]
        while x.shape[1] < c.shape[1]:  # coarse to fine: the details of the next scale
            d = c[:, x.shape[1]:2 * x.shape[1]]
            finer = np.empty((len(c), 2 * x.shape[1]), dtype=np.complex128)
            np.add(x, d, out=finer[:, 0::2])
            np.subtract(x, d, out=finer[:, 1::2])
            x = finer
        x = np.fft.ifft(x, axis=1, norm="ortho")
        return x[np.arange(len(x))[:, None], self.rows] / self.roots

    def adjoint(self, q):
        x = np.zeros((len(q), self.amp.size), dtype=np.complex128)
        np.add.at(x, (np.arange(len(q))[:, None], self.rows), q / self.roots)  # repeats add
        x = np.fft.fft(x, axis=1, norm="ortho")
        out = np.empty_like(x)
        while x.shape[1] > 1:  # fine to coarse: the details of each scale, then the scaling term
            even, odd = x[:, 0::2], x[:, 1::2]
            np.subtract(even, odd, out=out[:, even.shape[1]:x.shape[1]])
            x = even + odd
        out[:, :1] = x
        out *= self.amp
        return out

    def keep(self, trials):
        self.rows, self.roots = self.rows[trials], self.roots[trials]


def _solve_stack(op, y, eta, w, norms, max_iters=50000, primal_tol=1e-7):
    """:func:`solve_qcbp` on a stack of problems that share ``eta`` and ``w``.

    ``op`` holds the B operators: ``op.forward(z)`` maps (B, n) to (B, m),
    ``op.adjoint(q)`` maps back, and ``op.keep(trials)`` drops every other
    trial (a :class:`_DenseStack` reorders its matrices in place).  ``y`` is
    (B, m) complex and ``norms`` holds the B spectral norms ||A_b||, which
    set the steps.  Returns one SolveResult per trial, each bit for bit
    that of solving the trial on its own.  All trials take each step in
    one set of batched calls, and each leaves the stack at its own
    convergence check.
    """
    (count, m), n = y.shape, len(w)
    results = [None] * count
    norms = np.asarray(norms, dtype=float)
    for b in np.flatnonzero(norms == 0.0):
        # zero operator: any z is feasible iff ||y|| <= eta; minimum is 0
        resid = float(np.linalg.norm(y[b]))
        results[b] = SolveResult(np.zeros(n, dtype=np.complex128), 0.0, resid, 0,
                                 resid <= eta + _FEASIBILITY_TOL, 0.0)
    idx = np.flatnonzero(norms != 0.0)  # the trial of each row still iterating
    if not idx.size:
        return results
    op.keep(idx)
    y = y[idx]
    # sigma tau ||A||^2 = 1/1.02^2 < 1 for every primal weight omega
    step = 1.0 / (1.02 * norms[idx, None])  # steps and weights are columns
    omega = np.ones((idx.size, 1))
    sigma = tau = step
    thresh = tau * w

    z = np.zeros((idx.size, n), dtype=np.complex128)
    zbar = z.copy()
    q = np.zeros((idx.size, m), dtype=np.complex128)
    z_last, q_last = z, q

    window_checks = _STABILITY_WINDOW // _CHECK_EVERY
    history = np.zeros((idx.size, window_checks))  # objectives, a ring over checks
    checks = 0
    it = 0
    converged = np.zeros(idx.size, dtype=bool)
    gap = np.full(idx.size, math.inf)
    objective = np.zeros(idx.size)  # at z = 0
    residual = _row_norms(y)

    def leave(rows):
        for b in rows:
            results[idx[b]] = SolveResult(z[b].copy(), float(objective[b]), float(residual[b]),
                                          it, bool(converged[b]), float(gap[b]))

    # one errstate for the solve: thresh/0 in the soft-threshold and
    # inf weight times 0 in the objective are expected
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, max_iters + 1):
            u = q + sigma * op.forward(zbar)
            if eta == 0.0:
                proj = y
            else:
                d = u / sigma - y
                nd = _row_norms(d)
                proj = y + d * np.minimum(1.0, eta / nd)[:, None]
                if not nd.all():  # d = 0 projects to y itself
                    proj[nd == 0] = y[nd == 0]
            q = u - sigma * proj
            a_h_q = op.adjoint(q)
            z_new = _soft_threshold(z - tau * a_h_q, thresh)
            zbar = 2.0 * z_new - z
            z = z_new

            if it % _WEIGHT_EVERY == 0:
                dzs = _row_norms(z - z_last).tolist()
                dqs = _row_norms(q - q_last).tolist()
                # math per trial: vectorised np.exp and np.log round a few
                # values in a thousand differently
                for b, (dz, dq) in enumerate(zip(dzs, dqs)):
                    if dz > 0.0 and dq > 0.0:
                        omega[b, 0] = math.exp(_WEIGHT_SMOOTHING * math.log(dq / dz)
                                               + (1.0 - _WEIGHT_SMOOTHING) * math.log(omega[b, 0]))
                tau, sigma = step / omega, step * omega
                thresh = tau * w
                z_last, q_last = z, q

            if it % _CHECK_EVERY == 0 or it == max_iters:
                residual = _row_norms(op.forward(z) - y)
                mag = np.abs(z)
                objective = np.sum(np.where(mag == 0, 0.0, w * mag), axis=1)
                # q / scale_q is dual-feasible; inf weights contribute 0
                # (fmax, as Python's max(1.0, nan) is 1.0)
                scale_q = np.fmax(1.0, np.max(np.abs(a_h_q) / w, axis=1))
                qf = q / scale_q[:, None]
                vdot = (np.conj(qf)[:, None, :] @ y[:, :, None])[:, 0, 0]
                dual = -vdot.real - eta * _row_norms(qf)
                gap = objective - dual
                rel_gap = np.abs(gap) / (1.0 + np.abs(objective))
                slot = checks % window_checks
                stable = (checks >= window_checks) & (
                    np.abs(objective - history[:, slot]) <= primal_tol * (1.0 + np.abs(objective)))
                history[:, slot] = objective
                checks += 1
                feasible = residual <= eta + _FEASIBILITY_TOL
                converged = feasible & (rel_gap <= primal_tol) & stable
                if it < max_iters and converged.any():
                    leave(np.flatnonzero(converged))
                    keep = np.flatnonzero(~converged)
                    op.keep(keep)
                    (idx, y, z, zbar, q, z_last, q_last, step, omega, tau, sigma, thresh,
                     history) = (v[keep] for v in (idx, y, z, zbar, q, z_last, q_last, step,
                                                   omega, tau, sigma, thresh, history))
                    if not keep.size:
                        break
    leave(range(idx.size))  # the cap (or max_iters < 1) ends every trial still iterating
    return results


def solve_qcbp(problem, max_iters=50000, primal_tol=1e-7):
    """Primal-dual solve of the weighted l1 ball-constrained problem.

    The primal and dual steps are 1/(1.02 omega ||A||) and
    omega/(1.02 ||A||).  The primal weight omega starts at 1; every 100
    iterations log omega takes 0.2 of a step toward
    log(||dq|| / ||dz||), with dq and dz the dual and primal changes
    since the last update (skipped when either is zero).

    Every 25 iterations (and at the cap) the solver checks convergence:
    feasibility ``||A z - y|| <= eta + 1e-9``, a relative duality-gap
    estimate at most ``primal_tol``, and objective stability to
    ``primal_tol`` over the last 100 iterations (guards against plateau
    misreads).  Hitting the iteration cap returns the current iterate
    flagged ``converged=False``.  Deterministic for fixed inputs.
    """
    a = np.asarray(problem.a, dtype=np.complex128)  # the solver's one dtype
    return _solve_stack(_DenseStack(a[None]), problem.y[None], float(problem.eta), problem.w,
                        [np.linalg.norm(problem.a, 2)], max_iters, primal_tol)[0]


def recovery_metrics(x_true, xhat, pattern, eta=0.0):
    """Error norms and diagnostic ratios against the recovery bounds.

    bound_ratio_l1 = ||e||_1 / (sigma + sqrt(s) eta) and
    bound_ratio_l2 = ||e|| / ((1 + (r rho)^(1/4)) (sigma/sqrt(s) + eta)),
    with sigma the best level-sparse approximation error of the true
    vector and the convention 0/0 = 0.  The underlying bounds carry
    unspecified constants, so these are diagnostics, not certificates.
    """
    x_true = np.asarray(x_true).ravel()
    xhat = np.asarray(xhat).ravel()
    if x_true.shape != xhat.shape:
        raise ValueError("vectors must have equal length")
    err = xhat - x_true
    err2 = float(np.linalg.norm(err))
    err1 = float(np.sum(np.abs(err)))
    _, sigma = best_approx_in_levels(x_true, pattern)
    s_total = pattern.total
    rho = pattern.ratio
    r = pattern.levels.r

    def ratio(num, denom):
        if denom == 0.0:
            return 0.0 if num == 0.0 else math.inf
        return num / denom

    denom1 = sigma + math.sqrt(s_total) * eta
    denom2 = (1.0 + (r * rho) ** 0.25) * (ratio(sigma, math.sqrt(s_total)) + eta)
    return {
        "err2": err2,
        "err1": err1,
        "sigma_sM": sigma,
        "bound_ratio_l1": ratio(err1, denom1),
        "bound_ratio_l2": ratio(err2, denom2),
    }


@dataclass(frozen=True)
class ExperimentResult:
    success_rate: float
    records: tuple


def _stack_depth(trials, held):
    """Trials a stack takes when each holds ``held`` complex entries: as many as fit
    in ``_STACK_BYTES``, at least two, at most ``trials``."""
    return min(_trial_count(trials), max(2, _STACK_BYTES // (16 * held)))


def _run_recovery_trials(fill_stack, depth, m_record, n, pattern, trials, seed, eta, radius,
                         weighted, solver_opts, success_rtol, magnitude_model):
    """Run the trials in stacks of ``depth``; ``fill_stack(seeds)`` draws the A of
    each seed and gives the stack's operator (see :func:`_solve_stack`) and each
    ||A||, ``m_record`` is each trial's m and ``n`` the operator's column count,
    which must be the pattern's N.

    Each slice of trials is drawn into one operator stack, then draws its
    signals and noise from the trials' own streams (y is the stack's forward
    of its signals), and is solved together by :func:`_solve_stack`."""
    trials = _trial_count(trials)
    ball_radius = float(radius) if radius is not None else float(eta)
    if not ball_radius >= 0:  # NaN fails this too, as in QcbpProblem
        raise ValueError("eta must be >= 0")
    # one weight per column, w_j = 1/sqrt(s_k) on level k, built once
    w = (np.repeat(inverse_sqrt_level_weights(pattern), pattern.levels.widths)
         if weighted else np.ones(pattern.levels.n))
    if pattern.levels.n != n:
        raise ValueError(f"sparsity pattern has N = {pattern.levels.n}, the operator has N = {n}")

    records = []
    children = _as_seed_sequence(seed).spawn(trials)
    for start in range(0, trials, depth):
        streams = [child.spawn(3) for child in children[start:start + depth]]
        op, norms = fill_stack([matrix_ss for matrix_ss, _, _ in streams])
        signals = np.array([  # the true vector of each trial in this stack
            random_sparse_vector(pattern, np.random.default_rng(x_ss), magnitude_model)
            for _, x_ss, _ in streams])
        y = op.forward(signals)
        if eta > 0:
            for slot, (_, _, noise_ss) in enumerate(streams):
                rng_noise = np.random.default_rng(noise_ss)
                direction = (rng_noise.standard_normal(y.shape[1])
                             + 1j * rng_noise.standard_normal(y.shape[1]))
                y[slot] += direction * (eta / np.linalg.norm(direction))
        results = _solve_stack(op, y, ball_radius, w, norms=norms, **(solver_opts or {}))
        for x, result in zip(signals, results):
            metrics = recovery_metrics(x, result.xhat, pattern, eta=eta)
            xnorm = float(np.linalg.norm(x))
            rel = metrics["err2"] / xnorm if xnorm > 0 else 0.0
            records.append({
                "trial": len(records),
                "m": m_record,
                "err2": metrics["err2"],
                "err1": metrics["err1"],
                "rel_err": rel,
                "success": rel <= success_rtol,
                "converged": result.converged,
                "iterations": result.iterations,
                "gap": result.gap,
                "bound_ratio_l1": metrics["bound_ratio_l1"],
                "bound_ratio_l2": metrics["bound_ratio_l2"],
            })
    rate = sum(1 for rec in records if rec["success"]) / trials
    return ExperimentResult(success_rate=rate, records=tuple(records))


def exact_recovery_experiment(u, levels, m, r0, pattern, trials, seed, eta=0.0,
                              radius=None, weighted=False, solver_opts=None,
                              success_rtol=1e-4, magnitude_model="unit"):
    """Seeded multi-trial recovery experiment over multilevel schemes.

    Each trial draws a fresh scheme, a random level-sparse vector and
    (when eta > 0) a noise vector of norm exactly eta in a random
    Gaussian direction, then measures the fraction of trials recovering
    to relative error ``success_rtol``.  ``radius`` is the solver
    constraint radius (defaults to eta; pass sqrt(K)*eta for the
    K-scaled convention).  ``weighted`` weighs level k by 1/sqrt(s_k), else
    every weight is 1.  Per-trial streams derive from the master seed
    so results are independent of execution order; solver
    non-convergence is recorded per trial, never raised.

    ``u``, an array or Fourier--Haar U's column blocks, must be a square
    isometry (unitary): the solver's steps take ||A|| in closed form from
    each drawn scheme (:func:`~ripl_lab.sampling.measurement_norm`), which
    holds only when the rows of u are orthonormal.  This is not checked
    here; the CLI checks a matrix loaded from a file once per run.

    Each stack's A is gathered from u into one dense stack of at most
    512 KiB (at least two trials).  For Fourier--Haar column blocks whose
    two trials' A would pass that cap, 32 sum(m) N > 512 KiB, the trials
    run matrix-free instead: A is applied by the fast Haar transform and
    an FFT (:class:`_FourierHaarStack`), no A or U is built, and one stack
    takes as many trials as 512 KiB of complex iterates of length N.  Its
    records agree with the dense path's within rounding (the same flags
    and iteration counts on every tested run, errors within about 1e-13).
    """
    m = _check_counts(levels, m, r0)  # before the stack is sized by sum(m)
    u = u if isinstance(u, _FourierHaarBlocks) else np.asarray(u)
    total, n = sum(m), u.shape[1]
    if isinstance(u, _FourierHaarBlocks) and 32 * total * n > _STACK_BYTES:
        # two trials' dense A would pass the cap: hold rows and divisors, one iterate a trial
        depth, stack = _stack_depth(trials, n), None
    else:  # one dense stack, allocated before the first draw and refilled by each slice
        depth = _stack_depth(trials, total * n)
        stack = np.empty((depth, total, n), dtype=np.complex128)

    def fill_stack(seeds):
        schemes = [draw_scheme(levels, m, r0=r0, seed=ss) for ss in seeds]
        norms = [measurement_norm(scheme) for scheme in schemes]
        if stack is None:
            return _FourierHaarStack(u, schemes), norms
        _fill_measurements(stack, schemes, u)  # one pass over u's column blocks fills every slot
        return _DenseStack(stack[:len(seeds)]), norms

    return _run_recovery_trials(
        fill_stack, depth, list(m), n,
        pattern, trials, seed, eta, radius, weighted, solver_opts,
        success_rtol, magnitude_model,
    )


def gaussian_recovery_experiment(n, m_total, pattern, trials, seed, eta=0.0,
                                 radius=None, weighted=False, solver_opts=None,
                                 success_rtol=1e-4, magnitude_model="unit"):
    """Baseline experiment with a fresh Gaussian matrix per trial.

    Shares the per-trial stream layout with
    :func:`exact_recovery_experiment`, so with the same master seed each
    trial solves for the same signal vector, making the two directly
    comparable trial by trial.
    """
    m_total, n = operator.index(m_total), operator.index(n)
    stack = np.empty((_stack_depth(trials, m_total * n), m_total, n), dtype=np.complex128)

    def fill_stack(seeds):
        a = stack[:len(seeds)]
        for slot, ss in enumerate(seeds):
            a[slot] = gaussian_matrix(m_total, n, np.random.default_rng(ss))  # cast as copied in
        return _DenseStack(a), [np.linalg.norm(a_b.real, 2) for a_b in a]  # each drawn real A

    return _run_recovery_trials(
        fill_stack, len(stack), [m_total], n,
        pattern, trials, seed, eta, radius, weighted, solver_opts,
        success_rtol, magnitude_model,
    )
