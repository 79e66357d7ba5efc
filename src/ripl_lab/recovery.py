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
its complex cast.  The harness solves the trials of a run together, in
stacks of at most 512 KiB of complex operator (at least two trials
each), sized before the first draw: every trial takes its step in one
set of batched numpy calls and leaves the stack at its own convergence
check, and every result is bit for bit that of a solve on its own
(:func:`solve_qcbp` is a stack of one on the same loop).
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


def _forward(a, z):
    return (a @ z[:, :, None])[:, :, 0]


def _adjoint(a, q):
    """A_b^H q_b for each trial b, with no conjugate copy of the stack."""
    return np.conj(np.conj(q)[:, None, :] @ a)[:, 0, :]


def _compact_rows(keep, *arrays):
    """Move rows ``keep`` (ascending) of each array to its prefix, in place."""
    for dst, src in enumerate(keep):
        if dst != src:
            for arr in arrays:
                arr[dst] = arr[src]


def _solve_stack(a, y, eta, w, norms, max_iters=50000, primal_tol=1e-7):
    """:func:`solve_qcbp` on a stack of problems that share ``eta`` and ``w``.

    ``a`` is a (B, m, n) complex128 stack (a real operator is passed as
    its complex cast), ``y`` is (B, m) complex and ``norms`` holds the
    B spectral norms ||A_b||, which set the steps.  Returns one
    SolveResult per trial, each bit for bit that of solving the trial on
    its own.  All trials take each step in one set of batched calls, and
    each leaves the stack at its own convergence check; the rows of ``a``
    and ``y`` are reordered in place as trials leave.
    """
    count, m, n = a.shape
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
    _compact_rows(idx, a, y)
    a, y = a[:idx.size], y[:idx.size]
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
            u = q + sigma * _forward(a, zbar)
            if eta == 0.0:
                proj = y
            else:
                d = u / sigma - y
                nd = _row_norms(d)
                proj = y + d * np.minimum(1.0, eta / nd)[:, None]
                if not nd.all():  # d = 0 projects to y itself
                    proj[nd == 0] = y[nd == 0]
            q = u - sigma * proj
            a_h_q = _adjoint(a, q)
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
                residual = _row_norms(_forward(a, z) - y)
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
                    _compact_rows(keep, a, y)
                    a, y = a[:keep.size], y[:keep.size]
                    (idx, z, zbar, q, z_last, q_last, step, omega, tau, sigma, thresh,
                     history) = (v[keep] for v in (idx, z, zbar, q, z_last, q_last, step,
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
    return _solve_stack(a[None], problem.y[None], float(problem.eta), problem.w,
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


def _run_recovery_trials(fill_stack, m_record, n, pattern, trials, seed, eta, radius,
                         weighted, solver_opts, success_rtol, magnitude_model):
    """Run the trials; ``fill_stack(stack, seeds)`` draws the A of each seed into
    its slot and gives each ||A||, ``m_record`` is each trial's m and ``n`` the
    operator's column count, which must be the pattern's N.

    Every A is sum(m_record) x N, so one complex stack of at most
    ``_STACK_BYTES`` of operator (at least two trials) is allocated before the
    first draw; each slice of trials is filled into it (a real A is cast as it
    is copied in), then draws its signals and noise from the trials' own
    streams, and is solved together by :func:`_solve_stack`."""
    trials = _trial_count(trials)
    ball_radius = float(radius) if radius is not None else float(eta)
    if not ball_radius >= 0:  # NaN fails this too, as in QcbpProblem
        raise ValueError("eta must be >= 0")
    # one weight per column, w_j = 1/sqrt(s_k) on level k, built once
    w = (np.repeat(inverse_sqrt_level_weights(pattern), pattern.levels.widths)
         if weighted else np.ones(pattern.levels.n))
    if pattern.levels.n != n:
        raise ValueError(f"sparsity pattern has N = {pattern.levels.n}, the operator has N = {n}")
    rows = sum(m_record)
    depth = min(trials, max(2, _STACK_BYTES // (16 * rows * n)))
    a_stack = np.empty((depth, rows, n), dtype=np.complex128)
    y_stack = np.empty((depth, rows), dtype=np.complex128)

    records = []
    children = _as_seed_sequence(seed).spawn(trials)
    for start in range(0, trials, depth):
        streams = [child.spawn(3) for child in children[start:start + depth]]
        norms = fill_stack(a_stack, [matrix_ss for matrix_ss, _, _ in streams])
        signals = []  # the true vector of each trial in this stack
        for slot, (_, x_ss, noise_ss) in enumerate(streams):
            x = random_sparse_vector(pattern, np.random.default_rng(x_ss), magnitude_model)
            y = a_stack[slot] @ x
            if eta > 0:
                rng_noise = np.random.default_rng(noise_ss)
                direction = rng_noise.standard_normal(len(y)) + 1j * rng_noise.standard_normal(len(y))
                y = y + direction * (eta / np.linalg.norm(direction))
            y_stack[slot] = y
            signals.append(x)
        results = _solve_stack(a_stack[:len(signals)], y_stack[:len(signals)], ball_radius, w,
                               norms=norms, **(solver_opts or {}))
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
    """
    m = _check_counts(levels, m, r0)  # before the stack is sized by sum(m)
    u = u if isinstance(u, _FourierHaarBlocks) else np.asarray(u)

    def fill_stack(stack, seeds):  # one pass over u's column blocks fills every slot
        schemes = [draw_scheme(levels, m, r0=r0, seed=ss) for ss in seeds]
        _fill_measurements(stack, schemes, u)
        return [measurement_norm(scheme) for scheme in schemes]

    return _run_recovery_trials(
        fill_stack, list(m), u.shape[1],
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
    m_total = operator.index(m_total)

    def fill_stack(stack, seeds):
        for slot, ss in enumerate(seeds):
            stack[slot] = gaussian_matrix(m_total, n, np.random.default_rng(ss))
        return [np.linalg.norm(a.real, 2) for a in stack[:len(seeds)]]  # each drawn real A

    return _run_recovery_trials(
        fill_stack, [m_total], operator.index(n),
        pattern, trials, seed, eta, radius, weighted, solver_opts,
        success_rtol, magnitude_model,
    )
