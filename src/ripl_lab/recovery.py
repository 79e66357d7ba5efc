"""Quadratically-constrained basis pursuit and recovery diagnostics.

Solves min_z sum_k w_k || z restricted to level k ||_1 subject to
||A z - y|| <= eta with a primal-dual proximal splitting: the primal
step is a coordinate-wise complex soft-threshold (shrinking the modulus,
preserving the phase, with level weights), the dual step is the
projection onto the eta-ball around y (which degenerates to the affine
projection onto {u : u = y} when eta = 0, so one code path covers both).
Step sizes come from the exact spectral norm ||A|| (LAPACK SVD) and a
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
and a seeded multi-trial recovery experiment harness.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .levels import LevelStructure, best_approx_in_levels, random_sparse_vector
from .operators import gaussian_matrix
from .sampling import _as_seed_sequence, build_measurement, draw_scheme

__all__ = [
    "QcbpProblem",
    "SolveResult",
    "ExperimentResult",
    "solve_qcbp",
    "recovery_metrics",
    "exact_recovery_experiment",
    "gaussian_recovery_experiment",
    "level_weight_vector",
    "inverse_sqrt_level_weights",
]


def level_weight_vector(levels, weights):
    """Expand per-level weights w_k to a per-coordinate vector."""
    weights = tuple(float(w) for w in weights)
    if len(weights) != levels.r:
        raise ValueError(f"{len(weights)} weights for {levels.r} levels")
    if any(w <= 0 for w in weights):
        raise ValueError("level weights must be positive")
    out = np.empty(levels.n)
    for k in range(1, levels.r + 1):
        out[levels.level_slice(k)] = weights[k - 1]
    return out


def inverse_sqrt_level_weights(pattern):
    """Weights w_k = 1/sqrt(s_k); a zero budget gives an infinite weight,
    which the soft-threshold interprets as forcing that level to zero."""
    return tuple(math.inf if sk == 0 else 1.0 / math.sqrt(sk) for sk in pattern.s)


@dataclass(frozen=True)
class QcbpProblem:
    """min sum_k w_k ||P_k z||_1  s.t.  ||A z - y|| <= eta."""

    a: np.ndarray
    y: np.ndarray
    eta: float = 0.0
    levels: LevelStructure | None = None
    weights: tuple | None = None

    def __post_init__(self):
        a = np.asarray(self.a)
        object.__setattr__(self, "a", a)
        y = np.asarray(self.y, dtype=np.complex128).ravel()
        object.__setattr__(self, "y", y)
        if a.ndim != 2:
            raise ValueError(f"A must be a matrix, got shape {a.shape}")
        if y.shape[0] != a.shape[0]:
            raise ValueError(f"y has length {y.shape[0]}, A has {a.shape[0]} rows")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.weights is not None:
            if self.levels is None:
                raise ValueError("per-level weights need a level structure")
            if self.levels.n != a.shape[1]:
                raise ValueError("weight levels do not match the column dimension")

    def coordinate_weights(self):
        if self.weights is None:
            return np.ones(self.a.shape[1])
        return level_weight_vector(self.levels, self.weights)


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
    a = problem.a
    y = problem.y
    eta = float(problem.eta)
    w = problem.coordinate_weights()
    m, n = a.shape
    a_h = a.conj().T

    norm_a = float(np.linalg.norm(a, 2))
    if norm_a == 0.0:
        # zero operator: any z is feasible iff ||y|| <= eta; minimum is 0
        xhat = np.zeros(n, dtype=np.complex128)
        resid = float(np.linalg.norm(y))
        return SolveResult(xhat, 0.0, resid, 0, resid <= eta + _FEASIBILITY_TOL, 0.0)
    # sigma tau ||A||^2 = 1/1.02^2 < 1 for every primal weight omega
    step = 1.0 / (1.02 * norm_a)
    omega = 1.0
    sigma = tau = step

    z = np.zeros(n, dtype=np.complex128)
    zbar = z.copy()
    q = np.zeros(m, dtype=np.complex128)
    z_last, q_last = z, q
    thresh = tau * w

    history = []
    window_checks = _STABILITY_WINDOW // _CHECK_EVERY
    it = 0
    converged = False
    gap = math.inf
    objective = 0.0  # at z = 0
    residual = float(np.linalg.norm(y))

    # one errstate for the solve: thresh/0 in the soft-threshold and
    # inf weight times 0 in the objective are expected
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, max_iters + 1):
            u = q + sigma * (a @ zbar)
            if eta == 0.0:
                proj = y
            else:
                d = u / sigma - y
                nd = float(np.linalg.norm(d))
                proj = y + d * min(1.0, eta / nd) if nd > 0 else y
            q = u - sigma * proj
            a_h_q = a_h @ q
            z_new = _soft_threshold(z - tau * a_h_q, thresh)
            zbar = 2.0 * z_new - z
            z = z_new

            if it % _WEIGHT_EVERY == 0:
                dz = float(np.linalg.norm(z - z_last))
                dq = float(np.linalg.norm(q - q_last))
                if dz > 0.0 and dq > 0.0:
                    omega = math.exp(_WEIGHT_SMOOTHING * math.log(dq / dz)
                                     + (1.0 - _WEIGHT_SMOOTHING) * math.log(omega))
                    tau, sigma = step / omega, step * omega
                    thresh = tau * w
                z_last, q_last = z, q

            if it % _CHECK_EVERY == 0 or it == max_iters:
                residual = float(np.linalg.norm(a @ z - y))
                mag = np.abs(z)
                objective = float(np.sum(np.where(mag == 0, 0.0, w * mag)))
                # q / scale_q is dual-feasible; inf weights contribute 0
                scale_q = max(1.0, float(np.max(np.abs(a_h_q) / w)))
                qf = q / scale_q
                dual = -float(np.real(np.vdot(qf, y))) - eta * float(np.linalg.norm(qf))
                gap = objective - dual
                rel_gap = abs(gap) / (1.0 + abs(objective))
                history.append(objective)
                stable = (
                    len(history) > window_checks
                    and abs(history[-1] - history[-1 - window_checks])
                    <= primal_tol * (1.0 + abs(objective))
                )
                feasible = residual <= eta + _FEASIBILITY_TOL
                if feasible and rel_gap <= primal_tol and stable:
                    converged = True
                    break

    return SolveResult(
        xhat=z,
        objective=objective,
        residual=residual,
        iterations=it,
        converged=converged,
        gap=float(gap),
    )


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rho = pattern.ratio
    r = pattern.levels.r

    def ratio(num, denom):
        if denom == 0.0:
            return 0.0 if num == 0.0 else math.inf
        return num / denom

    denom1 = sigma + math.sqrt(s_total) * eta
    if s_total > 0:
        sigma_term = sigma / math.sqrt(s_total)
    else:
        sigma_term = 0.0 if sigma == 0.0 else math.inf
    amp = 1.0 + (r * rho) ** 0.25 if math.isfinite(rho) else math.inf
    denom2 = amp * (sigma_term + eta)
    if math.isinf(denom2):
        ratio2 = 0.0
    else:
        ratio2 = ratio(err2, denom2)
    return {
        "err2": err2,
        "err1": err1,
        "sigma_sM": sigma,
        "bound_ratio_l1": ratio(err1, denom1),
        "bound_ratio_l2": ratio2,
    }


@dataclass(frozen=True)
class ExperimentResult:
    success_rate: float
    records: tuple


def _run_recovery_trials(make_matrix, pattern, trials, seed, eta, radius, weights,
                         solver_opts, success_rtol, magnitude_model):
    solver_opts = dict(solver_opts or {})
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    master = _as_seed_sequence(seed)
    children = master.spawn(trials)
    level_weights = tuple(weights) if weights is not None else None
    sparsity_levels = pattern.levels
    ball_radius = float(radius) if radius is not None else float(eta)

    def run_trial(index, child):
        matrix_ss, x_ss, noise_ss = child.spawn(3)
        a, m_record = make_matrix(matrix_ss)
        x = random_sparse_vector(pattern, np.random.default_rng(x_ss), magnitude_model)
        y = a @ x
        if eta > 0:
            rng_noise = np.random.default_rng(noise_ss)
            direction = rng_noise.standard_normal(len(y)) + 1j * rng_noise.standard_normal(len(y))
            y = y + direction * (eta / np.linalg.norm(direction))
        problem = QcbpProblem(
            a=a,
            y=y,
            eta=ball_radius,
            levels=sparsity_levels if level_weights is not None else None,
            weights=level_weights,
        )
        result = solve_qcbp(problem, **solver_opts)
        metrics = recovery_metrics(x, result.xhat, pattern, eta=eta)
        xnorm = float(np.linalg.norm(x))
        rel = metrics["err2"] / xnorm if xnorm > 0 else 0.0
        return {
            "trial": index,
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
        }

    records = [run_trial(index, child) for index, child in enumerate(children)]
    rate = sum(1 for rec in records if rec["success"]) / trials
    return ExperimentResult(success_rate=rate, records=tuple(records))


def exact_recovery_experiment(u, levels, m, r0, pattern, trials, seed, eta=0.0,
                              radius=None, weights=None, solver_opts=None,
                              success_rtol=1e-4, magnitude_model="unit"):
    """Seeded multi-trial recovery experiment over multilevel schemes.

    Each trial draws a fresh scheme, a random level-sparse vector and
    (when eta > 0) a noise vector of norm exactly eta in a random
    Gaussian direction, then measures the fraction of trials recovering
    to relative error ``success_rtol``.  ``radius`` is the solver
    constraint radius (defaults to eta; pass sqrt(K)*eta for the
    K-scaled convention).  Per-trial streams derive from the master seed
    so results are independent of execution order; solver
    non-convergence is recorded per trial, never raised.
    """
    m = tuple(int(v) for v in m)

    def make_matrix(matrix_ss):
        scheme = draw_scheme(levels, m, r0=r0, seed=matrix_ss)
        return build_measurement(u, scheme).a, list(scheme.m)

    return _run_recovery_trials(
        make_matrix, pattern, trials, seed, eta, radius, weights, solver_opts,
        success_rtol, magnitude_model,
    )


def gaussian_recovery_experiment(n, m_total, pattern, trials, seed, eta=0.0,
                                 radius=None, weights=None, solver_opts=None,
                                 success_rtol=1e-4, magnitude_model="unit"):
    """Baseline experiment with a fresh Gaussian matrix per trial.

    Shares the per-trial stream layout with
    :func:`exact_recovery_experiment`, so with the same master seed each
    trial solves for the same signal vector, making the two directly
    comparable trial by trial.
    """
    m_total = int(m_total)

    def make_matrix(matrix_ss):
        rng = np.random.default_rng(matrix_ss)
        return gaussian_matrix(m_total, n, rng), [m_total]

    return _run_recovery_trials(
        make_matrix, pattern, trials, seed, eta, radius, weights, solver_opts,
        success_rtol, magnitude_model,
    )
