import math
import warnings

import numpy as np
import pytest

from ripl_lab import (
    LevelStructure,
    QcbpProblem,
    SparsityPattern,
    exact_recovery_experiment,
    fourier_haar_matrix,
    inverse_sqrt_level_weights,
    recovery_metrics,
    solve_qcbp,
)
from ripl_lab import recovery
from ripl_lab.recovery import gaussian_recovery_experiment


def _solve_alone(a, y, eta, w, max_iters=50000, primal_tol=1e-7):
    """The per-trial solver that the stacked one replaced, kept as its oracle."""
    m, n = a.shape
    a_h = a.conj().T
    norm_a = float(np.linalg.norm(a, 2))
    if norm_a == 0.0:
        resid = float(np.linalg.norm(y))
        return recovery.SolveResult(np.zeros(n, dtype=np.complex128), 0.0, resid, 0,
                                    resid <= eta + 1e-9, 0.0)
    step = 1.0 / (1.02 * norm_a)
    omega = 1.0
    sigma = tau = step
    z = np.zeros(n, dtype=np.complex128)
    zbar = z.copy()
    q = np.zeros(m, dtype=np.complex128)
    z_last, q_last = z, q
    thresh = tau * w
    history = []
    it = 0
    converged = False
    gap = math.inf
    objective = 0.0
    residual = float(np.linalg.norm(y))
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
            z_new = z - tau * a_h_q
            z_new = z_new * np.maximum(1.0 - thresh / np.abs(z_new), 0.0)
            zbar = 2.0 * z_new - z
            z = z_new
            if it % 100 == 0:
                dz = float(np.linalg.norm(z - z_last))
                dq = float(np.linalg.norm(q - q_last))
                if dz > 0.0 and dq > 0.0:
                    omega = math.exp(0.2 * math.log(dq / dz) + 0.8 * math.log(omega))
                    tau, sigma = step / omega, step * omega
                    thresh = tau * w
                z_last, q_last = z, q
            if it % 25 == 0 or it == max_iters:
                residual = float(np.linalg.norm(a @ z - y))
                mag = np.abs(z)
                objective = float(np.sum(np.where(mag == 0, 0.0, w * mag)))
                scale_q = max(1.0, float(np.max(np.abs(a_h_q) / w)))
                qf = q / scale_q
                dual = -float(np.real(np.vdot(qf, y))) - eta * float(np.linalg.norm(qf))
                gap = objective - dual
                rel_gap = abs(gap) / (1.0 + abs(objective))
                history.append(objective)
                stable = (len(history) > 4 and abs(history[-1] - history[-5])
                          <= primal_tol * (1.0 + abs(objective)))
                if residual <= eta + 1e-9 and rel_gap <= primal_tol and stable:
                    converged = True
                    break
    return recovery.SolveResult(z, objective, residual, it, converged, float(gap))


def test_radial_shrink_oracle():
    # minimizer shrinks y toward the ball: A = I, y = (2, 0), eta = 1 -> (1, 0)
    res = solve_qcbp(QcbpProblem(a=np.eye(2), y=np.array([2.0, 0.0]), eta=1.0))
    assert res.converged
    assert np.allclose(res.xhat, [1.0, 0.0], atol=1e-6)
    assert res.objective == pytest.approx(1.0, abs=1e-6)


def test_eta_zero_invertible_matches_direct_solve():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    y = a @ (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    res = solve_qcbp(QcbpProblem(a=a, y=y, eta=0.0))
    assert res.converged
    assert np.linalg.norm(res.xhat - np.linalg.solve(a, y)) < 1e-8


def test_zero_measurements_give_zero():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 6))
    res = solve_qcbp(QcbpProblem(a=a, y=np.zeros(4), eta=0.3))
    assert res.converged
    assert np.array_equal(res.xhat, np.zeros(6))
    assert res.objective == 0.0


def test_feasibility_invariant():
    rng = np.random.default_rng(3)
    for eta in (0.0, 0.1, 1.0):
        a = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        res = solve_qcbp(QcbpProblem(a=a, y=y, eta=eta))
        if res.converged:
            assert res.residual <= eta + 1e-9


def test_uniform_weights_match_unweighted_minimizer():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 10))
    y = rng.standard_normal(6)
    plain = solve_qcbp(QcbpProblem(a=a, y=y, eta=0.1))
    scaled = solve_qcbp(QcbpProblem(a=a, y=y, eta=0.1, w=np.full(10, 3.0)))
    assert np.allclose(plain.xhat, scaled.xhat, atol=1e-5)
    assert scaled.objective == pytest.approx(3.0 * plain.objective, rel=1e-4)


def test_scaling_equivariance():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    c = 2.5
    base = solve_qcbp(QcbpProblem(a=a, y=y, eta=0.2))
    scaled = solve_qcbp(QcbpProblem(a=a, y=c * y, eta=c * 0.2))
    assert np.allclose(scaled.xhat, c * base.xhat, atol=1e-5)


def test_infinite_weight_forces_level_to_zero():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 6))
    x0 = np.zeros(6)
    x0[4] = 1.0
    y = a @ x0
    w = np.repeat([math.inf, 1.0], 3)  # the first level of (0, 3, 6) weighted +inf
    with warnings.catch_warnings():
        # thresh/0 and inf * 0 inside the solve must not leak a RuntimeWarning
        warnings.simplefilter("error")
        res = solve_qcbp(QcbpProblem(a=a, y=y, eta=0.0, w=w))
    assert np.max(np.abs(res.xhat[:3])) == 0.0


def test_iteration_cap_flags_not_converged():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 9))
    y = rng.standard_normal(5)
    res = solve_qcbp(QcbpProblem(a=a, y=y, eta=0.0), max_iters=10)
    assert not res.converged
    assert res.iterations == 10


def test_primal_weight_cuts_noisy_weighted_iterations(monkeypatch):
    # one trial of the noisy weighted Fourier-Haar setting at N = 64; a
    # weight update period beyond the cap is the fixed-step solver
    u, lv = fourier_haar_matrix(64)
    pattern = SparsityPattern(lv, (1, 1, 1, 2, 2, 3))
    m = (2, 2, 4, 8, 12, 16)
    k_factor = max(w / mk for w, mk in zip(lv.widths, m))

    def iterations():
        rec = exact_recovery_experiment(
            u, lv, m, 2, pattern, 1, 0, eta=0.01, radius=0.01 * math.sqrt(k_factor),
            weighted=True, magnitude_model="gaussian",
            success_rtol=0.05, solver_opts={"max_iters": 30000},
        ).records[0]
        assert rec["converged"] and rec["success"]
        return rec["iterations"]

    adaptive = iterations()
    monkeypatch.setattr(recovery, "_WEIGHT_EVERY", 10**9)
    fixed = iterations()
    assert 4 * adaptive <= fixed, (adaptive, fixed)


def test_weighted_experiment_builds_one_column_weight_vector(monkeypatch):
    u, lv = fourier_haar_matrix(16)  # widths (2, 2, 4, 8)
    pattern = SparsityPattern(lv, (1, 0, 1, 2))
    seen = []
    solve = recovery._solve_stack

    def spy(a, y, eta, w, **opts):
        seen.append(w)
        return solve(a, y, eta, w, **opts)

    monkeypatch.setattr(recovery, "_solve_stack", spy)
    monkeypatch.setattr(recovery, "_STACK_BYTES", 1)  # two trials a stack: stacks of 2 and 1
    exact_recovery_experiment(u, lv, lv.widths, lv.r, pattern, 3, seed=1, weighted=True)
    expected = [1.0] * 2 + [math.inf] * 2 + [1.0] * 4 + [1 / math.sqrt(2)] * 8
    assert len(seen) == 2 and all(w is seen[0] for w in seen)
    assert seen[0].tolist() == expected
    gaussian_recovery_experiment(16, 12, pattern, 2, seed=1)
    assert seen[2].tolist() == [1.0] * 16


def test_problem_validation():
    with pytest.raises(ValueError):
        QcbpProblem(a=np.eye(2), y=np.zeros(3))
    for eta in (-1.0, math.nan):  # NaN >= 0 is False
        with pytest.raises(ValueError, match="eta must be >= 0"):
            QcbpProblem(a=np.eye(2), y=np.zeros(2), eta=eta)
    for w, message in (
        (np.ones(1), "w has shape"),
        (np.ones((2, 1)), "w has shape"),
        (np.array([0.0, 1.0]), "must be > 0"),
        (np.array([1.0, -2.0]), "must be > 0"),
        (np.array([math.nan, 1.0]), "must be > 0"),  # NaN > 0 is False
    ):
        with pytest.raises(ValueError, match=message):
            QcbpProblem(a=np.eye(2), y=np.zeros(2), w=w)


def test_weight_helpers():
    lv = LevelStructure((0, 2, 4))
    pattern = SparsityPattern(lv, (1, 0))
    assert inverse_sqrt_level_weights(pattern) == (1.0, math.inf)


def test_metrics_exact_recovery_all_zero():
    pattern = SparsityPattern(LevelStructure((0, 2, 4)), (1, 1))
    x = np.array([1.0, 0, 0, 2.0])
    out = recovery_metrics(x, x, pattern, eta=0.0)
    assert out["err2"] == 0.0
    assert out["err1"] == 0.0
    assert out["sigma_sM"] == 0.0
    assert out["bound_ratio_l1"] == 0.0
    assert out["bound_ratio_l2"] == 0.0


def test_metrics_ratios_with_noise_budget():
    pattern = SparsityPattern(LevelStructure((0, 2, 4)), (1, 1))
    x = np.array([1.0, 0, 0, 2.0])
    xhat = x + np.array([0.1, 0, 0, 0])
    out = recovery_metrics(x, xhat, pattern, eta=0.5)
    s = 2
    assert out["bound_ratio_l1"] == pytest.approx(0.1 / (math.sqrt(s) * 0.5))
    amp = 1.0 + (2 * 1.0) ** 0.25
    assert out["bound_ratio_l2"] == pytest.approx(0.1 / (amp * 0.5))


def test_metrics_mismatched_lengths():
    pattern = SparsityPattern(LevelStructure((0, 2)), (1,))
    with pytest.raises(ValueError):
        recovery_metrics(np.zeros(2), np.zeros(3), pattern)


def test_experiment_saturated_scheme_always_succeeds():
    u, lv = fourier_haar_matrix(16)
    pattern = SparsityPattern(lv, (1, 1, 1, 2))
    res = exact_recovery_experiment(u, lv, lv.widths, lv.r, pattern, 8, seed=123)
    assert res.success_rate == 1.0


def test_experiment_grossly_undersampled_fails():
    u, lv = fourier_haar_matrix(16)
    pattern = SparsityPattern(lv, (1, 2, 2, 3))  # total 8 = N/2
    res = exact_recovery_experiment(
        u, lv, (2, 2, 1, 1), 2, pattern, 8, seed=123,
        solver_opts={"max_iters": 5000, "primal_tol": 1e-5},
    )
    assert res.success_rate <= 0.25


def test_experiment_rejects_non_integer_trials():
    # int(2.9) used to run 2 trials without a word
    u, lv = fourier_haar_matrix(8)
    pattern = SparsityPattern(lv, (1, 1, 1))
    with pytest.raises(ValueError, match="trials must be an integer >= 1, got 2.9"):
        exact_recovery_experiment(u, lv, lv.widths, lv.r, pattern, 2.9, seed=7)
    res = exact_recovery_experiment(u, lv, lv.widths, lv.r, pattern, np.int64(2), seed=7)
    assert len(res.records) == 2


def test_experiment_counts_are_integers_not_truncated():
    # int() used to run m = (2, 2, 2.5) as (2, 2, 2)
    u, lv = fourier_haar_matrix(8)
    pattern = SparsityPattern(lv, (1, 1, 1))
    with pytest.raises(TypeError):
        exact_recovery_experiment(u, lv, (2, 2, 2.5), 2, pattern, 1, seed=7)
    with pytest.raises(TypeError):
        gaussian_recovery_experiment(8, 6.5, SparsityPattern(LevelStructure((0, 8)), (1,)), 1, seed=7)
    res = exact_recovery_experiment(u, lv, np.array([2, 2, 3]), 2, pattern, 1, seed=7)
    assert res.records[0]["m"] == [2, 2, 3]


def test_experiment_deterministic_replay():
    u, lv = fourier_haar_matrix(8)
    pattern = SparsityPattern(lv, (1, 1, 1))
    a = exact_recovery_experiment(u, lv, (2, 2, 3), 2, pattern, 5, seed=7)
    b = exact_recovery_experiment(u, lv, (2, 2, 3), 2, pattern, 5, seed=7)
    assert a.records == b.records


def test_experiment_noise_mode_respects_radius():
    u, lv = fourier_haar_matrix(16)
    pattern = SparsityPattern(lv, (1, 1, 1, 1))
    eta = 0.05
    res = exact_recovery_experiment(
        u, lv, lv.widths, lv.r, pattern, 4, seed=11, eta=eta, success_rtol=1.0
    )
    assert res.success_rate == 1.0
    # noisy measurements of a saturated isometry recover to O(eta)
    assert all(rec["err2"] <= 10 * eta for rec in res.records)


def test_gaussian_experiment_shares_trial_signals():
    lv = LevelStructure((0, 4, 16))
    pattern = SparsityPattern(lv, (1, 1))
    res = gaussian_recovery_experiment(16, 12, pattern, 6, seed=21)
    assert len(res.records) == 6
    assert all(rec["m"] == [12] for rec in res.records)
    # well-determined Gaussian systems at m = 12 >> s = 2 succeed
    assert res.success_rate >= 0.8


def _mixed_stack(real, eta):
    """Six trials with 1-4 nonzeros, one zero operator, two columns of weight +inf."""
    rng = np.random.default_rng(8)
    count, m, n = 6, 12, 21
    a = rng.standard_normal((count, m, n))
    if not real:
        a = a + 1j * rng.standard_normal((count, m, n))
    a[2] = 0.0
    x = np.zeros((count, n), dtype=np.complex128)
    for b in range(count):
        x[b, rng.choice(n - 2, size=1 + b % 4, replace=False)] = rng.standard_normal(1 + b % 4)
    y = (a @ x[:, :, None])[:, :, 0] + eta / 4 * rng.standard_normal((count, m))
    w = 1.0 + np.arange(n) % 3 / 2
    w[-2:] = math.inf
    return a, y, w


@pytest.mark.parametrize("real, eta, max_iters", [
    (False, 0.0, 50000), (False, 0.05, 50000), (True, 0.0, 50000), (True, 0.05, 50000),
    (False, 0.0, 240),
])
def test_stack_matches_solving_each_trial_alone(real, eta, max_iters):
    a, y, w = _mixed_stack(real, eta)
    alone = [_solve_alone(a[b], y[b], eta, w, max_iters) for b in range(len(a))]
    norms = [np.linalg.norm(a_b, 2) for a_b in a]
    stacked = recovery._solve_stack(a.copy(), y.copy(), eta, w, norms, max_iters=max_iters)
    for one, got in zip(alone, stacked):
        assert got.xhat.view(np.uint64).tolist() == one.xhat.view(np.uint64).tolist()
        assert ((got.iterations, got.converged, got.gap, got.residual, got.objective)
                == (one.iterations, one.converged, one.gap, one.residual, one.objective))
    iterations = [one.iterations for one in alone]
    assert iterations[2] == 0  # the zero operator never enters the loop
    assert len(set(iterations) - {0}) >= 3  # trials leave the stack at different checks
    if max_iters == 240:
        assert {(one.iterations, one.converged) for one in alone} >= {(200, True), (240, False)}


def test_experiment_records_do_not_depend_on_stack_depth(monkeypatch):
    u, lv = fourier_haar_matrix(16)
    pattern = SparsityPattern(lv, (1, 1, 1, 2))

    def records():
        return exact_recovery_experiment(
            u, lv, (2, 2, 3, 5), 2, pattern, 7, seed=3, eta=0.02, weighted=True,
            solver_opts={"max_iters": 2000}).records

    monkeypatch.setattr(recovery, "_STACK_BYTES", 1)  # stacks of two trials
    pairs = records()
    monkeypatch.setattr(recovery, "_STACK_BYTES", 1 << 30)  # one stack of all seven
    whole = records()
    assert pairs == whole
    assert len({rec["iterations"] for rec in whole}) > 1


def test_experiment_rejects_a_bad_radius_before_any_trial(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a stack was solved")

    monkeypatch.setattr(recovery, "_solve_stack", no_solve)
    u, lv = fourier_haar_matrix(8)
    pattern = SparsityPattern(lv, (1, 1, 1))
    for opts in ({"eta": -0.1}, {"radius": math.nan}):
        with pytest.raises(ValueError, match="eta must be >= 0"):
            exact_recovery_experiment(u, lv, (2, 2, 3), 2, pattern, 2, seed=1, **opts)
