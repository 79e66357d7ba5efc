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
from ripl_lab.operators import _FourierHaarBlocks
from ripl_lab.recovery import gaussian_recovery_experiment
from ripl_lab.sampling import build_measurement, draw_scheme


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
    """Six trials with 1-4 nonzeros, one zero operator, two columns of weight +inf.

    The stack is complex128, the solver's one dtype; ``real`` draws
    real-valued entries and hands over their complex cast."""
    rng = np.random.default_rng(8)
    count, m, n = 6, 12, 21
    a = rng.standard_normal((count, m, n)).astype(np.complex128)
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
    stacked = recovery._solve_stack(recovery._DenseStack(a.copy()), y.copy(), eta, w, norms,
                                    max_iters=max_iters)
    for one, got in zip(alone, stacked):
        assert got.xhat.view(np.uint64).tolist() == one.xhat.view(np.uint64).tolist()
        assert ((got.iterations, got.converged, got.gap, got.residual, got.objective)
                == (one.iterations, one.converged, one.gap, one.residual, one.objective))
    iterations = [one.iterations for one in alone]
    assert iterations[2] == 0  # the zero operator never enters the loop
    assert len(set(iterations) - {0}) >= 3  # trials leave the stack at different checks
    if max_iters == 240:
        assert {(one.iterations, one.converged) for one in alone} >= {(200, True), (240, False)}


@pytest.mark.parametrize("eta", [0.0, 0.05])
def test_real_operator_solves_as_its_complex_cast(eta):
    # the solver has one dtype: a real A gives, bit for bit, the result on
    # its complex cast.  ||A|| stays the SVD of A as given (a complex SVD of
    # the cast can differ in its last bit), so the cast is solved at that norm.
    a, y, w = _mixed_stack(True, eta)
    for a_b, y_b in zip(a.real, y):
        got = solve_qcbp(QcbpProblem(a=a_b, y=y_b, eta=eta, w=w))
        want, = recovery._solve_stack(recovery._DenseStack(a_b.astype(np.complex128)[None]),
                                      y_b[None], eta, w, [np.linalg.norm(a_b, 2)])
        assert got.xhat.view(np.uint64).tolist() == want.xhat.view(np.uint64).tolist()
        assert ((got.iterations, got.converged, got.gap, got.residual, got.objective)
                == (want.iterations, want.converged, want.gap, want.residual, want.objective))


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


def test_exact_experiment_rejects_a_pattern_of_another_n():
    # used to fail deep in numpy: could not broadcast (16,16) into (16,8)
    u, lv = fourier_haar_matrix(16)
    pattern = SparsityPattern(LevelStructure((0, 4, 8)), (1, 1))
    with pytest.raises(ValueError, match="sparsity pattern has N = 8, the operator has N = 16"):
        exact_recovery_experiment(u, lv, (2, 2, 4, 8), 2, pattern, 2, seed=1)


def test_gaussian_experiment_rejects_a_pattern_of_another_n():
    pattern = SparsityPattern(LevelStructure((0, 4, 8)), (1, 1))
    with pytest.raises(ValueError, match="sparsity pattern has N = 8, the operator has N = 16"):
        gaussian_recovery_experiment(16, 6, pattern, 2, seed=1)


def _fourier_haar_schemes(n, count, seed=0):
    """``count`` schemes at N with r0 = 2, at least one with a repeated draw."""
    lv = LevelStructure.dyadic(n.bit_length() - 1)
    m = [2, 2] + [max(2, w // 2) for w in lv.widths[2:]]  # half of each band above r0
    schemes = [draw_scheme(lv, m, r0=2, seed=seed + b) for b in range(count)]
    assert any(len(set(d)) < len(d) for scheme in schemes for d in scheme.draws)
    return schemes


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_fourier_haar_stack_matches_the_dense_measurement(n):
    schemes = _fourier_haar_schemes(n, 3)
    u = fourier_haar_matrix(n)[0]
    dense = recovery._DenseStack(np.array([build_measurement(u, sc).a for sc in schemes]))
    op = recovery._FourierHaarStack(_FourierHaarBlocks(n), schemes)
    rng = np.random.default_rng(n)
    z = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    q = rng.standard_normal(dense.a.shape[:2]) + 1j * rng.standard_normal(dense.a.shape[:2])
    for got, want in ((op.forward(z), dense.forward(z)), (op.adjoint(q), dense.adjoint(q))):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # <A z, q> = <z, A^H q>, trial by trial
    lhs = np.sum(op.forward(z) * np.conj(q), axis=1)
    rhs = np.sum(z * np.conj(op.adjoint(q)), axis=1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(lhs))


@pytest.mark.parametrize("n", [8, 32, 64, 512])
def test_fourier_haar_stack_on_unit_vectors_is_the_dense_measurement_bit_for_bit(n):
    # the forward of e_j is column j of the dense A: the same amplitudes, passes and FFT
    lv = LevelStructure.dyadic(n.bit_length() - 1)
    scheme = draw_scheme(lv, [2, 2] + list(lv.widths[2:]), r0=2, seed=1)
    assert any(len(set(d)) < len(d) for d in scheme.draws)  # a repeated draw
    blocks = _FourierHaarBlocks(n)
    got = recovery._FourierHaarStack(blocks, [scheme]).forward(np.eye(n, dtype=complex)).T
    want = build_measurement(blocks, scheme).a
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64), want.view(np.uint64))


def test_fourier_haar_stack_keeps_the_right_trials():
    schemes = _fourier_haar_schemes(64, 4, seed=5)
    blocks = _FourierHaarBlocks(64)
    op = recovery._FourierHaarStack(blocks, schemes)
    op.keep(np.array([1, 3]))
    kept = recovery._FourierHaarStack(blocks, [schemes[1], schemes[3]])
    rng = np.random.default_rng(2)
    z = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
    q = rng.standard_normal((2, op.rows.shape[1])) + 1j * rng.standard_normal((2, op.rows.shape[1]))
    assert np.array_equal(op.forward(z), kept.forward(z))
    assert np.array_equal(op.adjoint(q), kept.adjoint(q))


def _stack_kinds(monkeypatch):
    """Record the operator class of every stack the experiments solve."""
    kinds, solve = [], recovery._solve_stack

    def spy(op, *args, **kwargs):
        kinds.append(type(op))
        return solve(op, *args, **kwargs)

    monkeypatch.setattr(recovery, "_solve_stack", spy)
    return kinds


def test_matrix_free_experiment_matches_the_dense_one(monkeypatch):
    # sum(m) * N = 65 * 256 > 16,384: two trials' dense A would pass the 512 KiB cap
    lv = LevelStructure.dyadic(8)
    m, pattern = (2, 2, 4, 8, 12, 16, 11, 10), SparsityPattern(lv, (1, 1, 1, 1, 2, 2, 3, 3))
    kinds = _stack_kinds(monkeypatch)

    def records(u):
        return exact_recovery_experiment(
            u, lv, m, 2, pattern, 3, seed=4, eta=0.01, radius=0.02, weighted=True,
            magnitude_model="gaussian", success_rtol=0.05,
            solver_opts={"max_iters": 5000}).records

    free = records(_FourierHaarBlocks(256))
    assert kinds == [recovery._FourierHaarStack]  # every trial in one stack
    dense = records(fourier_haar_matrix(256)[0])
    assert kinds[1:] == [recovery._DenseStack] * 2  # the oracle: dense stacks of two
    assert any(rec["converged"] for rec in dense)
    for got, want in zip(free, dense):
        assert ((got["success"], got["converged"], got["iterations"])
                == (want["success"], want["converged"], want["iterations"]))
        assert got["rel_err"] == pytest.approx(want["rel_err"], rel=1e-12)
    # matrix-free trials do not depend on the stack depth either: two a stack here
    monkeypatch.setattr(recovery, "_STACK_BYTES", 2 * 16 * 256)
    assert records(_FourierHaarBlocks(256)) == free
    assert kinds[3:] == [recovery._FourierHaarStack] * 2


@pytest.mark.parametrize("source", ["blocks", "dense"])
def test_both_stack_kinds_check_the_sampling_levels_against_u(source):
    # sum(m) * N = 242 * 512 would run matrix-free from the blocks; the levels end at 256
    u = _FourierHaarBlocks(512) if source == "blocks" else fourier_haar_matrix(512)[0]
    pattern = SparsityPattern(LevelStructure.dyadic(9), (1,) * 9)
    with pytest.raises(ValueError, match="scheme levels end at 256, matrix is 512 x 512"):
        exact_recovery_experiment(u, LevelStructure.dyadic(8), (2, 2, 4, 8, 16, 32, 64, 64), 2,
                                  pattern, 2, 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging iterates overflow
@pytest.mark.parametrize("seed", [1, 3])
def test_a_diverging_solve_returns_unconverged_trials_at_the_cap(monkeypatch, seed):
    # a wrong adjoint (the Haar details negated) makes PDHG diverge: the primal-weight update
    # must keep omega finite and > 0, not raise, and every trial runs to the cap
    adjoint = recovery._FourierHaarStack.adjoint

    def flipped(self, q):
        out = adjoint(self, q)
        out[:, 1:] *= -1
        return out

    monkeypatch.setattr(recovery._FourierHaarStack, "adjoint", flipped)
    lv = LevelStructure.dyadic(9)  # the recover-fh512-noisy benchmark config
    m = (2, 2, 4, 8, 12, 16, 24, 32, 40)
    radius = 0.01 * math.sqrt(max(w / mk for w, mk in zip(lv.widths, m)))
    records = exact_recovery_experiment(
        _FourierHaarBlocks(512), lv, m, 2, SparsityPattern(lv, (1, 1, 1, 2, 2, 3, 4, 5, 6)), 8,
        seed, eta=0.01, radius=radius, weighted=True, magnitude_model="gaussian",
        success_rtol=0.05, solver_opts={"max_iters": 400}).records
    assert [(rec["converged"], rec["iterations"]) for rec in records] == [(False, 400)] * 8


def test_below_the_stack_budget_fourier_haar_stays_dense(monkeypatch):
    # sum(m) * N = 64 * 256 = 16,384: two trials' dense A fill the 512 KiB cap exactly
    def no_stack(*args):
        raise AssertionError("a matrix-free stack was built")

    monkeypatch.setattr(recovery, "_FourierHaarStack", no_stack)
    kinds = _stack_kinds(monkeypatch)
    lv = LevelStructure.dyadic(8)
    pattern = SparsityPattern(lv, (1,) * 8)
    exact_recovery_experiment(_FourierHaarBlocks(256), lv, (2, 2, 4, 8, 12, 16, 10, 10), 2,
                              pattern, 3, seed=4, solver_opts={"max_iters": 200})
    assert kinds == [recovery._DenseStack] * 2
