"""Acceptance suite: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines).  Every randomized check uses a frozen seed and
replays identically.
"""
import json
import math
from itertools import product

import numpy as np

import ripl_lab as rl
from ripl_lab.cli import main as cli_main


def _saturated_operator(u, levels):
    scheme = rl.draw_scheme(levels, levels.widths, r0=levels.r, seed=0)
    return rl.build_measurement(u, scheme)


def test_c01_threshold_exactness():
    value = rl.ripl_threshold(1, 1.0)
    assert abs(value - 4.0 / math.sqrt(41.0)) <= 1e-12
    print(f"ACCEPTANCE 1 PASS: ripl_threshold(1,1) = {value!r} matches 4/sqrt(41) to 1e-12")


def test_c02_isometry_ricl_zero():
    checked = 0
    for n in (2, 4, 8, 16, 32, 64, 128, 256):
        half = n // 2
        two_level = rl.LevelStructure((0, half, n))
        s_two = (min(1, half), min(1, half))
        for make in (rl.dft_matrix, rl.haar_matrix):
            op = _saturated_operator(np.asarray(make(n), dtype=complex), two_level)
            rep = rl.ricl_exact(op, rl.SparsityPattern(two_level, s_two))
            assert rep.delta <= 1e-10, (make.__name__, n, rep.delta)
            checked += 1
        u, lv = rl.fourier_haar_matrix(n)
        op = _saturated_operator(u, lv)
        s = [0] * lv.r
        s[0] = 1
        s[-1] = min(2, lv.widths[-1])
        rep = rl.ricl_exact(op, rl.SparsityPattern(lv, tuple(s)))
        assert rep.delta <= 1e-10, ("fourier-haar", n, rep.delta)
        checked += 1
    print(f"ACCEPTANCE 2 PASS: saturated RICL <= 1e-10 on {checked} isometry instances")


def test_c03_coherence_identities():
    for n in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        assert abs(rl.global_coherence(rl.dft_matrix(n)) - 1.0 / n) <= 1e-14
    for n in (2, 8, 64, 256):
        u, _ = rl.fourier_haar_matrix(n)
        assert abs(rl.global_coherence(u) - 1.0) <= 1e-10
    rng = np.random.default_rng(314)
    for _ in range(100):
        mu = rng.random((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        tilde = rl.nonuniform_local_coherence(mu)
        assert np.all(tilde >= mu - 1e-15)
    print("ACCEPTANCE 3 PASS: dft coherence 1/N to 1e-14, fourier-haar coherent, "
          "mu_tilde >= mu on 100 fuzzed profiles")


def test_c04_fourier_haar_decay_constant_stable():
    max_ratios = []
    for n in (64, 128, 256, 512):
        u, lv = rl.fourier_haar_matrix(n)
        mu = rl.local_coherence(u, lv, lv)
        worst = 0.0
        for k in range(1, lv.r + 1):
            for l in range(1, lv.r + 1):
                bound = 2.0 ** (-k) * 2.0 ** (-abs(k - l))
                worst = max(worst, mu[k - 1, l - 1] / bound)
        assert math.isfinite(worst)
        max_ratios.append(worst)
    spread = max(max_ratios) / min(max_ratios)
    assert spread < 2.0, max_ratios
    print(f"ACCEPTANCE 4 PASS: decay-ratio constants {max_ratios} vary by factor "
          f"{spread:.3f} < 2 across N in 64..512")


def test_c05_unbiasedness_and_rate():
    n = 32
    u, lv = rl.fourier_haar_matrix(n)
    m = tuple(w // 2 for w in lv.widths)
    acc = np.zeros((n, n), dtype=complex)
    deviations = {}
    for i, child in enumerate(np.random.SeedSequence(1).spawn(10000), start=1):
        a = rl.build_measurement(u, rl.draw_scheme(lv, m, seed=child)).a
        acc += a.conj().T @ a
        if i in (100, 1000, 10000):
            deviations[i] = float(np.max(np.abs(acc / i - np.eye(n))))
    assert deviations[10000] <= 0.05, deviations
    ts = sorted(deviations)
    slope = float(np.polyfit(np.log(ts), np.log([deviations[t] for t in ts]), 1)[0])
    assert -0.65 <= slope <= -0.35, (slope, deviations)
    print(f"ACCEPTANCE 5 PASS: max |mean(A*A) - I| = {deviations[10000]:.4f} <= 0.05 "
          f"at T=1e4; log-log slope {slope:.3f} in -0.5 +/- 0.15")


def test_c06_oracle_equivalence():
    # (a) exact RICL vs a unit-sphere net, per support
    rng = np.random.default_rng(20260811)
    net_points = 8000
    for _ in range(25):
        n = int(rng.integers(4, 13))
        r = int(rng.integers(2, 4))
        cuts = sorted(rng.choice(np.arange(1, n), size=r - 1, replace=False).tolist())
        ls = rl.LevelStructure((0, *cuts, n))
        s = [0] * r
        for k in rng.choice(r, size=min(3, r), replace=False):
            s[k] = 1
        pattern = rl.SparsityPattern(ls, tuple(int(v) for v in s))
        mrows = int(rng.integers(2, n + 3))
        a = (rng.standard_normal((mrows, n)) + 1j * rng.standard_normal((mrows, n)))
        a /= math.sqrt(2 * mrows)
        exact = rl.ricl_exact(a, pattern).delta
        net_best = 0.0
        for idx in np.concatenate(list(rl.support_blocks(pattern))):
            cols = a[:, idx]
            v = rng.standard_normal((net_points, len(idx)))
            v = v + 1j * rng.standard_normal(v.shape)
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            vals = np.abs(np.linalg.norm(v @ cols.T, axis=1) ** 2 - 1.0)
            net_best = max(net_best, float(vals.max()))
        assert net_best <= exact + 1e-10
        assert exact - net_best <= 0.06  # net resolution, 8000 points, dim <= 3

    # (b) best-approximation error vs support brute force
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(4, 13))
        cut = int(rng.integers(1, n))
        ls = rl.LevelStructure((0, cut, n))
        p = rl.SparsityPattern(
            ls, (int(rng.integers(0, cut + 1)), int(rng.integers(0, n - cut + 1)))
        )
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        _, sigma = rl.best_approx_in_levels(x, p)
        total = float(np.sum(np.abs(x)))
        # every support with at most s_k indices per level: all counts c <= s
        brute = min(
            total - float(np.sum(np.abs(x[idx])))
            for c in product(*(range(sk + 1) for sk in p.s))
            for idx in np.concatenate(list(rl.support_blocks(rl.SparsityPattern(ls, c))))
        )
        assert abs(sigma - brute) <= 1e-12

    # (c) solver objective vs the support-restricted feasible-point oracle
    rng = np.random.default_rng(424242)
    for _ in range(25):
        n = int(rng.integers(8, 13))
        cut = int(rng.integers(2, n - 2))
        ls = rl.LevelStructure((0, cut, n))
        pattern_true = rl.SparsityPattern(ls, (1, 1))
        mrows = n - 2
        a = (rng.standard_normal((mrows, n)) + 1j * rng.standard_normal((mrows, n)))
        a /= math.sqrt(mrows)
        x0 = rl.random_sparse_vector(pattern_true, rng)
        y = a @ x0
        res = rl.solve_qcbp(rl.QcbpProblem(a=a, y=y, eta=0.0))
        generous = rl.SparsityPattern(
            ls, tuple(min(sk + 1, w) for sk, w in zip((1, 1), ls.widths))
        )
        best = math.inf
        supports = (
            idx
            for c in product(*(range(sk + 1) for sk in generous.s))
            for idx in np.concatenate(list(rl.support_blocks(rl.SparsityPattern(ls, c))))
        )
        for idx in supports:
            if not 0 < len(idx) <= mrows:
                continue
            cols = a[:, idx]
            z, *_ = np.linalg.lstsq(cols, y, rcond=None)
            if np.linalg.norm(cols @ z - y) <= 1e-9 * max(1.0, float(np.linalg.norm(y))):
                val = float(np.sum(np.abs(z)))
                assert res.objective <= val + 1e-4
                best = min(best, val)
        assert abs(res.objective - best) <= 1e-4
    print("ACCEPTANCE 6 PASS: sphere-net RICL oracle (25 instances), "
          "best-approx brute force (100 vectors), solver support oracle (25 instances)")


def test_c07_uniform_recovery_consistency():
    # every instance certified sufficient must recover 20/20 noiseless signals
    instances = []
    u16, lv16 = rl.fourier_haar_matrix(16)
    instances.append(
        ("fourier-haar16 saturated",
         _saturated_operator(u16, lv16), rl.SparsityPattern(lv16, (1, 1, 1, 1)))
    )
    id_levels = rl.LevelStructure((0, 4, 8))
    instances.append(
        ("identity8 saturated",
         _saturated_operator(np.eye(8, dtype=complex), id_levels),
         rl.SparsityPattern(id_levels, (2, 2)))
    )
    dft16_levels = rl.LevelStructure((0, 8, 16))
    op = rl.build_measurement(
        rl.dft_matrix(16), rl.draw_scheme(dft16_levels, (8, 10), r0=1, seed=0)
    )
    instances.append(("dft16 subsampled", op, rl.SparsityPattern(dft16_levels, (1, 1))))
    dft8_levels = rl.LevelStructure((0, 4, 8))
    op8 = rl.build_measurement(
        rl.dft_matrix(8), rl.draw_scheme(dft8_levels, (4, 6), r0=1, seed=1)
    )
    instances.append(("dft8 subsampled", op8, rl.SparsityPattern(dft8_levels, (1, 1))))

    certified = 0
    for label, op, pattern in instances:
        report = rl.certify_recovery(op, pattern)
        assert report.verdict == "sufficient", (label, report.delta, report.threshold)
        certified += 1
        for child in np.random.SeedSequence(2024).spawn(20):
            x = rl.random_sparse_vector(pattern, np.random.default_rng(child))
            res = rl.solve_qcbp(rl.QcbpProblem(a=op.a, y=op.a @ x, eta=0.0))
            rel = float(np.linalg.norm(res.xhat - x) / np.linalg.norm(x))
            assert rel <= 1e-5, (label, rel)
    print(f"ACCEPTANCE 7 PASS: {certified} certified instances recover 20/20 "
          "noiseless signals to 1e-5")


def test_c08_phase_transition_multilevel_beats_uniform():
    n = 64
    s = (2, 2, 2, 2, 2, 2)  # asymptotic: s_k / width_k = 1, 1, .5, .25, .125, .0625
    u, lv = rl.fourier_haar_matrix(n)
    pattern = rl.SparsityPattern(lv, s)
    # recorded constant: allocation at C = 4.49e-4 totals 32 = 50% of N
    alloc = rl.allocate_haar(s, 0.5, 0.5, 4.49e-4, r0=0, mode="uniform")
    assert alloc.m == (2, 2, 4, 8, 9, 7)
    assert alloc.total == 32
    r0 = 0
    for width, mk in zip(lv.widths, alloc.m):
        if mk != width:
            break
        r0 += 1
    assert r0 == 4  # full-width bands are sampled deterministically
    opts = {"max_iters": 30000, "primal_tol": 1e-6}
    multilevel = rl.exact_recovery_experiment(
        u, lv, alloc.m, r0, pattern, 50, 20260811, solver_opts=opts
    )
    uniform = rl.exact_recovery_experiment(
        u, rl.LevelStructure.single_level(n), (alloc.total,), 0, pattern, 50,
        20260811, solver_opts=opts
    )
    assert multilevel.success_rate >= 0.9, multilevel.success_rate
    assert uniform.success_rate < multilevel.success_rate
    print(f"ACCEPTANCE 8 PASS: multilevel success {multilevel.success_rate:.2f} >= 0.9 "
          f"vs uniform {uniform.success_rate:.2f} at equal total m = {alloc.total}")


def test_c09_monotonicity_suite():
    rng = np.random.default_rng(55)
    a = (rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))) / math.sqrt(8)
    lv = rl.LevelStructure((0, 4, 8))
    deltas = [
        rl.ricl_exact(a, rl.SparsityPattern(lv, s)).delta
        for s in ((1, 1), (2, 1), (2, 2), (3, 2))
    ]
    assert all(d1 <= d2 + 1e-12 for d1, d2 in zip(deltas, deltas[1:]))

    u, flv = rl.fourier_haar_matrix(32)
    prof = rl.CoherenceProfile.from_matrix(u, flv, flv)
    base = rl.allocate_uniform(prof, rl.SparsityPattern(flv, (1, 1, 1, 2, 2)), 0.5, 0.5, 2e-4)
    for other in (
        rl.allocate_uniform(prof, rl.SparsityPattern(flv, (1, 1, 2, 2, 3)), 0.5, 0.5, 2e-4),
        rl.allocate_uniform(prof, rl.SparsityPattern(flv, (1, 1, 1, 2, 2)), 0.25, 0.5, 2e-4),
        rl.allocate_uniform(prof, rl.SparsityPattern(flv, (1, 1, 1, 2, 2)), 0.5, 0.05, 2e-4),
    ):
        assert all(mo >= mb for mb, mo in zip(base.m, other.m))

    s = (2, 2, 2, 3, 4, 4)
    hbase = rl.allocate_haar(s, 0.5, 0.5, 2e-4, mode="uniform")
    for hother in (
        rl.allocate_haar((2, 2, 3, 3, 4, 4), 0.5, 0.5, 2e-4, mode="uniform"),
        rl.allocate_haar(s, 0.25, 0.5, 2e-4, mode="uniform"),
        rl.allocate_haar(s, 0.5, 0.05, 2e-4, mode="uniform"),
    ):
        assert all(mo >= mb for mb, mo in zip(hbase.m, hother.m))

    uni = rl.haar_interference_weights(s, "uniform")
    non = rl.haar_interference_weights(s, "nonuniform")
    assert all(wu <= wn + 1e-15 for wu, wn in zip(uni, non))
    print("ACCEPTANCE 9 PASS: RICL and allocations monotone; uniform Haar kernel "
          "<= nonuniform per level")


def test_c10_cli_determinism(tmp_path):
    configs = {
        "certify": {"operator": "fourier-haar", "N": 16, "m": [2, 2, 3, 6], "r0": 2,
                    "s": [1, 1, 1, 1], "seed": 7},
        "recover": {"operator": "dft", "N": 16, "sampling_boundaries": [0, 8, 16],
                    "sparsity_boundaries": [0, 8, 16], "m": [8, 10], "r0": 1,
                    "s": [1, 1], "trials": 5, "seed": 3,
                    "solver": {"max_iters": 20000, "primal_tol": 1e-6}},
        "coherence": {"operator": "fourier-haar", "N": 32},
        "allocate": {"s": [1, 1, 2, 2], "delta": 0.5, "eps": 0.5, "C": 0.001,
                     "modes": ["haar-uniform", "haar-nonuniform"]},
    }
    for command, payload in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(payload))
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}_{run}"
            assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1], f"{command} replay differs"
    print("ACCEPTANCE 10 PASS: certify/recover/coherence/allocate replay byte-identically")
