import math

import numpy as np
import pytest

from ripl_lab import (
    CoherenceProfile,
    LevelError,
    LevelStructure,
    SamplingScheme,
    SparsityPattern,
    allocate_haar,
    allocate_uniform,
    build_measurement,
    dft_matrix,
    draw_scheme,
    fourier_haar_matrix,
    haar_interference_weights,
    haar_matrix,
    ricl_monte_carlo,
)
from ripl_lab.recovery import exact_recovery_experiment, gaussian_recovery_experiment
from ripl_lab.operators import _FourierHaarBlocks
from ripl_lab.sampling import (
    _as_seed_sequence,
    _check_counts,
    _fill_measurements,
    measurement_norm,
)


def test_saturated_level_draws_in_order():
    lv = LevelStructure((0, 2, 4))
    scheme = draw_scheme(lv, (2, 1), r0=1, seed=0)
    assert scheme.draws[0] == (1, 2)
    assert scheme.saturated == (True, False)


def test_unsaturated_draws_stay_in_range():
    lv = LevelStructure((0, 2, 4))
    for seed in range(20):
        scheme = draw_scheme(lv, (2, 5), r0=1, seed=seed)
        assert all(3 <= t <= 4 for t in scheme.draws[1])


def test_draws_empirically_uniform():
    # 1e5 draws from a width-4 level: each index within 3 sigma of uniform
    lv = LevelStructure((0, 2, 4, 8))
    scheme = draw_scheme(lv, (2, 2, 100000), r0=2, seed=99)
    counts = np.bincount(np.array(scheme.draws[2]) - 5, minlength=4)
    expect = 25000.0
    three_sigma = 3.0 * math.sqrt(100000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - expect) <= three_sigma)


def test_draw_scheme_deterministic_and_level_independent():
    lv = LevelStructure((0, 2, 4, 8))
    s1 = draw_scheme(lv, (2, 3, 4), r0=1, seed=512)
    s2 = draw_scheme(lv, (2, 3, 4), r0=1, seed=512)
    assert s1 == s2
    # level 3 stream does not depend on level 2's count
    s3 = draw_scheme(lv, (2, 9, 4), r0=1, seed=512)
    assert s3.draws[2] == s1.draws[2]


def _seeded_runs():
    u, lv = fourier_haar_matrix(8)
    pattern = SparsityPattern(lv, (1, 1, 1))
    op = build_measurement(u, draw_scheme(lv, (2, 2, 2), r0=2, seed=0))
    return {
        "draw_scheme": lambda ss: draw_scheme(lv, (2, 2, 3), r0=1, seed=ss),
        "ricl_monte_carlo": lambda ss: ricl_monte_carlo(op, pattern, 20, seed=ss).delta,
        "exact_recovery_experiment": lambda ss: exact_recovery_experiment(
            u, lv, (2, 2, 3), 2, pattern, 2, seed=ss).records,
        "gaussian_recovery_experiment": lambda ss: gaussian_recovery_experiment(
            8, 6, pattern, 2, seed=ss).records,
    }


@pytest.mark.parametrize("name", [
    "draw_scheme", "ricl_monte_carlo", "exact_recovery_experiment",
    "gaussian_recovery_experiment",
])
def test_same_seed_sequence_object_replays(name):
    # spawning from a passed SeedSequence must not advance the caller's object
    run = _seeded_runs()[name]
    ss = np.random.SeedSequence(2024)
    assert run(ss) == run(ss)


def test_draw_scheme_errors():
    lv = LevelStructure((0, 2, 4))
    with pytest.raises(LevelError, match="fully sampled"):
        draw_scheme(lv, (1, 2), r0=1, seed=0)
    with pytest.raises(LevelError, match="m_k must be >= 1"):
        draw_scheme(lv, (2, 0), r0=1, seed=0)


def test_counts_and_seeds_are_integers_not_truncated():
    # int() used to turn m = (2, 1.9) into (2, 1) and seed 7.9 into 7
    lv = LevelStructure((0, 2, 4))
    with pytest.raises(TypeError):
        _check_counts(lv, (2, 1.9))
    assert _check_counts(lv, (np.int64(2), 1)) == (2, 1)
    with pytest.raises(TypeError):
        _as_seed_sequence(7.9)
    assert _as_seed_sequence(np.uint32(7)).entropy == 7


def test_loaded_scheme_with_empty_level_fails():
    # a scheme file is checked like a draw: m_k = 0 fails before any K is formed
    d = draw_scheme(LevelStructure((0, 2, 4, 8)), (2, 1, 2), r0=1, seed=5).to_dict()
    d["m"][1], d["draws"][1] = 0, []
    with pytest.raises(LevelError, match="level 2: m_k must be >= 1"):
        SamplingScheme.from_dict(d)


def test_scheme_serialization_roundtrip():
    lv = LevelStructure((0, 2, 4, 8))
    scheme = draw_scheme(lv, (2, 3, 2), r0=1, seed=77)
    assert SamplingScheme.from_dict(scheme.to_dict()) == scheme


def test_saturated_build_is_permuted_isometry():
    u, lv = fourier_haar_matrix(16)
    scheme = draw_scheme(lv, lv.widths, r0=lv.r, seed=0)
    op = build_measurement(u, scheme)
    assert np.max(np.abs(op.a.conj().T @ op.a - np.eye(16))) < 1e-10
    assert op.k_factor == 1.0


def test_single_draw_scaling():
    lv = LevelStructure.single_level(4)
    scheme = draw_scheme(lv, (1,), seed=3)
    op = build_measurement(np.eye(4, dtype=complex), scheme)
    j = scheme.draws[0][0]
    expected = np.zeros((1, 4), dtype=complex)
    expected[0, j - 1] = 2.0  # sqrt(N) = sqrt(4)
    assert np.array_equal(op.a, expected)
    assert op.k_factor == 4.0


def test_mean_gram_close_to_identity():
    # empirical counterpart of E(A*A) = I over 2000 independent schemes
    n = 32
    u, lv = fourier_haar_matrix(n)
    m = tuple(w // 2 for w in lv.widths)
    acc = np.zeros((n, n), dtype=complex)
    for child in np.random.SeedSequence(4).spawn(2000):
        a = build_measurement(u, draw_scheme(lv, m, seed=child)).a
        acc += a.conj().T @ a
    assert np.max(np.abs(acc / 2000 - np.eye(n))) <= 0.1


def test_build_measurement_dimension_mismatch():
    lv = LevelStructure((0, 2, 4))
    scheme = draw_scheme(lv, (2, 2), r0=1, seed=0)
    with pytest.raises(ValueError):
        build_measurement(np.eye(6, dtype=complex), scheme)


def _fh_profile(n):
    u, lv = fourier_haar_matrix(n)
    return CoherenceProfile.from_matrix(u, lv, lv), lv


def test_allocate_uniform_zero_coherence_floor():
    prof, lv = _fh_profile(16)
    zero = CoherenceProfile(
        mu_global=prof.mu_global,
        mu_local=np.zeros_like(prof.mu_local),
        mu_tilde=np.zeros_like(prof.mu_tilde),
        sampling=prof.sampling,
        sparsity=prof.sparsity,
    )
    res = allocate_uniform(zero, SparsityPattern(lv, (1, 1, 1, 1)), 0.5, 0.5, 1.0)
    assert res.m == (1, 1, 1, 1)
    assert all(res.clamped_low)


def test_allocate_uniform_doubling_c_doubles_raw():
    prof, lv = _fh_profile(64)
    pattern = SparsityPattern(lv, (1, 1, 2, 2, 2, 2))
    base = allocate_uniform(prof, pattern, 0.5, 0.5, 1e-4)
    double = allocate_uniform(prof, pattern, 0.5, 0.5, 2e-4)
    assert all(rd >= 2 * rb - 1e-9 for rb, rd in zip(base.raw, double.raw))


def test_allocate_uniform_golden_n256():
    # frozen from the first verified run; at C = 1 the log factors saturate
    # every band, so the fixed point lands on the full widths
    prof, lv = _fh_profile(256)
    pattern = SparsityPattern(lv, (2, 2, 4, 4, 4, 4, 4, 4))
    res = allocate_uniform(prof, pattern, 0.5, 0.5, 1.0, r0=0)
    assert res.m == (2, 2, 4, 8, 16, 32, 64, 128)
    assert all(res.clamped_high)
    assert res.log_arg == 256
    # direct substitution of the converged log argument reproduces the counts
    sv = np.asarray(pattern.s, dtype=float)
    widths = np.asarray(lv.widths, dtype=float)
    fac = (
        lv.r * math.log(2 * res.log_arg) * math.log(2 * lv.n)
        * math.log(2 * pattern.total) ** 2
        + math.log(2.0)
    )
    manual = np.ceil(0.5**-2 * widths * (prof.mu_local @ sv) * fac)
    manual = np.clip(manual, 1, widths).astype(int)
    assert tuple(manual.tolist()) == res.m


def test_allocate_uniform_monotone():
    prof, lv = _fh_profile(32)
    c = 2e-4
    base = allocate_uniform(prof, SparsityPattern(lv, (1, 1, 1, 2, 2)), 0.5, 0.5, c)
    more_s = allocate_uniform(prof, SparsityPattern(lv, (1, 1, 2, 2, 3)), 0.5, 0.5, c)
    tighter_d = allocate_uniform(prof, SparsityPattern(lv, (1, 1, 1, 2, 2)), 0.25, 0.5, c)
    smaller_e = allocate_uniform(prof, SparsityPattern(lv, (1, 1, 1, 2, 2)), 0.5, 0.05, c)
    for other in (more_s, tighter_d, smaller_e):
        assert all(mo >= mb for mb, mo in zip(base.m, other.m))


def test_allocate_uniform_r0_saturates_prefix():
    prof, lv = _fh_profile(32)
    res = allocate_uniform(prof, SparsityPattern(lv, (1, 1, 1, 1, 1)), 0.5, 0.5, 1e-4, r0=2)
    assert res.m[:2] == (2, 2)
    assert res.log_arg == sum(res.m[2:])


def test_allocate_uniform_validates_inputs():
    prof, lv = _fh_profile(16)
    pattern = SparsityPattern(lv, (1, 1, 1, 1))
    for bad in ({"delta": 0.0}, {"eps": 1.0}, {"c": -1.0}):
        kwargs = {"delta": 0.5, "eps": 0.5, "c": 1.0, **bad}
        with pytest.raises(ValueError):
            allocate_uniform(prof, pattern, kwargs["delta"], kwargs["eps"], kwargs["c"])
    with pytest.raises(TypeError):  # budgets must come bound to the profile's levels
        allocate_uniform(prof, (1, 1, 1, 1), 0.5, 0.5, 1.0)


# (s, delta, eps, C, r0) on the dyadic levels of N = 2^len(s)
_FORMULA_CASES = [
    ((1, 1, 2, 2), 0.5, 0.5, 1e-3, 0),
    ((2, 2, 3, 4, 4), 0.3, 0.1, 2e-4, 2),
    ((1, 2, 2, 4, 6, 8), 0.7, 0.05, 5e-5, 1),
    ((2, 1, 1, 1, 1, 1, 3), 0.5, 0.5, 2e-3, 3),
    ((1, 2, 2, 4, 6, 8), 0.5, 0.2, 0.02, 1),
]


@pytest.mark.filterwarnings("ignore:hypothesis")
@pytest.mark.parametrize("mode", ["uniform-general", "haar-uniform", "haar-nonuniform"])
@pytest.mark.parametrize("s, delta, eps, c, r0", _FORMULA_CASES)
def test_allocation_is_its_formula_at_the_fixed_point(mode, s, delta, eps, c, r0):
    # each mode's condition written out, evaluated at the converged log argument
    r, total = len(s), sum(s)
    prof, lv = _fh_profile(2**r)
    pattern = SparsityPattern(lv, s)
    if mode == "uniform-general":
        res = allocate_uniform(prof, pattern, delta, eps, c, r0=r0)
    else:
        res = allocate_haar(pattern, delta, eps, c, r0=r0, mode=mode.removeprefix("haar-"))
    assert res.mode == mode
    assert res.log_arg == sum(res.m[r0:])
    widths, sv = np.asarray(lv.widths), np.asarray(s, dtype=float)
    dist = np.abs(np.subtract.outer(np.arange(r), np.arange(r)))
    log_m, log_n, log_s = math.log(2 * res.log_arg), math.log(2 * lv.n), math.log(2 * total)
    if mode == "uniform-general":
        w = widths * (prof.mu_local @ sv)
        rhs = c / delta**2 * w * (r * log_m * log_n * log_s**2 + math.log(1 / eps))
    elif mode == "haar-uniform":
        w = 2.0 ** -dist[:, r0:] @ sv[r0:]  # interference from bands l > r0 only
        rhs = c / delta**2 * w * (log_m * log_n**2 * log_s**2 + math.log(1 / eps))
    else:
        w = 2.0 ** (-dist / 2) @ sv
        rhs = c * w * math.log(total / eps) * math.log(lv.n)
    expected = np.clip(np.ceil(rhs), 1, widths)
    expected[:r0] = widths[:r0]
    assert res.m == tuple(expected.astype(int).tolist())
    assert np.allclose(res.raw[r0:], rhs[r0:], rtol=1e-12, atol=0)
    assert all(math.isnan(v) for v in res.raw[:r0])


@pytest.mark.parametrize("c, m", [(1e-3, (1, 1, 1)), (0.05, (2, 2, 12))])
def test_allocate_uniform_counts_on_the_sampling_levels(c, m):
    # the sampling levels differ from the sparsity levels: r, N and the clamp
    # widths are the sampling levels'
    sampling, sparsity = LevelStructure((0, 2, 4, 16)), LevelStructure((0, 8, 16))
    prof = CoherenceProfile.from_matrix(dft_matrix(16), sampling, sparsity)
    res = allocate_uniform(prof, SparsityPattern(sparsity, (1, 2)), 0.5, 0.5, c)
    assert res.m == m


def test_haar_kernel_single_active_level():
    s = (0, 0, 3, 0)
    uni = haar_interference_weights(s, "uniform")
    non = haar_interference_weights(s, "nonuniform")
    for k in range(4):
        d = abs(k - 2)
        assert uni[k] == pytest.approx(2.0**-d * 3 if d else 3.0)
        assert non[k] == pytest.approx(2.0 ** (-d / 2) * 3 if d else 3.0)
        if d:
            assert non[k] > uni[k]


def test_haar_kernel_uniform_below_nonuniform():
    s = (2, 2, 2, 3, 4, 4)
    uni = haar_interference_weights(s, "uniform")
    non = haar_interference_weights(s, "nonuniform")
    assert all(u <= n + 1e-15 for u, n in zip(uni, non))


def test_allocate_haar_full_saturation():
    res = allocate_haar((1, 1, 1, 1), 0.5, 0.5, 1.0, r0=4, mode="uniform")
    assert res.m == (2, 2, 4, 8)


def test_allocate_haar_hypothesis_warning():
    with pytest.warns(RuntimeWarning, match="hypothesis"):
        allocate_haar((2, 1, 1, 1), 0.5, 0.5, 1e-3, r0=1, mode="uniform")


def test_allocate_haar_r0_restricts_interference():
    # with r0 = 2 the uniform kernel ignores bands 1..2
    s = (2, 2, 1, 1)
    w = haar_interference_weights(s, "uniform", r0=2)
    assert w[2] == pytest.approx(1 + 0.5 * 1)
    w_full = haar_interference_weights(s, "uniform", r0=0)
    assert w_full[2] > w[2]


def test_allocate_haar_nonuniform_ignores_delta():
    a = allocate_haar((1, 1, 2, 2), 0.5, 0.5, 1e-2, mode="nonuniform")
    b = allocate_haar((1, 1, 2, 2), 0.1, 0.5, 1e-2, mode="nonuniform")
    assert a.m == b.m


def test_allocate_haar_rejects_non_dyadic_pattern():
    pattern = SparsityPattern(LevelStructure((0, 3, 6)), (1, 1))
    with pytest.raises(LevelError, match="dyadic"):
        allocate_haar(pattern, 0.5, 0.5, 1.0)


def test_build_measurement_matches_stacked_level_blocks():
    # the matrix is filled level by level in place; the stacked blocks are the oracle
    u, lv = fourier_haar_matrix(32)
    for source in (u, u.real.copy()):
        scheme = draw_scheme(lv, (2, 2, 3, 5, 9), r0=2, seed=4)
        oracle = np.vstack([source[np.asarray(dk) - 1] / math.sqrt(pk)
                            for dk, pk in zip(scheme.draws, scheme.densities())])
        a = build_measurement(source, scheme).a
        assert a.dtype == oracle.dtype
        assert a.view(np.uint64).tolist() == oracle.view(np.uint64).tolist()


@pytest.mark.parametrize("n, m, blocks", [
    (256, (2, 2, 4, 8, 12, 16, 24, 32), 2),
    (1024, (2, 2, 4, 8, 12, 16, 24, 32, 40, 48), 32),
])
def test_block_built_measurement_matches_dense_u(n, m, blocks):
    source = _FourierHaarBlocks(n)
    assert sum(1 for _ in source) == blocks
    u, lv = fourier_haar_matrix(n)
    scheme = draw_scheme(lv, m, r0=2, seed=3)
    assert any(len(set(dk)) < len(dk) for dk in scheme.draws)  # a repeated draw
    a = build_measurement(source, scheme).a
    assert np.array_equal(a.view(np.uint64), build_measurement(u, scheme).a.view(np.uint64))


@pytest.mark.parametrize("source", ["blocks", "dense"])
def test_stack_fill_matches_each_scheme_built_alone(source):
    u, lv = fourier_haar_matrix(256)
    m = (2, 2, 4, 8, 12, 16, 24, 32)
    schemes = [draw_scheme(lv, m, r0=2, seed=seed) for seed in range(3)]
    stack = np.zeros((4, sum(m), 256), dtype=np.complex128)
    _fill_measurements(stack, schemes, _FourierHaarBlocks(256) if source == "blocks" else u)
    for slot, scheme in enumerate(schemes):
        alone = build_measurement(u, scheme).a
        assert np.array_equal(stack[slot].view(np.uint64), alone.view(np.uint64))
    assert not stack[3].any()  # a slot with no scheme is left alone


def _norm_cases():
    """(U, levels, m, r0) for Fourier--Haar, DFT and Haar, multi- and single-level."""
    fh16, bands16 = fourier_haar_matrix(16)
    fh64, bands64 = fourier_haar_matrix(64)
    dft32 = dft_matrix(32)
    return [
        (fh16, bands16, bands16.widths, bands16.r),
        (fh16, bands16, (2, 2, 4, 6), 2),
        (fh64, bands64, (2, 2, 4, 8, 11, 11), 4),
        (fh64, bands64, (1, 2, 3, 5, 9, 20), 0),
        (fh64, LevelStructure.single_level(64), (24,), 0),
        (dft32, LevelStructure.single_level(32), (16,), 0),
        (dft32, LevelStructure((0, 8, 16, 32)), (8, 5, 9), 1),
        (haar_matrix(16), LevelStructure((0, 4, 16)), (3, 7), 0),
    ]


def test_measurement_norm_matches_the_svd_on_drawn_schemes():
    multiplicity_decides = 0
    for u, lv, m, r0 in _norm_cases():
        for seed in range(4):
            scheme = draw_scheme(lv, m, r0=r0, seed=seed)
            svd = np.linalg.norm(build_measurement(u, scheme).a, 2)
            assert measurement_norm(scheme) == pytest.approx(svd, rel=1e-13, abs=0)
            # the norm with every multiplicity taken as 1
            plain = math.sqrt(max(1.0 / pk for pk in scheme.densities()))
            if any(len(set(dk)) < len(dk) for dk in scheme.draws) and abs(plain - svd) > 1e-3:
                multiplicity_decides += 1
    # repeated draws that set ||A||: a form that ignored them would fail above
    assert multiplicity_decides >= 10
