"""Command-line harness: coherence | certify | recover | allocate | selftest.

Every command runs on one skeleton.  ``main`` loads the JSON config and
calls the command inside its one error handler (``error: ...``, exit 1).
The command does only its own computation: ``resolve_operator`` gives
``coherence``, ``certify`` and ``recover`` their operator, levels and
shared resolved keys (the Gaussian ``recover`` baseline, which draws a
matrix per trial, and Fourier--Haar ``coherence``, which reads the
operator's |U|^2 table instead of U, take only ``resolve_levels``), and
``ALLOCATORS`` maps each allocation mode to its allocator for
``allocate`` and ``recover``.  ``write_outputs`` is the one place
outputs reach ``--out``: it stamps the command into the resolved config,
hashes it, and writes the summary JSON and the tables.  The hash lets
every randomized run replay byte-for-byte from (config, seed); the
tables are plot-ready, and no plot is rendered.

A concern of every command belongs in the skeleton: ``--debug``
re-raises from ``main``'s handler, and per-stage ``timings.json`` and
warnings captured into ``notes`` belong around the command call in
``main``, reaching disk through ``write_outputs``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .coherence import CoherenceProfile, fourier_haar_local_coherence, local_coherence
from .levels import _MAGNITUDE_MODELS, LevelStructure, SparsityPattern, support_blocks
from .operators import (
    dft_matrix,
    fourier_haar_matrix,
    fourier_haar_table,
    gaussian_matrix,
    haar_matrix,
    is_isometry,
    load_matrix,
)
from .recovery import (
    QcbpProblem,
    _solve_stack,
    exact_recovery_experiment,
    gaussian_recovery_experiment,
    solve_qcbp,
)
from .ripl import certify_recovery, ripl_threshold
from .sampling import (
    _check_counts,
    allocate_haar,
    allocate_uniform,
    build_measurement,
    draw_scheme,
    haar_interference_weights,
    k_factor,
    measurement_norm,
)

_FORMATS = ("csv", "json")


def config_hash(config):
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _finite(obj):
    """``obj`` with non-finite floats as "nan", "inf" and "-inf", as the CSV writes them."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def write_json(path, obj):
    """Strict JSON: a non-finite float is written as a string, never as NaN or Infinity."""
    text = json.dumps(_finite(obj), sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def _cell(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table(path, header, rows, fmt):
    path = Path(path)
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        path.write_text("\n".join(lines) + "\n")
    else:
        write_json(path, [dict(zip(header, row)) for row in rows])


def load_config(path):
    if path is None:
        return {}
    config = json.loads(Path(path).read_text())
    if not isinstance(config, dict):
        raise ValueError(f"the config must be a JSON object, got {config!r}")
    return config


def resolve_operator(config, seed=None):
    """Build the source matrix named in the config and its levels.

    Returns (U, sampling levels, sparsity levels, resolved keys).  The
    levels default to the Fourier--Haar bands, or to a single level for
    every other operator; see ``resolve_levels``.
    """
    name = config.get("operator", "fourier-haar")
    n = _config_int(config.get("N", 0), "N", 0)
    if name == "fourier-haar":
        u, levels = fourier_haar_matrix(n)
    elif name == "dft":
        u = dft_matrix(n)
    elif name == "haar":
        u = haar_matrix(n).astype(np.complex128)
    elif name == "identity":
        u = np.eye(n, dtype=np.complex128)
    elif name == "gaussian":
        if seed is None:
            raise ValueError("gaussian operator needs a seed")
        rng = np.random.default_rng(np.random.SeedSequence(int(seed)).spawn(1)[0])
        u = gaussian_matrix(n, n, rng).astype(np.complex128)
    elif name == "file":
        u = load_matrix(_config_json(config, "path", str))
    else:
        raise ValueError(f"unknown operator {name!r}")
    if name != "fourier-haar":
        levels = LevelStructure.single_level(u.shape[1])
    return (u, *resolve_levels(config, levels))


def resolve_levels(config, levels):
    """Sampling and sparsity levels, each from its config boundaries or else
    ``levels``, and the keys every operator command records: operator, N and
    both boundary lists.  Both structures must end at the operator's N."""
    sampling, sparsity = (
        LevelStructure(_config_ints(config, key)) if key in config else levels
        for key in ("sampling_boundaries", "sparsity_boundaries")
    )
    if not sampling.n == sparsity.n == levels.n:
        raise ValueError(f"level boundaries must end at N = {levels.n}, got sampling "
                         f"{sampling.n} and sparsity {sparsity.n}")
    resolved = {
        "operator": config.get("operator", "fourier-haar"),
        "N": sampling.n,
        "sampling_boundaries": list(sampling.boundaries),
        "sparsity_boundaries": list(sparsity.boundaries),
    }
    return sampling, sparsity, resolved


def _config_int(value, name, low=1):
    """``value`` if it is a JSON integer >= ``low``; a bool or a float is not one."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def _config_json(config, key, kind, default=None):
    """``config[key]``, else ``default``, if it is a JSON ``kind``: list, dict
    (an object) or str.  A key with no default must be present."""
    if key not in config and default is None:
        raise ValueError(f"config needs key {key!r}")
    value = config.get(key, default)
    if not isinstance(value, kind):
        json_type = {list: "list", dict: "object", str: "string"}[kind]
        raise ValueError(f"{key} must be a JSON {json_type}, got {value!r}")
    return value


def _config_ints(config, key):
    """The config list ``key`` of integers >= 0 as a tuple; the library checks their range."""
    return tuple(_config_int(value, key, 0) for value in _config_json(config, key, list))


def _config_number(value, name):
    """``value`` as a float if it is a JSON number; a bool or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _require_seed(config, args_seed, command):
    seed = args_seed if args_seed is not None else config.get("seed")
    if seed is None:
        raise ValueError(f"the {command} command is randomized: provide --seed or config seed")
    return _config_int(seed, "seed", 0)


def write_outputs(args, resolved, summary_name, summary, tables=()):
    """Write a command's summary JSON and its (name, header, rows) tables.

    The summary carries the resolved config, stamped with the command,
    and the config's hash; tables take the ``--format`` extension.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    resolved["command"] = args.command
    write_json(out / summary_name,
               {"config": resolved, "config_hash": config_hash(resolved), **summary})
    for name, header, rows in tables:
        write_table(out / f"{name}.{args.format}", header, rows, args.format)


def _general_allocation(pattern, delta, eps, c, r0):
    # the general condition takes its local coherences from the Fourier--Haar operator
    levels = pattern.levels
    mu_local = fourier_haar_local_coherence(fourier_haar_table(levels.n), levels, levels)
    profile = CoherenceProfile.from_local(mu_local, levels, levels)
    return allocate_uniform(profile, pattern, delta, eps, c, r0=r0)


# allocation mode -> allocator(pattern, delta, eps, C, r0); recover takes the
# Fourier--Haar modes only.  The lambdas look allocate_haar up in this module at
# call time, so a wrapper put there sees it.
_HAAR_MODES = ("haar-uniform", "haar-nonuniform")
ALLOCATORS = {
    "haar-uniform": lambda pattern, delta, eps, c, r0: allocate_haar(
        pattern, delta, eps, c, r0=r0, mode="uniform"),
    "haar-nonuniform": lambda pattern, delta, eps, c, r0: allocate_haar(
        pattern, delta, eps, c, r0=r0, mode="nonuniform"),
    "general": _general_allocation,
}


def _allocation_constants(block):
    """delta, eps and C of an allocation config block, with their defaults;
    the allocator checks their range."""
    return tuple(_config_number(block.get(key, default), key)
                 for key, default in (("delta", 0.5), ("eps", 0.5), ("C", 1.0)))


def cmd_coherence(config, args):
    name = config.get("operator", "fourier-haar")
    # only the Gaussian operator depends on the seed
    seed = _require_seed(config, args.seed, "coherence") if name == "gaussian" else None
    if name == "fourier-haar":
        table = fourier_haar_table(_config_int(config.get("N", 0), "N", 0))
        sampling, sparsity, resolved = resolve_levels(
            config, LevelStructure.dyadic(table.shape[1] - 1))
        mu_local = fourier_haar_local_coherence(table, sampling, sparsity)
        profile = CoherenceProfile.from_local(mu_local, sampling, sparsity)
    else:
        u, sampling, sparsity, resolved = resolve_operator(config, seed=seed)
        profile = CoherenceProfile.from_matrix(u, sampling, sparsity)
    if seed is not None:
        resolved["seed"] = seed

    def grid_rows(*columns):  # one row per (k, l), k slowest
        return zip(*(col.ravel().tolist() for col in columns))

    k, l = np.indices(profile.mu_local.shape) + 1
    summary = {"mu_global": profile.mu_global, "profile": profile.to_dict()}
    tables = [("coherence_profile", ("k", "l", "mu", "mu_tilde"),
               grid_rows(k, l, profile.mu_local, profile.mu_tilde))]
    if name == "fourier-haar":
        bound = 2.0 ** -k * 2.0 ** -np.abs(k - l)
        ratio = profile.mu_local / bound
        summary["max_decay_ratio"] = ratio.max()
        tables.append(("decay_ratios", ("k", "l", "mu", "bound", "ratio"),
                       grid_rows(k, l, profile.mu_local, bound, ratio)))
    write_outputs(args, resolved, "coherence_summary.json", summary, tables)
    print(f"coherence: mu_global = {profile.mu_global!r} ({name}, N = {sampling.n})")
    return 0


def cmd_certify(config, args):
    seed = _require_seed(config, args.seed, "certify")
    max_supports = _config_int(config.get("max_supports", 10**6), "max_supports")
    mc_trials = _config_int(config.get("mc_trials", 2000), "mc_trials")
    per_support = config.get("per_support_csv", False)
    if not isinstance(per_support, bool):
        raise ValueError(f"per_support_csv must be true or false, got {per_support!r}")
    s = _config_ints(config, "s")
    r0 = _config_int(config.get("r0", 0), "r0", 0)
    m = _config_ints(config, "m")
    u, sampling, sparsity, resolved = resolve_operator(config, seed=seed)
    pattern = SparsityPattern(sparsity, s)

    scheme_ss, mc_ss = np.random.SeedSequence(seed).spawn(2)
    scheme = draw_scheme(sampling, m, r0=r0, seed=scheme_ss)
    op = build_measurement(u, scheme)
    report = certify_recovery(
        op, pattern, max_supports=max_supports, mc_trials=mc_trials, seed=mc_ss
    )

    tables = []
    if per_support and report.method == "exact":
        supports = (
            ";".join(map(str, row))
            for block in support_blocks(report.doubled_pattern)
            for row in (block + 1).tolist()
        )
        spectra = zip(supports, report.ricl.lam_min.tolist(), report.ricl.lam_max.tolist())
        rows = [(sup, lmin, lmax, max(lmax - 1.0, 1.0 - lmin)) for sup, lmin, lmax in spectra]
        tables.append(("per_support", ("support", "lambda_min", "lambda_max", "delta"), rows))
    resolved.update(
        m=list(m), r0=r0, s=list(pattern.s), seed=seed,
        max_supports=max_supports, mc_trials=mc_trials,
    )
    summary = {"report": report.to_dict(), "scheme": scheme.to_dict(), "K": op.k_factor}
    write_outputs(args, resolved, "certification.json", summary, tables)
    print(
        f"certify: verdict = {report.verdict} "
        f"(delta = {report.delta!r}, threshold = {report.threshold!r}, {report.method})"
    )
    return 0


def _solver_options(config):
    """The recover config's solver block, validated before any other work."""
    solver_opts = dict(_config_json(config, "solver", dict, {}))
    unknown = sorted(set(solver_opts) - {"max_iters", "primal_tol"})
    if unknown:
        raise ValueError(f"unknown solver option(s) {unknown}; allowed: max_iters, primal_tol")
    if "max_iters" in solver_opts:
        _config_int(solver_opts["max_iters"], "solver max_iters")
    if "primal_tol" in solver_opts:
        tol = solver_opts["primal_tol"]
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
            raise ValueError(f"solver primal_tol must be a finite number > 0, got {tol!r}")
    return solver_opts


def cmd_recover(config, args):
    solver_opts = _solver_options(config)
    seed = _require_seed(config, args.seed, "recover")
    s = _config_ints(config, "s")
    r0 = _config_int(config.get("r0", 0), "r0", 0)
    m = _config_ints(config, "m") if "m" in config else None
    if m is not None and "allocation" in config:
        raise ValueError("recover config takes either m or an allocation block, not both")
    trials = config.get("trials", 10)
    if isinstance(trials, bool) or not isinstance(trials, int):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    eta = _config_number(config.get("eta", 0.0), "eta")
    if not 0 <= eta < math.inf:
        raise ValueError(f"eta must be a finite number >= 0, got {eta!r}")
    noise_scaling = config.get("noise_scaling", "plain")
    if noise_scaling not in ("plain", "sqrtK"):
        raise ValueError("noise_scaling must be 'plain' or 'sqrtK'")
    weighted = config.get("weighted", False)
    if not isinstance(weighted, bool):
        raise ValueError(f"weighted must be true or false, got {weighted!r}")
    magnitude_model = config.get("magnitude_model", "unit")
    if magnitude_model not in _MAGNITUDE_MODELS:
        raise ValueError(f"unknown magnitude model {magnitude_model!r}")
    success_rtol = _config_number(config.get("success_rtol", 1e-4), "success_rtol")
    if not 0 < success_rtol < math.inf:
        raise ValueError(f"success_rtol must be a finite number > 0, got {success_rtol!r}")
    shared = dict(
        eta=eta, weighted=weighted,
        solver_opts=solver_opts, success_rtol=success_rtol, magnitude_model=magnitude_model,
    )
    if config.get("operator") == "gaussian":  # the baseline draws its own matrix per trial
        sampling, sparsity, resolved = resolve_levels(
            config, LevelStructure.single_level(_config_int(config.get("N", 0), "N", 0)))
    else:
        u, sampling, sparsity, resolved = resolve_operator(config, seed=seed)
        # the solver takes ||A|| in closed form from each scheme, exact only for an isometry
        if resolved["operator"] == "file" and not (u.shape[0] == u.shape[1] and is_isometry(u)):
            raise ValueError(f"recover needs the file operator to be a square isometry; "
                             f"{config['path']} is not")
    pattern = SparsityPattern(sparsity, s)

    alloc = k = None
    radius = eta
    if resolved["operator"] == "gaussian":
        # baseline: a fresh m_total x N Gaussian matrix per trial, no scheme
        if noise_scaling == "sqrtK":
            raise ValueError("the sqrtK noise convention needs a multilevel scheme")
        m_total = _config_int(config.get("m_total", sum(m or ())), "m_total")
        m = (m_total,)
        result = gaussian_recovery_experiment(
            sparsity.n, m_total, pattern, trials, seed, radius=radius, **shared
        )
    else:
        if m is None:
            if "allocation" not in config:
                raise ValueError("recover config needs either m or an allocation block")
            block = _config_json(config, "allocation", dict)
            mode = block.get("mode", "haar-uniform")
            constants = _allocation_constants(block)
            # the general mode's coherences are Fourier--Haar's, not the operator's
            if mode not in _HAAR_MODES:
                raise ValueError(f"unsupported allocation mode {mode!r} in recover")
            alloc = ALLOCATORS[mode](pattern, *constants, r0)
            m = alloc.m
        m = _check_counts(sampling, m, r0)
        k = k_factor(sampling, m)
        if noise_scaling == "sqrtK":
            radius = eta * math.sqrt(k)
        result = exact_recovery_experiment(
            u, sampling, m, r0, pattern, trials, seed, radius=radius, **shared
        )

    header = (
        "trial", "seed", "m", "err2", "err1", "rel_err", "success", "converged",
        "iterations", "gap", "bound_ratio_l1", "bound_ratio_l2",
    )
    rows = [
        (rec["trial"], seed, ";".join(str(v) for v in rec["m"]), *(rec[h] for h in header[3:]))
        for rec in result.records
    ]
    resolved.update(
        m=list(m), r0=r0, s=list(pattern.s), seed=seed, trials=trials, eta=eta,
        noise_scaling=noise_scaling, radius=radius, weighted=weighted, solver=solver_opts,
        magnitude_model=magnitude_model, success_rtol=success_rtol,
    )
    summary = {
        "success_rate": result.success_rate,
        "unconverged_trials": sum(1 for rec in result.records if not rec["converged"]),
        "K": k,
    }
    if alloc is not None:
        summary["allocation"] = alloc.to_dict()
    write_outputs(args, resolved, "summary.json", summary, [("trials", header, rows)])
    print(f"recover: success_rate = {result.success_rate!r} over {trials} trials")
    return 0


def cmd_allocate(config, args):
    s = _config_ints(config, "s")
    delta, eps, c = _allocation_constants(config)
    r0 = _config_int(config.get("r0", 0), "r0", 0)
    modes = _config_json(config, "modes", list, list(_HAAR_MODES))
    operator = config.get("operator", "fourier-haar")
    if operator != "fourier-haar":
        raise ValueError(f"allocate works on the fourier-haar operator only, got {operator!r}")

    levels = LevelStructure.dyadic(len(s))
    pattern = SparsityPattern(levels, s)
    results = {}
    for mode in modes:
        if mode not in tuple(ALLOCATORS):  # compared, not hashed: a mode is any JSON value
            raise ValueError(f"unknown allocation mode {mode!r}")
        if mode in results:
            raise ValueError(f"allocation mode {mode!r} given twice")
        results[mode] = ALLOCATORS[mode](pattern, delta, eps, c, r0)

    columns = [("level", range(1, levels.r + 1)), ("width", levels.widths), ("s", s)]
    for mode in modes:
        res = results[mode]
        clamped = [lo or hi for lo, hi in zip(res.clamped_low, res.clamped_high)]
        columns += [(f"m[{mode}]", res.m), (f"clamped[{mode}]", clamped)]
        if mode != "general":
            kernel = haar_interference_weights(s, mode.removeprefix("haar-"), r0)
            columns.append((f"kernel[{mode}]", kernel))
    header, values = zip(*columns)
    rows = zip(*values)
    resolved = {"s": list(s), "delta": delta, "eps": eps, "C": c, "r0": r0, "modes": modes}
    summary = {
        "results": {mode: res.to_dict() for mode, res in results.items()},
        "totals": {mode: res.total for mode, res in results.items()},
        "K": {mode: k_factor(levels, res.m) for mode, res in results.items()},
    }
    write_outputs(args, resolved, "summary.json", summary, [("allocation", header, rows)])
    for mode in modes:
        print(f"allocate[{mode}]: m = {list(results[mode].m)} (total {results[mode].total})")
    return 0


def cmd_selftest(config, args):
    checks = []

    def check(label, ok):
        checks.append((label, bool(ok)))
        print(f"selftest {'PASS' if ok else 'FAIL'}: {label}")

    u, levels = fourier_haar_matrix(16)
    band_freqs = [0, 1, -1, 2, -3, -2, 3, 4, -7, -6, -5, -4, 5, 6, 7, 8]
    # dft_matrix(16) row i holds the frequency i - 7
    dense = dft_matrix(16)[np.add(band_freqs, 7)] @ haar_matrix(16)
    check("fourier-haar(16) matches the dense DFT-Haar product",
          np.max(np.abs(u - dense)) <= 1e-12)
    check("fourier-haar(16) unitary", is_isometry(u, 1e-10))
    check("fourier-haar(16) table block maxima equal the dense ones bit for bit",
          np.array_equal(fourier_haar_local_coherence(fourier_haar_table(16), levels, levels),
                         local_coherence(u, levels, levels)))
    check("dft(16) unitary", is_isometry(dft_matrix(16), 1e-10))
    check("haar(16) orthonormal", is_isometry(haar_matrix(16), 1e-10))
    check("dft coherence 1/N", abs(np.max(np.abs(dft_matrix(8)) ** 2) - 0.125) < 1e-14)
    check("fourier-haar coherent", abs(np.max(np.abs(u) ** 2) - 1.0) < 1e-10)
    check(
        "recovery threshold matches 4/sqrt(41)",
        abs(ripl_threshold(1, 1.0) - 4.0 / math.sqrt(41.0)) < 1e-12,
    )

    pattern = SparsityPattern(levels, (1, 1, 1, 1))
    scheme = draw_scheme(levels, levels.widths, r0=levels.r, seed=7)
    op = build_measurement(u, scheme)
    report = certify_recovery(op, pattern)
    check("saturated scheme certifies sufficient", report.verdict == "sufficient")
    check("saturated scheme delta ~ 0", report.delta <= 1e-10)

    problem = QcbpProblem(a=np.eye(2, dtype=np.complex128), y=np.array([2.0, 0.0]), eta=1.0)
    res = solve_qcbp(problem)
    check(
        "qcbp shrinks toward the feasible ball",
        res.converged and np.allclose(res.xhat, [1.0, 0.0], atol=1e-5),
    )

    # stacked trials must keep the bits of a solve on its own on this BLAS
    # (trial 0 converges first, so trial 1 moves down the stack)
    rng = np.random.default_rng(6)
    a = rng.standard_normal((2, 6, 10)) + 1j * rng.standard_normal((2, 6, 10))
    y = a[:, :, :3] @ np.array([1.0, 1.0, -0.5])  # x has 3 nonzeros
    y[1] += 0.01
    alone = [solve_qcbp(QcbpProblem(a=a_b, y=y_b, eta=0.02)) for a_b, y_b in zip(a, y)]
    stacked = _solve_stack(a.copy(), y.copy(), 0.02, np.ones(10),
                           [np.linalg.norm(a_b, 2) for a_b in a])
    check("a stack of two qcbp solves matches each solve alone bit for bit", all(
        np.array_equal(one.xhat.view(np.uint64), two.xhat.view(np.uint64))
        and (one.objective, one.residual, one.iterations, one.converged, one.gap)
        == (two.objective, two.residual, two.iterations, two.converged, two.gap)
        for one, two in zip(alone, stacked)))

    scheme = draw_scheme(levels, (2, 2, 4, 6), r0=2, seed=4)
    check("closed-form ||A|| of an fh16 scheme with a repeated draw matches the SVD",
          len(set(scheme.draws[3])) < 6 and math.isclose(
              measurement_norm(scheme), np.linalg.norm(build_measurement(u, scheme).a, 2),
              rel_tol=1e-13))

    s1 = draw_scheme(levels, (2, 2, 2, 4), r0=2, seed=123)
    s2 = draw_scheme(levels, (2, 2, 2, 4), r0=2, seed=123)
    check("scheme drawing deterministic", s1 == s2)

    if args.out is not None:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        write_json(Path(args.out) / "selftest.json", {"checks": [[c, ok] for c, ok in checks]})
    return 0 if all(ok for _, ok in checks) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ripl-lab",
        description="Multilevel subsampling, coherence, restricted-isometry "
        "certification, allocation and l1 recovery experiments",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("coherence", cmd_coherence),
        ("certify", cmd_certify),
        ("recover", cmd_recover),
        ("allocate", cmd_allocate),
        ("selftest", cmd_selftest),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--out", type=str, default="." if name != "selftest" else None,
                       help="output directory")
        p.add_argument("--format", choices=_FORMATS, default="csv")
        p.add_argument("--debug", action="store_true",
                       help="re-raise errors with their traceback instead of one line")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(load_config(args.config), args)
    except Exception as exc:  # surface config errors as exit code 1
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
