"""Command-line harness: coherence | certify | recover | allocate | selftest.

Each command reads a JSON config file, overlays the --seed flag, fills
in documented defaults, and writes CSV/JSON outputs into --out together
with the resolved config and its hash so every randomized run replays
byte-for-byte from (config, seed).  Plots are not rendered; the outputs
are plot-ready tables.
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
from .coherence import CoherenceProfile
from .levels import LevelStructure, SparsityPattern, support_blocks
from .operators import (
    dft_matrix,
    fourier_haar_matrix,
    gaussian_matrix,
    haar_matrix,
    load_matrix,
)
from .recovery import (
    QcbpProblem,
    exact_recovery_experiment,
    gaussian_recovery_experiment,
    inverse_sqrt_level_weights,
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
)

_FORMATS = ("csv", "json")


def _plain(value):
    """Coerce numpy scalars to plain Python for stable text output."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config):
    return hashlib.sha256(_canonical(config).encode()).hexdigest()


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _cell(value):
    value = _plain(value)
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
        records = [{k: _plain(v) for k, v in zip(header, row)} for row in rows]
        write_json(path, records)


def load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _levels_from(config, key, default):
    if key in config:
        return LevelStructure(tuple(config[key]))
    return default


def resolve_operator(config, seed=None):
    """Build the source matrix named in the config.

    Returns (U, default levels, name); the default levels serve as both
    the sampling and the sparsity levels.
    """
    name = config.get("operator", "fourier-haar")
    n = int(config.get("N", 0))
    if name == "fourier-haar":
        u, levels = fourier_haar_matrix(n)
        return u, levels, name
    if name == "dft":
        u = dft_matrix(n)
    elif name == "haar":
        u = haar_matrix(n).astype(np.complex128)
    elif name == "identity":
        u = np.eye(n, dtype=np.complex128)
    elif name == "gaussian":
        if seed is None:
            raise ValueError("gaussian operator needs a seed")
        rng = np.random.default_rng(np.random.SeedSequence(int(seed)).spawn(1)[0])
        u = gaussian_matrix(int(config.get("rows", n)), n, rng).astype(np.complex128)
    elif name == "file":
        u = load_matrix(config["path"])
        n = u.shape[1]
    else:
        raise ValueError(f"unknown operator {name!r}")
    return u, LevelStructure.single_level(u.shape[0] if name != "file" else n), name


def _require_seed(config, args_seed, command):
    seed = args_seed if args_seed is not None else config.get("seed")
    if seed is None:
        raise ValueError(f"the {command} command is randomized: provide --seed or config seed")
    return int(seed)


def _ensure_out(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_coherence(args):
    config = load_config(args.config)
    seed = args.seed if args.seed is not None else config.get("seed")
    u, default_levels, name = resolve_operator(config, seed=seed)
    sampling = _levels_from(config, "sampling_boundaries", default_levels)
    sparsity = _levels_from(config, "sparsity_boundaries", default_levels)
    profile = CoherenceProfile.from_matrix(u, sampling, sparsity)

    resolved = {
        "command": "coherence",
        "operator": name,
        "N": sampling.n,
        "sampling_boundaries": list(sampling.boundaries),
        "sparsity_boundaries": list(sparsity.boundaries),
    }
    if name == "gaussian":  # only the Gaussian operator depends on the seed
        resolved["seed"] = int(seed)
    digest = config_hash(resolved)
    out = _ensure_out(args)
    write_table(
        out / f"coherence_profile.{args.format}",
        ("k", "l", "mu", "mu_tilde"),
        profile.rows_csv(),
        args.format,
    )
    summary = {
        "config": resolved,
        "config_hash": digest,
        "mu_global": profile.mu_global,
        "profile": profile.to_dict(),
    }
    if name == "fourier-haar":
        rows = []
        max_ratio = 0.0
        for k in range(1, sampling.r + 1):
            for l in range(1, sparsity.r + 1):
                bound = 2.0 ** (-k) * 2.0 ** (-abs(k - l))
                ratio = profile.mu_local[k - 1, l - 1] / bound
                max_ratio = max(max_ratio, ratio)
                rows.append((k, l, profile.mu_local[k - 1, l - 1], bound, ratio))
        write_table(
            out / f"decay_ratios.{args.format}",
            ("k", "l", "mu", "bound", "ratio"),
            rows,
            args.format,
        )
        summary["max_decay_ratio"] = max_ratio
    write_json(out / "coherence_summary.json", summary)
    print(f"coherence: mu_global = {profile.mu_global!r} ({name}, N = {sampling.n})")
    return 0


def cmd_certify(args):
    config = load_config(args.config)
    seed = _require_seed(config, args.seed, "certify")
    u, default_levels, name = resolve_operator(config, seed=seed)
    sampling = _levels_from(config, "sampling_boundaries", default_levels)
    sparsity = _levels_from(config, "sparsity_boundaries", default_levels)
    pattern = SparsityPattern(sparsity, tuple(config["s"]))
    r0 = int(config.get("r0", 0))
    m = tuple(config["m"])
    max_supports = int(config.get("max_supports", 10**6))
    mc_trials = int(config.get("mc_trials", 2000))
    per_support = bool(config.get("per_support_csv", False))

    ss = np.random.SeedSequence(seed)
    scheme_ss, mc_ss = ss.spawn(2)
    scheme = draw_scheme(sampling, m, r0=r0, seed=scheme_ss)
    op = build_measurement(u, scheme)
    report = certify_recovery(
        op, pattern, max_supports=max_supports, mc_trials=mc_trials, seed=mc_ss
    )

    resolved = {
        "command": "certify",
        "operator": name,
        "N": sampling.n,
        "sampling_boundaries": list(sampling.boundaries),
        "sparsity_boundaries": list(sparsity.boundaries),
        "m": list(m),
        "r0": r0,
        "s": list(pattern.s),
        "seed": seed,
        "max_supports": max_supports,
        "mc_trials": mc_trials,
    }
    digest = config_hash(resolved)
    out = _ensure_out(args)
    payload = {
        "config": resolved,
        "config_hash": digest,
        "report": report.to_dict(),
        "scheme": scheme.to_dict(),
        "K": op.k_factor,
    }
    write_json(out / "certification.json", payload)
    if per_support and report.method == "exact":
        supports = (
            ";".join(map(str, row))
            for block in support_blocks(report.doubled_pattern)
            for row in (block + 1).tolist()
        )
        spectra = zip(supports, report.ricl.lam_min.tolist(), report.ricl.lam_max.tolist())
        rows = [(sup, lmin, lmax, max(lmax - 1.0, 1.0 - lmin)) for sup, lmin, lmax in spectra]
        write_table(
            out / f"per_support.{args.format}",
            ("support", "lambda_min", "lambda_max", "delta"),
            rows,
            args.format,
        )
    print(
        f"certify: verdict = {report.verdict} "
        f"(delta = {report.delta!r}, threshold = {report.threshold!r}, {report.method})"
    )
    return 0


def _resolve_m(config, pattern, r0):
    if "m" in config:
        return tuple(config["m"]), None
    alloc_cfg = config.get("allocation")
    if alloc_cfg is None:
        raise ValueError("recover config needs either m or an allocation block")
    mode = alloc_cfg.get("mode", "haar-uniform")
    delta = float(alloc_cfg.get("delta", 0.5))
    eps = float(alloc_cfg.get("eps", 0.5))
    c = float(alloc_cfg.get("C", 1.0))
    if mode in ("haar-uniform", "haar-nonuniform"):
        result = allocate_haar(
            pattern, delta, eps, c, r0=r0, mode=mode.removeprefix("haar-")
        )
    else:
        raise ValueError(f"unsupported allocation mode {mode!r} in recover")
    return result.m, result


def cmd_recover(args):
    config = load_config(args.config)
    solver_opts = dict(config.get("solver", {}))
    unknown = sorted(set(solver_opts) - {"max_iters", "primal_tol"})
    if unknown:
        raise ValueError(f"unknown solver option(s) {unknown}; allowed: max_iters, primal_tol")
    if "max_iters" in solver_opts:
        iters = solver_opts["max_iters"]
        if isinstance(iters, bool) or not isinstance(iters, int) or iters < 1:
            raise ValueError(f"solver max_iters must be an integer >= 1, got {iters!r}")
    if "primal_tol" in solver_opts:
        tol = solver_opts["primal_tol"]
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
            raise ValueError(f"solver primal_tol must be a finite number > 0, got {tol!r}")
    seed = _require_seed(config, args.seed, "recover")
    u, default_levels, name = resolve_operator(config, seed=seed)
    sampling = _levels_from(config, "sampling_boundaries", default_levels)
    sparsity = _levels_from(config, "sparsity_boundaries", default_levels)
    pattern = SparsityPattern(sparsity, tuple(config["s"]))
    r0 = int(config.get("r0", 0))
    trials = int(config.get("trials", 10))
    eta = float(config.get("eta", 0.0))
    noise_scaling = config.get("noise_scaling", "plain")
    if noise_scaling not in ("plain", "sqrtK"):
        raise ValueError("noise_scaling must be 'plain' or 'sqrtK'")
    weighted = bool(config.get("weighted", False))
    magnitude_model = config.get("magnitude_model", "unit")
    success_rtol = float(config.get("success_rtol", 1e-4))

    weights = inverse_sqrt_level_weights(pattern) if weighted else None

    if name == "gaussian":
        # baseline: a fresh m_total x N Gaussian matrix per trial, no scheme
        if noise_scaling == "sqrtK":
            raise ValueError("the sqrtK noise convention needs a multilevel scheme")
        m_total = int(config.get("m_total") or sum(config.get("m", [])))
        if m_total < 1:
            raise ValueError("gaussian recover needs m_total (or an m vector to sum)")
        m = (m_total,)
        alloc = None
        k_factor = None
        radius = eta
        result = gaussian_recovery_experiment(
            sparsity.n, m_total, pattern, trials, seed, eta=eta, radius=radius,
            weights=weights, solver_opts=solver_opts, success_rtol=success_rtol,
            magnitude_model=magnitude_model,
        )
    else:
        m, alloc = _resolve_m(config, pattern, r0)
        m = _check_counts(sampling, m, r0)
        k_factor = max(w / mk for w, mk in zip(sampling.widths, m))
        radius = eta * math.sqrt(k_factor) if noise_scaling == "sqrtK" else eta
        result = exact_recovery_experiment(
            u, sampling, m, r0, pattern, trials, seed, eta=eta, radius=radius,
            weights=weights, solver_opts=solver_opts, success_rtol=success_rtol,
            magnitude_model=magnitude_model,
        )

    resolved = {
        "command": "recover",
        "operator": name,
        "N": sampling.n,
        "sampling_boundaries": list(sampling.boundaries),
        "sparsity_boundaries": list(sparsity.boundaries),
        "m": list(m),
        "r0": r0,
        "s": list(pattern.s),
        "seed": seed,
        "trials": trials,
        "eta": eta,
        "noise_scaling": noise_scaling,
        "radius": radius,
        "weighted": weighted,
        "solver": solver_opts,
        "magnitude_model": magnitude_model,
        "success_rtol": success_rtol,
    }
    digest = config_hash(resolved)
    out = _ensure_out(args)
    header = (
        "trial", "seed", "m", "err2", "err1", "rel_err", "success", "converged",
        "iterations", "gap", "bound_ratio_l1", "bound_ratio_l2",
    )
    rows = [
        (
            rec["trial"], seed, ";".join(str(v) for v in rec["m"]), rec["err2"],
            rec["err1"], rec["rel_err"], rec["success"], rec["converged"],
            rec["iterations"], rec["gap"], rec["bound_ratio_l1"], rec["bound_ratio_l2"],
        )
        for rec in result.records
    ]
    write_table(out / f"trials.{args.format}", header, rows, args.format)
    summary = {
        "config": resolved,
        "config_hash": digest,
        "success_rate": result.success_rate,
        "unconverged_trials": sum(1 for rec in result.records if not rec["converged"]),
        "K": k_factor,
    }
    if alloc is not None:
        summary["allocation"] = alloc.to_dict()
    write_json(out / "summary.json", summary)
    print(f"recover: success_rate = {result.success_rate!r} over {trials} trials")
    return 0


def cmd_allocate(args):
    config = load_config(args.config)
    s = tuple(config["s"])
    delta = float(config.get("delta", 0.5))
    eps = float(config.get("eps", 0.5))
    c = float(config.get("C", 1.0))
    r0 = int(config.get("r0", 0))
    modes = list(config.get("modes", ["haar-uniform", "haar-nonuniform"]))
    operator = config.get("operator", "fourier-haar")
    if operator != "fourier-haar":
        raise ValueError(f"allocate works on the fourier-haar operator only, got {operator!r}")

    levels = LevelStructure.dyadic(len(s))
    pattern = SparsityPattern(levels, s)
    results = {}
    for mode in modes:
        if mode == "haar-uniform":
            results[mode] = allocate_haar(pattern, delta, eps, c, r0=r0, mode="uniform")
        elif mode == "haar-nonuniform":
            results[mode] = allocate_haar(pattern, delta, eps, c, r0=r0, mode="nonuniform")
        elif mode == "general":
            u, _ = fourier_haar_matrix(levels.n)
            profile = CoherenceProfile.from_matrix(u, levels, levels)
            results[mode] = allocate_uniform(profile, pattern, delta, eps, c, r0=r0)
        else:
            raise ValueError(f"unknown allocation mode {mode!r}")

    resolved = {
        "command": "allocate",
        "s": list(s),
        "delta": delta,
        "eps": eps,
        "C": c,
        "r0": r0,
        "modes": modes,
    }
    digest = config_hash(resolved)
    out = _ensure_out(args)

    kernels = {
        "haar-uniform": haar_interference_weights(s, "uniform", r0),
        "haar-nonuniform": haar_interference_weights(s, "nonuniform", r0),
    }
    header = ["level", "width", "s"]
    for mode in modes:
        header += [f"m[{mode}]", f"clamped[{mode}]"]
        if mode in kernels:
            header.append(f"kernel[{mode}]")
    rows = []
    for k in range(levels.r):
        row = [k + 1, levels.widths[k], s[k]]
        for mode in modes:
            res = results[mode]
            clamped = res.clamped_low[k] or res.clamped_high[k]
            row += [res.m[k], clamped]
            if mode in kernels:
                row.append(kernels[mode][k])
        rows.append(tuple(row))
    write_table(out / f"allocation.{args.format}", tuple(header), rows, args.format)
    summary = {
        "config": resolved,
        "config_hash": digest,
        "results": {mode: res.to_dict() for mode, res in results.items()},
        "totals": {mode: res.total for mode, res in results.items()},
        "K": {mode: res.k_factor(levels) for mode, res in results.items()},
    }
    write_json(out / "summary.json", summary)
    for mode in modes:
        print(f"allocate[{mode}]: m = {list(results[mode].m)} (total {results[mode].total})")
    return 0


def cmd_selftest(args):
    from .operators import is_isometry

    failures = 0
    checks = []

    def check(label, ok):
        nonlocal failures
        checks.append((label, bool(ok)))
        if not ok:
            failures += 1
        print(f"selftest {'PASS' if ok else 'FAIL'}: {label}")

    u, levels = fourier_haar_matrix(16)
    band_freqs = [0, 1, -1, 2, -3, -2, 3, 4, -7, -6, -5, -4, 5, 6, 7, 8]
    # dft_matrix(16) row i holds the frequency i - 7
    dense = dft_matrix(16)[np.add(band_freqs, 7)] @ haar_matrix(16)
    check("fourier-haar(16) matches the dense DFT-Haar product",
          np.max(np.abs(u - dense)) <= 1e-12)
    check("fourier-haar(16) unitary", is_isometry(u, 1e-10))
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

    s1 = draw_scheme(levels, (2, 2, 2, 4), r0=2, seed=123)
    s2 = draw_scheme(levels, (2, 2, 2, 4), r0=2, seed=123)
    check("scheme drawing deterministic", s1 == s2)

    if args.out is not None:
        out = _ensure_out(args)
        write_json(out / "selftest.json", {"checks": [[c, ok] for c, ok in checks]})
    return 1 if failures else 0


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
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # surface config errors as exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
