"""Command-line harness: coherence | certify | recover | allocate | selftest.

Every command runs on one skeleton.  ``main`` loads the JSON config and
calls the command inside its one error handler (``error: ...``, exit 1).
The command does only its own computation: ``resolve_operator`` gives
``coherence``, ``certify`` and ``recover`` their operator, levels and
shared resolved keys (the Gaussian ``recover`` baseline, which draws a
matrix per trial, takes only ``resolve_levels``), and ``ALLOCATORS`` maps
each allocation mode to its allocator for ``allocate`` and ``recover``.
``write_outputs`` is the one place outputs reach ``--out``: it stamps the
command into the resolved config, hashes it, and writes the summary JSON
and the tables.  The hash lets every randomized run replay byte-for-byte
from (config, seed); the tables are plot-ready, and no plot is rendered.

A concern of every command belongs in the skeleton: per-stage
``timings.json`` and warnings captured into ``notes`` wrap the command
call in ``main`` and reach disk through ``write_outputs``, and
``--debug`` re-raises from ``main``'s handler.
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
    k_factor,
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
    return json.loads(Path(path).read_text())


def resolve_operator(config, seed=None):
    """Build the source matrix named in the config and its levels.

    Returns (U, sampling levels, sparsity levels, resolved keys).  The
    levels default to the Fourier--Haar bands, or to a single level for
    every other operator; see ``resolve_levels``.
    """
    name = config.get("operator", "fourier-haar")
    n = int(config.get("N", 0))
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
        u = load_matrix(config["path"])
    else:
        raise ValueError(f"unknown operator {name!r}")
    if name != "fourier-haar":
        levels = LevelStructure.single_level(u.shape[1])
    return (u, *resolve_levels(config, levels))


def resolve_levels(config, levels):
    """Sampling and sparsity levels, each from its config boundaries or else
    ``levels``, and the keys every operator command records: operator, N and
    both boundary lists."""
    sampling, sparsity = (
        LevelStructure(tuple(config[key])) if key in config else levels
        for key in ("sampling_boundaries", "sparsity_boundaries")
    )
    resolved = {
        "operator": config.get("operator", "fourier-haar"),
        "N": sampling.n,
        "sampling_boundaries": list(sampling.boundaries),
        "sparsity_boundaries": list(sparsity.boundaries),
    }
    return sampling, sparsity, resolved


def _require_seed(config, args_seed, command):
    seed = args_seed if args_seed is not None else config.get("seed")
    if seed is None:
        raise ValueError(f"the {command} command is randomized: provide --seed or config seed")
    return int(seed)


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
    # the general condition takes its local coherences from the Fourier--Haar matrix
    u, _ = fourier_haar_matrix(pattern.levels.n)
    profile = CoherenceProfile.from_matrix(u, pattern.levels, pattern.levels)
    return allocate_uniform(profile, pattern, delta, eps, c, r0=r0)


# allocation mode -> allocator(pattern, delta, eps, C, r0).  The lambdas look
# allocate_haar up in this module at call time, so a wrapper put there sees it.
ALLOCATORS = {
    "haar-uniform": lambda pattern, delta, eps, c, r0: allocate_haar(
        pattern, delta, eps, c, r0=r0, mode="uniform"),
    "haar-nonuniform": lambda pattern, delta, eps, c, r0: allocate_haar(
        pattern, delta, eps, c, r0=r0, mode="nonuniform"),
    "general": _general_allocation,
}


def _allocation_constants(block):
    """delta, eps and C of an allocation config block, with their defaults."""
    return (float(block.get("delta", 0.5)), float(block.get("eps", 0.5)),
            float(block.get("C", 1.0)))


def cmd_coherence(config, args):
    seed = args.seed if args.seed is not None else config.get("seed")
    u, sampling, sparsity, resolved = resolve_operator(config, seed=seed)
    profile = CoherenceProfile.from_matrix(u, sampling, sparsity)
    name = resolved["operator"]
    if name == "gaussian":  # only the Gaussian operator depends on the seed
        resolved["seed"] = int(seed)
    summary = {"mu_global": profile.mu_global, "profile": profile.to_dict()}
    tables = [("coherence_profile", ("k", "l", "mu", "mu_tilde"), profile.rows_csv())]
    if name == "fourier-haar":
        k, l = np.indices(profile.mu_local.shape) + 1
        bound = 2.0 ** -k * 2.0 ** -np.abs(k - l)
        ratio = profile.mu_local / bound
        summary["max_decay_ratio"] = ratio.max()
        columns = (k, l, profile.mu_local, bound, ratio)
        rows = zip(*(col.ravel().tolist() for col in columns))
        tables.append(("decay_ratios", ("k", "l", "mu", "bound", "ratio"), rows))
    write_outputs(args, resolved, "coherence_summary.json", summary, tables)
    print(f"coherence: mu_global = {profile.mu_global!r} ({name}, N = {sampling.n})")
    return 0


def cmd_certify(config, args):
    seed = _require_seed(config, args.seed, "certify")
    u, sampling, sparsity, resolved = resolve_operator(config, seed=seed)
    pattern = SparsityPattern(sparsity, tuple(config["s"]))
    r0 = int(config.get("r0", 0))
    m = tuple(config["m"])
    max_supports = int(config.get("max_supports", 10**6))
    mc_trials = int(config.get("mc_trials", 2000))
    per_support = bool(config.get("per_support_csv", False))

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
    return solver_opts


def cmd_recover(config, args):
    solver_opts = _solver_options(config)
    seed = _require_seed(config, args.seed, "recover")
    if config.get("operator") == "gaussian":  # the baseline draws its own matrix per trial
        sampling, sparsity, resolved = resolve_levels(
            config, LevelStructure.single_level(int(config.get("N", 0))))
    else:
        u, sampling, sparsity, resolved = resolve_operator(config, seed=seed)
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
    shared = dict(
        eta=eta, weights=inverse_sqrt_level_weights(pattern) if weighted else None,
        solver_opts=solver_opts, success_rtol=success_rtol, magnitude_model=magnitude_model,
    )

    alloc = k = None
    radius = eta
    if resolved["operator"] == "gaussian":
        # baseline: a fresh m_total x N Gaussian matrix per trial, no scheme
        if noise_scaling == "sqrtK":
            raise ValueError("the sqrtK noise convention needs a multilevel scheme")
        m_total = int(config.get("m_total") or sum(config.get("m", [])))
        if m_total < 1:
            raise ValueError("gaussian recover needs m_total (or an m vector to sum)")
        m = (m_total,)
        result = gaussian_recovery_experiment(
            sparsity.n, m_total, pattern, trials, seed, radius=radius, **shared
        )
    else:
        if "m" in config:
            m = config["m"]
        elif config.get("allocation") is not None:
            block = config["allocation"]
            mode = block.get("mode", "haar-uniform")
            constants = _allocation_constants(block)
            # the general mode's coherences are Fourier--Haar's, not the operator's
            if mode not in ("haar-uniform", "haar-nonuniform"):
                raise ValueError(f"unsupported allocation mode {mode!r} in recover")
            alloc = ALLOCATORS[mode](pattern, *constants, r0)
            m = alloc.m
        else:
            raise ValueError("recover config needs either m or an allocation block")
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
    s = tuple(config["s"])
    delta, eps, c = _allocation_constants(config)
    r0 = int(config.get("r0", 0))
    modes = list(config.get("modes", ["haar-uniform", "haar-nonuniform"]))
    operator = config.get("operator", "fourier-haar")
    if operator != "fourier-haar":
        raise ValueError(f"allocate works on the fourier-haar operator only, got {operator!r}")

    levels = LevelStructure.dyadic(len(s))
    pattern = SparsityPattern(levels, s)
    results = {}
    for mode in modes:
        if mode not in tuple(ALLOCATORS):  # compared, not hashed: a mode is any JSON value
            raise ValueError(f"unknown allocation mode {mode!r}")
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
        Path(args.out).mkdir(parents=True, exist_ok=True)
        write_json(Path(args.out) / "selftest.json", {"checks": [[c, ok] for c, ok in checks]})
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
        return args.fn(load_config(args.config), args)
    except Exception as exc:  # surface config errors as exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
