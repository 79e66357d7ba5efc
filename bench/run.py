"""ripl-lab benchmark: times seeded CLI runs end to end, or layer by layer.

    python3 bench/run.py --workload certify-fh32 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  One op is one in-process ``ripl_lab.cli.main`` call:
a closed loop with one client in one process, ops back to back until
``--seconds`` have passed (at least one op).  Each op writes its outputs
under ``.bench_out/`` and every op is checked after the timed loop.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
eight fresh interpreters of the time until the first op is ready), ``op_p50_s``,
``ops_per_s`` and ``peak_rss_mb``; ``failed_frac`` is printed on the
summary line.  ``--trace 1`` runs each op untraced and then traced, with
layer spans recorded from outside the package (see ``spans.py``), and
prints the per-layer metrics; a metric whose layer did not run in the
workload reads 0, and the line ``absent: {metric: reason}`` before the last
says why.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, each metric exactly
{"value", "unit"}.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# set-up is sampled half before and half after the timed loop, so that one
# slow spell of the machine does not set a run's median
SETUP_SAMPLES = 8


def _blas_threads_env():
    """One BLAS thread per CPU this process may use, never more."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    # trials run in one thread, so the span stack sees one call path
    os.environ.pop("RIPL_LAB_THREADS", None)
    return nproc


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink the workload to small N and few trials")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare(args, work_dir):
    """Everything before the first op: import the package, write the config."""
    import ripl_lab.cli  # noqa: F401  (the import is part of set-up)
    import workloads

    wl = workloads.make(args.workload, smoke=args.smoke)
    work_dir.mkdir(parents=True, exist_ok=True)
    config_path = work_dir / f"{wl.name}.json"
    config_path.write_text(json.dumps(wl.config, sort_keys=True))
    return wl, config_path


def setup_samples(args, work_dir, count):
    """Seconds from starting a fresh interpreter until its first op is ready, ``count`` times."""
    samples = []
    argv = [sys.executable, str(Path(__file__)), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe", str(work_dir / "probe")]
    if args.smoke:
        argv.append("--smoke")
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
        samples.append(ready - start)
    return samples


def environment(args, nproc):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_runtime_threads(np),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def _blas_runtime_threads(np):
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def code_digest():
    """Digest of the package and benchmark sources, keying the count records."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ripl_lab").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_op(call, argv):
    """One CLI call; returns (seconds, exit code or the exception raised)."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = call(argv)
    except Exception as exc:  # a raising op is a failed op, not a benchmark crash
        code = exc
    return time.perf_counter() - start, code


def _tree_bytes(path):
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*"))
            if p.is_file()}


def check_counts(work_root, wl, args, counts):
    """Op 0's exact counts must equal those of any earlier run of the same code and seed."""
    record = work_root / "counts" / f"{wl.name}-{args.seed}-{int(args.smoke)}-{code_digest()}.json"
    if record.exists():
        if json.loads(record.read_text()) != counts:
            return "op 0 counts differ from an earlier run of the same code and seed"
        return None
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(counts, sort_keys=True))
    return None


def _traced_mismatch(tracer, op_id, out, untraced_out, info):
    """The traced replay of an op must write the same bytes and count what it reports."""
    if _tree_bytes(out) != _tree_bytes(untraced_out):
        return "traced op wrote different outputs from the untraced op"
    if "supports_examined" in info and "levels.enumerate" not in tracer.missing:
        enumerated = sum(s.count for s in tracer.spans
                         if s.op == op_id and s.name == "levels.enumerate")
        if enumerated != info["supports_examined"]:
            return f"{enumerated} supports enumerated, {info['supports_examined']} reported"
    return None


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "ripl_lab" / "__init__.py").is_file():
        print(f"error: no ripl_lab package under {ROOT / 'src'}; "
              "run from a ripl-lab source checkout", file=sys.stderr)
        return 2
    nproc = _blas_threads_env()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))

    if args.setup_probe:
        prepare(args, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_out"
    work_dir = work_root / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, nproc, work_root, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, nproc, work_root, work_dir):
    setup = setup_samples(args, work_dir, SETUP_SAMPLES // 2)
    wl, config_path = prepare(args, work_dir)
    import ripl_lab
    import spans
    import workloads
    from ripl_lab import cli

    if not Path(ripl_lab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported ripl_lab from {ripl_lab.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    env = environment(args, nproc)
    print("env: " + json.dumps(env, sort_keys=True), flush=True)

    tracer = spans.Tracer() if args.trace else None

    # timed loop: ops back to back; in a traced run each op runs untraced, then traced
    ops = []  # (op id, seed, out dir, seconds, exit code, traced)
    start = time.perf_counter()
    k = 0
    while True:
        seed = workloads.op_seed(args.seed, k)
        out = work_dir / f"op{k}"
        seconds, code = run_op(cli.main, wl.argv(config_path, seed, out))
        ops.append((k, seed, out, seconds, code, False))
        if tracer is not None:
            out_t = work_dir / f"op{k}-traced"
            tracer.install()
            try:
                seconds, code = tracer.run_op(k, run_op, cli.main, wl.argv(config_path, seed, out_t))
            finally:
                tracer.uninstall()
            ops.append((k, seed, out_t, seconds, code, True))
        k += 1
        if time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += setup_samples(args, work_dir, SETUP_SAMPLES - len(setup))
    setup_s = statistics.median(setup)

    # output checks, outside the timed region
    failures = {}  # index into ops -> reason
    infos = {}  # op id -> what the check read, for the ops the metrics describe
    for index, (op_id, seed, out, seconds, code, traced) in enumerate(ops):
        if code != 0:
            failures[index] = f"exit {code!r}"
            continue
        reason, info = wl.check(out, seed, reference)
        if reason is None and traced:
            reason = _traced_mismatch(tracer, op_id, out, work_dir / f"op{op_id}", info)
        if reason is not None:
            failures[index] = reason
        elif traced or tracer is None:
            infos[op_id] = info
    if 0 in infos and "exact_counts" in infos[0]:
        reason = check_counts(work_root, wl, args, infos[0]["exact_counts"])
        if reason is not None:
            failures.setdefault(0, reason)
    for index, reason in sorted(failures.items()):
        print(f"failed: op {ops[index][0]}{' (traced)' if ops[index][5] else ''}: {reason}",
              file=sys.stderr)

    attempted = len(ops)
    failed = len(failures)
    untraced = [op[3] for op in ops if not op[5]]
    traced_s = [op[3] for op in ops if op[5]]
    summary = (f"{wl.name} (seed {args.seed}): {attempted} ops in {wall:.2f} s; "
               f"setup_s={setup_s:.4f} s ")
    if tracer is None:
        summary += (f"op_p50_s={statistics.median(untraced):.4f} s "
                    f"ops_per_s={len(untraced) / wall:.4f} 1/s peak_rss_mb={peak_rss_mb:.1f} MB ")
    else:
        summary += (f"op_p50_s={statistics.median(untraced):.4f} s untraced, "
                    f"{statistics.median(traced_s):.4f} s traced ")
    summary += f"failed_frac={failed / attempted:.4f}"
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(untraced), "unit": "s"},
            "ops_per_s": {"value": len(untraced) / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = {}
        absent = {}
        if infos:
            layer = spans.layer_metrics(tracer, infos, untraced, traced_s)
            for name, (value, unit, reason) in layer.items():
                metrics[name] = {"value": float(value), "unit": unit}
                if reason is not None:
                    absent[name] = reason
        trace_path = work_root / f"spans-{wl.name}-{args.seed}.json"
        trace_path.write_text(json.dumps({
            "env": env,
            "fields": ["name", "start", "end", "parent", "op", "busy", "count"],
            "spans": [s.to_list() for s in tracer.spans],
        }))
    print(summary, flush=True)
    if tracer is not None:
        # metrics whose layer did not run report 0; the reason is on its own line
        print("absent: " + json.dumps(absent, sort_keys=True), flush=True)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
