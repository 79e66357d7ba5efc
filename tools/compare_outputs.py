"""Check that two source checkouts write the same CLI outputs.

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts of this repository.  The
configs are the JSON config of each command section of CHANGE's README,
the four benchmark workload configs of CHANGE's ``bench/workloads.py``
(imported, not changed), four more certify configs: ``certify-fh32``
with its per-support table, and three past their enumeration budget, which
take the Monte-Carlo fallback (one at N = 512, whose measurement matrix is
gathered from eight column blocks of U), two ``coherence`` configs of
dense operators, ``dft`` at N = 64 on custom levels and ``gaussian`` at
N = 32, drawn from the run's seed, and a noisy ``recover`` at N = 1024.
Each config runs at seeds 1-3 in csv and json, once per checkout, with
``python -m ripl_lab.cli`` importing the package from that checkout's
``src/``.  Every run prints ``identical``, ``within-tol``, ``differs``
(with the files whose bytes differ) or ``failed`` (a nonzero exit on
either side).  ``within-tol`` is the verdict for a Fourier--Haar
``recover`` run past the dense stack budget (sum(m) N > 16,384), which
solves matrix-free: every file but its trials table is identical, and
the tables agree in every integer, flag and string, within 1e-12
relative in the error columns and within 1e-10 absolute in ``gap``.
The exit status is 1 if any run differs or failed.
"""
from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)
FORMATS = ("csv", "json")
MATRIX_FREE_ABOVE = 16384  # sum(m) N past which Fourier--Haar recover runs matrix-free
ERROR_COLUMNS = ("err2", "err1", "rel_err", "bound_ratio_l1", "bound_ratio_l2")


def readme_configs(root):
    """(name, command, config) of each README section that opens with a JSON config."""
    text = (root / "README.md").read_text()
    return [(f"readme-{command}", command, json.loads(block))
            for command, block in re.findall(r"^### (\w+)\n\n```json\n(.*?)```", text,
                                             re.MULTILINE | re.DOTALL)]


def workload_configs(root):
    """(name, command, config) of each full-size benchmark workload."""
    path = root / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    # registered before it runs: its dataclass looks its module up by name
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(wl.name, wl.command, wl.config) for wl in map(workloads.make, workloads.NAMES)]


def certify_configs(workloads):
    """(name, command, config) of ``certify-fh32`` with its per-support table and
    of three certify runs that fall back to Monte-Carlo."""
    fh32 = next(config for name, _, config in workloads if name == "certify-fh32")
    dft64 = {"operator": "dft", "N": 64, "m": [20], "s": [3], "max_supports": 10,
             "mc_trials": 300}
    fh512 = {"operator": "fourier-haar", "N": 512, "m": [2, 2, 4, 8, 12, 16, 24, 32, 40],
             "r0": 2, "s": [1, 1, 1, 1, 1, 1, 1, 1, 1], "mc_trials": 200}
    return [("certify-fh32-per-support", "certify", dict(fh32, per_support_csv=True)),
            ("mc-certify-fh32", "certify", dict(fh32, max_supports=1000, mc_trials=500)),
            ("mc-certify-dft64", "certify", dft64),
            ("mc-certify-fh512", "certify", fh512)]


def coherence_configs():
    """(name, command, config) of two ``coherence`` runs that take U as a dense matrix."""
    dft64 = {"operator": "dft", "N": 64, "sampling_boundaries": [0, 3, 20, 64],
             "sparsity_boundaries": [0, 1, 9, 33, 40, 64]}
    return [("coherence-dft64-custom", "coherence", dft64),
            ("coherence-gaussian32", "coherence", {"operator": "gaussian", "N": 32})]


def recover_configs(workloads):
    """(name, command, config) of ``recover-fh512-noisy`` at N = 1024."""
    fh512 = next(config for name, _, config in workloads if name == "recover-fh512-noisy")
    return [("recover-fh1024-noisy", "recover", dict(
        fh512, N=1024, s=[1, 1, 1, 2, 2, 3, 4, 5, 6, 8],
        m=[2, 2, 4, 8, 16, 24, 32, 48, 64, 96]))]


def run(checkout, command, config_path, seed, fmt, out):
    """Run one CLI command from ``checkout``'s sources; returns the completed process."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "ripl_lab.cli", command, "--config", str(config_path),
            "--seed", str(seed), "--out", str(out), "--format", fmt]
    return subprocess.run(argv, env=env, capture_output=True, text=True)


def differing_files(left, right):
    """Names of the files present in only one directory or with unequal bytes."""
    names = {p.name for p in left.iterdir()} | {p.name for p in right.iterdir()}
    return sorted(name for name in names
                  if not ((left / name).is_file() and (right / name).is_file()
                          and (left / name).read_bytes() == (right / name).read_bytes()))


def matrix_free(out):
    """True if ``out`` holds a Fourier--Haar ``recover`` run past the dense stack budget."""
    summary = out / "summary.json"
    config = json.loads(summary.read_text())["config"] if summary.is_file() else {}
    return (config.get("command") == "recover" and config.get("operator") == "fourier-haar"
            and sum(config["m"]) * config["N"] > MATRIX_FREE_ABOVE)


def trials_agree(left, right):
    """True if two trials tables (csv or json) agree within the matrix-free tolerances."""
    tables = []
    for path in (left, right):
        with path.open() as f:
            tables.append(list(csv.DictReader(f)) if path.suffix == ".csv" else json.load(f))

    def close(key, a, b):
        if a == b:
            return True
        if key == "gap":
            return abs(float(a) - float(b)) <= 1e-10
        return key in ERROR_COLUMNS and math.isclose(float(a), float(b), rel_tol=1e-12)

    return len(tables[0]) == len(tables[1]) and all(
        a.keys() == b.keys() and all(close(key, a[key], b[key]) for key in a)
        for a, b in zip(*tables))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the reference checkout")
    parser.add_argument("change", type=Path, help="root of the checkout under test")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = workload_configs(checkouts["change"])
    configs = (readme_configs(checkouts["change"]) + workloads + certify_configs(workloads)
               + coherence_configs() + recover_configs(workloads))

    bad = within = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, command, config in configs:
            config_path = tmp / f"{name}.json"
            config_path.write_text(json.dumps(config))
            for seed in SEEDS:
                for fmt in FORMATS:
                    label = f"{name} seed={seed} {fmt}"
                    outs = {side: tmp / side / f"{name}-{seed}-{fmt}" for side in checkouts}
                    done = {side: run(root, command, config_path, seed, fmt, outs[side])
                            for side, root in checkouts.items()}
                    failed = {side: proc for side, proc in done.items() if proc.returncode}
                    if failed:
                        bad += 1
                        for side, proc in failed.items():
                            last = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
                            print(f"failed    {label}: {side} exited {proc.returncode}: {last}",
                                  flush=True)
                        continue
                    files = differing_files(outs["parent"], outs["change"])
                    if done["parent"].stdout != done["change"].stdout:
                        files.append("<stdout>")
                    table = f"trials.{fmt}"
                    if (files == [table] and matrix_free(outs["parent"])
                            and trials_agree(outs["parent"] / table, outs["change"] / table)):
                        within += 1
                        print(f"within-tol {label}: {table}", flush=True)
                        continue
                    bad += bool(files)
                    print(f"{'differs' if files else 'identical':9s} {label}"
                          + (f": {', '.join(files)}" if files else ""), flush=True)
    runs = len(configs) * len(SEEDS) * len(FORMATS)
    print(f"{runs - bad - within} of {runs} runs identical, {within} within tolerance")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
