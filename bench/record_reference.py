"""Record the reference outputs the benchmark's checks compare against.

    python3 bench/record_reference.py

Runs the first ops of the default workload seed (1) and writes
``reference.json`` beside this file: per-trial success flags ("1" success,
"0" failure) per op seed for the recover workloads, and mu_global and
mu_local for coherence-fh4096.
A reference records what the code computed when it was written; rerun this
only to accept a deliberate change of those outputs, and say so.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from ripl_lab import cli  # noqa: E402

DEFAULT_SEED = 1
RECOVER_OPS = {"recover-fh64": 60, "recover-fh512-noisy": 8}


def _run(wl, work, k):
    seed = workloads.op_seed(DEFAULT_SEED, k)
    out = work / f"op{k}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(wl.argv(work / "config.json", seed, out))
    if code != 0:
        raise SystemExit(f"{wl.name} op {k} exited {code}")
    return seed, out


def main():
    reference = {}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        work = Path(tmp)
        for name, count in RECOVER_OPS.items():
            wl = workloads.make(name)
            (work / "config.json").write_text(json.dumps(wl.config))
            flags = {}
            for k in range(count):
                seed, out = _run(wl, work, k)
                records = json.loads((out / "trials.json").read_text())
                flags[str(seed)] = workloads.success_flags(records)
            reference[name] = flags
        wl = workloads.make("coherence-fh4096")
        (work / "config.json").write_text(json.dumps(wl.config))
        _, out = _run(wl, work, 0)
        summary = json.loads((out / "coherence_summary.json").read_text())
        reference[wl.name] = {"mu_global": summary["mu_global"],
                              "mu_local": summary["profile"]["mu_local"]}
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
