"""The benchmark's workloads: one ripl-lab CLI config each, and its output check.

An op is one in-process ``ripl_lab.cli.main`` call on the workload's config
with an op seed derived from the workload seed.  Checks read the files an op
wrote and recompute what they can independently of the layer under test.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")

_SOLVER = {"max_iters": 30000}

# Full-size configs.  recover-fh64 is the README recover config with the
# allocation constant C raised from 4.49e-4 to 1e-3 (m = 2,2,4,8,11,11):
# at the README constant a seed's 50 trials take from 175k to 354k
# iterations, a spread no run of a few dozen seconds can average out.
_FULL = {
    "certify-fh32": ("certify", {
        "operator": "fourier-haar", "N": 32, "m": [2, 2, 4, 6, 10], "r0": 2,
        "s": [1, 1, 1, 1, 1], "max_supports": 1000000, "mc_trials": 2000,
    }),
    "recover-fh64": ("recover", {
        "operator": "fourier-haar", "N": 64, "s": [2, 2, 2, 2, 2, 2], "r0": 4,
        "allocation": {"mode": "haar-uniform", "delta": 0.5, "eps": 0.5, "C": 1e-3},
        "trials": 50, "eta": 0.0, "noise_scaling": "plain", "weighted": False,
        "solver": dict(_SOLVER, primal_tol=1e-6),
    }),
    "recover-fh512-noisy": ("recover", {
        "operator": "fourier-haar", "N": 512, "s": [1, 1, 1, 2, 2, 3, 4, 5, 6], "r0": 2,
        "m": [2, 2, 4, 8, 12, 16, 24, 32, 40], "trials": 8, "eta": 0.01,
        "noise_scaling": "sqrtK", "weighted": True, "magnitude_model": "gaussian",
        "success_rtol": 0.05, "solver": dict(_SOLVER),
    }),
    "coherence-fh4096": ("coherence", {"operator": "fourier-haar", "N": 4096}),
}

# The same commands shrunk for the smoke test: small N, few trials.
_SMOKE = {
    "certify-fh32": ("certify", {
        "operator": "fourier-haar", "N": 16, "m": [2, 2, 4, 4], "r0": 2, "s": [1, 1, 1, 1],
    }),
    "recover-fh64": ("recover", dict(_FULL["recover-fh64"][1], trials=2)),
    "recover-fh512-noisy": ("recover", dict(
        _FULL["recover-fh512-noisy"][1], N=64, s=[1, 1, 1, 2, 2, 3],
        m=[2, 2, 4, 8, 12, 16], trials=2,
    )),
    "coherence-fh4096": ("coherence", {"operator": "fourier-haar", "N": 256}),
}

NAMES = tuple(_FULL)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    smoke: bool

    def argv(self, config_path, op_seed, out_dir):
        return [self.command, "--config", str(config_path), "--seed", str(op_seed),
                "--out", str(out_dir), "--format", "json"]

    def check(self, out_dir, op_seed, reference):
        """Check one op's outputs; returns (failure reason or None, info read)."""
        out_dir = Path(out_dir)
        info = {"bytes_written": sum(p.stat().st_size for p in out_dir.iterdir())}
        checker = {"certify": _check_certify, "recover": _check_recover,
                   "coherence": _check_coherence}[self.command]
        ref = None if self.smoke else reference.get(self.name)
        return checker(self, out_dir, op_seed, ref, info), info


def make(name, smoke=False):
    command, config = (_SMOKE if smoke else _FULL)[name]
    return Workload(name, command, config, smoke)


def op_seed(workload_seed, k):
    """Seed of op k: a fixed function of the workload seed."""
    digest = hashlib.sha256(f"{workload_seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def load_reference():
    return json.loads(REFERENCE.read_text())


def success_flags(records):
    """Per-trial success flags of a recover run as a string of 1s and 0s."""
    return "".join("1" if rec["success"] else "0" for rec in records)


def _doubled_supports(boundaries, s):
    """0-based index arrays of every support with exactly 2 s_k (clamped) per level."""
    per_level = []
    for k, sk in enumerate(s):
        lo, hi = boundaries[k], boundaries[k + 1]
        per_level.append(list(itertools.combinations(range(lo, hi), min(2 * sk, hi - lo))))
    return np.array([sum(choice, ()) for choice in itertools.product(*per_level)], dtype=np.intp)


def _support_deltas(gram, supports):
    sub = gram[supports[:, :, None], supports[:, None, :]]
    ev = np.linalg.eigvalsh(sub)
    return np.maximum(ev[:, -1] - 1.0, 1.0 - ev[:, 0])


def _check_certify(wl, out_dir, op_seed, ref, info):
    from ripl_lab.operators import fourier_haar_matrix
    from ripl_lab.sampling import SamplingScheme, build_measurement

    payload = json.loads((out_dir / "certification.json").read_text())
    report = payload["report"]
    if report["method"] != "exact":
        return f"method {report['method']!r}, expected exact"
    bounds = payload["config"]["sparsity_boundaries"]
    s = payload["config"]["s"]
    if s != wl.config["s"] or payload["config"]["seed"] != op_seed:
        return "config echoed in certification.json differs from the op's"
    scheme = SamplingScheme.from_dict(payload["scheme"])
    a = build_measurement(fourier_haar_matrix(wl.config["N"])[0], scheme).a
    gram = a.conj().T @ a
    supports = _doubled_supports(bounds, s)
    oracle = max(float(np.max(_support_deltas(gram, supports))), 0.0)
    delta = report["delta"]
    if abs(delta - oracle) > 1e-9:
        return f"delta {delta!r} differs from the eigvalsh oracle {oracle!r}"
    ricl = report["ricl"]
    if ricl["supports_examined"] != len(supports):
        return f"{ricl['supports_examined']} supports examined, expected {len(supports)}"
    witness = np.asarray([ricl["witness_support"]], dtype=np.intp) - 1
    if abs(float(_support_deltas(gram, witness)[0]) - delta) > 1e-9:
        return "the witness support does not attain delta"
    r = len(s)
    rho = max(s) / min(s)
    threshold = 1.0 / math.sqrt(r * (math.sqrt(rho) + 0.25) ** 2 + 1.0)
    if abs(report["threshold"] - threshold) > 1e-12:
        return f"threshold {report['threshold']!r}, expected {threshold!r}"
    expected = "sufficient" if oracle < threshold else "insufficient"
    if report["verdict"] != expected:
        return f"verdict {report['verdict']!r}, expected {expected!r}"
    info["supports_examined"] = ricl["supports_examined"]
    info["exact_counts"] = {"supports_examined": ricl["supports_examined"]}
    return None


def _check_recover(wl, out_dir, op_seed, ref, info):
    records = json.loads((out_dir / "trials.json").read_text())
    summary = json.loads((out_dir / "summary.json").read_text())
    config = wl.config
    rtol = config.get("success_rtol", 1e-4)
    max_iters = config["solver"]["max_iters"]
    if [rec["trial"] for rec in records] != list(range(config["trials"])):
        return "trials missing or out of order"
    for rec in records:
        if rec["seed"] != op_seed:
            return f"trial {rec['trial']} carries seed {rec['seed']}, expected {op_seed}"
        if not math.isfinite(rec["rel_err"]):
            return f"trial {rec['trial']}: rel_err is not finite"
        if rec["success"] != (rec["rel_err"] <= rtol):
            return f"trial {rec['trial']}: success flag disagrees with rel_err <= {rtol}"
        if not 1 <= rec["iterations"] <= max_iters:
            return f"trial {rec['trial']}: {rec['iterations']} iterations"
    rate = sum(rec["success"] for rec in records) / len(records)
    if summary["success_rate"] != rate:
        return "summary success_rate disagrees with the trials"
    if ref is not None and str(op_seed) in ref:
        if success_flags(records) != ref[str(op_seed)]:
            return "success flags differ from those recorded for this op seed"
    info["trials"] = [
        {"iterations": rec["iterations"], "converged": rec["converged"],
         "capped": rec["iterations"] >= max_iters and not rec["converged"]}
        for rec in records
    ]
    info["exact_counts"] = {"iterations": [rec["iterations"] for rec in records]}
    return None


def _check_coherence(wl, out_dir, op_seed, ref, info):
    summary = json.loads((out_dir / "coherence_summary.json").read_text())
    mu_global = summary["mu_global"]
    mu_local = np.asarray(summary["profile"]["mu_local"])
    mu_tilde = np.asarray(summary["profile"]["mu_tilde"])
    r = wl.config["N"].bit_length() - 1
    if mu_local.shape != (r, r):
        return f"mu_local has shape {mu_local.shape}, expected {(r, r)}"
    if mu_global != mu_local.max() or not 0.0 < mu_global <= 1.0 + 1e-12:
        return f"mu_global {mu_global!r} is not the largest local coherence"
    expected_tilde = np.sqrt(mu_local * mu_local.max(axis=1, keepdims=True))
    if np.max(np.abs(mu_tilde - expected_tilde)) > 1e-12:
        return "mu_tilde disagrees with mu_local"
    if ref is not None:
        if abs(mu_global - ref["mu_global"]) > 1e-10:
            return f"mu_global {mu_global!r} differs from the recorded {ref['mu_global']!r}"
        if np.max(np.abs(mu_local - np.asarray(ref["mu_local"]))) > 1e-10:
            return "mu_local differs from the recorded values"
    return None
