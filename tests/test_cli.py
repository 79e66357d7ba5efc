import json

import numpy as np
import pytest

from ripl_lab import LevelStructure, SparsityPattern, support_blocks
from ripl_lab.cli import main


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_coherence_command_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {"operator": "fourier-haar", "N": 16})
    out = tmp_path / "out"
    assert main(["coherence", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "coherence_profile.csv").exists()
    assert (out / "decay_ratios.csv").exists()
    summary = json.loads((out / "coherence_summary.json").read_text())
    assert summary["mu_global"] == pytest.approx(1.0, abs=1e-10)
    assert "config_hash" in summary
    assert "mu_global = " in capsys.readouterr().out


def test_coherence_gaussian_seed_from_config_or_flag(tmp_path):
    cfg = _write_config(tmp_path, "g.json", {"operator": "gaussian", "N": 8, "seed": 3})
    summaries = {}
    for seed in (None, 3, 1, 2):
        out = tmp_path / f"out{seed}"
        flag = [] if seed is None else ["--seed", str(seed)]
        assert main(["coherence", "--config", cfg, "--out", str(out), *flag]) == 0
        summaries[seed] = (out / "coherence_summary.json").read_text()
    assert summaries[None] == summaries[3]
    assert json.loads(summaries[1])["config"]["seed"] == 1
    assert json.loads(summaries[1])["config_hash"] != json.loads(summaries[2])["config_hash"]


def test_coherence_dft_constant_table(tmp_path):
    cfg = _write_config(
        tmp_path, "c.json",
        {"operator": "dft", "N": 8, "sampling_boundaries": [0, 4, 8],
         "sparsity_boundaries": [0, 4, 8]},
    )
    out = tmp_path / "out"
    assert main(["coherence", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "coherence_profile.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        _, _, mu, _ = row.split(",")
        assert float(mu) == pytest.approx(0.125, abs=1e-15)


def test_certify_command_and_replay(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "cert.json",
        {"operator": "fourier-haar", "N": 16, "m": [2, 2, 4, 8], "r0": 4,
         "s": [1, 1, 1, 1], "seed": 7, "per_support_csv": True},
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["certify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["certify", "--config", cfg, "--out", str(out2)]) == 0
    assert _dir_bytes(out1) == _dir_bytes(out2)
    report = json.loads((out1 / "certification.json").read_text())
    assert report["report"]["verdict"] == "sufficient"
    assert "verdict = sufficient" in capsys.readouterr().out
    ricl = report["report"]["ricl"]
    doubled = SparsityPattern(
        LevelStructure(tuple(report["config"]["sparsity_boundaries"])),
        tuple(report["report"]["doubled_s"]),
    )
    rows = [row.split(",") for row in
            (out1 / "per_support.csv").read_text().strip().splitlines()[1:]]
    assert len(rows) == ricl["supports_examined"]
    supports = np.concatenate(list(support_blocks(doubled))) + 1
    assert [row[0] for row in rows] == [";".join(map(str, idx)) for idx in supports.tolist()]
    deltas = [float(row[3]) for row in rows]
    assert max(deltas) == pytest.approx(report["report"]["delta"], abs=1e-12)
    witness = ";".join(map(str, ricl["witness_support"]))
    assert float(rows[[row[0] for row in rows].index(witness)][3]) == pytest.approx(
        report["report"]["delta"], abs=1e-12)


def test_certify_requires_seed(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "cert.json",
        {"operator": "fourier-haar", "N": 8, "m": [2, 2, 4], "r0": 3, "s": [1, 1, 1]},
    )
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "randomized" in capsys.readouterr().err


def test_recover_command_and_replay(tmp_path):
    cfg = _write_config(
        tmp_path, "rec.json",
        {"operator": "dft", "N": 16, "sampling_boundaries": [0, 8, 16],
         "sparsity_boundaries": [0, 8, 16], "m": [8, 10], "r0": 1, "s": [1, 1],
         "trials": 4, "seed": 3, "solver": {"max_iters": 20000, "primal_tol": 1e-6}},
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["recover", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["recover", "--config", cfg, "--out", str(out2)]) == 0
    assert _dir_bytes(out1) == _dir_bytes(out2)
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["success_rate"] == 1.0
    assert summary["config"]["seed"] == 3
    header = (out1 / "trials.csv").read_text().splitlines()[0]
    assert header.startswith("trial,seed,m,err2,err1")


def test_recover_trials_carry_duality_gap(tmp_path):
    base = {"operator": "fourier-haar", "N": 16, "m": [2, 2, 4, 6], "r0": 2,
            "s": [1, 1, 1, 1], "trials": 6, "seed": 4, "eta": 0.01}
    for solver in ({"max_iters": 20000, "primal_tol": 1e-6}, {"max_iters": 30}):
        cfg = _write_config(tmp_path, "rec.json", dict(base, solver=solver))
        out = tmp_path / str(solver["max_iters"])
        assert main(["recover", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        records = json.loads((out / "trials.json").read_text())
        assert all(np.isfinite(rec["gap"]) for rec in records)
        assert [rec["converged"] for rec in records] == [solver["max_iters"] > 30] * 6
        for rec in records:
            if rec["converged"]:
                # the true signal is feasible, so the objective is at most
                # ||x||_1 = sum(s) and the relative gap test bounds |gap|
                assert abs(rec["gap"]) <= solver["primal_tol"] * (1 + sum(base["s"]))
    assert main(["recover", "--config", cfg, "--out", str(tmp_path / "csv")]) == 0
    assert ",iterations,gap," in (tmp_path / "csv" / "trials.csv").read_text().splitlines()[0]


def test_readme_recover_config_converges_every_trial(tmp_path):
    cfg = _write_config(
        tmp_path, "rec.json",
        {"operator": "fourier-haar", "N": 64, "s": [2, 2, 2, 2, 2, 2], "r0": 4,
         "allocation": {"mode": "haar-uniform", "delta": 0.5, "eps": 0.5, "C": 4.49e-4},
         "trials": 50, "eta": 0.0, "noise_scaling": "plain", "weighted": False,
         "seed": 20260811, "solver": {"max_iters": 30000, "primal_tol": 1e-6}},
    )
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="hypothesis"):
        assert main(["recover", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    records = json.loads((out / "trials.json").read_text())
    assert all(rec["converged"] for rec in records)
    flags = "".join("1" if rec["success"] else "0" for rec in records)
    assert flags == "00101011010010011101100101100010010010010101001111"


def test_recover_with_allocation_block(tmp_path):
    cfg = _write_config(
        tmp_path, "rec.json",
        {"operator": "fourier-haar", "N": 16, "s": [1, 1, 4, 4], "r0": 2,
         "allocation": {"mode": "haar-uniform", "delta": 0.5, "eps": 0.5, "C": 0.001},
         "trials": 3, "seed": 5, "solver": {"max_iters": 20000, "primal_tol": 1e-6}},
    )
    out = tmp_path / "out"
    assert main(["recover", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "allocation" in summary
    assert summary["config"]["m"] == summary["allocation"]["m"]


def test_recover_gaussian_baseline(tmp_path, monkeypatch):
    # the baseline draws a fresh matrix per trial; an N x N draw for the
    # source operator would go unread
    def no_draw(*args):
        raise AssertionError("recover drew a Gaussian source matrix")

    monkeypatch.setattr("ripl_lab.cli.gaussian_matrix", no_draw)
    cfg = _write_config(
        tmp_path, "rec.json",
        {"operator": "gaussian", "N": 16, "sparsity_boundaries": [0, 4, 16],
         "s": [1, 1], "m_total": 12, "trials": 3, "seed": 5,
         "solver": {"max_iters": 20000, "primal_tol": 1e-6}},
    )
    out = tmp_path / "out"
    assert main(["recover", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["K"] is None
    assert summary["config"]["m"] == [12]
    assert summary["config_hash"] == (
        "5a285e698e025b26573d747cb046fc7664e88157963ec993c205910a9daf3c33")
    records = json.loads((out / "trials.json").read_text())
    assert [rec["iterations"] for rec in records] == [375, 200, 550]
    assert all(rec["success"] for rec in records)


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def test_json_outputs_are_strict(tmp_path):
    # NaN (raw counts of saturated levels) and Infinity (bound ratios of exactly
    # sparse signals, an infinite sparsity ratio) are written as strings
    runs = {
        "recover": {"operator": "fourier-haar", "N": 64, "s": [2, 2, 2, 2, 2, 2], "r0": 4,
                    "allocation": {"mode": "haar-uniform", "delta": 0.5, "eps": 0.5,
                                   "C": 4.49e-4},
                    "trials": 5, "eta": 0.0, "noise_scaling": "plain", "weighted": False,
                    "seed": 20260811, "solver": {"max_iters": 30000, "primal_tol": 1e-6}},
        "certify": {"operator": "fourier-haar", "N": 16, "m": [2, 2, 4, 8], "r0": 4,
                    "s": [1, 0, 1, 1], "seed": 7},
    }
    for command, payload in runs.items():
        cfg = _write_config(tmp_path, f"{command}.json", payload)
        out = tmp_path / command
        with pytest.warns(RuntimeWarning):
            assert main([command, "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        parsed = {p.name: json.loads(p.read_text(), parse_constant=_reject_constant)
                  for p in out.glob("*.json")}
        assert len(parsed) == (2 if command == "recover" else 1)
    assert parsed["certification.json"]["report"]["rho"] == "inf"
    summary = json.loads((tmp_path / "recover" / "summary.json").read_text())
    assert summary["allocation"]["raw"][:4] == ["nan"] * 4
    records = json.loads((tmp_path / "recover" / "trials.json").read_text())
    assert {rec["bound_ratio_l1"] for rec in records} == {"inf"}


def test_recover_sqrtk_noise_labelled(tmp_path):
    cfg = _write_config(
        tmp_path, "rec.json",
        {"operator": "fourier-haar", "N": 8, "m": [2, 2, 2], "r0": 2,
         "s": [1, 1, 1], "trials": 2, "seed": 9, "eta": 0.01,
         "noise_scaling": "sqrtK", "solver": {"max_iters": 5000, "primal_tol": 1e-5}},
    )
    out = tmp_path / "out"
    assert main(["recover", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["noise_scaling"] == "sqrtK"
    assert summary["config"]["radius"] == pytest.approx(0.01 * (4 / 2) ** 0.5)


def test_allocate_command_table(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "alloc.json",
        {"s": [2, 2, 2, 3], "delta": 0.5, "eps": 0.5, "C": 0.001, "r0": 0,
         "modes": ["haar-uniform", "haar-nonuniform"]},
    )
    out = tmp_path / "out"
    assert main(["allocate", "--config", cfg, "--out", str(out)]) == 0
    table = (out / "allocation.csv").read_text().splitlines()
    assert table[0].startswith("level,width,s,m[haar-uniform]")
    assert len(table) == 5
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["totals"]) == {"haar-uniform", "haar-nonuniform"}
    assert "allocate[haar-uniform]" in capsys.readouterr().out


def test_allocate_r0_full_everywhere(tmp_path):
    cfg = _write_config(
        tmp_path, "alloc.json",
        {"s": [1, 1, 1], "r0": 3, "modes": ["haar-uniform"]},
    )
    out = tmp_path / "out"
    assert main(["allocate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["haar-uniform"]["m"] == [2, 2, 4]


def test_json_format_variant(tmp_path):
    cfg = _write_config(tmp_path, "c.json", {"operator": "identity", "N": 4,
                                             "sampling_boundaries": [0, 2, 4],
                                             "sparsity_boundaries": [0, 2, 4]})
    out = tmp_path / "out"
    assert main(["coherence", "--config", cfg, "--format", "json", "--out", str(out)]) == 0
    rows = json.loads((out / "coherence_profile.json").read_text())
    assert rows[0] == {"k": 1, "l": 1, "mu": 1.0, "mu_tilde": 1.0}
    assert rows[1]["mu"] == 0.0


def test_selftest_passes():
    assert main(["selftest"]) == 0


def test_unknown_operator_fails_cleanly(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {"operator": "walsh", "N": 8})
    assert main(["coherence", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown operator" in capsys.readouterr().err


def test_recover_zero_level_count_fails_cleanly(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "rec.json",
        {"operator": "fourier-haar", "N": 16, "m": [2, 2, 0, 4], "s": [1, 1, 1, 1],
         "trials": 1, "seed": 1},
    )
    assert main(["recover", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "level 3: m_k must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("solver", [{"max_iter": 5}, {"check_every": 1000}])
def test_recover_unknown_solver_option_fails_before_trials(tmp_path, capsys, solver):
    cfg = _write_config(
        tmp_path, "rec.json",
        {"operator": "fourier-haar", "N": 16, "m": [2, 2, 4, 8], "s": [1, 1, 1, 1],
         "trials": 1, "seed": 1, "solver": solver},
    )
    out = tmp_path / "o"
    assert main(["recover", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: unknown solver option(s) {sorted(solver)}; allowed: max_iters, primal_tol" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "solver, message",
    [
        ({"max_iters": "500"}, "solver max_iters must be an integer >= 1, got '500'"),
        ({"max_iters": 0}, "solver max_iters must be an integer >= 1, got 0"),
        ({"max_iters": True}, "solver max_iters must be an integer >= 1, got True"),
        ({"primal_tol": -1}, "solver primal_tol must be a finite number > 0, got -1"),
        ({"primal_tol": "1e-7"}, "solver primal_tol must be a finite number > 0, got '1e-7'"),
        ({"primal_tol": float("inf")}, "solver primal_tol must be a finite number > 0, got inf"),
    ],
    ids=["iters-str", "iters-zero", "iters-bool", "tol-negative", "tol-str", "tol-inf"],
)
def test_recover_bad_solver_value_fails_before_trials(tmp_path, capsys, solver, message):
    cfg = _write_config(
        tmp_path, "rec.json",
        {"operator": "fourier-haar", "N": 16, "m": [2, 2, 4, 8], "s": [1, 1, 1, 1],
         "trials": 1, "seed": 1, "solver": solver},
    )
    out = tmp_path / "o"
    assert main(["recover", "--config", cfg, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_allocate_general_mode_rejects_other_operators(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "alloc.json", {"s": [1, 1, 2], "modes": ["general"], "operator": "dft"}
    )
    assert main(["allocate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "fourier-haar operator only, got 'dft'" in err
    assert "different sparsity levels" not in err


# The four replay configs of test_acceptance.py::test_c10_cli_determinism, each
# with the config hash and the file set it must keep writing.  A resolved key
# that is dropped, renamed or retyped changes the hash.
_PINNED_RUNS = {
    "certify": (
        {"operator": "fourier-haar", "N": 16, "m": [2, 2, 3, 6], "r0": 2,
         "s": [1, 1, 1, 1], "seed": 7},
        "11d6c9c4e6d692fd19424b9a6b8332607a92bfdbb1ba8ff23b3f629bdda6712d",
        "certification.json", {"certification.json"},
    ),
    "recover": (
        {"operator": "dft", "N": 16, "sampling_boundaries": [0, 8, 16],
         "sparsity_boundaries": [0, 8, 16], "m": [8, 10], "r0": 1, "s": [1, 1],
         "trials": 5, "seed": 3, "solver": {"max_iters": 20000, "primal_tol": 1e-6}},
        "4a36765ad4f8202937c87bb0c6bdf2fada9022ba91b44841b42d706a63f4cf86",
        "summary.json", {"summary.json", "trials.csv"},
    ),
    "coherence": (
        {"operator": "fourier-haar", "N": 32},
        "f8131e88d705d5f6cd9044da0f7457ce420489ae39f359a2a656a1cc643d702a",
        "coherence_summary.json",
        {"coherence_profile.csv", "coherence_summary.json", "decay_ratios.csv"},
    ),
    "allocate": (
        {"s": [1, 1, 2, 2], "delta": 0.5, "eps": 0.5, "C": 0.001,
         "modes": ["haar-uniform", "haar-nonuniform"]},
        "b14b00cdebaf4e35341075bafae8475253097043d0cb905defc0aed69dfd1fd4",
        "summary.json", {"allocation.csv", "summary.json"},
    ),
}


@pytest.mark.parametrize("command", sorted(_PINNED_RUNS))
def test_resolved_config_hash_and_files_pinned(tmp_path, command):
    payload, digest, summary_name, files = _PINNED_RUNS[command]
    cfg = _write_config(tmp_path, "c.json", payload)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == files
    assert json.loads((out / summary_name).read_text())["config_hash"] == digest
