import json
import warnings

import numpy as np
import pytest

from ripl_lab import LevelStructure, SparsityPattern, dft_matrix, save_matrix, support_blocks
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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("eta", float("nan"), "eta must be a finite number >= 0, got nan"),
        ("eta", -0.5, "eta must be a finite number >= 0, got -0.5"),
        ("eta", float("inf"), "eta must be a finite number >= 0, got inf"),
        ("success_rtol", float("nan"), "success_rtol must be a finite number > 0, got nan"),
        ("success_rtol", 0, "success_rtol must be a finite number > 0, got 0.0"),
        ("success_rtol", float("inf"), "success_rtol must be a finite number > 0, got inf"),
        ("trials", 2.5, "trials must be an integer, got 2.5"),
        ("trials", "3", "trials must be an integer, got '3'"),
        ("eta", "0.5", "eta must be a number, got '0.5'"),
        ("success_rtol", True, "success_rtol must be a number, got True"),
    ],
    ids=["eta-nan", "eta-negative", "eta-inf", "rtol-nan", "rtol-zero", "rtol-inf",
         "trials-float", "trials-str", "eta-str", "rtol-bool"],
)
def test_recover_bad_scalar_fails_before_trials(tmp_path, capsys, monkeypatch, key, value, message):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("ripl_lab.cli.exact_recovery_experiment", no_trials)
    config = {"operator": "fourier-haar", "N": 16, "m": [2, 2, 4, 8], "s": [1, 1, 1, 1],
              "trials": 1, "seed": 1, key: value}
    # json writes the bare NaN / Infinity tokens, which Python's json reads back
    cfg = _write_config(tmp_path, "rec.json", config)
    out = tmp_path / "o"
    assert main(["recover", "--config", cfg, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_recover_weighted_must_be_a_bool(tmp_path, capsys, monkeypatch, value):
    # bool("false") is True: the run used to weigh and record "weighted": true
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("ripl_lab.cli.exact_recovery_experiment", no_trials)
    config = {"operator": "fourier-haar", "N": 16, "m": [2, 2, 4, 8], "s": [1, 1, 1, 1],
              "trials": 1, "seed": 1, "weighted": value}
    cfg = _write_config(tmp_path, "rec.json", config)
    out = tmp_path / "o"
    assert main(["recover", "--config", cfg, "--out", str(out)]) == 1
    assert f"error: weighted must be true or false, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("max_supports", True, "max_supports must be an integer >= 1, got True"),
        ("max_supports", 0, "max_supports must be an integer >= 1, got 0"),
        ("max_supports", 1e6, "max_supports must be an integer >= 1, got 1000000.0"),
        ("mc_trials", 2.7, "mc_trials must be an integer >= 1, got 2.7"),
        ("mc_trials", 0, "mc_trials must be an integer >= 1, got 0"),
        ("mc_trials", "5", "mc_trials must be an integer >= 1, got '5'"),
        ("per_support_csv", "false", "per_support_csv must be true or false, got 'false'"),
        ("per_support_csv", 1, "per_support_csv must be true or false, got 1"),
    ],
    ids=["supports-bool", "supports-zero", "supports-float", "mc-float", "mc-zero", "mc-str",
         "csv-str", "csv-int"],
)
def test_certify_bad_scalar_fails_before_scheme(tmp_path, capsys, monkeypatch, key, value, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a scheme was drawn or certified")

    monkeypatch.setattr("ripl_lab.cli.draw_scheme", no_work)
    monkeypatch.setattr("ripl_lab.cli.certify_recovery", no_work)
    config = {"operator": "fourier-haar", "N": 16, "m": [2, 2, 4, 8], "r0": 4,
              "s": [1, 1, 1, 1], "seed": 7, key: value}
    cfg = _write_config(tmp_path, "cert.json", config)
    out = tmp_path / "o"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("c, shown", [(float("nan"), "nan"), (float("inf"), "inf"),
                                      (0, "0.0"), (-1, "-1.0")],
                         ids=["nan", "inf", "zero", "negative"])
def test_allocate_rejects_bad_constant(tmp_path, capsys, c, shown):
    # json writes the bare NaN / Infinity tokens, which Python's json reads back
    cfg = _write_config(tmp_path, "alloc.json", {"s": [1, 1, 2], "C": c})
    out = tmp_path / "o"
    assert main(["allocate", "--config", cfg, "--out", str(out)]) == 1
    assert f"error: C must be a finite number > 0, got {shown}" in capsys.readouterr().err
    assert not out.exists()

def test_debug_flag_reraises(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {"operator": "walsh", "N": 8})
    argv = ["coherence", "--config", cfg, "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert "error: unknown operator 'walsh'" in capsys.readouterr().err
    with pytest.raises(ValueError, match="unknown operator 'walsh'"):
        main([*argv, "--debug"])
    assert capsys.readouterr().err == ""


def _no_dense_fourier_haar(n):
    raise AssertionError("the dense Fourier-Haar matrix was built")


@pytest.mark.parametrize("levels", [
    {},
    {"sampling_boundaries": [0, 3, 20, 64], "sparsity_boundaries": [0, 1, 9, 33, 64]},
], ids=["dyadic", "custom"])
def test_fourier_haar_coherence_never_builds_u(tmp_path, monkeypatch, levels):
    monkeypatch.setattr("ripl_lab.cli.fourier_haar_matrix", _no_dense_fourier_haar)
    cfg = _write_config(tmp_path, "c.json", {"operator": "fourier-haar", "N": 64, **levels})
    out = tmp_path / "o"
    assert main(["coherence", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    summary = json.loads((out / "coherence_summary.json").read_text())
    expected = levels.get("sampling_boundaries", [0, 2, 4, 8, 16, 32, 64])
    assert summary["profile"]["sampling_boundaries"] == expected
    assert summary["config"]["sampling_boundaries"] == expected


def test_general_allocation_never_builds_u(tmp_path, monkeypatch):
    monkeypatch.setattr("ripl_lab.cli.fourier_haar_matrix", _no_dense_fourier_haar)
    cfg = _write_config(tmp_path, "a.json", {"s": [1, 1, 2, 2, 3, 3], "modes": ["general"]})
    assert main(["allocate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("n, message", [
    (3, "N must be a power of two >= 2, got 3"),
    (8192, "dense construction capped at N = 4096"),
])
def test_fourier_haar_coherence_checks_n(tmp_path, capsys, n, message):
    cfg = _write_config(tmp_path, "c.json", {"operator": "fourier-haar", "N": n})
    out = tmp_path / "o"
    assert main(["coherence", "--config", cfg, "--out", str(out)]) == 1
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


@pytest.mark.parametrize("command, config, got", [
    # the Gaussian baseline used to run every trial at N = 9 and record N = 8
    ("recover", {"operator": "gaussian", "N": 8, "sparsity_boundaries": [0, 4, 9],
                 "s": [1, 1], "m_total": 6, "trials": 1, "seed": 1}, "sampling 8 and sparsity 9"),
    ("coherence", {"operator": "dft", "N": 16, "sampling_boundaries": [0, 8]},
     "sampling 8 and sparsity 16"),
    ("certify", {"operator": "fourier-haar", "N": 16, "sparsity_boundaries": [0, 4, 8],
                 "m": [2, 2, 4, 8], "s": [1, 1], "seed": 1}, "sampling 16 and sparsity 8"),
], ids=["gaussian-recover", "dft-coherence", "fh-certify"])
def test_level_boundaries_must_end_at_n(tmp_path, capsys, command, config, got):
    cfg = _write_config(tmp_path, "c.json", config)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    n = config["N"]
    assert f"error: level boundaries must end at N = {n}, got {got}" in capsys.readouterr().err
    assert not out.exists()


def test_allocate_repeated_mode_fails(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "alloc.json", {"s": [1, 1, 2], "modes": ["haar-uniform", "haar-uniform"]}
    )
    out = tmp_path / "o"
    assert main(["allocate", "--config", cfg, "--out", str(out)]) == 1
    assert "error: allocation mode 'haar-uniform' given twice" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("command", sorted(_PINNED_RUNS))
def test_pinned_runs_write_plain_cells(tmp_path, command):
    # every table cell reaches the writer as a plain Python value: a numpy
    # integer or bool would stop json.dumps, a numpy float's repr reads np.float64(...)
    payload, _, summary_name, _ = _PINNED_RUNS[command]
    cfg = _write_config(tmp_path, "c.json", payload)
    for fmt in ("json", "csv"):
        out = tmp_path / fmt
        assert main([command, "--config", cfg, "--out", str(out), "--format", fmt]) == 0
        for path in (p for p in out.iterdir() if p.name != summary_name):
            if fmt == "json":
                for record in json.loads(path.read_text()):
                    assert all(type(v) in (int, float, bool, str) for v in record.values())
            else:
                assert "np." not in path.read_text(), path.name


def test_zero_budget_level_warns_once(tmp_path):
    # the infinite sparsity ratio of a zero-budget level is one cause with one
    # warning, from the recovery threshold; recover never takes the threshold
    base = {"operator": "fourier-haar", "N": 16, "m": [2, 2, 4, 8], "r0": 4,
            "s": [1, 0, 1, 1], "seed": 7}
    runs = {"certify": base, "recover": dict(base, trials=2)}
    caught = {}
    for command, payload in runs.items():
        cfg = _write_config(tmp_path, f"{command}.json", payload)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        caught[command] = [str(w.message) for w in seen if w.category is RuntimeWarning]
    assert caught == {
        "certify": ["infinite sparsity ratio: recovery threshold degenerates to 0"],
        "recover": [],
    }


_BASE_CONFIGS = {
    "coherence": {"operator": "fourier-haar", "N": 16},
    "certify": {"operator": "fourier-haar", "N": 16, "m": [2, 2, 4, 8], "r0": 2,
                "s": [1, 1, 1, 1], "seed": 7},
    "recover": {"operator": "fourier-haar", "N": 16, "m": [2, 2, 4, 8], "r0": 2,
                "s": [1, 1, 1, 1], "trials": 1, "seed": 7},
    "gaussian-recover": {"operator": "gaussian", "N": 16, "s": [1], "m_total": 8,
                         "trials": 1, "seed": 7},
    "allocate": {"s": [1, 1, 2], "r0": 0},
}


@pytest.mark.parametrize("base, key, value, message", [
    ("certify", "r0", 2.7, "r0 must be an integer >= 0, got 2.7"),
    ("certify", "s", [1.5, 1, 1, 1], "s must be an integer >= 0, got 1.5"),
    ("coherence", "N", 16.9, "N must be an integer >= 0, got 16.9"),
    ("recover", "m", [2, 2, 4.9, 8], "m must be an integer >= 0, got 4.9"),
    ("coherence", "sampling_boundaries", [0, 7.5, 16],
     "sampling_boundaries must be an integer >= 0, got 7.5"),
    ("gaussian-recover", "m_total", 9.7, "m_total must be an integer >= 1, got 9.7"),
    ("certify", "seed", 7.9, "seed must be an integer >= 0, got 7.9"),
    ("recover", "seed", 7.9, "seed must be an integer >= 0, got 7.9"),
    ("recover", "r0", True, "r0 must be an integer >= 0, got True"),
    ("allocate", "s", [1, "1", 2], "s must be an integer >= 0, got '1'"),
    ("allocate", "r0", 1.0, "r0 must be an integer >= 0, got 1.0"),
])
def test_integer_keys_must_be_json_integers(tmp_path, capsys, base, key, value, message):
    # int() used to truncate each of these and record the truncated value
    cfg = _write_config(tmp_path, "c.json", dict(_BASE_CONFIGS[base], **{key: value}))
    out = tmp_path / "o"
    assert main([base.removeprefix("gaussian-"), "--config", cfg, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("base, block, key, value", [
    ("allocate", None, "C", "0.5"),
    ("allocate", None, "C", True),
    ("allocate", None, "eps", [0.5]),
    ("recover", "allocation", "delta", "0.5"),
])
def test_allocation_constants_must_be_json_numbers(tmp_path, capsys, base, block, key, value):
    # float() used to take "0.5" as 0.5 and true as 1.0
    config = dict(_BASE_CONFIGS[base])
    if block is None:
        config[key] = value
    else:
        config.pop("m")
        config[block] = {"mode": "haar-uniform", key: value}
    cfg = _write_config(tmp_path, "c.json", config)
    out = tmp_path / "o"
    assert main([base, "--config", cfg, "--out", str(out)]) == 1
    assert f"error: {key} must be a number, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


def _without(base, key):
    config = dict(_BASE_CONFIGS[base])
    del config[key]
    return config


@pytest.mark.parametrize("command, config, message", [
    ("certify", _without("certify", "s"), "config needs key 's'"),
    ("certify", _without("certify", "m"), "config needs key 'm'"),
    ("recover", _without("recover", "s"), "config needs key 's'"),
    ("allocate", _without("allocate", "s"), "config needs key 's'"),
    ("coherence", {"operator": "file"}, "config needs key 'path'"),
    ("coherence", {"operator": "file", "path": ["u.bin"]},
     "path must be a JSON string, got ['u.bin']"),
    ("allocate", dict(_BASE_CONFIGS["allocate"], modes="general"),
     "modes must be a JSON list, got 'general'"),
    ("recover", dict(_BASE_CONFIGS["recover"], s=5), "s must be a JSON list, got 5"),
    ("certify", dict(_BASE_CONFIGS["certify"], s="1111"), "s must be a JSON list, got '1111'"),
    ("certify", dict(_BASE_CONFIGS["certify"], m=8), "m must be a JSON list, got 8"),
    ("coherence", dict(_BASE_CONFIGS["coherence"], sampling_boundaries="0,16"),
     "sampling_boundaries must be a JSON list, got '0,16'"),
    ("coherence", dict(_BASE_CONFIGS["coherence"], sparsity_boundaries=16),
     "sparsity_boundaries must be a JSON list, got 16"),
    ("recover", dict(_BASE_CONFIGS["recover"], solver=[1]), "solver must be a JSON object, got [1]"),
    ("recover", dict(_without("recover", "m"), allocation=[1]),
     "allocation must be a JSON object, got [1]"),
], ids=["certify-no-s", "certify-no-m", "recover-no-s", "allocate-no-s", "file-no-path",
        "path-list", "modes-str", "s-int", "s-str", "m-int", "sampling-str", "sparsity-int", "solver-list",
        "allocation-list"])
def test_malformed_config_names_the_key(tmp_path, capsys, command, config, message):
    # these used to fail with Python's own text: 's', 'int' object is not
    # iterable, unknown allocation mode 'g', 'list' object has no attribute 'get'
    cfg = _write_config(tmp_path, "c.json", config)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_recover_unknown_magnitude_model_fails_before_the_operator(tmp_path, capsys, monkeypatch):
    # recover used to build U and draw the first trial's scheme before failing
    def no_operator(*args, **kwargs):
        raise AssertionError("the operator was built")

    monkeypatch.setattr("ripl_lab.cli.resolve_operator", no_operator)
    cfg = _write_config(tmp_path, "c.json", dict(_BASE_CONFIGS["recover"], magnitude_model="gauss"))
    out = tmp_path / "o"
    assert main(["recover", "--config", cfg, "--out", str(out)]) == 1
    assert "error: unknown magnitude model 'gauss'" in capsys.readouterr().err
    assert not out.exists()


def test_recover_file_operator_must_be_an_isometry(tmp_path, capsys, monkeypatch):
    # the solver takes ||A|| in closed form from the scheme, which needs orthonormal rows
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("ripl_lab.cli.exact_recovery_experiment", no_trials)
    save_matrix(tmp_path / "scaled.bin", 2 * dft_matrix(16))  # ||A|| twice the closed form
    save_matrix(tmp_path / "wide.bin", dft_matrix(16)[:8])
    for name in ("scaled.bin", "wide.bin"):
        path = str(tmp_path / name)
        cfg = _write_config(tmp_path, "c.json", {"operator": "file", "path": path, "m": [8],
                                                 "s": [2], "trials": 2, "seed": 1})
        out = tmp_path / "o"
        assert main(["recover", "--config", cfg, "--out", str(out)]) == 1
        assert (f"error: recover needs the file operator to be a square isometry; {path} is not"
                in capsys.readouterr().err)
        assert not out.exists()


def test_recover_file_operator_replays_the_named_isometry(tmp_path):
    save_matrix(tmp_path / "u.bin", dft_matrix(16))
    trials = {}
    for name, extra in (("dft", {}), ("file", {"path": str(tmp_path / "u.bin")})):
        cfg = _write_config(tmp_path, f"{name}.json", {"operator": name, "N": 16, "m": [8],
                                                       "s": [2], "trials": 3, "seed": 1, **extra})
        out = tmp_path / name
        assert main(["recover", "--config", cfg, "--out", str(out)]) == 0
        trials[name] = (out / "trials.csv").read_text()
    assert trials["file"] == trials["dft"]


def test_recover_m_with_an_allocation_block_fails(tmp_path, capsys, monkeypatch):
    def no_operator(*args, **kwargs):
        raise AssertionError("the operator was built")

    monkeypatch.setattr("ripl_lab.cli.resolve_operator", no_operator)
    config = dict(_BASE_CONFIGS["recover"], allocation={"mode": "haar-uniform", "C": 0.01})
    cfg = _write_config(tmp_path, "c.json", config)
    out = tmp_path / "o"
    assert main(["recover", "--config", cfg, "--out", str(out)]) == 1
    assert ("error: recover config takes either m or an allocation block, not both"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["coherence", "certify", "recover", "allocate"])
@pytest.mark.parametrize("config", [[1], "fourier-haar", 16, None])
def test_config_must_be_a_json_object(tmp_path, capsys, command, config):
    # a list used to fail with 'list' object has no attribute 'get' (coherence)
    # or config needs key 's' (allocate)
    cfg = _write_config(tmp_path, "c.json", config)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert f"error: the config must be a JSON object, got {config!r}" in capsys.readouterr().err
    assert not out.exists()
