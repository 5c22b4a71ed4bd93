import json

import pytest

from mmwave_tdoa.cli import main
from mmwave_tdoa.errors import SimulationError

TINY_CFG = {
    "n_positions": 2,
    "n_runs": 2,
    "seed": 11,
    "mq_pairs": [[10, 2]],
    "sampling_rates": [600e9],
}


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY_CFG))
    return path


def test_validate_config_ok(cfg_path, capsys):
    assert main(["validate-config", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "config OK" in out
    assert "alpha=1000" in out


def test_validate_config_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY_CFG, "t_ob": 1e-9}))
    assert main(["validate-config", "--config", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, field",
    [
        ({"mq_pairs": [[2, 11], [4, 5]]}, "mq_pairs"),  # both alpha = 4096
        ({"sampling_rates": [600e9, 300e9, 600e9]}, "sampling_rates"),
        ({"toa_position": [5.0, 5.0]}, "toa_position"),
    ],
)
def test_validate_config_rejects_colliding_or_outside_points(tmp_path, capsys, override, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY_CFG, **override}))
    assert main(["validate-config", "--config", str(bad)]) == 2
    assert field in capsys.readouterr().err


def test_simulate_toa_without_bank_fails_before_propagating(
    cfg_path, tmp_path, monkeypatch, capsys
):
    def no_propagation(*args, **kwargs):
        raise AssertionError("propagate called before the bank check")

    monkeypatch.setattr("mmwave_tdoa.harness.propagate", no_propagation)
    out = tmp_path / "toa"
    argv = ["simulate-toa", "--config", str(cfg_path), "--out", str(out), "--estimator", "sampling"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "estimator" in err and "mq_pairs" in err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["validate-config", "--config", str(tmp_path / "nope.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_simulate_tdoa_writes_outputs(cfg_path, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate-tdoa", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "trials.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "run_meta.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 11
    assert len(summary["results"]) == 2
    header = (out / "trials.csv").read_text().splitlines()[0]
    assert header.startswith("estimator,alpha,f_s_hz,position_index,run_index")


def test_simulate_tdoa_deterministic_bytes(cfg_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate-tdoa", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["simulate-tdoa", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_sweep_matches_simulate_tdoa_bytes(cfg_path, tmp_path):
    out_a, out_b = tmp_path / "tdoa", tmp_path / "sweep"
    assert main(["simulate-tdoa", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_estimator_and_seed_overrides(cfg_path, tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "simulate-tdoa",
            "--config",
            str(cfg_path),
            "--out",
            str(out),
            "--estimator",
            "ctma",
            "--seed",
            "99",
            "--no-noise",
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 99
    assert summary["config"]["noise"] is False
    assert [r["estimator"] for r in summary["results"]] == ["ctma"]


def test_sweep_writes_table(cfg_path, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--dump-traces"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "estimator,alpha,f_s_hz,aede_m,n_trials,runtime_s"
    assert len(lines) == 3
    assert len(list((out / "traces").iterdir())) == 3


def test_simulate_toa_writes_table(cfg_path, tmp_path):
    out = tmp_path / "toa"
    assert main(["simulate-toa", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "toa_vs_alpha.csv").read_text().splitlines()
    assert lines[0].startswith("alpha,branches,stages,bs,run_index,tau_hat_s")
    assert len(lines) == 1 + 2 * 3  # header + runs x receivers for one bank


@pytest.mark.parametrize("command", ["simulate-tdoa", "simulate-toa"])
def test_dump_traces_flag(cfg_path, tmp_path, command):
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg_path), "--out", str(out), "--dump-traces"]) == 0
    assert len(list((out / "traces").iterdir())) == 3


def test_runtime_failure_maps_to_exit_3(cfg_path, tmp_path, monkeypatch, capsys):
    def boom(cfg, dump_dir=None):
        raise SimulationError("numeric blow-up")

    monkeypatch.setattr("mmwave_tdoa.cli.run_experiment", boom)
    code = main(["simulate-tdoa", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 3
    assert "simulation error" in capsys.readouterr().err
