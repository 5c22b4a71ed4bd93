import dataclasses
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwave_tdoa import C0, PulseSpec, generate_pulse, harness
from mmwave_tdoa.cli import main
from mmwave_tdoa.harness import ExperimentConfig, TrialResult

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


def _with_fields(path: Path, **fields) -> Path:
    """A copy of the config file at path, beside it, with fields set."""
    copy = path.with_name(f"with_{path.name}")
    copy.write_text(json.dumps({**json.loads(path.read_text()), **fields}))
    return copy


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-tdoa", "--out", "x"],
        ["validate-config"],
        ["sweep", "--config", "configs/desk_sweep.json", "--seed", "3"],
        ["simulate-tdoa", "--config", "configs/desk_sweep.json", "--estimator", "ctma"],
        ["simulate-toa", "--config", "configs/desk_sweep.json", "--no-noise"],
    ],
)
def test_a_run_without_a_config_or_with_a_field_flag_is_a_usage_error(capsys, argv):
    """The config file is a run's one input: every command needs one, and
    no flag sets a config field."""
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mmwave-tdoa ") and "Traceback" not in err


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"seed": 1, "n_runs": 1, "seed": 2}', "seed"),
        ('{"n_runs": 1, "species_fractions": {"H2O": 0.5, "O2": 0.2, "H2O": 0.1}}', "H2O"),
    ],
    ids=["top-level", "species_fractions"],
)
@pytest.mark.parametrize("command", ["validate-config", "simulate-tdoa"])
def test_a_config_naming_a_key_twice_exits_2_naming_it(tmp_path, capsys, command, text, key):
    """JSON would keep the last value; a config that names a key twice is
    refused instead, in any object. Written as text, since json.dumps
    cannot repeat a key."""
    path = tmp_path / "twice.json"
    path.write_text(text)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"configuration error: config {path} names {key!r} twice\n"


def test_validate_config_ok(cfg_path, capsys):
    assert main(["validate-config", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "config OK" in out
    assert "alpha=1000" in out


@pytest.mark.parametrize("command", ["validate-config", "simulate-toa"])
def test_commands_that_use_no_drawn_position_draw_none(cfg_path, tmp_path, monkeypatch, command):
    def refuse(*args):
        raise AssertionError("no position is drawn")

    monkeypatch.setattr(harness, "_draw_positions", refuse)
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0


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
        ({"toa_position": [0, 0]}, "toa_position"),  # on a receiver
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
    path = _with_fields(cfg_path, estimator="sampling")
    assert main(["simulate-toa", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "estimator" in err and "mq_pairs" in err


def test_an_infinite_noise_power_exits_2_naming_it(cfg_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "noise_variance", lambda *args: math.inf)
    argv = ["simulate-tdoa", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "noise power must be finite" in capsys.readouterr().err


# A received pulse must start inside the window: every path must be longer
# than c0 times the pulse's lead before its time origin (4.45 mm here).
NEAR_EDGE_CONFIGS = [
    {"guard_radius": 0.0, "toa_position": [0.002, 0.002]},
    {"guard_radius": 0.001, "toa_position": [0.002, 0.0]},  # 2 mm from a receiver
]


@pytest.mark.parametrize("override", NEAR_EDGE_CONFIGS)
def test_near_edge_of_the_window_names_guard_radius_before_propagating(
    tmp_path, monkeypatch, capsys, override
):
    def no_propagation(*args, **kwargs):
        raise AssertionError("propagate called before the window check")

    monkeypatch.setattr("mmwave_tdoa.harness.propagate", no_propagation)
    path = tmp_path / "cfg.json"
    cfg = {**TINY_CFG, "estimator": "ctma", "sampling_rates": [], **override}
    path.write_text(json.dumps(cfg))
    for command in ("validate-config", "simulate-toa"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "guard_radius" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["validate-config", "--config", str(tmp_path / "nope.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


# Inputs that no parser can read, as (config, absorption table bytes or
# None). A dict config is written as JSON over TINY_CFG, and given the
# table's path as absorption_path when there is a table.
UNREADABLE_INPUTS = {
    "config-not-utf8": (b'{"n_runs": 1, "toa_mode": "\xff"}', None),
    "config-nested-100000-deep": (b"[" * 100_000 + b"]" * 100_000, None),
    "table-not-utf8": ({}, b"frequency_hz,k_per_m\n5e10,0.01\n\xff,0.01\n5e11,0.01\n"),
    "table-cell-over-the-csv-field-limit": (
        {},
        b"frequency_hz,k_per_m\n5e10,0.01\n5e11," + b"1" * 200_000 + b"\n",
    ),
    "empty-absorption-path": ({"absorption_path": ""}, None),
    "config-not-json": (b'{"n_runs": 1,}', None),
    "config-a-json-array": (b"[1, 2]", None),
    "table-empty": ({}, b""),
    "table-species-on-different-grids": (
        {"species_fractions": {"H2O": 0.5, "O2": 0.5}},
        b"frequency_hz,species,k_per_m\n5e10,H2O,0.01\n5e11,H2O,0.01\n"
        b"5e10,O2,0.01\n4e11,O2,0.01\n5e11,O2,0.01\n",
    ),
}


@pytest.mark.parametrize("command", ["validate-config", "simulate-tdoa"])
@pytest.mark.parametrize("case", list(UNREADABLE_INPUTS))
def test_an_unreadable_input_exits_2_naming_its_file_or_field(tmp_path, capsys, command, case):
    config, table = UNREADABLE_INPUTS[case]
    if isinstance(config, dict):
        config = {**TINY_CFG, "n_positions": 1, "n_runs": 1, **config}
        if table is not None:
            (tmp_path / "k.csv").write_bytes(table)
            config["absorption_path"] = str(tmp_path / "k.csv")
        config = json.dumps(config).encode()
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_bytes(config)
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    if case == "config-a-json-array":  # the rule is named, not the file
        assert "a config must be a JSON object" in err
    else:
        assert (str(cfg_file) if case.startswith("config") else "error: absorption_path: ") in err


def test_simulate_tdoa_writes_outputs(cfg_path, tmp_path, one_shard):
    out = tmp_path / "run"
    assert main(["simulate-tdoa", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "trials.csv").exists()
    assert (out / "summary.json").exists()
    meta = json.loads((out / "run_meta.json").read_text())
    assert set(meta) == {"wall_time_s", "stage_s", "point_s", "trial_run_shards", "numpy_version"}
    assert meta["trial_run_shards"] == 1
    assert set(meta["stage_s"]) == {"propagate", "ctma", "sampling"}
    assert all(seconds > 0.0 for seconds in meta["stage_s"].values())
    # On one shard; the stage times of shards run at once add up past it.
    assert sum(meta["stage_s"].values()) <= meta["wall_time_s"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 11
    assert len(summary["results"]) == 2
    header = (out / "trials.csv").read_text().splitlines()[0]
    assert header == (
        "estimator,alpha,f_s_hz,position_index,run_index,true_x_m,true_y_m,"
        "est_x_m,est_y_m,tau1_s,tau2_s,tau3_s,error_m"
    )


def test_trials_csv_columns_are_the_trial_record_fields(cfg_path, tmp_path):
    out = tmp_path / "run"
    assert main(["simulate-tdoa", "--config", str(cfg_path), "--out", str(out)]) == 0
    header = (out / "trials.csv").read_text().splitlines()[0]
    assert header.split(",") == [f.name for f in dataclasses.fields(TrialResult)]


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
    for out in (out_a, out_b):
        assert sorted(path.name for path in out.iterdir()) == [
            "run_meta.json",
            "summary.json",
            "trials.csv",
        ]


def test_the_summary_config_echo_reruns_to_the_same_bytes(cfg_path, tmp_path):
    """summary.json echoes the whole config: written back out as a config
    file, it gives the same trials.csv and summary.json, byte for byte."""
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["simulate-tdoa", "--config", str(cfg_path), "--out", str(first)]) == 0
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(json.loads((first / "summary.json").read_text())["config"]))
    assert main(["simulate-tdoa", "--config", str(echo), "--out", str(second)]) == 0
    for name in ("trials.csv", "summary.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def _point_seconds_of(meta: dict, family: str) -> float:
    return sum(point["seconds"] for point in meta["point_s"] if point["estimator"] == family)


def test_sweep_writes_each_points_seconds_to_run_meta(cfg_path, tmp_path):
    """run_meta.json times every sweep point alone; its family's stage holds
    those seconds and the shared stage besides."""
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--dump-traces"]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    results = json.loads((out / "summary.json").read_text())["results"]
    points = [(p["estimator"], p["alpha"], p["f_s_hz"]) for p in meta["point_s"]]
    assert len(points) == len(results) == 2
    assert set(points) == {(r["estimator"], r["alpha"], r["f_s_hz"]) for r in results}
    assert all(point["seconds"] > 0.0 for point in meta["point_s"])
    for family in ("ctma", "sampling"):
        assert meta["stage_s"][family] >= _point_seconds_of(meta, family)
    assert len(list((out / "traces").iterdir())) == 3


def test_simulate_toa_writes_table(cfg_path, tmp_path):
    out = tmp_path / "toa"
    assert main(["simulate-toa", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "toa_vs_alpha.csv").read_text().splitlines()
    assert lines[0].startswith("alpha,branches,stages,bs,run_index,tau_hat_s")
    assert len(lines) == 1 + 2 * 3  # header + runs x receivers for one bank


def test_simulate_toa_table_ignores_toa_mode(tmp_path):
    """toa_vs_alpha.csv always reports energy-peak TOAs with peak_offset_s."""
    tables = []
    for toa_mode in ("peak", "start-corrected"):
        path = tmp_path / f"{toa_mode}.json"
        path.write_text(json.dumps({**TINY_CFG, "noise": False, "toa_mode": toa_mode}))
        out = tmp_path / toa_mode
        assert main(["simulate-toa", "--config", str(path), "--out", str(out)]) == 0
        tables.append((out / "toa_vs_alpha.csv").read_bytes())
    assert tables[0] == tables[1]


def test_simulate_toa_writes_run_meta(cfg_path, tmp_path, one_shard):
    out = tmp_path / "toa"
    assert main(["simulate-toa", "--config", str(cfg_path), "--out", str(out)]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    stage_s = meta["stage_s"]
    assert stage_s["propagate"] > 0.0 and stage_s["ctma"] > 0.0
    assert stage_s["sampling"] == 0.0
    assert [(p["estimator"], p["alpha"], p["f_s_hz"]) for p in meta["point_s"]] == [
        ("ctma", 1000, None)
    ]
    assert stage_s["ctma"] >= _point_seconds_of(meta, "ctma") > 0.0
    # On one shard; the stage times of shards run at once add up past it.
    assert sum(stage_s.values()) <= meta["wall_time_s"]


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize(
    "table, fractions",
    [
        ("frequency_hz,k_per_m\n5e10,0.01\n2e11,{bad}\n5e11,0.01\n", None),
        ("frequency_hz,species,K_per_m\n5e10,H2O,1\n2e11,H2O,{bad}\n5e11,H2O,1\n", {"H2O": 0.01}),
    ],
    ids=["summed", "per-species"],
)
@pytest.mark.parametrize("command", ["validate-config", "simulate-tdoa"])
def test_non_finite_absorption_is_a_config_error_naming_its_row(
    tmp_path, capsys, command, table, fractions, bad
):
    path = tmp_path / "k.csv"
    path.write_text(table.format(bad=bad))
    cfg = {**TINY_CFG, "n_positions": 1, "n_runs": 1, "absorption_path": str(path)}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({**cfg, "species_fractions": fractions}))
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 2
    assert "row 3: non-finite" in capsys.readouterr().err


@pytest.fixture()
def narrow_band_cfg(tmp_path):
    """A band narrower than the pulse PSD's 305 MHz bin spacing."""
    path = tmp_path / "narrow.json"
    cfg = {**TINY_CFG, "n_positions": 1, "n_runs": 1, "band": [100e9, 100.1e9]}
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("command", ["validate-config", "simulate-tdoa"])
def test_a_band_without_pulse_power_names_band_without_a_warning(
    narrow_band_cfg, tmp_path, capsys, command
):
    argv = [command, "--config", str(narrow_band_cfg), "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert "configuration error: band: " in capsys.readouterr().err


def test_a_band_without_pulse_power_runs_without_noise(narrow_band_cfg, tmp_path):
    path = _with_fields(narrow_band_cfg, noise=False)
    argv = ["simulate-tdoa", "--config", str(path), "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0


# Receiver bands whose rfft bins on the trace grid do not keep the share
# 2 (f2 - f1) step of the noise power that the noise is scaled by.
OFF_GRID_BANDS = {
    "above-nyquist": {"band": [100e9, 12e12]},
    "above-nyquist-at-0.2-ps": {"band": [100e9, 3e12], "step": 2e-13},
    "no-bin": {
        "layout_size": 0.1,
        "t_ob": 1e-9,
        "toa_position": [0.05, 0.05],
        "mq_pairs": [[2, 9]],
        "band": [200e9, 200.7e9],
    },
}


@pytest.fixture(params=list(OFF_GRID_BANDS))
def off_grid_band_cfg(request, tmp_path):
    cfg = {"n_positions": 1, "n_runs": 1, **OFF_GRID_BANDS[request.param]}
    if request.param != "no-bin":
        table = tmp_path / "flat.csv"
        table.write_text("frequency_hz,k_per_m\n5e10,0.01\n4e13,0.01\n")
        cfg["absorption_path"] = str(table)
    path = tmp_path / "off_grid.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("command", ["validate-config", "simulate-tdoa"])
def test_a_band_the_trace_grid_cannot_carry_names_band(
    off_grid_band_cfg, tmp_path, capsys, command
):
    argv = [command, "--config", str(off_grid_band_cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "configuration error: band: " in capsys.readouterr().err


def test_a_band_the_trace_grid_cannot_carry_runs_without_noise(off_grid_band_cfg, tmp_path):
    path = _with_fields(off_grid_band_cfg, noise=False)
    assert main(["simulate-tdoa", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["simulate-tdoa", "simulate-toa"])
def test_dump_traces_flag(cfg_path, tmp_path, command):
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg_path), "--out", str(out), "--dump-traces"]) == 0
    assert len(list((out / "traces").iterdir())) == 3


def test_out_naming_an_existing_file_is_a_config_error(cfg_path, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["simulate-tdoa", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: --out" in err and str(out) in err


@pytest.mark.parametrize("command", ["simulate-tdoa", "simulate-toa"])
def test_dump_traces_into_a_file_is_a_config_error(cfg_path, tmp_path, capsys, command):
    out = tmp_path / "run"
    out.mkdir()
    (out / "traces").write_text("")
    argv = [command, "--config", str(cfg_path), "--out", str(out), "--dump-traces"]
    assert main(argv) == 2
    assert "configuration error: --dump-traces" in capsys.readouterr().err


@pytest.mark.parametrize("toa_mode", ["peak", "start-corrected"])
def test_a_bank_too_coarse_to_localize_names_mq_pairs(tmp_path, capsys, toa_mode):
    """A (2, 0) bank puts every noiseless TOA at 0 or 5 ns, and a reference
    TOA of 0 lies below the peak offset under either toa_mode; with noise
    any slot can win, so only the run finds it."""
    path = tmp_path / "coarse.json"
    cfg = {"mq_pairs": [[2, 0]], "estimator": "ctma", "noise": False, "n_positions": 2,
           "n_runs": 1, "toa_mode": toa_mode}
    path.write_text(json.dumps(cfg))
    assert main(["validate-config", "--config", str(path)]) == 0
    assert main(["simulate-tdoa", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error: mq_pairs (alpha 2), position 0, run 0: " in err
    assert "Traceback" not in err


def test_a_sampling_toa_too_early_to_localize_names_sampling_rates(
    cfg_path, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(
        "mmwave_tdoa.harness.sampling_toas", lambda trace, t_p, rates: [0.0] * len(rates)
    )
    path = _with_fields(cfg_path, estimator="sampling")
    assert main(["simulate-tdoa", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error: sampling_rates (6e+11 Hz), position 0, run 0: " in err
    assert "Traceback" not in err


def test_simulate_tdoa_propagates_each_trace_once_with_its_seed(
    tmp_path, monkeypatch, one_shard
):
    """The hooks the benchmark tracer relies on: one `harness.propagate` call
    per (position, run, receiver) in loop order, each with the seed
    SeedSequence([seed, position, run, receiver]), and one windowed-energy
    peak per trace however many banks share it."""
    from mmwave_tdoa import harness

    seeds, peaks = [], []
    real_propagate, real_peak = harness.propagate, harness.energy_peak

    def propagate(*args, seed, **kwargs):
        seeds.append(list(seed.entropy))
        return real_propagate(*args, seed=seed, **kwargs)

    def energy_peak(*args, **kwargs):
        peaks.append(len(seeds))
        return real_peak(*args, **kwargs)

    monkeypatch.setattr(harness, "propagate", propagate)
    monkeypatch.setattr(harness, "energy_peak", energy_peak)
    cfg = {**TINY_CFG, "n_runs": 3, "mq_pairs": [[10, 2], [12, 2]]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate-tdoa", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    order = [[11, p, r, b] for p in range(2) for r in range(3) for b in range(3)]
    assert seeds == order
    # Each trace's peak is found right after its own propagate call.
    assert peaks == list(range(1, 19))


@pytest.mark.parametrize(
    "override, field",
    [
        ({"n_runs": "3"}, "n_runs"),
        ({"mq_pairs": [[2, "x"]]}, "mq_pairs"),
        ({"band": [1e11]}, "band"),
        ({"seed": -1}, "seed"),
        ({"step": "5e-14"}, "step"),
        ({"n_runs": 2.5}, "n_runs"),
        ({"sampling_rates": [math.nan]}, "sampling_rates"),
        ({"n_positions": True}, "n_positions"),
        ({"guard_radius": 1.5}, "guard_radius"),
        ({"absorption_path": "missing.csv"}, "absorption table"),
        ({"species_fractions": {"H2O": 0.5}}, "species_fractions"),  # summed table
        ({"t_ob": 0.0}, "t_ob"),
        ({"t_ob": -1e-8}, "t_ob"),
        ({"species_fractions": {"H2O": -0.5}}, "species_fractions['H2O']"),
        ({"species_fractions": {"H2O": 1.5}}, "species_fractions['H2O']"),
    ],
)
def test_validate_config_rejects_malformed_field(tmp_path, capsys, override, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY_CFG, **override}))
    assert main(["validate-config", "--config", str(bad)]) == 2
    assert field in capsys.readouterr().err


DESK_CFG = {
    **json.loads((Path(__file__).parents[1] / "configs" / "desk_sweep.json").read_text()),
    "n_positions": 1,
    "n_runs": 1,
}


@pytest.mark.parametrize("command", ["validate-config", "simulate-tdoa"])
@pytest.mark.parametrize(
    "override, field",
    [
        ({"pulse_order": 149}, "pulse_order"),  # the unit pulse's squares overflow
        ({"pulse_order": 160}, "pulse_order"),
        ({"pulse_order": 300}, "pulse_order"),  # its Hermite values overflow
        ({"pulse_order": 0}, "pulse_order"),
        ({"pulse_order": -1}, "pulse_order"),
        ({"pulse_center_frequency": 0}, "pulse_center_frequency"),
        ({"pulse_power": 0}, "pulse_power"),
        ({"pulse_power": 1e-320}, "pulse_power"),  # the amplitude underflows to 0
        ({"pulse_power": 1e300}, "pulse_power"),  # the calibration LPF overflows
        ({"energy_fraction": 0.5}, "energy_fraction"),
        ({"energy_fraction": 1.0}, "energy_fraction"),
        ({"step": 1e-12}, "step"),  # above 1 / (20 f_c)
        ({"pulse_center_frequency": 5e12}, "step"),
        ({"mq_pairs": [[1, 3]]}, "mq_pairs"),
        ({"mq_pairs": [[2, -1]]}, "mq_pairs"),
        ({"mq_pairs": [[3, 40]]}, "mq_pairs"),
        ({"n_runs": 0}, "n_runs"),
        ({"n_positions": 0}, "n_positions"),
        # run_experiment draws every position before the first trace: it would never return
        ({"n_positions": 10**400}, "n_positions"),
        ({"layout_size": 0}, "layout_size"),
        ({"layout_size": -2}, "layout_size"),
        ({"band": [1e9, 3e11]}, "band"),  # beyond the absorption table
        ({"pulse_order": 10**400}, "pulse_order"),  # no float holds it
        ({"noise": 1}, "noise"),
        ({"absorption_path": 5}, "absorption_path"),
        ({"species_fractions": [1]}, "species_fractions"),
        ({"mq_pairs": [[2, 3, 4]]}, "mq_pairs"),
        ({"band": [3e11, 1e11]}, "band"),
        ({"sampling_rates": [-1.0]}, "sampling_rates"),
        ({"estimator": "nope"}, "estimator"),
        ({"estimator": "ctma", "mq_pairs": []}, "estimator"),
        ({"layout_size": 10**400}, "layout_size"),  # no float holds it
    ],
)
def test_a_bad_pulse_or_bank_field_exits_2_naming_it(
    tmp_path, capsys, command, override, field
):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**DESK_CFG, **override}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", str(bad), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"configuration error: {field}")
    assert "Traceback" not in err


@pytest.mark.parametrize("power", [1e-305, 1e-310])
def test_a_tiny_pulse_power_is_never_reported_as_band(tmp_path, capsys, power):
    """The band integral is taken on the pulse's shape at unit peak, so a
    pulse power whose own spectrum would underflow to zero is not reported
    as a band without pulse power."""
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({**DESK_CFG, "pulse_power": power}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["validate-config", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 0 or err.startswith("configuration error: pulse_power"), err
    assert "band" not in err


@pytest.mark.parametrize(
    "override, field",
    [
        ({"step": 5e-16}, "step"),  # 2e7 points over 10 ns
        ({"t_ob": 1e-6}, "t_ob"),  # 2e7 points at 0.05 ps
        ({"pulse_center_frequency": 1e8}, "pulse_center_frequency"),  # 59 ns support
    ],
)
def test_validate_config_bounds_the_grid_before_building_the_pulse(
    tmp_path, capsys, monkeypatch, override, field
):
    def no_pulse(*args, **kwargs):
        raise AssertionError("generate_pulse called before the grid check")

    monkeypatch.setattr("mmwave_tdoa.harness.generate_pulse", no_pulse)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY_CFG, **override}))
    assert main(["validate-config", "--config", str(bad)]) == 2
    assert field in capsys.readouterr().err


# Values for the fuzz test: each field's default scaled or shifted a little
# (so no draw asks for an unbounded grid or position count), or junk of any
# JSON type.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**30)]),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _near(default):
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-2, 2).map(lambda k: default + k)
    if isinstance(default, float):
        return st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]).map(lambda k: default * k)
    if isinstance(default, str):
        return st.sampled_from(["peak", "quadratic", "both", "ctma", "x", default])
    if isinstance(default, tuple):
        return st.lists(_near(default[0]) | JUNK, max_size=len(default) + 1)
    return st.none()


_DEFAULTS = ExperimentConfig()
FIELD_VALUES = {
    name: _near(getattr(_DEFAULTS, name)) | JUNK for name in ExperimentConfig.__dataclass_fields__
}
FIELD_VALUES["mq_pairs"] = st.lists(
    st.lists(st.integers(-1, 14) | st.sampled_from([10**12]) | JUNK, max_size=3), max_size=3
) | JUNK
FIELD_VALUES["absorption_path"] = st.sampled_from([None, "", "missing.csv", ".", 3])
FIELD_VALUES["species_fractions"] = st.none() | st.dictionaries(
    st.text(max_size=3), st.floats(0.0, 1.0) | JUNK, max_size=2
)
# guard_radius at 0 and at the floor the window's near edge sets (c0 times
# the default pulse's lead), and toa_position a few mm from a receiver.
DEFAULT_PULSE = generate_pulse(PulseSpec(order=2, center_frequency=200e9, power=1e-6))
GUARD_FLOOR = -C0 * DEFAULT_PULSE.start_time
FIELD_VALUES["guard_radius"] |= st.sampled_from([0.0, GUARD_FLOOR, 0.004, 0.005])
FIELD_VALUES["toa_position"] |= st.sampled_from(
    [[0.002, 0.002], [0.003, 0.0], [2.0, 0.004], [0.0, 1.997]]
)
# pulse_order and pulse_power over their whole range: a high order or an
# extreme power overflows or underflows the pulse arithmetic.
FIELD_VALUES["pulse_order"] = st.integers(0, 64) | JUNK
FIELD_VALUES["pulse_power"] = st.integers(-300, 300).map(lambda k: 10.0**k) | JUNK
FIELD_VALUES["bogus_key"] = st.integers()
CONFIGS = st.lists(st.sampled_from(sorted(FIELD_VALUES)), unique=True, max_size=6).flatmap(
    lambda keys: st.fixed_dictionaries({k: FIELD_VALUES[k] for k in keys})
)


# Well-typed values: each field's own JSON type, mostly in range, so most
# draws pass ExperimentConfig and reach the stages of prepare.
TYPED_VALUES = {
    "layout_size": st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    "pulse_order": st.integers(1, 200),
    "pulse_center_frequency": st.sampled_from([100e9, 200e9, 300e9, 400e9]),
    "pulse_power": st.integers(-320, 300).map(lambda k: 10.0**k),
    "energy_fraction": st.floats(0.99, 0.999999),
    "band": st.sampled_from([[100e9, 300e9], [150e9, 250e9], [50e9, 500e9], [199.9e9, 200.1e9]]),
    "absorption_path": st.none(),
    "species_fractions": st.none(),
    "mq_pairs": st.lists(
        st.lists(st.integers(2, 12), min_size=2, max_size=2), min_size=1, max_size=3
    ),
    "sampling_rates": st.lists(
        st.sampled_from([100e9, 300e9, 600e9, 1e12, 20e12, 30e12]), min_size=1, max_size=3
    ),
    "estimator": st.sampled_from(["ctma", "sampling", "both"]),
    "n_positions": st.integers(1, 20),
    "n_runs": st.integers(1, 1000),
    "seed": st.integers(0, 2**32),
    "t_ob": st.sampled_from([5e-9, 10e-9, 20e-9]),
    "step": st.sampled_from([2.5e-14, 5e-14, 1e-13]),
    "temperature": st.floats(200.0, 400.0),
    "toa_mode": st.sampled_from(["peak", "start-corrected"]),
    "r1_mode": st.sampled_from(["known-clock", "quadratic"]),
    "noise": st.booleans(),
    "guard_radius": st.sampled_from([0.0, GUARD_FLOOR, 0.01, 0.05, 0.3]),
    "toa_position": st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2),
}
assert set(TYPED_VALUES) == set(ExperimentConfig.__dataclass_fields__)
TYPED_CONFIGS = st.fixed_dictionaries({}, optional=TYPED_VALUES)


# validate-config reads any JSON value of each field; a run reads
# well-typed fields at one position and one run, and about 30 % of its
# draws run to the end.
RUN_CONFIGS = TYPED_CONFIGS.map(lambda data: {**data, "n_positions": 1, "n_runs": 1})
NEVER_RAISE_CONFIGS = {
    "validate-config": CONFIGS | TYPED_CONFIGS,
    "simulate-tdoa": RUN_CONFIGS,
    "simulate-toa": RUN_CONFIGS,
}


def _exit_code(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(data))
        return main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])


@pytest.mark.parametrize(
    "data",
    [
        {"guard_radius": GUARD_FLOOR},
        {"guard_radius": 0.0, "toa_position": [0.002, 0.002]},
        {"pulse_order": 14},
        {"pulse_order": 64},
        {"pulse_power": 1e-320},
        {"pulse_power": 1e300},
    ],
)
def test_validate_config_never_raises_at_an_edge(data):
    assert _exit_code("validate-config", data) in (0, 2)


@pytest.mark.parametrize("command", list(NEVER_RAISE_CONFIGS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_validate_config_never_raises(command, data):
    """No exception escapes `main`: every config runs (0) or is refused (2)."""
    assert _exit_code(command, data.draw(NEVER_RAISE_CONFIGS[command], label="config")) in (0, 2)
