"""Trial-run shards: a run's (position, run) trial-runs split into
contiguous shards, the first run in the process itself and each other in a
forked child, merged back in canonical order."""
import json
import os
import sys
import threading

import numpy as np
import pytest

from mmwave_tdoa import ConfigurationError, ExperimentConfig, harness, run_experiment
from mmwave_tdoa.cli import main

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="shards fork on Linux only")

# Two positions x three runs, noisy, on a 0.2 ps grid (50,001 points a trace):
# three shards split it [0, 2), [2, 4), [4, 6), so position 0's runs 0-2
# run in this process under two shards.
NOISY = {
    "n_positions": 2,
    "n_runs": 3,
    "seed": 5,
    "step": 2e-13,
    "mq_pairs": [[10, 2], [2, 11]],
    "sampling_rates": [600e9],
}


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps(NOISY))
    return path


def _shards(monkeypatch, count: int) -> None:
    monkeypatch.setattr(harness, "_usable_cores", lambda: count)


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outputs(cfg_path, out) -> dict:
    """Every output file's bytes, timings (run_meta.json) left out, of
    simulate-tdoa with --dump-traces and of simulate-toa."""
    argv = ["--config", str(cfg_path), "--out"]
    assert main(["simulate-tdoa", *argv, str(out / "tdoa"), "--dump-traces"]) == 0
    assert main(["simulate-toa", *argv, str(out / "toa")]) == 0
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "run_meta.json"
    }


def test_one_two_and_three_shards_write_the_same_bytes(cfg_path, tmp_path, monkeypatch):
    outputs = []
    for count in (1, 2, 3):
        _shards(monkeypatch, count)
        outputs.append(_outputs(cfg_path, tmp_path / f"shards{count}"))
        _assert_no_child_left()
    assert sorted(outputs[0]) == [
        "tdoa/summary.json",
        "tdoa/traces/pos000_run000_bs1.csv",
        "tdoa/traces/pos000_run000_bs2.csv",
        "tdoa/traces/pos000_run000_bs3.csv",
        "tdoa/trials.csv",
        "toa/toa_vs_alpha.csv",
    ]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_the_stage_times_sum_over_every_shard(monkeypatch):
    """Every timed call adds one second, in whichever shard it runs: each
    position's three clean pieces and every trace's propagate count as
    "propagate", every trace's energy peak as "ctma"."""

    def one_second(timings, key, fn, *args, **kwargs):
        timings[key] += 1.0
        return fn(*args, **kwargs)

    _shards(monkeypatch, 2)
    monkeypatch.setattr(harness, "_timed", one_second)
    _, _, timings = run_experiment(ExperimentConfig.from_dict(NOISY))
    assert timings["propagate"] == 2 * 3 + 6 * 3
    assert timings["ctma"] == 6 * 3
    assert timings.shards == 2
    assert all(isinstance(seconds, float) for seconds in timings.values())
    _assert_no_child_left()


def test_run_meta_records_the_shard_count_and_numpys_version(cfg_path, tmp_path, monkeypatch):
    for count in (1, 2):
        _shards(monkeypatch, count)
        out = tmp_path / f"shards{count}"
        assert main(["simulate-toa", "--config", str(cfg_path), "--out", str(out)]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["trial_run_shards"] == count
        assert meta["numpy_version"] == np.__version__
    _assert_no_child_left()


def _failing_at(monkeypatch, cell, error):
    """Make the propagate of (position, run) = cell raise error; return the
    list of cells this process propagates."""
    real, seen = harness.propagate, []

    def propagate(*args, seed, **kwargs):
        seen.append(tuple(seed.entropy[1:3]))
        if seen[-1] == cell:
            raise error
        return real(*args, seed=seed, **kwargs)

    monkeypatch.setattr(harness, "propagate", propagate)
    return seen


def test_a_configuration_error_in_a_childs_shard_exits_2_naming_the_field(
    cfg_path, tmp_path, monkeypatch, capsys
):
    _shards(monkeypatch, 2)
    error = ConfigurationError("band: refused at position 1 by the test")
    seen = _failing_at(monkeypatch, (1, 0), error)
    argv = ["simulate-tdoa", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error: band: refused at position 1 by the test" in err
    assert "Traceback" not in err
    assert {cell[0] for cell in seen} == {0}  # position 1 ran in the child
    _assert_no_child_left()


def test_an_error_in_the_parents_shard_leaves_no_child(cfg_path, tmp_path, monkeypatch, capsys):
    _shards(monkeypatch, 3)
    _failing_at(monkeypatch, (0, 1), ConfigurationError("band: refused in the parent"))
    argv = ["simulate-tdoa", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "configuration error: band: refused in the parent" in capsys.readouterr().err
    _assert_no_child_left()


def test_any_other_failure_of_a_child_raises_with_its_traceback(monkeypatch):
    _shards(monkeypatch, 2)
    _failing_at(monkeypatch, (1, 2), ValueError("a bug in the second shard"))
    with pytest.raises(RuntimeError, match="trial-run shard 1 failed") as info:
        run_experiment(ExperimentConfig.from_dict(NOISY))
    assert "ValueError: a bug in the second shard" in str(info.value)
    _assert_no_child_left()


def test_a_run_started_while_another_thread_runs_does_not_fork(monkeypatch):
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(threading.active_count())
        return real_fork()

    _shards(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", counting_fork)
    cfg = ExperimentConfig.from_dict(NOISY)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        alongside = run_experiment(cfg)[:2]
    finally:
        release.set()
        other.join()
    assert forks == []
    assert run_experiment(cfg)[:2] == alongside
    assert forks == [1]
    _assert_no_child_left()


def test_the_shard_count_is_the_usable_cores_capped_at_the_trial_runs(monkeypatch):
    _shards(monkeypatch, 3)
    assert [harness._shard_count(n) for n in (1, 2, 3, 500)] == [1, 2, 3, 3]
    monkeypatch.setattr(harness.sys, "platform", "darwin")
    assert harness._shard_count(500) == 1
