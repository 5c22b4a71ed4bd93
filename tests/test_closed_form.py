"""The paper's closed forms as the oracle of a noiseless localization run.

Without noise every TOA is a function of the path length R and of the
calibration pulse alone, so each one can be predicted without a received
trace:

- a bank TOA is delta * floor(t_g / delta), with delta = t_ob / alpha the
  bank's resolution and t_g the first grid point at or after
  R / c0 + `ctma_offset`, where the windowed energy peaks: the slot count
  floor(t_g / delta) is compared exactly;
- a sampling TOA is the earliest largest of the samples k / f_s of the
  calibration trace's LPF output shifted by R / c0.

The forms live here, as the check, and not in the package, which keeps
running traces. Regime: the desk config (2 m layout, 10 ns window, the
packaged table, 0.05 ps grid).
"""
import dataclasses
import math
from pathlib import Path

import numpy as np

from mmwave_tdoa import C0, ExperimentConfig, SignalTrace
from mmwave_tdoa.detector import lpf_approximation
from mmwave_tdoa.harness import Timings, _distances, _draw_positions, _run_toas, prepare

DESK = Path(__file__).parents[1] / "configs" / "desk_sweep.json"


def _bank_slot(distance, prep, bank) -> int:
    """floor(t_g / delta): the bank TOA in units of its resolution delta."""
    step = prep.config.step
    t_g = math.ceil((distance / C0 + prep.ctma_offset) / step) * step
    return math.floor(t_g / (prep.config.t_ob / bank.alpha))


def _calibration_lpf(prep):
    """The calibration trace of `harness._estimator_offsets` (the pulse
    with 4 t_p of zeros on each side) and its LPF output."""
    tx, t_p = prep.paths.pulse, prep.t_p
    pad = int(round(4.0 * t_p / tx.step))
    samples = np.concatenate([np.zeros(pad), tx.samples, np.zeros(pad)])
    cal = SignalTrace(start_time=tx.start_time - pad * tx.step, step=tx.step, samples=samples)
    return lpf_approximation(cal, t_p)


def _sampling_toa(distance, filtered, t_ob, f_s):
    instants = np.arange(int(np.floor(t_ob * f_s + 1e-9)) + 1) / f_s
    values = np.interp(instants - distance / C0, filtered.times(), filtered.samples, 0.0, 0.0)
    return float(instants[int(np.argmax(values))])


def test_every_noiseless_desk_toa_is_the_closed_form():
    desk = ExperimentConfig.from_file(DESK)
    cfg = dataclasses.replace(desk, noise=False, n_positions=10, n_runs=1)
    prep = prepare(cfg)
    positions = _draw_positions(cfg, prep.layout)
    filtered = _calibration_lpf(prep)
    checked = 0
    for p_idx, _, toas in _run_toas(prep, positions, Timings(), None):
        distances = _distances(prep.layout, *positions[p_idx])
        for distance, receiver_toas in zip(distances, toas):
            banks, rates = prep.banks, prep.sampling_rates
            # The bank sums its passes' slot starts, so its TOA is delta
            # times the slot count up to that sum's rounding.
            slots = [round(tau * bank.alpha / cfg.t_ob) for tau, bank in zip(receiver_toas, banks)]
            for tau, slot, bank in zip(receiver_toas, slots, banks):
                assert math.isclose(tau, slot * cfg.t_ob / bank.alpha, rel_tol=1e-14)
            assert slots == [_bank_slot(distance, prep, bank) for bank in banks]
            assert receiver_toas[len(banks) :] == [
                _sampling_toa(distance, filtered, cfg.t_ob, f_s) for f_s in rates
            ]
            checked += len(receiver_toas)
    assert checked == 10 * 3 * (3 + 3)
