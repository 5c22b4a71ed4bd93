"""Heap-page reuse: once an experiment's path cache and noise band-pass
exist, a noisy trace's stages run on pages the heap already holds."""
import dataclasses
import platform
import resource
from collections import defaultdict
from pathlib import Path

import pytest

from mmwave_tdoa import ChannelSpec, noise_variance, propagate, transmit_psd
from mmwave_tdoa.detector import energy_peak, sampling_toas
from mmwave_tdoa.harness import ExperimentConfig, _draw_positions, _trial_toas, prepare

DESK = Path(__file__).parents[1] / "configs" / "desk_sweep.json"
glibc_only = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the page reuse relies on glibc's malloc thresholds"
)


@glibc_only
def test_noisy_trace_faults_in_under_one_trace_of_pages():
    """After two warm-up traces, one noisy desk trace's propagate,
    windowed-energy peak and sampling TOAs fault in fewer fresh pages than
    one trace holds.
    Allocating every stage's arrays from fresh mappings, as before
    `_keep_heap_pages`, faults in about 16 traces' worth (6.2k pages)."""
    cfg = ExperimentConfig.from_file(DESK)
    prep = prepare(cfg)
    spec = ChannelSpec(distance=1.3, center_frequency=cfg.pulse_center_frequency, band=cfg.band)
    cache = prep.paths
    power = noise_variance(spec, cache.table, transmit_psd(cache.pulse, cfg.band, cfg.pulse_power))

    def stages(seed):
        trace = propagate(cache, spec, seed=seed, noise_power=power)
        peak = energy_peak(trace, prep.t_p, cfg.t_ob)
        return [trace, peak, sampling_toas(trace, prep.t_p, cfg.sampling_rates)]

    stages(seed=0)
    stages(seed=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    stages(seed=2)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < cache.n_out * 8 // resource.getpagesize()


@glibc_only
def test_noisy_traces_of_the_harness_loop_fault_in_under_one_trace_of_pages_each():
    """The same bound per trace in a shard's loop over its trial-runs, which
    builds each position's clean pieces once. After two warm-up runs, each
    later run, at the first position or a new one, faults in fewer fresh
    pages per trace than one trace holds."""
    cfg = dataclasses.replace(ExperimentConfig.from_file(DESK), n_positions=2, n_runs=3)
    prep = prepare(cfg)
    positions = _draw_positions(cfg, prep.layout)
    cells = [(p, r) for p in range(cfg.n_positions) for r in range(cfg.n_runs)]
    runs = _trial_toas(prep, positions, cells, defaultdict(float), None)
    next(runs)
    next(runs)
    faults = []
    for _ in range(cfg.n_runs + 1):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        next(runs)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert next(runs, None) is None
    assert max(faults) / 3 < prep.paths.n_out * 8 // resource.getpagesize()
