"""Heap-page reuse: once an experiment's path cache and noise band-pass
exist, a noisy trace's stages run on pages the heap already holds."""
import platform
import resource
from pathlib import Path

import pytest

from mmwave_tdoa import ChannelSpec, noise_variance, propagate, transmit_psd
from mmwave_tdoa.detector import _windowed_energy, sampling_toas
from mmwave_tdoa.harness import ExperimentConfig, prepare


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the page reuse relies on glibc's malloc thresholds"
)
def test_noisy_trace_faults_in_under_one_trace_of_pages():
    """After two warm-up traces, one noisy desk trace's propagate, windowed
    energy and sampling TOAs fault in fewer fresh pages than one trace holds.
    Allocating every stage's arrays from fresh mappings, as before
    `_keep_heap_pages`, faults in about 16 traces' worth (6.2k pages)."""
    cfg = ExperimentConfig.from_file(Path(__file__).parents[1] / "configs" / "desk_sweep.json")
    prep = prepare(cfg)
    spec = ChannelSpec(distance=1.3, center_frequency=cfg.pulse_center_frequency, band=cfg.band)
    cache = prep.paths
    power = noise_variance(spec, cache.table, transmit_psd(cache.pulse, cfg.band, cfg.pulse_power))

    def stages(seed):
        trace = propagate(cache, spec, seed=seed, noise_power=power)
        energy = _windowed_energy(trace, prep.t_p)
        return [trace, energy, sampling_toas(trace, prep.t_p, cfg.sampling_rates)]

    stages(seed=0)
    stages(seed=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    stages(seed=2)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < cache.n_out * 8 // resource.getpagesize()
