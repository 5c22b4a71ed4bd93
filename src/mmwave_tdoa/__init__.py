"""Sampling-free TDOA localization simulator for mmWave impulse links."""

from .channel import (
    C0,
    AbsorptionTable,
    ChannelSpec,
    ingest_absorption,
    noise_variance,
    propagate,
    transmit_psd,
)
from .detector import (
    DetectorBankConfig,
    ToaEstimate,
    energy_peak,
    iterative_toa,
    lpf_approximation,
    sampling_toas,
)
from .errors import ConfigurationError
from .harness import (
    ExperimentConfig,
    TrialResult,
    aede,
    run_experiment,
    toa_sweep,
)
from .locate import BsLayout, ToaTriplet, solve_position, tdoa_ranges
from .pulse import (
    DEFAULT_STEP,
    PulseSpec,
    effective_duration,
    generate_pulse,
    half_power_band,
    spectral_peak,
)
from .trace import SignalTrace

__version__ = "0.1.0"

__all__ = [
    "AbsorptionTable",
    "BsLayout",
    "C0",
    "ChannelSpec",
    "ConfigurationError",
    "DEFAULT_STEP",
    "DetectorBankConfig",
    "ExperimentConfig",
    "PulseSpec",
    "SignalTrace",
    "ToaEstimate",
    "ToaTriplet",
    "TrialResult",
    "aede",
    "effective_duration",
    "energy_peak",
    "generate_pulse",
    "half_power_band",
    "ingest_absorption",
    "iterative_toa",
    "lpf_approximation",
    "noise_variance",
    "propagate",
    "run_experiment",
    "sampling_toas",
    "solve_position",
    "spectral_peak",
    "tdoa_ranges",
    "toa_sweep",
    "transmit_psd",
    "__version__",
]
