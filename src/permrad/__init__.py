"""Frequency-permutation stepped-frequency waveforms for joint radar and communications."""

from .bounds import (
    nn_awgn,
    nn_rayleigh,
    nn_rician,
    pairwise_rician,
    qfunc,
    subfactorial,
    union_bound_awgn,
    union_bound_rayleigh,
    union_bound_rician,
)
from .channel import ChannelParams, n0_from_snr_db
from .errors import CapabilityError, NumericError, PermradError, ValidationError
from .lehmer import bits_per_block, permutation_to_rank, rank_to_permutation
from .radar import (
    AFGrid,
    FisherMatrix,
    af_grid,
    complex_af,
    crlb_full,
    crlb_simplified,
    fisher_matrix,
    ridge_covariance,
    zero_delay_cut,
    zero_doppler_cut,
)
from .receiver import exhaustive_detect, hungarian_detect
from .simkit import BlerPoint, SimConfig, run_bler_sweep, wilson_interval
from .waveform import ComplexSignal, WaveformParams, synthesize, tone_frequencies

__version__ = "0.1.0"

__all__ = [
    "AFGrid",
    "BlerPoint",
    "CapabilityError",
    "ChannelParams",
    "ComplexSignal",
    "FisherMatrix",
    "NumericError",
    "PermradError",
    "SimConfig",
    "ValidationError",
    "WaveformParams",
    "af_grid",
    "bits_per_block",
    "complex_af",
    "crlb_full",
    "crlb_simplified",
    "exhaustive_detect",
    "fisher_matrix",
    "hungarian_detect",
    "n0_from_snr_db",
    "nn_awgn",
    "nn_rayleigh",
    "nn_rician",
    "pairwise_rician",
    "permutation_to_rank",
    "qfunc",
    "rank_to_permutation",
    "ridge_covariance",
    "run_bler_sweep",
    "subfactorial",
    "synthesize",
    "tone_frequencies",
    "union_bound_awgn",
    "union_bound_rayleigh",
    "union_bound_rician",
    "wilson_interval",
    "zero_delay_cut",
    "zero_doppler_cut",
]
