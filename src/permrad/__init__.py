"""Frequency-permutation stepped-frequency waveforms for joint radar and communications."""

from .bounds import block_error_bounds, pairwise_errors, qfunc, subfactorial
from .channel import check_channel, n0_from_snr_db
from .errors import NumericError, PermradError, ValidationError
from .lehmer import bits_per_block, permutation_to_rank, rank_to_permutation
from .radar import (
    FisherMatrix,
    af_grid,
    complex_af,
    crlb_from_fisher,
    fisher_matrix,
)
from .receiver import hungarian_detect
from .simkit import BlerPoint, SimConfig, run_bler_sweep, wilson_interval
from .waveform import WaveformParams, synthesize, tone_frequencies

__version__ = "0.1.0"

__all__ = [
    "BlerPoint",
    "FisherMatrix",
    "NumericError",
    "PermradError",
    "SimConfig",
    "ValidationError",
    "WaveformParams",
    "af_grid",
    "bits_per_block",
    "block_error_bounds",
    "check_channel",
    "complex_af",
    "crlb_from_fisher",
    "fisher_matrix",
    "hungarian_detect",
    "n0_from_snr_db",
    "pairwise_errors",
    "permutation_to_rank",
    "qfunc",
    "rank_to_permutation",
    "run_bler_sweep",
    "subfactorial",
    "synthesize",
    "tone_frequencies",
    "wilson_interval",
]
