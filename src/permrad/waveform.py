"""Complex-baseband synthesis of stepped-frequency pulse trains.

Each waveform is M back-to-back rectangular pulses of width T; pulse m
carries the tone selected by the permutation entry perm[m].  Tones are
spaced by an integer number of cycles per pulse so that distinct tones
are orthogonal over a single pulse.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, pi, sqrt
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .lehmer import validate_permutation

# pulses per waveform; far above any pulse train the radar commands are used
# on, and small enough that their per-pulse arrays and lag loop stay cheap
MAX_PULSES = 1 << 16


@dataclass(frozen=True)
class WaveformParams:
    """Geometry and scaling of one waveform.

    m            number of pulses / tones
    t            pulse width in seconds
    delta_f      tone spacing in Hz; delta_f * t must be a positive integer;
                 defaults to 1 / t
    f0           lowest tone frequency in Hz
    energy       total waveform energy
    oversampling samples per pulse; defaults to 8 * m * (delta_f * t),
                 four times the Nyquist floor for the swept band
    """

    m: int
    t: float
    delta_f: float | None = None
    f0: float = 0.0
    energy: float = 1.0
    oversampling: int | None = None

    def __post_init__(self):
        if not 1 <= self.m <= MAX_PULSES:
            raise ValidationError(f"m must be in [1, {MAX_PULSES}], got {self.m}")
        if not (self.t > 0 and isfinite(self.t)):
            raise ValidationError(f"pulse width must be positive and finite, got {self.t}")
        if self.delta_f is None:
            object.__setattr__(self, "delta_f", 1.0 / self.t)
        if not (self.energy > 0 and isfinite(self.energy)):
            raise ValidationError(f"energy must be positive and finite, got {self.energy}")
        if not (self.f0 >= 0 and isfinite(self.f0)):
            raise ValidationError(
                f"base frequency must be non-negative and finite, got {self.f0}"
            )
        q = self.delta_f * self.t
        if not isfinite(q) or abs(q - round(q)) > 1e-9 * max(1.0, abs(q)) or round(q) < 1:
            raise ValidationError(
                f"delta_f * t must be a positive integer for tone orthogonality, got {q}"
            )
        top = 2.0 * pi * (self.f0 + (self.m - 1) * self.delta_f)
        if not isfinite(top * self.duration):
            raise ValidationError(
                f"the phase of the top tone over the waveform, 2 pi (f0 + (m - 1) delta_f) m t, "
                f"overflows for f0={self.f0}, delta_f={self.delta_f}, m={self.m}, t={self.t}"
            )
        if self.samples_per_pulse < 2 * self.m * self.spacing_periods:
            raise ValidationError(
                f"oversampling {self.samples_per_pulse} is below the Nyquist floor "
                f"{2 * self.m * self.spacing_periods} for the swept band"
            )

    @property
    def spacing_periods(self) -> int:
        """delta_f * t as an exact integer (cycles of the tone spacing per pulse)."""
        return int(round(self.delta_f * self.t))

    @property
    def samples_per_pulse(self) -> int:
        if self.oversampling is not None:
            return int(self.oversampling)
        return 8 * self.m * self.spacing_periods

    @property
    def dt(self) -> float:
        return self.t / self.samples_per_pulse

    @property
    def sample_rate(self) -> float:
        return self.samples_per_pulse / self.t

    @property
    def duration(self) -> float:
        return self.m * self.t

    @property
    def amplitude(self) -> float:
        """Constant envelope value sqrt(energy / (m t))."""
        return sqrt(self.energy / (self.m * self.t))


def tone_frequencies(perm: Sequence[int], params: WaveformParams) -> np.ndarray:
    """Per-pulse tone frequencies f0 + perm[m] * delta_f in Hz."""
    _check_perm(perm, params)
    return params.f0 + np.asarray(perm, dtype=float) * params.delta_f


def synthesize(perm: Sequence[int], params: WaveformParams) -> np.ndarray:
    """The complex samples of the waveform for ``perm``, at
    params.sample_rate on a uniform grid over [0, m*t) from t = 0.

    Pulse boundaries are left-closed: the sample at t = m*t belongs to
    pulse m, which keeps pulse supports disjoint and the discrete energy
    exactly equal to params.energy for this constant-modulus signal.
    """
    freqs = tone_frequencies(perm, params)
    spp = params.samples_per_pulse
    # time within the owning pulse for every sample
    tt = np.tile(np.arange(spp) * params.dt, params.m)
    f_per_sample = np.repeat(freqs, spp)
    return params.amplitude * np.exp(2j * np.pi * f_per_sample * tt)


def _check_perm(perm: Sequence[int], params: WaveformParams) -> None:
    if len(perm) != params.m:
        raise ValidationError(
            f"permutation length {len(perm)} does not match m={params.m}"
        )
    validate_permutation(perm)
