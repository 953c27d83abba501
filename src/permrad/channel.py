"""Receive-side channel checks and multi-antenna fading draws.

The fading vector h has independent Rician entries built from a
unit-modulus line-of-sight term and a circular complex Gaussian scatter
term; Rayleigh is the K=0 special case and "awgn" pins h to all-ones so
that |h|^2 equals the antenna count exactly.
"""

from __future__ import annotations

from math import inf, isfinite, sqrt

import numpy as np

from .errors import ValidationError

CHANNEL_KINDS = ("awgn", "rician", "rayleigh")


def check_channel(kind: str, n: int, k: float) -> float:
    """Refuse a malformed channel description; return the Rician factor the
    channel draws with: ``k`` on a Rician channel, 0 on the others.

    n     number of receive antennas
    k     Rician factor (linear, >= 0); power ratio of LOS to scatter,
          checked on every channel
    kind  one of CHANNEL_KINDS
    """
    if n < 1:
        raise ValidationError(f"antenna count must be at least 1, got {n}")
    if not (k >= 0 and isfinite(k)):
        raise ValidationError(f"Rician factor must be non-negative and finite, got {k}")
    if kind not in CHANNEL_KINDS:
        raise ValidationError(f"channel kind must be one of {CHANNEL_KINDS}, got {kind!r}")
    return k if kind == "rician" else 0.0


def snr_from_db(snr_db: float) -> float:
    """Linear SNR 10^(snr_db / 10); one that overflows, underflows to 0 or is
    nan is rejected."""
    try:
        snr = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        snr = inf
    if not 0.0 < snr < inf:  # also refuses a nan or infinite snr_db
        raise ValidationError(f"snr {snr_db} dB: the linear snr is not a positive finite double")
    return snr


def n0_from_snr_db(energy: float, snr_db: float) -> float:
    """Noise variance for a target per-antenna SNR of energy / n0.

    An SNR whose linear value or n0 overflows or underflows is rejected.
    """
    n0 = energy / snr_from_db(snr_db)
    if not 0.0 < n0 < inf:
        raise ValidationError(
            f"snr {snr_db} dB at energy {energy} puts the noise variance "
            "n0 = energy / snr outside (0, inf)"
        )
    return n0


def draw_fading_batch(
    kind: str, n: int, k: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw ``size`` independent fading vectors, shape (size, n) complex,
    for a channel that ``check_channel`` accepts and the factor it returns.

    The LOS phases are all fixed to 1: only |h|^2 enters the detection
    statistics, and it is invariant to those phases.
    """
    if kind == "awgn":
        return np.ones((size, n), dtype=complex)
    g = rng.standard_normal((size, n, 2))
    u = (g[..., 0] + 1j * g[..., 1]) / sqrt(2.0)
    return sqrt(k / (k + 1.0)) + sqrt(1.0 / (k + 1.0)) * u
