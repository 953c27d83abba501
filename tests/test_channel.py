"""Fading and noise model tests against the known channel-gain distribution."""

from dataclasses import dataclass
from math import log10, sqrt

import numpy as np
import pytest
from scipy import stats

from permrad.channel import CHANNEL_KINDS, check_channel, draw_fading_batch, n0_from_snr_db
from permrad.errors import ValidationError
from permrad.waveform import WaveformParams, synthesize


@dataclass(frozen=True)
class FadingRealization:
    """One channel draw with its squared norm cached."""

    h: np.ndarray
    gain: float

    @classmethod
    def from_vector(cls, h: np.ndarray) -> "FadingRealization":
        h = np.asarray(h, dtype=complex)
        return cls(h=h, gain=float(np.vdot(h, h).real))


def snr_db_from_n0(energy: float, n0: float) -> float:
    return 10.0 * log10(energy / n0)


def draw_fading(kind: str, n: int, k: float, rng: np.random.Generator) -> FadingRealization:
    """Draw one fading realization."""
    return FadingRealization.from_vector(draw_fading_batch(kind, n, k, rng, 1)[0])


def fading_gains(kind: str, n: int, k: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Squared norms |h|^2 of ``size`` independent draws."""
    h = draw_fading_batch(kind, n, k, rng, size)
    return np.sum(np.abs(h) ** 2, axis=1)


def apply_channel(
    samples: np.ndarray,
    sample_rate: float,
    h: FadingRealization,
    n0: float,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Return the per-antenna received samples h_k * s(t) + n_k(t).

    Discrete noise is drawn with variance n0 * sample_rate per complex
    sample, which makes every correlation statistic formed by quadrature
    against a unit-energy basis function match the continuous model: the
    real part of the matched-filter noise has variance energy * n0 / 2.
    """
    if not n0 > 0:
        raise ValidationError(f"noise variance must be positive, got {n0}")
    size = samples.size
    sigma = sqrt(n0 * sample_rate / 2.0)
    out = []
    for hk in h.h:
        noise = sigma * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        out.append(hk * samples + noise)
    return out


def test_gain_cache_matches_recomputed_norm():
    rng = np.random.default_rng(0)
    for _ in range(100):
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        real = FadingRealization.from_vector(h)
        assert abs(real.gain - np.sum(np.abs(h) ** 2)) <= 1e-12 * real.gain


def test_pure_los_limit():
    # scatter amplitude scales as 1/sqrt(k); k = 1e14 pushes the gain residual
    # an order of magnitude below the 1e-6 tolerance
    rng = np.random.default_rng(1)
    for _ in range(20):
        real = draw_fading("rician", 4, 1e14, rng)
        assert abs(real.gain - 4.0) <= 1e-6


def test_awgn_mode_gain_exact():
    rng = np.random.default_rng(2)
    real = draw_fading("awgn", 3, 0.0, rng)
    assert real.gain == 3.0
    assert np.all(real.h == 1.0)


def test_rayleigh_mean_gain():
    rng = np.random.default_rng(3)
    gains = fading_gains("rayleigh", 2, 0.0, rng, 1_000_000)
    assert gains.mean() == pytest.approx(2.0, rel=0.01)


@pytest.mark.parametrize("n,k", [(2, 0.0), (4, 1.0), (4, 4.0)])
def test_scaled_gain_distribution(n, k):
    # 2(k+1)|h|^2 follows a noncentral chi-square with 2n dof, noncentrality 2nk
    rng = np.random.default_rng(10 + n + int(k))
    gains = fading_gains("rician", n, k, rng, 100_000)
    scaled = 2.0 * (k + 1.0) * gains
    if k == 0:
        result = stats.kstest(scaled, stats.chi2(df=2 * n).cdf)
    else:
        result = stats.kstest(scaled, stats.ncx2(df=2 * n, nc=2 * n * k).cdf)
    assert result.pvalue > 0.01


@pytest.mark.parametrize("n,k", [(1, 0.0), (2, 0.5), (4, 1.0), (3, 6.0)])
def test_gain_moments_three_sigma(n, k):
    rng = np.random.default_rng(5)
    size = 200_000
    gains = fading_gains("rician", n, k, rng, size)
    mean = n
    var = n * (1.0 + 2.0 * k) / (k + 1.0) ** 2
    assert abs(gains.mean() - mean) <= 3.0 * np.sqrt(var / size)
    # fourth-moment bound for the variance estimator is loose; use 5 sigma of
    # the normal approximation to keep the check tight but stable
    var_of_var = 2.0 * var**2 / size * (1.0 + 4.0 * k)  # conservative inflation
    assert abs(gains.var() - var) <= 5.0 * np.sqrt(var_of_var)


def test_noiseless_channel_is_identity():
    params = WaveformParams(m=2, t=1.0, delta_f=1.0)
    sig = synthesize([0, 1], params)
    h = FadingRealization.from_vector(np.ones(2))
    rng = np.random.default_rng(6)
    received = apply_channel(sig, params.sample_rate, h, 1e-30, rng)
    for rx in received:
        assert np.allclose(rx, sig, atol=1e-12)


def test_pure_noise_sample_variance():
    fs = 64.0
    zero = np.zeros(1_000_000, dtype=complex)
    h = FadingRealization.from_vector(np.ones(1))
    n0 = 0.25
    rng = np.random.default_rng(7)
    rx = apply_channel(zero, fs, h, n0, rng)[0]
    measured = np.mean(np.abs(rx) ** 2)
    assert measured == pytest.approx(n0 * fs, rel=0.01)


def test_matched_filter_statistics():
    # unit-energy signal through h=1: Re(<s, r>) has mean E and variance E*n0/2
    params = WaveformParams(m=2, t=1.0, delta_f=1.0, energy=1.0, oversampling=4)
    sig = synthesize([1, 0], params)
    h = FadingRealization.from_vector(np.ones(1))
    n0 = 0.5
    rng = np.random.default_rng(8)
    conj_s = np.conj(sig)
    dt = 1.0 / params.sample_rate
    stats_out = np.empty(100_000)
    for i in range(stats_out.size):
        rx = apply_channel(sig, params.sample_rate, h, n0, rng)[0]
        stats_out[i] = np.sum(conj_s * rx).real * dt
    assert stats_out.mean() == pytest.approx(1.0, rel=0.02)
    assert stats_out.var() == pytest.approx(n0 / 2.0, rel=0.02)


def test_awgn_batch_draw_consumes_no_randomness():
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state["state"]["state"]
    draw_fading_batch("awgn", 2, 0.0, rng, 100)
    assert rng.bit_generator.state["state"]["state"] == before


def test_validation():
    with pytest.raises(ValidationError, match="antenna count"):
        check_channel("rician", 0, 0.0)
    with pytest.raises(ValidationError, match="Rician factor"):
        check_channel("rician", 1, -0.5)
    with pytest.raises(ValidationError, match="channel kind"):
        check_channel("urban", 1, 0.0)
    for kind in CHANNEL_KINDS:
        for k in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValidationError, match="Rician factor"):
                check_channel(kind, 1, k)
        # the factor the channel draws with: K = 0 unless Rician
        assert check_channel(kind, 1, 2.0) == (2.0 if kind == "rician" else 0.0)


def test_snr_helpers_round_trip():
    n0 = n0_from_snr_db(1.0, 7.0)
    assert snr_db_from_n0(1.0, n0) == pytest.approx(7.0, abs=1e-12)
