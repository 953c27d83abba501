"""Delay-Doppler ambiguity surface, Fisher information, and estimation bounds.

The complex ambiguity surface of the pulse train decomposes into a sum
over pulse pairs of single-pulse terms, each a shifted copy of the
rectangular pulse's closed-form ambiguity (t - |tau|) sinc(omega (t -
|tau|) / 2) times one complex exponential that also carries the pair's
inter-pulse phase.  A pair's term is nonzero only within one pulse width
of its lag, so each delay sees at most two lags (three on a pulse edge)
and O(M) terms.
Estimation accuracy is characterized by the 2x2 Fisher information in
(delay, Doppler) and the bounds from its inverse.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from math import cos
from typing import Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .waveform import WaveformParams, tone_frequencies

# elements per (cells, pairs) block of complex_af; pulse_af holds a few
# real and complex temporaries of that size at once, so this bounds the
# kernel's peak memory (about 1 MB) whatever the grid and M
_AF_ELEMS = 1 << 13


def pulse_af(tau, omega, t: float, phase=0.0):
    """Complex ambiguity of one rectangular pulse of width t, times exp(j phase).

    The integral of exp(j omega u) over the overlap of the pulse and its
    copy delayed by tau: an interval of length u = t - |tau| centred on
    (t + tau) / 2, hence u sinc(omega u / 2) exp(j omega (t + tau) / 2),
    with sinc(h) = sin(h) / h.  One expression covers both signs of tau and
    omega = 0; it is zero outside |tau| <= t.  Accepts scalars or
    broadcastable arrays.
    """
    tau = np.asarray(tau, dtype=float)
    omega = np.asarray(omega, dtype=float)
    u = np.maximum(t - np.abs(tau), 0.0)
    h = 0.5 * omega * u
    sinc = np.divide(np.sin(h), h, out=np.ones(h.shape), where=h != 0.0)
    out = u * sinc * np.exp(1j * (0.5 * omega * (t + tau) + phase))
    if out.ndim == 0:
        return complex(out)
    return out


def complex_af(perm: Sequence[int], params: WaveformParams, tau, omega):
    """Time-frequency autocorrelation of the unit-energy waveform.

    Sum over pulse pairs (m, n) of the single-pulse ambiguity at delay
    tau + (n - m) t and Doppler omega + w_m - w_n, with the inter-pulse
    phase omega m t + w_n (tau + (n - m) t), so each pair term costs one
    complex exponential and one sine.  With w_n = 2 pi (f0 + perm[n] df),
    that phase holds 2 pi f0 tau, common to all of a cell's terms, which is
    applied once to the sum, and 2 pi f0 (n - m) t, taken with f0 t reduced
    modulo 1; so |A| loses no precision to a large f0.  A pair's term vanishes unless
    |tau + (n - m) t| <= t, so the pairs are grouped by lag n - m and each
    lag is evaluated only on the cells inside its support: at most two lags
    (three on a pulse edge), O(M) pulse terms, per evaluation point.  Each
    cell's value depends on that cell alone, whatever other cells are
    evaluated with it.  The waveform energy is normalized to one regardless
    of params.energy.
    """
    # the tones' offsets from f0 (tone_frequencies also checks perm)
    w = 2.0 * np.pi * tone_frequencies(perm, replace(params, f0=0.0))
    tones = np.asarray(perm, dtype=float)
    carrier_turns = (params.f0 * params.t) % 1.0
    t = params.t
    m_count = params.m
    tau_a, omega_a = np.broadcast_arrays(
        np.asarray(tau, dtype=float), np.asarray(omega, dtype=float)
    )
    tau_f = tau_a.ravel()
    omega_f = omega_a.ravel()
    acc = np.zeros(tau_f.shape, dtype=complex)
    for lag in range(1 - m_count, m_count):
        x = tau_f + lag * t
        cells = np.flatnonzero((x >= -t) & (x <= t))
        if cells.size == 0:
            continue
        m_idx = np.arange(max(0, -lag), min(m_count, m_count - lag))
        w_n = w[m_idx + lag]
        lag_phase = 2.0 * np.pi * lag * carrier_turns
        # w_m - w_n from the tone indices, so a large f0 does not absorb it
        dw = 2.0 * np.pi * params.delta_f * (tones[m_idx] - tones[m_idx + lag])
        # (cells, pairs) blocks: the pair sum runs along the contiguous last
        # axis, so each cell is summed in the same order in every block
        step = max(1, _AF_ELEMS // m_idx.size)
        for start in range(0, cells.size, step):
            sel = cells[start:start + step]
            xc = x[sel, None]
            oc = omega_f[sel, None]
            terms = pulse_af(xc, oc + dw, t, oc * (m_idx * t) + w_n * xc + lag_phase)
            acc[sel] += terms.sum(axis=1)
    if params.f0:
        # only cells within the waveform's duration can be nonzero, and
        # WaveformParams keeps the carrier phase over that span finite
        support = np.flatnonzero(np.abs(tau_f) <= m_count * t)
        acc[support] *= np.exp(2j * np.pi * params.f0 * tau_f[support])
    acc = (acc / (m_count * t)).reshape(tau_a.shape)
    if acc.ndim == 0:
        return complex(acc)
    return acc


@dataclass(frozen=True)
class AFGrid:
    """Sampled ambiguity magnitude over a delay-Doppler grid."""

    tau: np.ndarray       # delays, seconds
    omega: np.ndarray     # Doppler, rad/s
    values: np.ndarray    # |A|, shape (len(tau), len(omega))


def af_grid(
    perm: Sequence[int],
    params: WaveformParams,
    tau_axis: np.ndarray,
    omega_axis: np.ndarray,
    workers: int = 1,
) -> AFGrid:
    """Evaluate |A| over the outer product of the two axes."""
    tau_axis = np.asarray(tau_axis, dtype=float)
    omega_axis = np.asarray(omega_axis, dtype=float)
    if workers > 1 and tau_axis.size > 1:
        chunks = np.array_split(np.arange(tau_axis.size), min(workers, tau_axis.size))
        args = [(list(perm), params, tau_axis[idx], omega_axis) for idx in chunks]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_af_grid_chunk, args))
        values = np.vstack(parts)
    else:
        values = _af_grid_chunk((list(perm), params, tau_axis, omega_axis))
    return AFGrid(tau=tau_axis, omega=omega_axis, values=values)


def _af_grid_chunk(args) -> np.ndarray:
    perm, params, tau_axis, omega_axis = args
    tt, ww = np.meshgrid(tau_axis, omega_axis, indexing="ij")
    return np.abs(complex_af(perm, params, tt, ww))


def zero_doppler_cut(perm: Sequence[int], params: WaveformParams, tau_axis) -> np.ndarray:
    """|A(tau, 0)|: the autocorrelation magnitude along the delay axis."""
    tau_axis = np.asarray(tau_axis, dtype=float)
    return np.abs(complex_af(perm, params, tau_axis, np.zeros_like(tau_axis)))


def zero_delay_cut(perm: Sequence[int], params: WaveformParams, omega_axis) -> np.ndarray:
    """|A(0, omega)|: the spectrum of |s|^2 along the Doppler axis.

    The constant-modulus envelope makes this cut permutation independent.
    """
    omega_axis = np.asarray(omega_axis, dtype=float)
    return np.abs(complex_af(perm, params, np.zeros_like(omega_axis), omega_axis))


def ridge_covariance(
    perm: Sequence[int],
    params: WaveformParams,
    tau_axis: np.ndarray,
    omega_axis: np.ndarray,
    threshold: float = 0.7,
) -> float:
    """Signed covariance of high-ambiguity cells in matched-filter offset axes.

    Axes here are the delay and Doppler offsets of a target relative to the
    filter hypothesis: a target with excess delay tau and excess Doppler
    omega produces the response |A(tau, -omega)| of the autocorrelation
    surface.  An up-sweeping tone order tilts the ridge into quadrants
    I/III (positive covariance), a down-sweep into II/IV (negative).
    """
    tau_axis = np.asarray(tau_axis, dtype=float)
    omega_axis = np.asarray(omega_axis, dtype=float)
    tt, ww = np.meshgrid(tau_axis, omega_axis, indexing="ij")
    response = np.abs(complex_af(perm, params, tt, -ww))
    mask = response > threshold
    if not np.any(mask):
        raise NumericError(
            f"no grid cells above threshold {threshold}",
            threshold=threshold,
            grid_max=float(response.max()),
        )
    tc = tt[mask]
    wc = ww[mask]
    return float(np.mean((tc - tc.mean()) * (wc - wc.mean())))


@dataclass(frozen=True)
class FisherMatrix:
    """2x2 information matrix for (delay, Doppler), with its inputs."""

    j11: float
    j12: float
    j22: float
    c: float        # energy-to-noise constant (2/n0) / (1 + n0)
    b: float        # receiver filter bandwidth, Hz
    omega0: float   # 2 pi f0

    def matrix(self) -> np.ndarray:
        return np.array([[self.j11, self.j12], [self.j12, self.j22]])


def snr_constant(n0: float) -> float:
    """The common multiplier C = (2 / n0) * (1 / (1 + n0))."""
    if not n0 > 0:
        raise ValidationError(f"noise variance must be positive, got {n0}")
    return (2.0 / n0) * (1.0 / (1.0 + n0))


def weighted_tone_sum(perm: Sequence[int], params: WaveformParams) -> float:
    """sum over pulses of (2m + 1) * omega_m; extremal for sorted tone orders."""
    w = 2.0 * np.pi * tone_frequencies(perm, params)
    return float(np.dot(2 * np.arange(params.m) + 1, w))


def fisher_matrix(
    perm: Sequence[int], params: WaveformParams, n0: float, b: float
) -> FisherMatrix:
    """Closed-form information matrix entries.

    Valid in the large bandwidth-time regime; a warning is issued below
    b * t = 10 where the closed forms degrade.
    """
    if not b > 0:
        raise ValidationError(f"receiver bandwidth must be positive, got {b}")
    if b * params.t < 10.0:
        warnings.warn(
            f"bandwidth-time product {b * params.t:.3g} is below 10; "
            "the closed-form information matrix assumes a large product",
            stacklevel=2,
        )
    c = snr_constant(n0)
    m = params.m
    t = params.t
    omega0 = 2.0 * np.pi * params.f0
    j11 = (2.0 * b * c / t) * (1.0 - ((m - 1) / m) * cos(omega0 * t))
    j12 = -(c * t * t / 2.0) * weighted_tone_sum(perm, params)
    j22 = c * m * m * t * t / 12.0
    return FisherMatrix(j11=j11, j12=j12, j22=j22, c=c, b=b, omega0=omega0)


def crlb_full(
    perm: Sequence[int], params: WaveformParams, n0: float, b: float
) -> tuple[float, float]:
    """(delay, Doppler) estimation-variance bounds from the inverted matrix.

    Computed by exact 2x2 inversion of the assembled Fisher matrix rather
    than the expanded ratios; see crlb_full_expanded for those.
    """
    return crlb_from_fisher(fisher_matrix(perm, params, n0, b))


def crlb_from_fisher(fim: FisherMatrix) -> tuple[float, float]:
    det = fim.j11 * fim.j22 - fim.j12 * fim.j12
    if not (det > 0 and fim.j11 > 0):
        raise NumericError(
            "Fisher matrix is not positive definite",
            j11=fim.j11,
            j12=fim.j12,
            j22=fim.j22,
            det=det,
        )
    return fim.j22 / det, fim.j11 / det


def crlb_full_expanded(
    perm: Sequence[int], params: WaveformParams, n0: float, b: float
) -> tuple[float, float]:
    """Expanded algebraic form of the full bounds, kept as a regression check."""
    c = snr_constant(n0)
    m = params.m
    t = params.t
    cosw = cos(2.0 * np.pi * params.f0 * t)
    s = weighted_tone_sum(perm, params)
    taper = 1.0 - ((m - 1) / m) * cosw
    crlb_tau = (m * m * t) / (2.0 * m * m * b * taper - 3.0 * t**3 * s * s) / c
    crlb_omega = (
        (2.0 * b / t) * taper / ((m * m * b * t / 6.0) * taper - (t**4 / 4.0) * s * s)
    ) / c
    return crlb_tau, crlb_omega


def crlb_simplified(params: WaveformParams, n0: float, b: float) -> tuple[float, float]:
    """Bounds with the delay-Doppler coupling term dropped; permutation free."""
    if not b > 0:
        raise ValidationError(f"receiver bandwidth must be positive, got {b}")
    inv_c = 1.0 / snr_constant(n0)
    m = params.m
    t = params.t
    cosw = cos(2.0 * np.pi * params.f0 * t)
    crlb_tau = inv_c * (m * t) / (2.0 * b * (m - (m - 1) * cosw))
    crlb_omega = inv_c * 12.0 / (m * m * t * t)
    return crlb_tau, crlb_omega
