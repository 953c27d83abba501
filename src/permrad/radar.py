"""Delay-Doppler ambiguity surface, Fisher information, and estimation bounds.

The complex ambiguity surface of the pulse train decomposes into a sum
over pulse pairs of single-pulse terms, each a shifted copy of the
rectangular pulse's closed-form ambiguity (t - |tau|) sinc(omega (t -
|tau|) / 2) times a phase factor that also carries the pair's inter-pulse
phase.  A pair's term is nonzero only within one pulse width of its lag,
so each delay sees at most two lags and O(M) terms.  Over a delay axis
times a Doppler axis the phase factor splits, per lag, into a delay
table, a Doppler table and one factor per cell, so the sinc's sine is the
only transcendental evaluated per (cell, pair).
Estimation accuracy is characterized by the 2x2 Fisher information in
(delay, Doppler) and the bounds from its inverse.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace
from math import cos, isfinite
from typing import Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .waveform import WaveformParams, tone_frequencies

# elements per (delays, Doppler, pairs) block and per phase table of
# complex_af; it holds a few real temporaries of that size at once, so this
# bounds the kernel's working memory (about 1 MB) beyond its output,
# whatever the axis lengths
_AF_ELEMS = 1 << 13


def complex_af(perm: Sequence[int], params: WaveformParams, tau, omega):
    """Time-frequency autocorrelation of the unit-energy waveform over a grid.

    Evaluates the outer product of a delay axis tau (seconds) and a Doppler
    axis omega (rad/s): the result has shape tau.shape + omega.shape, and
    is a complex for two scalars.  The waveform energy is normalized to one
    regardless of params.energy.

    The surface is a sum over pulse pairs (m, n) of the single-pulse
    ambiguity at delay x = tau + d t, with lag d = n - m, and Doppler
    omega + w_m - w_n: (t - |x|) sinc((omega + w_m - w_n) (t - |x|) / 2)
    times exp(j phase), phase = (omega + w_m - w_n) (t + x) / 2 + omega m t
    + w_n x.  A pair's term vanishes unless |x| < t, so each lag is
    evaluated only on the delays inside its support: at most two lags,
    O(M) pulse terms, per cell.  For each lag the phase splits into
      - a delay table over (delay, pair): (w_m - w_n) (t + x) / 2 + w_n x;
      - a Doppler table over (Doppler, pair): omega (m + (d + 1) / 2) t,
        built from one table of omega m t per Doppler block;
      - the cell's own omega tau / 2, applied once after all lags,
    so the only transcendental per (cell, pair) is the sine of the sinc.
    With w_n = 2 pi (f0 + perm[n] df), 2 pi f0 tau is common to a cell and
    joins its factor, and 2 pi f0 d t enters the Doppler table with f0 t
    reduced modulo 1; so |A| loses no precision to a large f0.

    The Doppler axis and each lag's delays are taken in blocks of at most
    _AF_ELEMS (delay, Doppler, pair) terms, and a cell's value depends on
    that cell alone, however the grid is blocked: each cell's pair sum runs
    along the contiguous last axis, and complex products are formed from
    real ones (numpy's complex multiply rounds a lone element differently
    from an array of them).
    """
    # the tones' offsets from f0 (tone_frequencies also checks perm)
    w = 2.0 * np.pi * tone_frequencies(perm, replace(params, f0=0.0))
    tones = np.asarray(perm, dtype=float)
    t = params.t
    m_count = params.m
    scale = 1.0 / (m_count * t)  # the unit-energy amplitude squared
    carrier_turns = (params.f0 * t) % 1.0
    tau_a = np.asarray(tau, dtype=float)
    omega_a = np.asarray(omega, dtype=float)
    tau_f = tau_a.ravel()
    omega_f = omega_a.ravel()
    acc = np.zeros((tau_f.size, omega_f.size), dtype=complex)
    acc_re, acc_im = acc.real, acc.imag
    lags = []
    for lag in range(1 - m_count, m_count):
        x = tau_f + lag * t
        rows = np.flatnonzero((x > -t) & (x < t))
        if rows.size:
            lags.append((lag, rows, max(0, -lag), min(m_count, m_count - lag)))
    # only cells within the waveform's duration can be nonzero, and
    # WaveformParams keeps the carrier phase over that span finite
    support = np.flatnonzero(np.abs(tau_f) < m_count * t)
    o_step = max(1, _AF_ELEMS // m_count)
    for o_start in range(0, omega_f.size, o_step):
        cols = slice(o_start, o_start + o_step)
        om = omega_f[cols, None]
        pulse_angle = om * (np.arange(m_count) * t)
        pulse_cos, pulse_sin = np.cos(pulse_angle), np.sin(pulse_angle)
        for lag, rows, lo, hi in lags:
            # the pairs (m, m + lag) for lo <= m < hi; w_m - w_n from the
            # tone indices, so a large f0 does not absorb it
            dw = 2.0 * np.pi * params.delta_f * (tones[lo:hi] - tones[lo + lag:hi + lag])
            half = 0.5 * (om + dw)
            # below this |half| t the sinc is 1 to double precision, and
            # the amplitude is t - |x| itself
            steep = np.abs(half) * t >= 2.0**-30
            flat = np.nonzero(~steep)
            # the Doppler table over (Doppler, pair), divided by half for
            # the sine and scaled to unit energy
            gain = np.divide(scale, half, out=np.full(half.shape, scale), where=steep)
            lag_angle = om * (0.5 * (lag + 1) * t) + 2.0 * np.pi * lag * carrier_turns
            lag_cos, lag_sin = np.cos(lag_angle), np.sin(lag_angle)
            p_cos, p_sin = pulse_cos[:, lo:hi], pulse_sin[:, lo:hi]
            dop_re = (p_cos * lag_cos - p_sin * lag_sin) * gain
            dop_im = (p_cos * lag_sin + p_sin * lag_cos) * gain
            r_step = max(1, _AF_ELEMS // half.size)
            for r_start in range(0, rows.size, r_step):
                sel = rows[r_start:r_start + r_step]
                x = tau_f[sel, None] + lag * t
                u = t - np.abs(x)
                # the delay table over (delay, pair)
                angle = (0.5 * dw) * (t + x) + w[lo + lag:hi + lag] * x
                del_re = np.cos(angle)[:, None, :]
                del_im = np.sin(angle)[:, None, :]
                amp = np.sin(u[:, :, None] * half)
                if flat[0].size:
                    amp[:, flat[0], flat[1]] = u
                # amp (del_re + j del_im) (dop_re + j dop_im), summed over pairs
                a = amp * dop_re
                amp *= dop_im
                re = a * del_re
                re -= amp * del_im
                a *= del_im
                amp *= del_re
                a += amp
                acc_re[sel, cols] += re.sum(axis=2)
                acc_im[sel, cols] += a.sum(axis=2)
        # the cell factor exp(j tau (omega / 2 + 2 pi f0))
        rate = 0.5 * om[:, 0] + 2.0 * np.pi * params.f0
        c_step = max(1, _AF_ELEMS // rate.size)
        for r_start in range(0, support.size, c_step):
            sel = support[r_start:r_start + c_step]
            angle = tau_f[sel, None] * rate
            c, s = np.cos(angle), np.sin(angle)
            re, im = acc_re[sel, cols], acc_im[sel, cols]
            acc_re[sel, cols] = re * c - im * s
            acc_im[sel, cols] = re * s + im * c
    acc = acc.reshape(tau_a.shape + omega_a.shape)
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
    # no more processes than delay rows, or than cores
    workers = min(workers, tau_axis.size, os.cpu_count() or 1)
    if workers > 1:
        chunks = np.array_split(np.arange(tau_axis.size), workers)
        args = [(list(perm), params, tau_axis[idx], omega_axis) for idx in chunks]
        # imported here, as in simkit: a serial call does not load the pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_af_grid_chunk, args))
        values = np.vstack(parts)
    else:
        values = _af_grid_chunk((list(perm), params, tau_axis, omega_axis))
    return AFGrid(tau=tau_axis, omega=omega_axis, values=values)


def _af_grid_chunk(args) -> np.ndarray:
    perm, params, tau_axis, omega_axis = args
    return np.abs(complex_af(perm, params, tau_axis, omega_axis))


def zero_doppler_cut(perm: Sequence[int], params: WaveformParams, tau_axis) -> np.ndarray:
    """|A(tau, 0)|: the autocorrelation magnitude along the delay axis."""
    return np.abs(complex_af(perm, params, tau_axis, 0.0))


def zero_delay_cut(perm: Sequence[int], params: WaveformParams, omega_axis) -> np.ndarray:
    """|A(0, omega)|: the spectrum of |s|^2 along the Doppler axis.

    The constant-modulus envelope makes this cut permutation independent.
    """
    return np.abs(complex_af(perm, params, 0.0, omega_axis))


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
    response = np.abs(complex_af(perm, params, tau_axis, -omega_axis))
    mask = response > threshold
    if not np.any(mask):
        raise NumericError(
            f"no grid cells above threshold {threshold}",
            threshold=threshold,
            grid_max=float(response.max()),
        )
    rows, cols = np.nonzero(mask)
    tc = tau_axis[rows]
    wc = omega_axis[cols]
    return float(np.mean((tc - tc.mean()) * (wc - wc.mean())))


@dataclass(frozen=True)
class FisherMatrix:
    """2x2 information matrix for (delay, Doppler), with its constant C."""

    j11: float
    j12: float
    j22: float
    c: float  # energy-to-noise constant (2/n0) / (1 + n0)

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
    if not (isfinite(j11) and isfinite(j12) and isfinite(j22)):
        raise NumericError(
            "Fisher matrix entry overflows", j11=j11, j12=j12, j22=j22, c=c, b=b
        )
    return FisherMatrix(j11=j11, j12=j12, j22=j22, c=c)


def crlb_full(
    perm: Sequence[int], params: WaveformParams, n0: float, b: float
) -> tuple[float, float]:
    """(delay, Doppler) estimation-variance bounds from the inverted matrix.

    Computed by exact 2x2 inversion of the assembled Fisher matrix.
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
