"""Delay-Doppler ambiguity surface, Fisher information, and estimation bounds.

The complex ambiguity surface of the pulse train decomposes into a sum
over pulse pairs of single-pulse terms, each a shifted copy of the
rectangular pulse's closed-form ambiguity.  A pair's term is nonzero only
within one pulse width of its lag, so each delay sees at most two lags
(three on a pulse edge) and O(M) terms.  A direct quadrature oracle of
the defining autocorrelation integral is kept alongside for
cross-checking.
Estimation accuracy is characterized by the 2x2 Fisher information in
(delay, Doppler) and the bounds from its inverse.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import ceil, cos, floor
from typing import Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .waveform import WaveformParams, tone_frequencies

# Below this |omega| * T the closed-form branches are 0/0; switch to a
# 4-term series of (exp(jwx) - exp(jwy)) / (jw).
_SMALL_PHASE = 1e-6

# elements per (cells, pairs) block of complex_af; pulse_af and the phase
# factor hold several complex temporaries of that size at once, so this
# bounds the kernel's peak memory (about 1 MB) whatever the grid and M
_AF_ELEMS = 1 << 13


def pulse_af(tau, omega, t: float):
    """Complex ambiguity of one rectangular pulse of width t.

    Piecewise in delay: zero outside |tau| <= t, one exponential-difference
    branch on each side.  Accepts scalars or broadcastable arrays.
    """
    tau_a, omega_a = np.broadcast_arrays(
        np.asarray(tau, dtype=float), np.asarray(omega, dtype=float)
    )
    out = np.zeros(tau_a.shape, dtype=complex)
    pos = (tau_a >= 0.0) & (tau_a <= t)
    neg = (tau_a >= -t) & (tau_a < 0.0)
    if np.any(pos):
        out[pos] = _exp_diff_over_jw(t, tau_a[pos], omega_a[pos], t)
    if np.any(neg):
        tn, wn = tau_a[neg], omega_a[neg]
        out[neg] = np.exp(1j * wn * tn) * _exp_diff_over_jw(t, -tn, wn, t)
    if out.ndim == 0:
        return complex(out)
    return out


def _exp_diff_over_jw(x, y, w, t: float):
    """(exp(jwx) - exp(jwy)) / (jw) with a series fallback near w = 0."""
    x, y, w = np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(w, dtype=float)
    )
    small = np.abs(w) * t < _SMALL_PHASE
    safe_w = np.where(small, 1.0, w)
    out = (np.exp(1j * safe_w * x) - np.exp(1j * safe_w * y)) / (1j * safe_w)
    if np.any(small):
        # the series is needed only on the few near-zero-Doppler elements
        x, y, jw = x[small], y[small], 1j * w[small]
        out[small] = (
            (x - y)
            + jw * (x**2 - y**2) / 2.0
            + jw**2 * (x**3 - y**3) / 6.0
            + jw**3 * (x**4 - y**4) / 24.0
        )
    return out


def complex_af(perm: Sequence[int], params: WaveformParams, tau, omega):
    """Time-frequency autocorrelation of the unit-energy waveform.

    Sum over pulse pairs (m, n) of the single-pulse ambiguity with the
    inter-pulse phase factors.  A pair's term vanishes unless
    |tau + (n - m) t| <= t, so the pairs are grouped by lag n - m and each
    lag is evaluated only on the cells inside its support: at most two lags
    (three on a pulse edge), O(M) pulse terms, per evaluation point.  Each cell's value depends on
    that cell alone, whatever other cells are evaluated with it.  The
    waveform energy is normalized to one regardless of params.energy.
    """
    freqs = tone_frequencies(perm, params)
    w = 2.0 * np.pi * freqs
    t = params.t
    m_count = params.m
    tau_a, omega_a = np.broadcast_arrays(
        np.asarray(tau, dtype=float), np.asarray(omega, dtype=float)
    )
    tau_f = tau_a.ravel()
    omega_f = omega_a.ravel()
    acc = np.zeros(tau_f.shape, dtype=complex)
    for lag in range(1 - m_count, m_count):
        shift = lag * t
        x = tau_f + shift
        cells = np.flatnonzero((x >= -t) & (x <= t))
        if cells.size == 0:
            continue
        m_idx = np.arange(max(0, -lag), min(m_count, m_count - lag))
        n_idx = m_idx + lag
        # (cells, pairs) blocks: the pair sum runs along the contiguous last
        # axis, so each cell is summed in the same order in every block
        step = max(1, _AF_ELEMS // m_idx.size)
        for start in range(0, cells.size, step):
            sel = cells[start:start + step]
            tc = tau_f[sel, None]
            oc = omega_f[sel, None]
            ap = pulse_af(x[sel, None], oc - w[n_idx] + w[m_idx], t)
            phase = np.exp(1j * (oc * m_idx * t - w[n_idx] * (-shift - tc)))
            acc[sel] += (ap * phase).sum(axis=1)
    acc = (acc / (m_count * t)).reshape(tau_a.shape)
    if acc.ndim == 0:
        return complex(acc)
    return acc


def af_numeric_oracle(
    perm: Sequence[int],
    params: WaveformParams,
    tau: float,
    omega: float,
    samples_per_pulse: int = 20_000,
) -> complex:
    """Trapezoidal quadrature of the defining autocorrelation integral.

    The integrand s(u) s*(u - tau) exp(j omega u) is integrated piecewise
    between the pulse boundaries of both factors, where it is a single
    complex exponential evaluated analytically.  Cross-validation oracle
    for complex_af on desk-scale grids.
    """
    freqs = tone_frequencies(perm, params)
    w = 2.0 * np.pi * freqs
    t = params.t
    total_t = params.duration
    amp2 = 1.0 / (params.m * t)  # unit-energy squared amplitude
    lo = max(0.0, tau)
    hi = min(total_t, total_t + tau)
    if lo >= hi:
        return 0.0 + 0.0j
    cuts = {lo, hi}
    for m in range(1, params.m):
        for edge in (m * t, m * t + tau):
            if lo < edge < hi:
                cuts.add(edge)
    edges = sorted(cuts)
    step = t / samples_per_pulse
    total = 0.0 + 0.0j
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a < 1e-15 * t:
            continue
        mid = 0.5 * (a + b)
        ma = min(params.m - 1, max(0, int(floor(mid / t))))
        mb = min(params.m - 1, max(0, int(floor((mid - tau) / t))))
        u = np.linspace(a, b, max(2, int(ceil((b - a) / step)) + 1))
        f = amp2 * np.exp(
            1j * (w[ma] * (u - ma * t) - w[mb] * (u - tau - mb * t) + omega * u)
        )
        total += complex(np.trapezoid(f, u))
    return total


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
