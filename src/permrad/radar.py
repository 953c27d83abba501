"""Delay-Doppler ambiguity surface, Fisher information, and estimation bounds.

The complex ambiguity surface of the pulse train decomposes into a sum
over pulse pairs of single-pulse terms, each a shifted copy of the
rectangular pulse's closed-form ambiguity (t - |tau|) sinc(omega (t -
|tau|) / 2) times a phase factor that also carries the pair's inter-pulse
phase.  A pair's term is nonzero only within one pulse width of its lag,
so each delay sees at most two lags and O(M) terms.  Writing the sinc's
sine as a difference of two exponentials splits every term into a delay
part and a Doppler part, so over a delay axis times a Doppler axis each
cell's pair sum is two contractions of a (delay, pair) table with a
(Doppler, pair) table, done with np.einsum so that a cell's value does not
depend on the blocking, plus one phasor per cell: no transcendental is
evaluated per (cell, pair).  Near a pair's ridge, where the Doppler table's
1 / h would lose precision, that pair's term is evaluated directly.
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

# elements per block of complex_af's delay and Doppler axes and per table;
# it holds a few real temporaries of that size at once, so this bounds the
# kernel's working memory beyond its output, whatever the axis lengths
_AF_ELEMS = 1 << 13
# below this |h| t, with h = (omega + w_m - w_n) / 2, a pair's term is
# added directly, not through the Doppler tables' 1 / h
_AF_RIDGE = 2.0**-4
# cos(a - shift) over these shifts gives cos a and sin a
_COS_SIN = np.array([0.0, 0.5 * np.pi])[:, None]
# the signs of a pair's (U, W) Doppler tables on lag d and on lag d - 1
_NEAR = np.array([1.0, -1.0])[:, None, None]
_FAR = np.array([-1.0, 1.0])[:, None, None]


def complex_af(perm: Sequence[int], params: WaveformParams, tau, omega):
    """Time-frequency autocorrelation of the unit-energy waveform over a grid.

    Evaluates the outer product of a delay axis tau (seconds) and a Doppler
    axis omega (rad/s): the result has shape tau.shape + omega.shape, and
    is a complex for two scalars.  The waveform energy is normalized to one
    regardless of params.energy.

    The surface is a sum over pulse pairs (m, n) of the single-pulse
    ambiguity at delay x = tau + (n - m) t and Doppler omega + w_m - w_n,
    (scale / h) sin(u h) exp(j phase), with u = t - |x|,
    h = (omega + w_m - w_n) / 2, phase = h (t + x) + omega m t + w_n x and
    scale = 1 / (M t), times the cell factor exp(j tau (omega / 2 + 2 pi f0))
    applied to every term.  A pair's term vanishes unless |x| < t, so a
    delay whose x' = tau + d t lies in [0, t) (its slot d) sees only lag d,
    with u = t - x', and lag d - 1, with u = x'.

    Writing sin(u h) = (exp(j u h) - exp(-j u h)) / 2j and splitting
    u h = u omega / 2 + u (w_m - w_n) / 2 turns a cell's sum into
    U + exp(j omega (x' - t / 2)) W, where U and W each sum, over the pairs
    of both lags, a (delay, pair) table times a (Doppler, pair) table:
      - U's delay table is exp(j (a +- u (w_m - w_n) / 2)), a being the
        phase's delay part, times the cell factor's carrier part; W's is
        U's turned by exp(-+ j u (w_m - w_n));
      - the Doppler tables are +-(scale / 2h) exp(j omega m t), turned by
        exp(j omega t / 2) or exp(j omega t).
    So U and W are two contractions over pairs, done with np.einsum; the one
    transcendental left per cell is exp(j omega (x' - t / 2)), and none is
    evaluated per (cell, pair).  Each turned table is derived from the one
    it turns, so the rounding that U and W share cancels where they cancel.
    Where |h| t < _AF_RIDGE the Doppler tables' 1 / h would lose precision:
    their entry is zero there, and the pair's term is added directly by the
    sinc formula, or as scale u below |h| t = 2^-30, where the sinc is 1 to
    double precision.  f0 enters only the cell factor, with f0 t reduced
    modulo 1, so |A| loses no precision to a large f0.

    The Doppler axis and the delays are taken in blocks of about _AF_ELEMS
    elements, and a cell's value depends on that cell alone, however the
    grid is blocked: np.einsum sums each cell's pairs in one fixed order
    (a BLAS product's rounding would depend on the cell's place in its
    block), and complex products are formed from real ones (numpy's complex
    multiply rounds a lone element differently from an array of them).
    """
    # the tones' offsets from f0 (tone_frequencies also checks perm)
    w = 2.0 * np.pi * tone_frequencies(perm, replace(params, f0=0.0))
    tone = np.asarray(perm, dtype=np.intp)
    t = params.t
    m_count = params.m
    scale = 1.0 / (m_count * t)  # the unit-energy amplitude squared
    carrier_turns = (params.f0 * t) % 1.0
    tau_a = np.asarray(tau, dtype=float)
    omega_a = np.asarray(omega, dtype=float)
    tau_f = tau_a.ravel()
    omega_f = omega_a.ravel()
    acc = np.zeros((tau_f.size, omega_f.size), dtype=complex)
    # w_m - w_n over the tone differences k = perm[m] - perm[n] (entry
    # k + M - 1), from the tone indices, so a large f0 does not absorb it
    dw_k = 2.0 * np.pi * params.delta_f * np.arange(1.0 - m_count, m_count)
    # only cells within the waveform's duration can be nonzero, and
    # WaveformParams keeps the carrier phase over that span finite; the
    # rows go in slot order, each with its x' and its slot's pair counts
    support = np.flatnonzero(np.abs(tau_f) < m_count * t)
    slot_of = (-np.floor(tau_f[support] / t)).astype(np.intp)
    order = np.argsort(slot_of, kind="stable")
    rows, row_slot = support[order], slot_of[order]
    x_rows = tau_f[rows] + row_slot * t
    lag_pairs = np.maximum(m_count - np.abs(np.arange(-m_count, m_count + 1)), 0)
    near_pairs = lag_pairs[row_slot + m_count]
    row_pairs = near_pairs + lag_pairs[row_slot + m_count - 1]
    # the cell factor's carrier part, exp(j rho) with rho = 2 pi f0 x'
    # - 2 pi d f0 t, over the 2j of the sine
    rho = (2.0 * np.pi * params.f0) * x_rows - 2.0 * np.pi * ((row_slot * carrier_turns) % 1.0)
    carrier = np.stack((np.sin(rho), -np.cos(rho)))
    pulse_of_tone = np.empty(m_count, dtype=np.intp)
    pulse_of_tone[tone] = np.arange(m_count)

    def delay_tables(c_lo, c_hi, e_start, is_near, a1, a0, signed, row_start):
        # U's and W's (delay, pair) tables for the rows c_lo:c_hi, in their
        # real 2x2 forms, over (U/W, re/im of the sum, row-major (re/im of
        # the Doppler table, pair)); signed is +-(w_m - w_n) / 2
        x, c_q = x_rows[c_lo:c_hi], row_pairs[c_lo:c_hi]
        e_row = np.repeat(np.arange(x.size), c_q)
        e_pair = _ranges(row_start, c_q)
        xe = x[e_row]
        # u (w_m - w_n) / 2, added to the delay phase a1 x' + a0 on lag d
        # and taken from it on lag d - 1
        spread = np.where(is_near[e_pair], t - xe, xe) * signed[e_pair]
        angle = np.stack((a1[e_pair] * xe + a0[e_pair] + spread, -2.0 * spread))
        (e_re, e_im), (z_re, z_im) = np.cos(angle[:, None] - _COS_SIN)
        k_re, k_im = carrier[:, c_lo:c_hi][:, e_row]
        u_re, u_im = e_re * k_re - e_im * k_im, e_re * k_im + e_im * k_re
        uw = np.array([[u_re, u_im], [u_re * z_re - u_im * z_im, u_re * z_im + u_im * z_re]])
        left = np.empty((2, 2, 2 * e_row.size))
        pos = _ranges(2 * e_start, c_q)
        left[:, :, pos] = uw
        pos += c_q[e_row]
        left[:, 0, pos] = -uw[:, 1]
        left[:, 1, pos] = uw[:, 0]
        return left

    def doppler_table(om, phasor, gain_k, ki, m, n_near):
        # over (U/W, Doppler, re/im, pair), written through its transpose:
        # U takes g exp(j omega (m + 1) t) on lag d and -g exp(j omega m t)
        # on lag d - 1, W takes -g exp(j omega (m + 1 / 2) t) and
        # g exp(j omega (m + 1 / 2) t), with g = scale / 2h
        right = np.empty((2, om.size, 2, ki.size))
        right_t = right.transpose(0, 2, 3, 1)
        for pairs, tables, sign in ((slice(0, n_near), phasor[:2], _NEAR),
                                    (slice(n_near, ki.size), phasor[:0:-1], _FAR)):
            if pairs.start < pairs.stop:
                g = gain_k[ki[pairs]] * sign
                m0 = m[pairs.start]
                np.multiply(tables[:, :, m0:m0 + g.shape[1]], g[:, None],
                            out=right_t[:, :, pairs])
        return right.reshape(2, om.size, 2 * ki.size)

    def add_ridge(om, o_start, ridge_k):
        # each ridge entry (k, Doppler) with each pair (m, n) of tone
        # difference k, over the rows of slot n - m (u = t - x') and of slot
        # n - m + 1 (u = x'): the term, times the cell factor, is added to
        # the cell directly
        e_k, e_o = np.nonzero(ridge_k)
        n_pairs = m_count - np.abs(e_k - (m_count - 1))
        v = _ranges(np.maximum(0, e_k - (m_count - 1)), n_pairs)
        p_e = np.repeat(np.arange(e_k.size), n_pairs)
        m, n = pulse_of_tone[v], pulse_of_tone[v - e_k[p_e] + (m_count - 1)]
        # each pair on slot n - m, then on slot n - m + 1
        slot = np.stack((n - m, n - m + 1), axis=1).ravel()
        first = np.searchsorted(row_slot, slot)
        count = np.searchsorted(row_slot, slot, side="right") - first
        for g_lo, g_hi in _runs((np.cumsum(count) - count) // _AF_ELEMS):
            n_rows = count[g_lo:g_hi]
            which = np.repeat(np.arange(g_lo, g_hi), n_rows)
            row = _ranges(first[g_lo:g_hi], n_rows)
            pe, far = which // 2, which % 2
            mm, nn, ek, col = m[pe], n[pe], e_k[p_e[pe]], e_o[p_e[pe]]
            xr = x_rows[row]
            u = np.where(far, xr, t - xr)
            half = 0.5 * (dw_k[ek] + om[col])
            steep = np.abs(half) * t >= 2.0**-30
            amp = np.sin(u * half)
            amp *= np.divide(scale, half, out=np.zeros(half.shape), where=steep)
            amp += u * np.where(steep, 0.0, scale)
            # the delay part of the phase at x = x' - far t, and its Doppler
            # part with the cell factor's omega tau / 2 (the carrier part is
            # the row's, from the table)
            a1 = 0.5 * (w[mm] + w[nn])
            lag = nn - mm
            phase = (a1 * (xr - far * t) + 0.5 * dw_k[ek] * t + 2.0 * np.pi * lag * carrier_turns
                     + om[col] * (t * mm + 0.5 * t * (1 - far) + 0.5 * xr))
            p_re, p_im = np.cos(phase - _COS_SIN)
            # times the carrier exp(j rho) = j (exp(j rho) / j)
            k_re, k_im = carrier[:, row]
            term = np.empty(row.size, dtype=complex)
            np.multiply(amp, -p_re * k_im - p_im * k_re, out=term.real)
            np.multiply(amp, p_re * k_re - p_im * k_im, out=term.imag)
            np.add.at(acc, (rows[row], o_start + col), term)

    def slot_rows(c_lo, c_hi, om, cols, phasor, gain_k, right_cache):
        # the cells of rows c_lo:c_hi, whole slots or part of one
        x = x_rows[c_lo:c_hi]
        c_q, c_near = row_pairs[c_lo:c_hi], near_pairs[c_lo:c_hi]
        s_first, s_stop = np.array(list(_runs(row_slot[c_lo:c_hi]))).T
        slots, s_count = row_slot[c_lo + s_first], s_stop - s_first
        # each slot's pairs: lag d's (m, m + d), then lag d - 1's
        q_s, p_s = c_q[s_first], c_near[s_first]
        s_start = np.cumsum(q_s) - q_s
        j = _ranges(np.zeros_like(q_s), q_s)
        is_near = j < np.repeat(p_s, q_s)
        lag = np.repeat(slots, q_s) - ~is_near  # d or d - 1
        m = np.maximum(0, -lag) + np.where(is_near, j, j - np.repeat(p_s, q_s))
        ki = tone[m] - tone[m + lag] + (m_count - 1)
        hdw = 0.5 * dw_k[ki]
        # the phase's delay part (w_m - w_n) (t + x) / 2 + w_n x, with the
        # carrier's 2 pi (n - m) f0 t, is a1 x' + a0, as x = x' on lag d
        # and x' - t on lag d - 1
        a1 = 0.5 * (w[m] + w[m + lag])
        a0 = hdw * t + 2.0 * np.pi * lag * carrier_turns - np.where(is_near, 0.0, t) * a1
        e_start = np.cumsum(c_q) - c_q
        left = delay_tables(c_lo, c_hi, e_start, is_near, a1, a0, np.where(is_near, hdw, -hdw),
                            np.repeat(s_start, s_count))
        sums = np.empty((2, 2, x.size, om.size))
        for slot, r0, r_n, q, pn, b0 in zip(slots.tolist(), s_first.tolist(), s_count.tolist(),
                                            q_s.tolist(), p_s.tolist(), s_start.tolist()):
            if right_cache[0] != slot:
                right_cache[:] = None, None  # freed before the next is built
                right_cache[:] = slot, doppler_table(om, phasor, gain_k, ki[b0:b0 + q], m[b0:b0 + q],
                                                     pn)
            lo = 2 * e_start[r0]
            sums[:, :, r0:r0 + r_n] = np.einsum(
                "sarq,soq->saro", left[:, :, lo:lo + 2 * q * r_n].reshape(2, 2, r_n, 2 * q),
                right_cache[1])
        # the cells: U + exp(j omega (x' - t / 2)) W
        (u_re, u_im), (w_re, w_im) = sums
        cell = (x - 0.5 * t)[:, None] * om
        c, s = np.cos(cell), np.sin(cell)
        c_rows = rows[c_lo:c_hi]
        acc.real[c_rows, cols] = u_re + (c * w_re - s * w_im)
        acc.imag[c_rows, cols] = u_im + (s * w_re + c * w_im)

    o_step = max(1, _AF_ELEMS // m_count)
    for o_start in range(0, omega_f.size, o_step):
        cols = slice(o_start, o_start + o_step)
        om = omega_f[cols]
        # tables over (..., Doppler), the long axis last: the phasors
        # exp(j omega (m + 1) t), exp(j omega (m + 1 / 2) t) and
        # exp(j omega m t), m = 0..M - 1, as (re, im), the first two turned
        # from the last so that their rounding moves together; and the gain
        # scale / (2 h) over the tone differences, zero on the ridge
        phasor = np.empty((3, 2, m_count, om.size))
        pulse = phasor[2]
        pulse_angle = (t * np.arange(m_count))[:, None] * om
        np.cos(pulse_angle, out=pulse[0])
        np.sin(pulse_angle, out=pulse[1])
        del pulse_angle
        turn_angle = np.array([[t], [0.5 * t]]) * om
        turn_cos, turn_sin = np.cos(turn_angle)[:, None], np.sin(turn_angle)[:, None]
        np.subtract(pulse[0] * turn_cos, pulse[1] * turn_sin, out=phasor[:2, 0])
        np.add(pulse[0] * turn_sin, pulse[1] * turn_cos, out=phasor[:2, 1])
        half_k = dw_k[:, None] + om
        half_k *= 0.5
        ridge_k = np.abs(half_k) * t < _AF_RIDGE
        gain_k = np.divide(0.5 * scale, half_k, out=np.zeros(half_k.shape), where=~ridge_k)
        del half_k  # the rows' work below sets the kernel's peak memory
        # rows go in chunks of about _AF_ELEMS elements of their tables
        cost = 2 * (om.size + row_pairs)
        right_cache = [None, None]
        for c_lo, c_hi in _runs((np.cumsum(cost) - cost) // _AF_ELEMS):
            slot_rows(c_lo, c_hi, om, cols, phasor, gain_k, right_cache)
        add_ridge(om, o_start, ridge_k)
    acc = acc.reshape(tau_a.shape + omega_a.shape)
    if acc.ndim == 0:
        return complex(acc)
    return acc


def _ranges(starts, counts):
    """range(s, s + c) over paired starts and counts, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)


def _runs(labels):
    """(start, stop) of each run of equal values in a 1-d label array."""
    cuts = (np.flatnonzero(np.diff(labels)) + 1).tolist()
    bounds = [0, *cuts, labels.size] if labels.size else []
    return zip(bounds[:-1], bounds[1:])


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
