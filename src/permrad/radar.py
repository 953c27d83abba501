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
1 / h would lose precision, that pair's term is evaluated directly, from
the same (delay, pair) entries that build the delay tables, so each pair
term is enumerated once.
Every ambiguity function has |A(-tau, -omega)| = |A(tau, omega)|, so
af_grid takes a cell with tau > 0 at its representative (-tau, -omega):
on a Doppler axis that is its own negation reversed, bit for bit, a grid
symmetric about the origin runs the kernel on about half its delay rows.
af_axis builds such axes: linspace's, with the upper half the exact
negation of the lower whenever the ends are each other's negation.
Estimation accuracy is characterized by the 2x2 Fisher information in
(delay, Doppler) and the bounds from its inverse.
"""

from __future__ import annotations

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
# a slot's pairs go in blocks of this many at fixed places, which bounds
# the tables and the ridge terms one delay row needs at large M; each
# slot's 2M - 1 pairs fit in one block up to M = 2048
_AF_PAIRS = 1 << 12
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
    their entry is zero there, and the pair's term scale u sinc(u h)
    exp(j phase), times the cell factor, is added to U directly, on the
    Doppler columns of the pair's ridge.  It comes from the same
    (delay, pair) entries as the delay tables, with their delay part a of
    the phase, so every pair term is enumerated once.  f0 enters only the
    cell factor, with f0 t reduced modulo 1, so |A| loses no precision to
    a large f0.

    The Doppler axis and the delays are taken in blocks of about _AF_ELEMS
    elements, and a slot's pairs in blocks of _AF_PAIRS from its first
    pair; after a block's contractions its ridge terms are added to U in
    pair order, at most _AF_ELEMS at a time.  A cell's value depends on
    that cell alone, however the grid is blocked: np.einsum sums each
    cell's pairs in one fixed order
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
    # scale (cos rho, sin rho) and scale (sin rho, -cos rho): a ridge term's
    # phasor p times scale exp(j rho) is p_re times the first pair of rows
    # minus p_im times the second
    ridge_turn = scale * np.stack((-carrier[1], carrier[0], carrier[0], carrier[1]))

    def delay_tables(c_q, e_start, e_q, angle, k_e):
        # U's and W's (delay, pair) tables for entries of c_q pairs per row,
        # in their real 2x2 forms, over (U/W, re/im of the sum, row-major
        # (re/im of the Doppler table, pair)), from U's angle and W's turn
        (e_re, e_im), (z_re, z_im) = np.cos(angle[:, None] - _COS_SIN)
        k_re, k_im = k_e
        u_re, u_im = e_re * k_re - e_im * k_im, e_re * k_im + e_im * k_re
        uw = np.array([[u_re, u_im], [u_re * z_re - u_im * z_im, u_re * z_im + u_im * z_re]])
        left = np.empty((2, 2, 2 * e_q.size))
        pos = _ranges(2 * e_start, c_q)
        left[:, :, pos] = uw
        pos += e_q
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

    def slot_rows(c_lo, c_hi, om, cols, phasor, gain_k, ridge, right_cache):
        # the cells of rows c_lo:c_hi, whole slots or part of one
        x = x_rows[c_lo:c_hi]
        ridge_at, ridge_cols = ridge
        s_first, s_stop = np.array(list(_runs(row_slot[c_lo:c_hi]))).T
        slots, s_count = row_slot[c_lo + s_first], s_stop - s_first
        # each slot's pairs, lag d's (m, m + d) then lag d - 1's, in blocks
        # of _AF_PAIRS from its first pair; a cell adds its blocks in order
        q_all, p_all = row_pairs[c_lo + s_first], near_pairs[c_lo + s_first]
        sums = np.empty((2, 2, x.size, om.size))
        for j_lo in range(0, int(q_all.max()), _AF_PAIRS):
            q_s = np.minimum(np.maximum(q_all - j_lo, 0), _AF_PAIRS)
            p_s = np.minimum(np.maximum(p_all - j_lo, 0), q_s)
            s_start = np.cumsum(q_s) - q_s
            j = _ranges(np.full_like(q_s, j_lo), q_s)
            is_near = j < np.repeat(p_all, q_s)
            lag = np.repeat(slots, q_s) - ~is_near  # d or d - 1
            m = np.maximum(0, -lag) + np.where(is_near, j, j - np.repeat(p_all, q_s))
            ki = tone[m] - tone[m + lag] + (m_count - 1)
            hdw = 0.5 * dw_k[ki]
            # the phase's delay part (w_m - w_n) (t + x) / 2 + w_n x, with
            # the carrier's 2 pi (n - m) f0 t, is a1 x' + a0, as x = x' on
            # lag d and x' - t on lag d - 1; its Doppler part with the cell
            # factor's omega tau / 2 is omega (b + x' / 2)
            a1 = 0.5 * (w[m] + w[m + lag])
            a0 = hdw * t + 2.0 * np.pi * lag * carrier_turns - np.where(is_near, 0.0, t) * a1
            b = t * m + 0.5 * t * is_near
            # the block's (row, pair) entries, each row's pairs in order
            c_q = np.repeat(q_s, s_count)
            e_start = np.cumsum(c_q) - c_q
            e_row = np.repeat(np.arange(x.size), c_q)
            e_pair = _ranges(np.repeat(s_start, s_count), c_q)
            xe = x[e_row]
            u = np.where(is_near[e_pair], t - xe, xe)
            # u (w_m - w_n) / 2 is added to the delay phase on lag d and
            # taken from it on lag d - 1
            spread = u * np.where(is_near, hdw, -hdw)[e_pair]
            delay = a1[e_pair] * xe + a0[e_pair]
            k_e = carrier[:, c_lo + e_row]
            left = delay_tables(c_q, e_start, c_q[e_row],
                                np.stack((delay + spread, -2.0 * spread)), k_e)
            for slot, r0, r_n, q, pn, b0 in zip(slots.tolist(), s_first.tolist(), s_count.tolist(),
                                                q_s.tolist(), p_s.tolist(), s_start.tolist()):
                if q == 0:
                    continue  # the slot's pairs ended in an earlier block
                if right_cache[0] != (slot, j_lo):
                    right_cache[:] = None, None  # freed before the next is built
                    right_cache[:] = (slot, j_lo), doppler_table(om, phasor, gain_k, ki[b0:b0 + q],
                                                                 m[b0:b0 + q], pn)
                lo = 2 * e_start[r0]
                part = np.einsum(
                    "sarq,soq->saro", left[:, :, lo:lo + 2 * q * r_n].reshape(2, 2, r_n, 2 * q),
                    right_cache[1])
                if j_lo:
                    part += sums[:, :, r0:r0 + r_n]
                sums[:, :, r0:r0 + r_n] = part
            # each entry on its pair's ridge columns, where the Doppler
            # gain is zero: the term u sinc(u h) = sin(u h) / h (u where
            # h = 0) times exp(j phase) and the carrier row of ridge_turn,
            # added to U in pair order, _AF_ELEMS terms at a time; an
            # entry's terms are the run of its tone difference's columns
            e_k = ki[e_pair]
            e_stop = ridge_at[e_k + 1]
            e_end = np.cumsum(e_stop - ridge_at[e_k])
            e_shift = e_stop - e_end  # from a term's index to its column's
            u_sums = sums[0].reshape(2, -1)  # over the row-major cells
            for i_lo in range(0, int(e_end[-1]), _AF_ELEMS):
                i = np.arange(i_lo, min(i_lo + _AF_ELEMS, e_end[-1]))
                e = np.searchsorted(e_end, i, side="right")  # the term's entry
                col = ridge_cols[e_shift[e] + i]
                p, row, oc = e_pair[e], e_row[e], om[col]
                h = hdw[p] + 0.5 * oc
                ur = u[e]
                amp = np.divide(np.sin(ur * h), h, out=ur, where=h != 0.0)
                p_re, p_im = amp * np.cos(delay[e] + oc * (b[p] + 0.5 * x[row]) - _COS_SIN)
                turn = ridge_turn.take(c_lo + row, axis=1)
                flat = row * om.size + col
                for total, term in zip(u_sums, p_re * turn[:2] - p_im * turn[2:]):
                    np.add.at(total, flat, term)  # 1-d, numpy's fast path
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
        on_ridge = np.abs(half_k) * t < _AF_RIDGE
        gain_k = np.divide(0.5 * scale, half_k, out=np.zeros(half_k.shape), where=~on_ridge)
        del half_k  # the rows' work below sets the kernel's peak memory
        # the ridge's columns in tone difference order, and where each tone
        # difference's run of them starts (and the last one ends)
        ridge_ki, ridge_cols = np.nonzero(on_ridge)
        ridge = np.searchsorted(ridge_ki, np.arange(2 * m_count)), ridge_cols
        # rows go in chunks of about _AF_ELEMS elements of their tables
        cost = 2 * (om.size + row_pairs)
        right_cache = [None, None]
        for c_lo, c_hi in _runs((np.cumsum(cost) - cost) // _AF_ELEMS):
            slot_rows(c_lo, c_hi, om, cols, phasor, gain_k, ridge, right_cache)
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


def af_axis(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n), made exactly antisymmetric when lo == -hi.

    linspace rounds its upper half independently of its lower half, so
    most of its values are not the negation of their mirror value.  When
    lo == -hi (and n > 1) the lower half is linspace's and the upper half
    its negation, with 0.0 - x so that a zero stays +0.0; the centre of an
    odd axis is 0.0.  An upper value moves by at most about 1.5 ulp of |hi|.
    """
    axis = np.linspace(lo, hi, n)
    if n > 1 and lo == -hi:
        half = n // 2
        axis[n - half:] = 0.0 - axis[half - 1::-1]
        if n % 2:
            axis[half] = 0.0
    return axis


def af_grid(
    perm: Sequence[int],
    params: WaveformParams,
    tau_axis: np.ndarray,
    omega_axis: np.ndarray,
) -> np.ndarray:
    """|A| over the outer product of the two axes, shape (len(tau), len(omega)).

    |A(-tau, -omega)| = |A(tau, omega)|, so each cell is |complex_af| at its
    representative: (-tau, -omega) where tau > 0, the cell itself otherwise.
    The rows fall in at most two groups, and complex_af runs once per
    non-empty group, on its distinct representative delays.  When -omega
    is omega reversed, bit for bit (as af_axis makes it for lo == -hi),
    every row is taken over omega and a row with tau > 0 is its
    representative's row reversed; a grid symmetric about the origin so
    evaluates about half its rows.  Otherwise the rows with tau <= 0 are
    taken over omega and the others over -omega.  Either way a cell's
    value depends on that cell alone (complex_af's is), so a sub-grid is
    the same cells of the full grid.
    """
    tau_axis = np.asarray(tau_axis, dtype=float)
    omega_axis = np.asarray(omega_axis, dtype=float)
    mirrored = tau_axis > 0
    rep = np.where(mirrored, -tau_axis, tau_axis)
    # a Python bool, so negated with not: ~True is -2
    flip = np.array_equal(-omega_axis, omega_axis[::-1])
    grid = np.empty((tau_axis.size, omega_axis.size))
    for rows, om in ((~mirrored | flip, omega_axis), (mirrored & (not flip), -omega_axis)):
        if rows.any():
            delays, source = np.unique(rep[rows], return_inverse=True)
            grid[rows] = np.abs(complex_af(perm, params, delays, om))[source]
    if flip:
        grid[mirrored] = grid[mirrored, ::-1]
    return grid


@dataclass(frozen=True)
class FisherMatrix:
    """2x2 information matrix for (delay, Doppler)."""

    j11: float
    j12: float
    j22: float


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
    return FisherMatrix(j11=j11, j12=j12, j22=j22)


def crlb_from_fisher(fim: FisherMatrix) -> tuple[float, float]:
    """(delay, Doppler) estimation-variance bounds, by exact 2x2 inversion."""
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
