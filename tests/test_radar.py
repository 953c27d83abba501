"""Ambiguity surface, Fisher information, and CRLB tests."""

import os
import tracemalloc
from dataclasses import replace
from itertools import permutations
from math import ceil, cos, floor, pi

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from permrad import radar
from permrad.errors import NumericError, ValidationError
from permrad.lehmer import rank_to_permutation
from permrad.radar import (
    af_grid,
    complex_af,
    crlb_from_fisher,
    crlb_full,
    crlb_simplified,
    fisher_matrix,
    ridge_covariance,
    snr_constant,
    weighted_tone_sum,
    zero_delay_cut,
    zero_doppler_cut,
)
from permrad.waveform import WaveformParams, tone_frequencies


def _params(m=4, t=1.0, f0=0.0, **kw):
    return WaveformParams(m=m, t=t, delta_f=1.0 / t, f0=f0, **kw)


# --- single-pulse ambiguity ---------------------------------------------------


def test_pulse_af_full_overlap():
    assert pulse_af(0.0, 0.0, 1.0) == pytest.approx(1.0)
    assert pulse_af(0.0, 0.0, 2.5) == pytest.approx(2.5)


def test_pulse_af_boundary_support():
    t = 1.0
    for om in (0.0, 1.0, -17.3):
        assert pulse_af(t, om, t) == pytest.approx(0.0, abs=1e-12)
        assert pulse_af(-t, om, t) == pytest.approx(0.0, abs=1e-12)
        assert pulse_af(1.5 * t, om, t) == 0.0
        assert pulse_af(-1.5 * t, om, t) == 0.0


def test_pulse_af_zero_doppler_triangle():
    t = 2.0
    for tau in (-1.5, -0.25, 0.0, 0.5, 1.9):
        expected = t - abs(tau)
        assert pulse_af(tau, 0.0, t) == pytest.approx(expected, rel=1e-12)


def test_pulse_af_overlap_quadrature_oracle():
    # direct Riemann integration of the shifted-rectangle product
    rng = np.random.default_rng(0)
    t = 1.0
    u = np.linspace(0, t, 200_001)
    for _ in range(10):
        tau = rng.uniform(-0.9, 0.9)
        om = rng.uniform(-10.0, 10.0)
        lo, hi = max(0.0, tau), min(t, t + tau)
        grid = np.linspace(lo, hi, 100_001)
        oracle = np.trapezoid(np.exp(1j * om * grid), grid)
        assert pulse_af(tau, om, t) == pytest.approx(oracle, abs=1e-8)


def test_pulse_af_is_continuous_through_zero_doppler():
    # omega = 0 is where sin(h) / h is 0/0; the values on either side of it
    # must join the triangle value far more closely than the tolerance
    t = 1.0
    for tau in (-0.7, 0.0, 0.3):
        at_zero = pulse_af(tau, 0.0, t)
        for om in (1e-15, -1e-15, 1e-300):
            assert abs(pulse_af(tau, om, t) - at_zero) < 1e-9


def _quad_pulse_af(tau, omega, t):
    """The defining integral of exp(j omega u) over the overlap of the pulse
    and its copy delayed by tau, by QUADPACK's cosine- and sine-weighted
    rules (QAWO)."""
    lo, hi = max(0.0, tau), min(t, t + tau)
    if lo >= hi:
        return 0.0j
    opts = dict(wvar=omega, epsabs=0.0, epsrel=2e-14, limit=200)
    re = quad(lambda u: 1.0, lo, hi, weight="cos", **opts)[0]
    im = quad(lambda u: 1.0, lo, hi, weight="sin", **opts)[0]
    return complex(re, im)


@pytest.mark.parametrize("omega_t", [0.0, 1e-9, 1.0000001e-6, 1e-4, 1.0, 40.0])
@pytest.mark.parametrize("tau_t", [-0.7, 0.0, 0.3, 1.0, -1.0])
def test_pulse_af_matches_quadrature_to_working_precision(tau_t, omega_t):
    # includes |omega| t just above 1e-6, where a difference of exponentials
    # over omega loses about ten digits to cancellation
    t = 2.0
    for sign in (1.0, -1.0):
        tau, omega = tau_t * t, sign * omega_t / t
        assert pulse_af(tau, omega, t) == pytest.approx(
            _quad_pulse_af(tau, omega, t), rel=1e-13, abs=0.0
        )


def test_pulse_af_accepts_arrays():
    taus = np.array([-0.5, 0.0, 0.5, 2.0])
    out = pulse_af(taus, np.zeros_like(taus), 1.0)
    assert out.shape == taus.shape
    assert np.allclose(out, [0.5, 1.0, 0.5, 0.0])


# --- waveform ambiguity -------------------------------------------------------


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


def _difference_pulse_af(tau, omega, t):
    """Single-pulse ambiguity as a difference of exponentials over j omega,
    one branch per sign of tau, with a series below |omega| t = 1e-6: an
    evaluation independent of the sinc form under test."""
    tau, omega = np.broadcast_arrays(
        np.asarray(tau, dtype=float), np.asarray(omega, dtype=float)
    )
    out = np.zeros(tau.shape, dtype=complex)
    pos = (tau >= 0.0) & (tau <= t)
    neg = (tau >= -t) & (tau < 0.0)
    out[pos] = _exp_diff_over_jw(t, tau[pos], omega[pos], t)
    out[neg] = np.exp(1j * omega[neg] * tau[neg]) * _exp_diff_over_jw(
        t, -tau[neg], omega[neg], t
    )
    return out


def _exp_diff_over_jw(x, y, w, t):
    """(exp(jwx) - exp(jwy)) / (jw), by a 4-term series where |w| t < 1e-6.

    Above it, as exp(jwy) (exp(j theta) - 1) / (jw) with theta = w (x - y)
    and exp(j theta) - 1 = -2 sin(theta / 2)^2 + j sin(theta), which keeps
    its relative precision however small theta is: the difference of the
    two exponentials would lose about ten digits just above the series."""
    x, y, w = np.broadcast_arrays(x, y, w)
    small = np.abs(w) * t < 1e-6
    safe_w = np.where(small, 1.0, w)
    theta = safe_w * (x - y)
    out = np.exp(1j * safe_w * y) * (
        (-2.0 * np.sin(0.5 * theta) ** 2 + 1j * np.sin(theta)) / (1j * safe_w)
    )
    x, y, jw = x[small], y[small], 1j * w[small]
    out[small] = (
        (x - y)
        + jw * (x**2 - y**2) / 2.0
        + jw**2 * (x**3 - y**3) / 6.0
        + jw**3 * (x**4 - y**4) / 24.0
    )
    return out


def _pair_loop_af(perm, params, tau, omega):
    """Reference: the plain double sum over all M^2 pulse pairs, on every cell.

    The tones are taken as offsets from f0, whose phase enters as the
    cell's factor exp(j 2 pi f0 tau) and, per pair, 2 pi f0 t (n - m) with
    f0 t reduced modulo 1; so a large f0 costs |A| no precision here either.
    """
    w = 2.0 * np.pi * tone_frequencies(perm, replace(params, f0=0.0))
    t = params.t
    carrier_turns = (params.f0 * t) % 1.0
    tau_a, omega_a = np.broadcast_arrays(
        np.asarray(tau, dtype=float), np.asarray(omega, dtype=float)
    )
    acc = np.zeros(tau_a.shape, dtype=complex)
    for m in range(params.m):
        for n in range(params.m):
            ap = _difference_pulse_af(tau_a + (n - m) * t, omega_a - w[n] + w[m], t)
            phase = np.exp(1j * (omega_a * m * t - w[n] * ((m - n) * t - tau_a)
                                 + 2.0 * np.pi * ((n - m) * carrier_turns % 1.0)))
            acc = acc + ap * phase
    return acc * np.exp(2j * np.pi * params.f0 * tau_a) / (params.m * t)


def af_numeric_oracle(perm, params, tau, omega, samples_per_pulse=20_000):
    """Trapezoidal quadrature of the defining autocorrelation integral.

    The integrand s(u) s*(u - tau) exp(j omega u) of the unit-energy
    waveform is sampled piecewise between the pulse boundaries of both
    factors, so every piece is one smooth complex exponential.
    """
    w = 2.0 * np.pi * tone_frequencies(perm, params)
    t = params.t
    total_t = params.duration
    amp2 = 1.0 / (params.m * t)
    lo = max(0.0, tau)
    hi = min(total_t, total_t + tau)
    if lo >= hi:
        return 0.0j
    cuts = {lo, hi}
    for m in range(1, params.m):
        for edge in (m * t, m * t + tau):
            if lo < edge < hi:
                cuts.add(edge)
    edges = sorted(cuts)
    step = t / samples_per_pulse
    total = 0.0j
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


def _tone_order(m, order):
    if order == "ascending":
        return list(range(m))
    if order == "descending":
        return list(range(m))[::-1]
    return [int(x) for x in np.random.default_rng(m).permutation(m)]


def _default_axes(m, t=1.0, steps=161):
    # the af command's default axes: delay over +-M t, Doppler over +-2/t Hz
    taus = np.linspace(-m * t, m * t, steps)
    omegas = 2.0 * pi * np.linspace(-2.0 / t, 2.0 / t, steps)
    return taus, omegas


def _cells(taus, omegas):
    """Every (delay, Doppler) cell of the two axes, as the reference takes them."""
    return np.meshgrid(taus, omegas, indexing="ij")


@pytest.mark.parametrize("order", ["ascending", "descending", "random"])
@pytest.mark.parametrize("m", [8, 12, 20])
def test_complex_af_matches_pair_loop_on_default_grid(m, order):
    params = _params(m=m)
    perm = _tone_order(m, order)
    taus, omegas = _default_axes(m)
    got = complex_af(perm, params, taus, omegas)
    assert got.shape == (taus.size, omegas.size)
    assert np.max(np.abs(got - _pair_loop_af(perm, params, *_cells(taus, omegas)))) <= 1e-13


@pytest.mark.parametrize("m", [8, 20])
def test_complex_af_matches_pair_loop_at_scalars(m):
    params = _params(m=m, f0=0.5)
    perm = _tone_order(m, "random")
    # delays on pulse edges are where a lag's support opens or closes
    for tau in (0.0, 1.0, -1.0, 2.5, -3.0, m - 0.5, float(m), m + 0.25, -m - 1.0):
        for om in (0.0, 1e-9, 3.7, -11.0):
            got = complex_af(perm, params, tau, om)
            assert isinstance(got, complex)
            assert abs(got - _pair_loop_af(perm, params, tau, om)) <= 1e-13


def test_complex_af_matches_pair_loop_where_lags_select_no_cells():
    m = 12
    params = _params(m=m)
    perm = _tone_order(m, "random")
    omegas = 2.0 * pi * np.linspace(-2.0, 2.0, 41)
    # past +-M t every lag is empty; in a one-pulse window only two lags are not
    for taus in (np.linspace(-1.5 * m, 1.5 * m, 121), np.linspace(2.5, 3.5, 17),
                 np.linspace(m + 0.5, 2.0 * m, 9)):
        got = complex_af(perm, params, taus, omegas)
        assert np.max(np.abs(got - _pair_loop_af(perm, params, *_cells(taus, omegas)))) <= 1e-13
        assert np.all(got[np.abs(taus) >= m] == 0.0)


def test_complex_af_cell_does_not_depend_on_its_neighbours(monkeypatch):
    # bit-identical whether a cell is evaluated alone, in a sub-grid or inside
    # the full grid, or with other block sizes, which is what keeps af_grid
    # independent of the worker count
    m = 20
    params = _params(m=m)
    perm = _tone_order(m, "random")
    taus, omegas = _default_axes(m, steps=41)
    grid = complex_af(perm, params, taus, omegas)
    assert np.array_equal(complex_af(perm, params, taus[::7], omegas), grid[::7])
    assert np.array_equal(complex_af(perm, params, taus, omegas[3::5]), grid[:, 3::5])
    assert np.array_equal(complex_af(perm, params, taus[5:9], omegas[::-3]), grid[5:9, ::-3])
    for i, j in ((20, 20), (3, 17), (39, 0), (25, 33)):
        assert complex_af(perm, params, taus[i], omegas[j]) == grid[i, j]
    split = af_grid(perm, params, taus, omegas, workers=2).values
    assert np.array_equal(split, np.abs(grid))
    for elems in (1, 45, 333):
        monkeypatch.setattr(radar, "_AF_ELEMS", elems)
        assert np.array_equal(complex_af(perm, params, taus, omegas), grid)


@pytest.mark.parametrize("f0", [0.0, 1e6])
@pytest.mark.parametrize("t", [1.0, 0.37])
@pytest.mark.parametrize("df_t", [1.0, 3.0])
@pytest.mark.parametrize("order", ["ascending", "descending", "random"])
def test_complex_af_on_and_beside_each_ridge(order, df_t, t, f0):
    # on a pair's ridge omega = -(w_m - w_n) the kernel sums the pair by the
    # sinc, not through its Doppler table's 1 / h; the cells sit on every
    # ridge and off it by 1e-12 to 0.2 over t, across the switch at 1/8
    m = 6
    params = WaveformParams(m=m, t=t, delta_f=df_t / t, f0=f0)
    perm = _tone_order(m, order)
    ridges = -(2.0 * pi * params.delta_f) * np.arange(1 - m, m)
    offsets = np.array([0.0, 1e-12, -1e-12, 1e-6, -1e-6, 1e-3, -1e-3, 0.1, -0.1, 0.2, -0.2]) / t
    omegas = (ridges[:, None] + offsets).ravel()
    taus = t * np.r_[np.linspace(-m, m, 4 * m + 1), np.linspace(-m + 0.13, m - 0.29, 17)]
    got = complex_af(perm, params, taus, omegas)
    want = _pair_loop_af(perm, params, *_cells(taus, omegas))
    if f0 == 0.0:
        assert np.max(np.abs(got - want)) <= 1e-13
    else:
        # 2 pi f0 tau reaches 4e7 rad, so the phase of A carries that
        # angle's rounding, about 1e-9 rad, in the kernel and the reference
        # alike; |A| must not
        assert np.max(np.abs(np.abs(got) - np.abs(want))) <= 1e-13
    for j in range(0, omegas.size, offsets.size):
        assert np.array_equal(complex_af(perm, params, taus, omegas[j]), got[:, j])


@pytest.mark.parametrize("m", [8, 20])
def test_complex_af_memory_on_the_default_grid(m):
    # beyond its output the kernel holds its Doppler tables and one block
    # of delays at a time
    taus, omegas = _default_axes(m)
    tracemalloc.start()
    try:
        got = complex_af(_tone_order(m, "random"), _params(m=m), taus, omegas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * got.nbytes + 2**19


@pytest.mark.parametrize("entry", [float("nan"), "a", float("inf"), float("-inf"), None])
def test_radar_refuses_non_numeric_tone_entries(entry):
    params = _params(m=2)
    for call in (lambda perm: complex_af(perm, params, 0.0, 0.0),
                 lambda perm: af_grid(perm, params, [0.0], [0.0]),
                 lambda perm: crlb_full(perm, params, n0=1.0, b=1e6),
                 lambda perm: weighted_tone_sum(perm, params)):
        with pytest.raises(ValidationError, match="is not a tone index"):
            call([entry, 0])


def test_complex_af_memory_stays_within_its_blocks():
    # the Doppler axis is split into blocks too, so beyond its output the
    # kernel holds only block-sized temporaries, however long an axis is
    m = 20
    taus = np.linspace(-m, m, 3)
    omegas = 2.0 * pi * np.linspace(-2.0, 2.0, 200_000)
    tracemalloc.start()
    try:
        got = complex_af(_tone_order(m, "random"), _params(m=m), taus, omegas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (taus.size, omegas.size)
    assert peak <= 2 * got.nbytes + 4 * 2**20


def test_af_peak_is_one():
    params = _params()
    for perm in ([0, 1, 2, 3], [2, 0, 3, 1]):
        assert complex_af(perm, params, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_af_energy_independent_of_params_energy():
    base = _params()
    scaled = _params(energy=7.5)
    assert complex_af([0, 1, 2, 3], scaled, 0.3, 1.0) == pytest.approx(
        complex_af([0, 1, 2, 3], base, 0.3, 1.0), rel=1e-12
    )


def test_af_vanishes_outside_duration():
    params = _params()
    for tau in (4.0, -4.0, 5.7):
        assert complex_af([1, 0, 3, 2], params, tau, 2.0) == 0.0


def test_af_matches_quadrature_oracle_small_grid():
    params = _params(m=3)
    perm = [2, 0, 1]
    for tau in np.linspace(-3, 3, 9):
        for om in np.linspace(-4 * pi, 4 * pi, 9):
            closed = complex_af(perm, params, tau, om)
            oracle = af_numeric_oracle(perm, params, tau, om, samples_per_pulse=20_000)
            assert abs(closed - oracle) <= 1e-6


def test_oracle_single_pulse_triangle():
    params = _params(m=1)
    for tau in (-0.7, -0.2, 0.0, 0.4, 0.95):
        val = af_numeric_oracle([0], params, tau, 0.0, samples_per_pulse=4096)
        assert abs(val - (1.0 - abs(tau))) <= 1e-6


def test_zero_doppler_cut_at_origin():
    params = _params()
    assert zero_doppler_cut([3, 1, 0, 2], params, [0.0])[0] == pytest.approx(1.0, abs=1e-12)


def test_zero_delay_cut_is_sinc_for_any_permutation():
    # |A(0, w)| is the spectrum magnitude of the constant envelope:
    # |sin(w M T / 2) / (w M T / 2)|
    params = _params()
    omega = np.linspace(-10.0, 10.0, 101)
    x = omega * params.m * params.t / 2.0
    expected = np.abs(np.sinc(x / pi))
    rng = np.random.default_rng(1)
    for _ in range(5):
        perm = list(rng.permutation(params.m))
        cut = zero_delay_cut(perm, params, omega)
        assert np.max(np.abs(cut - expected)) <= 1e-6


@pytest.mark.parametrize("f0", [0.0, 1e3, 1e300])
def test_zero_delay_cut_is_sinc_at_any_base_frequency(f0):
    # a pair's Doppler offset comes from its tone indices, so an f0 far above
    # the grid's Doppler values does not absorb them
    for m in (2, 5, 8):
        params = _params(m=m, f0=f0)
        omega = np.linspace(-4.0 * pi, 4.0 * pi, 81)
        expected = np.abs(np.sinc(omega * m * params.t / 2.0 / pi))
        for perm in (list(range(m)), [int(x) for x in np.random.default_rng(m).permutation(m)]):
            cut = zero_delay_cut(perm, params, omega)
            assert np.max(np.abs(cut - expected)) <= 1e-12


@pytest.mark.parametrize("f0", [1e6, 1e12, 1e300])
def test_magnitude_off_zero_delay_keeps_its_precision_at_a_large_base_frequency(f0):
    # with f0 t an integer, every pulse starts the carrier in phase, so |A|
    # equals its f0 = 0 value on the whole grid
    perm = [2, 0, 3, 1]
    taus, omegas = np.linspace(-3.7, 3.7, 37), 2.0 * pi * np.linspace(-2.0, 2.0, 13)
    want = np.abs(complex_af(perm, _params(), taus, omegas))
    got = np.abs(complex_af(perm, _params(f0=f0), taus, omegas))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_cells_beyond_the_waveform_stay_zero_at_a_large_base_frequency():
    # the carrier phase 2 pi f0 tau overflows at these delays; no pulse pair
    # reaches them, so |A| is exactly 0 there, not nan
    tau = np.array([-1e308, -5e307, -2.01, 2.01, 5e307, 1e308])
    omega = np.array([-3.0, 0.0, 2.0 * pi])
    with np.errstate(all="raise"):
        got = complex_af([1, 0], _params(m=2, f0=5e9), tau, omega)
    assert np.array_equal(got, np.zeros((tau.size, omega.size), dtype=complex))


def test_zero_delay_mainlobe_sharpens_with_m():
    h = 0.01
    curvatures = []
    for m in (4, 6, 8):
        params = _params(m=m)
        cut = zero_delay_cut(list(range(m)), params, np.array([-h, 0.0, h]))
        curvatures.append((cut[0] - 2.0 * cut[1] + cut[2]) / h**2)
    assert curvatures[0] > curvatures[1] > curvatures[2]  # increasingly negative


def test_af_magnitude_symmetry():
    params = _params()
    perm = [1, 3, 0, 2]
    rng = np.random.default_rng(2)
    for _ in range(40):
        tau = rng.uniform(-4, 4)
        om = rng.uniform(-12, 12)
        a = abs(complex_af(perm, params, tau, om))
        b = abs(complex_af(perm, params, -tau, -om))
        assert abs(a - b) <= 1e-9


def test_af_grid_max_at_origin():
    params = _params()
    grid = af_grid(
        [0, 1, 2, 3], params, np.linspace(-4, 4, 33), np.linspace(-12.0, 12.0, 33)
    )
    assert grid.values.max() == pytest.approx(1.0, abs=1e-9)
    peak = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert grid.tau[peak[0]] == 0.0
    assert grid.omega[peak[1]] == 0.0
    assert np.all(grid.values <= 1.0 + 1e-9)


def test_ridge_orientation_follows_sweep_direction():
    params = _params()
    taus = np.linspace(-4, 4, 81)
    omegas = np.linspace(-4 * pi, 4 * pi, 81)
    asc = ridge_covariance([0, 1, 2, 3], params, taus, omegas)
    desc = ridge_covariance([3, 2, 1, 0], params, taus, omegas)
    assert asc > 0
    assert desc < 0


def test_ridge_covariance_needs_cells():
    params = _params()
    with pytest.raises(NumericError):
        ridge_covariance([0, 1, 2, 3], params, np.array([3.9]), np.array([50.0]), 0.99)


def test_cuts_and_ridge_response_are_the_grid_bit_for_bit():
    # one code path: each cut is a column or row of af_grid, and the ridge
    # covariance is taken over af_grid's response at the negated Doppler
    m = 6
    params = _params(m=m, f0=0.5)
    perm = _tone_order(m, "random")
    taus = np.linspace(-m, m, 49)
    omegas = 2.0 * pi * np.linspace(-2.0, 2.0, 33)
    (i0,), (j0,) = np.flatnonzero(taus == 0.0), np.flatnonzero(omegas == 0.0)
    grid = af_grid(perm, params, taus, omegas).values
    assert np.array_equal(zero_doppler_cut(perm, params, taus), grid[:, j0])
    assert np.array_equal(zero_delay_cut(perm, params, omegas), grid[i0, :])
    threshold = 0.5
    response = af_grid(perm, params, taus, -omegas).values
    rows, cols = np.nonzero(response > threshold)
    tc, wc = taus[rows], omegas[cols]
    want = float(np.mean((tc - tc.mean()) * (wc - wc.mean())))
    assert ridge_covariance(perm, params, taus, omegas, threshold) == want


# --- Fisher information and bounds ---------------------------------------------


def test_fisher_j22_single_pulse():
    params = WaveformParams(m=1, t=1.0, delta_f=1.0)
    fim = fisher_matrix([0], params, n0=1.0, b=100.0)
    assert fim.c == 1.0
    assert fim.j22 == 1.0 / 12.0


def test_fisher_j11_integer_cycle_base_frequency():
    # omega0 * t a multiple of 2 pi collapses the cosine taper: j11 = 2 B C / (t m)
    params = _params(m=4, f0=3.0)
    fim = fisher_matrix([0, 1, 2, 3], params, n0=0.5, b=200.0)
    expected = 2.0 * 200.0 * fim.c / (1.0 * 4)
    assert fim.j11 == pytest.approx(expected, rel=1e-12)


def test_fisher_warns_below_bt_ten():
    params = _params()
    with pytest.warns(UserWarning, match="bandwidth-time"):
        fisher_matrix([0, 1, 2, 3], params, n0=1.0, b=5.0)


def test_weighted_tone_sum_extremal_orders():
    params = _params(m=5, f0=0.25)
    values = {
        perm: weighted_tone_sum(list(perm), params)
        for perm in permutations(range(5))
    }
    assert max(values, key=values.get) == (0, 1, 2, 3, 4)
    assert min(values, key=values.get) == (4, 3, 2, 1, 0)


def test_crlb_full_matches_numpy_inverse():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        t = float(rng.uniform(0.1, 4.0))
        params = WaveformParams(m=m, t=t, delta_f=1.0 / t, f0=float(rng.uniform(0, 2)) / t)
        perm = list(rng.permutation(m))
        n0 = float(rng.uniform(0.05, 4.0))
        # the coupling entry of the large-BT closed form outgrows the diagonal
        # unless the bandwidth-time product is very large; sweep where the
        # matrix is positive definite
        b = 1e8 / t
        fim = fisher_matrix(perm, params, n0, b)
        got = crlb_from_fisher(fim)
        inv = np.linalg.inv(fim.matrix())
        assert got[0] == pytest.approx(inv[0, 0], rel=1e-10)
        assert got[1] == pytest.approx(inv[1, 1], rel=1e-10)


def crlb_full_expanded(perm, params, n0, b):
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


def test_crlb_full_equals_expanded_ratios():
    params = _params(m=4, f0=0.3)
    perm = [2, 0, 3, 1]
    full = crlb_full(perm, params, n0=0.8, b=1e6)
    expanded = crlb_full_expanded(perm, params, n0=0.8, b=1e6)
    assert full[0] == pytest.approx(expanded[0], rel=1e-12)
    assert full[1] == pytest.approx(expanded[1], rel=1e-12)


def test_crlb_simplified_single_pulse_reduction():
    t, b, n0 = 1.0, 100.0, 1.0
    params = WaveformParams(m=1, t=t, delta_f=1.0)
    inv_c = 1.0 / snr_constant(n0)
    tau, omega = crlb_simplified(params, n0, b)
    assert tau == inv_c * t / (2.0 * b)
    assert omega == inv_c * 12.0 / (t * t)


def test_crlb_with_zero_coupling_reduces_to_simplified():
    # single zero-frequency pulse has no coupling term at all
    params = WaveformParams(m=1, t=2.0, delta_f=0.5, f0=0.0)
    full = crlb_full([0], params, n0=0.7, b=50.0)
    simple = crlb_simplified(params, n0=0.7, b=50.0)
    assert full == pytest.approx(simple, rel=1e-14)


def test_crlb_scales_inversely_with_snr_constant():
    params = _params()
    perm = [0, 1, 2, 3]
    lo = crlb_full(perm, params, n0=1.0, b=1e6)
    hi = crlb_full(perm, params, n0=0.1, b=1e6)
    ratio = snr_constant(1.0) / snr_constant(0.1)
    assert hi[0] == pytest.approx(lo[0] * ratio, rel=1e-12)
    assert hi[1] == pytest.approx(lo[1] * ratio, rel=1e-12)


def test_delay_crlb_linear_in_pulse_width():
    # with f0 = 0 the cosine taper is constant, so the bound is linear in t
    n0, bt = 1.0, 100.0
    vals = []
    for t in (1.0, 0.5, 0.25):
        params = WaveformParams(m=4, t=t, delta_f=1.0 / t, f0=0.0)
        b = bt / 1.0  # fixed receiver bandwidth
        vals.append(crlb_simplified(params, n0, b)[0])
    assert vals[1] == pytest.approx(vals[0] / 2.0, rel=1e-12)
    assert vals[2] == pytest.approx(vals[0] / 4.0, rel=1e-12)


def test_doppler_crlb_quarters_when_m_doubles():
    n0, b = 1.0, 100.0
    a = crlb_simplified(_params(m=4), n0, b)[1]
    c = crlb_simplified(_params(m=8), n0, b)[1]
    assert c == pytest.approx(a / 4.0, rel=1e-12)


def test_singular_fisher_reports_entries():
    # enormous coupling with a tiny bandwidth-time product drives det negative
    params = WaveformParams(m=2, t=1.0, delta_f=1.0, f0=1000.0)
    with pytest.warns(UserWarning):
        with pytest.raises(NumericError) as info:
            crlb_full([0, 1], params, n0=1.0, b=1.0)
    assert "j11" in info.value.details
    assert "det" in info.value.details


def test_bad_bandwidth_rejected():
    params = _params()
    with pytest.raises(ValidationError):
        fisher_matrix([0, 1, 2, 3], params, n0=1.0, b=0.0)
    with pytest.raises(ValidationError):
        snr_constant(0.0)


# --- time-moment and coupling cross-checks ---------------------------------------


def test_envelope_time_moments_by_quadrature():
    # mean and mean-square time of the unit-energy envelope: m t / 2, (m t)^2 / 3
    for m, t in ((1, 1.0), (4, 0.5), (8, 2.0)):
        params = WaveformParams(m=m, t=t, delta_f=1.0 / t)
        u = np.linspace(0.0, params.duration, 2 * 4096 * m + 1)
        env2 = np.full(u.shape, 1.0 / (m * t))  # constant-modulus envelope squared
        first = simpson(u * env2, x=u)
        second = simpson(u * u * env2, x=u)
        assert abs(first - m * t / 2.0) <= 1e-9 * (m * t / 2.0)
        assert abs(second - (m * t) ** 2 / 3.0) <= 1e-9 * ((m * t) ** 2 / 3.0)


def _tapered_pulse(u, t, w):
    out = np.zeros_like(u)
    rise = (u >= 0) & (u < w)
    flat = (u >= w) & (u <= t - w)
    fall = (u > t - w) & (u <= t)
    out[rise] = 0.5 * (1.0 - np.cos(np.pi * u[rise] / w))
    out[flat] = 1.0
    out[fall] = 0.5 * (1.0 - np.cos(np.pi * (t - u[fall]) / w))
    return out


def _tapered_pulse_deriv(u, t, w):
    out = np.zeros_like(u)
    rise = (u >= 0) & (u < w)
    fall = (u > t - w) & (u <= t)
    out[rise] = 0.5 * np.pi / w * np.sin(np.pi * u[rise] / w)
    out[fall] = -0.5 * np.pi / w * np.sin(np.pi * (t - u[fall]) / w)
    return out


@pytest.mark.parametrize("edge_fraction", [128, 256])
def test_coupling_term_against_smoothed_pulse_integral(edge_fraction):
    # Im integral of u s(u) ds*(u)/du for a smoothed-edge pulse train must
    # agree with the closed-form coupling sum in sign and within 1%
    m, t = 4, 1.0
    params = WaveformParams(m=m, t=t, delta_f=1.0 / t, f0=1.0 / t)
    perm = [1, 3, 0, 2]
    w_edge = t / edge_fraction
    omega_tones = 2.0 * np.pi * (params.f0 + np.asarray(perm) * params.delta_f)

    pieces = []
    for mm in range(m):
        for a, b, n in (
            (0.0, w_edge, 4000),
            (w_edge, t - w_edge, 2000),
            (t - w_edge, t, 4000),
        ):
            pieces.append(mm * t + np.linspace(a, b, n))
    u = np.concatenate(pieces)
    pulse_idx = np.clip(np.floor(u / t).astype(int), 0, m - 1)
    uu = u - pulse_idx * t
    sp = _tapered_pulse(uu, t, w_edge)
    spd = _tapered_pulse_deriv(uu, t, w_edge)
    phase = np.exp(1j * omega_tones[pulse_idx] * uu)
    s = sp * phase
    sd = (spd + 1j * omega_tones[pulse_idx] * sp) * phase

    numeric = np.trapezoid((u * s * np.conj(sd)).imag, u)
    closed = -(t * t / 2.0) * weighted_tone_sum(perm, params)
    assert np.sign(numeric) == np.sign(closed)
    assert abs(numeric / closed - 1.0) <= 0.01


def test_af_grid_workers_agree_with_serial():
    params = _params(m=3)
    taus = np.linspace(-3, 3, 13)
    omegas = np.linspace(-6.0, 6.0, 9)
    serial = af_grid([1, 2, 0], params, taus, omegas, workers=1)
    parallel = af_grid([1, 2, 0], params, taus, omegas, workers=3)
    assert np.array_equal(serial.values, parallel.values)


def test_af_grid_pool_is_sized_to_the_delay_rows_and_the_cores(pool_sizes, monkeypatch):
    params = _params(m=3)
    taus = np.linspace(-3, 3, 3)
    omegas = np.linspace(-6.0, 6.0, 5)
    serial = af_grid([1, 2, 0], params, taus, omegas).values
    for cores in (64, 2, 1):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert np.array_equal(af_grid([1, 2, 0], params, taus, omegas, workers=64).values, serial)
    assert pool_sizes == [3, 2]  # one core runs in this process


def test_af_grid_workers_bit_identical_on_default_grid():
    m = 12
    params = _params(m=m)
    perm = _tone_order(m, "random")
    taus = np.linspace(-m, m, 161)
    omegas = 2.0 * pi * np.linspace(-2.0, 2.0, 161)
    serial = af_grid(perm, params, taus, omegas, workers=1)
    parallel = af_grid(perm, params, taus, omegas, workers=2)
    assert np.array_equal(serial.values, parallel.values)


def test_radar_accepts_blocks_beyond_the_codec_limit():
    m = 32
    params = _params(m=m)
    perm = _tone_order(m, "random")
    assert complex_af(perm, params, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    taus, omegas = _default_axes(m, steps=21)
    got = complex_af(perm, params, taus, omegas)
    assert np.max(np.abs(got - _pair_loop_af(perm, params, *_cells(taus, omegas)))) <= 1e-13
    assert crlb_full(perm, params, n0=0.1, b=1e12)[0] > 0


def test_codec_permutations_accepted():
    params = _params(m=4)
    perm = rank_to_permutation(17, 4)
    assert abs(complex_af(perm, params, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
