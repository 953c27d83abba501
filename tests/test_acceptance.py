"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines
and timings inline.
"""

import time
from functools import partial
from itertools import permutations
from math import erfc, factorial, pi, sqrt

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import simpson

from permrad.bounds import block_error_bounds
from permrad.lehmer import permutation_to_rank, rank_to_permutation
from permrad.radar import (
    complex_af,
    crlb_from_fisher,
    fisher_matrix,
    snr_constant,
    weighted_tone_sum,
)
from permrad.receiver import hungarian_detect
from permrad.simkit import SimConfig, run_bler_sweep
from permrad.waveform import WaveformParams
from test_channel import fading_gains
from test_radar import af_numeric_oracle, crlb_simplified, ridge_covariance
from test_receiver import assignment_score, brute_force_detect

GOLDEN = np.array(
    [
        [-4.0, -3.0, -2.0, -6.0],
        [-2.0, 1.0, 0.0, -4.0],
        [4.0, -2.0, 5.0, -3.0],
        [5.0, 4.0, -4.0, 3.0],
    ]
)


def _verdict(number: int, name: str, ok: bool, detail: str, budget_s: float, elapsed: float):
    within = elapsed <= budget_s
    status = "PASS" if (ok and within) else "FAIL"
    print(f"criterion {number:02d} [{status}] {name}: {detail} ({elapsed:.2f}s / budget {budget_s:g}s)")
    assert ok, f"criterion {number} failed: {detail}"
    assert within, f"criterion {number} exceeded budget: {elapsed:.2f}s > {budget_s}s"


def _qfunc(x: float) -> float:
    return 0.5 * erfc(x / sqrt(2.0))


def _sigma(p: float, n: int) -> float:
    return sqrt(max(p, 1.0 / n) * (1.0 - p) / n)


def _solve_nn_equals(target: float, nn_of_snr) -> float:
    """SNR in dB where the nearest-neighbour curve crosses ``target``."""
    lo, hi = -5.0, 40.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if nn_of_snr(10.0 ** (mid / 10.0)) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_01_golden_assignment_case():
    hungarian_detect(GOLDEN)  # warm caches before timing the measured call
    start = time.perf_counter()
    got = hungarian_detect(GOLDEN)
    elapsed = time.perf_counter() - start
    ok = got == [2, 1, 0, 3] and assignment_score(GOLDEN, got) == 6.0
    _verdict(1, "golden 4x4 assignment", ok,
             f"perm={got}, objective={assignment_score(GOLDEN, got)}, {elapsed*1e3:.3f} ms",
             budget_s=0.001, elapsed=elapsed)


def test_criterion_02_detector_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    for m in range(2, 8):
        for _ in range(10_000):
            r = rng.normal(size=(m, m))
            obj_h = assignment_score(r, hungarian_detect(r))
            obj_e = assignment_score(r, brute_force_detect(r))
            worst = max(worst, abs(obj_h - obj_e))
            checked += 1
    elapsed = time.perf_counter() - start
    _verdict(2, "optimal detector equals brute force", worst <= 1e-9,
             f"{checked} instances, max objective gap {worst:.2e}", 60.0, elapsed)


def test_criterion_03_codec_bijectivity_and_order():
    start = time.perf_counter()
    ok = True
    for m in range(1, 8):
        for v in range(factorial(m)):
            ok = ok and permutation_to_rank(rank_to_permutation(v, m)) == v
    for m in range(1, 7):
        for v, expected in enumerate(permutations(range(m))):
            ok = ok and tuple(rank_to_permutation(v, m)) == expected
    elapsed = time.perf_counter() - start
    _verdict(3, "codec round trip and lexicographic order", ok,
             "exhaustive through m=7, ordering through m=6", 10.0, elapsed)


def test_criterion_04_awgn_bler_against_bounds():
    start = time.perf_counter()
    m, n, trials = 4, 2, 1_000_000
    bounds = partial(block_error_bounds, m, n, "awgn", 0.0)
    nn_star_db = _solve_nn_equals(1e-3, lambda snr: bounds(snr)[1])
    grid = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, nn_star_db)
    cfg = SimConfig(m=m, n=n, snr_db=grid, channel="awgn", trials=trials,
                    master_seed=101)
    points = run_bler_sweep(cfg)
    dominance = True
    detail = []
    for pt in points:
        snr = 10.0 ** (pt.snr_db / 10.0)
        ub = bounds(snr)[0]
        dominance = dominance and pt.bler <= ub + 3.0 * _sigma(pt.bler, pt.trials)
    ratio = points[-1].bler / bounds(10.0 ** (nn_star_db / 10.0))[1]
    ratio_ok = 0.7 <= ratio <= 1.3
    elapsed = time.perf_counter() - start
    detail = f"union bound dominates at {len(points)} points; bler/nn={ratio:.3f} at {nn_star_db:.2f} dB"
    _verdict(4, "AWGN sweep vs closed-form bounds", dominance and ratio_ok, detail, 300.0, elapsed)


def test_criterion_05_two_tone_exactness():
    start = time.perf_counter()
    n, trials = 1, 1_000_000
    cfg = SimConfig(m=2, n=n, snr_db=(0.0, 3.0, 6.0), channel="awgn", trials=trials,
                    master_seed=102)
    points = run_bler_sweep(cfg)
    ok = True
    gaps = []
    for pt in points:
        snr = 10.0 ** (pt.snr_db / 10.0)
        exact = _qfunc(sqrt(n * snr))
        gap = abs(pt.bler - exact) / _sigma(exact, trials)
        gaps.append(gap)
        ok = ok and gap <= 3.0
    elapsed = time.perf_counter() - start
    _verdict(5, "two-tone error rate is exactly Q", ok,
             "max |bler-Q|/sigma = {:.2f} over {{0,3,6}} dB".format(max(gaps)), 120.0, elapsed)


def test_criterion_06_rician_rayleigh_consistency():
    start = time.perf_counter()
    # closed-form identity at k=0 on a 20-point grid
    identity_ok = True
    for m, n in ((2, 4), (4, 4)):
        for snr_db in np.linspace(0.0, 19.0, 20):
            snr = 10.0 ** (snr_db / 10.0)
            ric = block_error_bounds(m, n, "rician", 0.0, snr)[0]
            ray = block_error_bounds(m, n, "rayleigh", 0.0, snr)[0]
            identity_ok = identity_ok and abs(ric - ray) <= 1e-12 * max(ray, 1e-300)
    # Monte Carlo vs bounds under k=1 fading
    m, n, k, trials = 4, 4, 1.0, 1_000_000
    bounds = partial(block_error_bounds, m, n, "rician", k)
    nn_star_db = _solve_nn_equals(1e-3, lambda snr: bounds(snr)[1])
    grid = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, nn_star_db)
    cfg = SimConfig(m=m, n=n, snr_db=grid, channel="rician", k=k, trials=trials,
                    master_seed=103)
    points = run_bler_sweep(cfg)
    dominance = True
    for pt in points:
        snr = 10.0 ** (pt.snr_db / 10.0)
        ub = bounds(snr)[0]
        dominance = dominance and pt.bler <= ub + 3.0 * _sigma(pt.bler, pt.trials)
    ratio = points[-1].bler / bounds(10.0 ** (nn_star_db / 10.0))[1]
    ratio_ok = 0.7 <= ratio <= 1.3
    elapsed = time.perf_counter() - start
    _verdict(6, "Rician bounds and fading Monte Carlo", identity_ok and dominance and ratio_ok,
             f"k=0 identity exact; dominance holds; bler/nn={ratio:.3f} at {nn_star_db:.2f} dB",
             600.0, elapsed)


def test_criterion_07_channel_gain_distribution():
    start = time.perf_counter()
    ok = True
    details = []
    for n, k in ((2, 0.0), (4, 1.0), (4, 4.0)):
        rng = np.random.default_rng(500 + n + int(k))
        gains = fading_gains("rician", n, k, rng, 100_000)
        scaled = 2.0 * (k + 1.0) * gains
        if k == 0:
            res = stats.kstest(scaled, stats.chi2(df=2 * n).cdf)
        else:
            res = stats.kstest(scaled, stats.ncx2(df=2 * n, nc=2 * n * k).cdf)
        var = n * (1.0 + 2.0 * k) / (k + 1.0) ** 2
        mean_ok = abs(gains.mean() - n) <= 3.0 * sqrt(var / gains.size)
        ok = ok and res.pvalue > 0.01 and mean_ok
        details.append(f"(n={n},k={k}) p={res.pvalue:.3f}")
    elapsed = time.perf_counter() - start
    _verdict(7, "channel gain is scaled noncentral chi-square", ok,
             "; ".join(details), 60.0, elapsed)


def test_criterion_08_af_closed_form_vs_quadrature():
    start = time.perf_counter()
    params = WaveformParams(m=4, t=1.0, delta_f=1.0)
    taus = np.linspace(-4.0, 4.0, 41)
    omegas = np.linspace(-4.0 * pi, 4.0 * pi, 41)
    worst = 0.0
    for perm in ([0, 1, 2, 3], [3, 2, 1, 0]):
        for tau in taus:
            for om in omegas:
                gap = abs(
                    complex_af(perm, params, tau, om)
                    - af_numeric_oracle(perm, params, tau, om)
                )
                worst = max(worst, gap)
    peak_ok = abs(complex_af([0, 1, 2, 3], params, 0.0, 0.0) - 1.0) <= 1e-9
    # constant-envelope spectrum: the zero-delay cut is permutation independent
    omega_axis = np.linspace(-4.0 * pi, 4.0 * pi, 101)
    x = omega_axis * params.m * params.t / 2.0
    expected = np.abs(np.sinc(x / pi))
    rng = np.random.default_rng(7)
    cut_worst = 0.0
    for _ in range(5):
        perm = list(rng.permutation(params.m))
        cut = np.abs(complex_af(perm, params, 0.0, omega_axis))
        cut_worst = max(cut_worst, float(np.max(np.abs(cut - expected))))
    ok = worst <= 1e-6 and peak_ok and cut_worst <= 1e-6
    elapsed = time.perf_counter() - start
    _verdict(8, "ambiguity closed form vs quadrature oracle", ok,
             f"grid max err {worst:.2e}; zero-delay cut err {cut_worst:.2e}", 120.0, elapsed)


def test_criterion_09_coupling_orientation():
    start = time.perf_counter()
    m = 8
    params = WaveformParams(m=m, t=1.0, delta_f=1.0)
    taus = np.linspace(-float(m), float(m), 129)
    omegas = np.linspace(-6.0 * pi, 6.0 * pi, 129)
    asc = ridge_covariance(list(range(m)), params, taus, omegas, threshold=0.7)
    desc = ridge_covariance(list(range(m))[::-1], params, taus, omegas, threshold=0.7)
    ok = asc > 0 and desc < 0
    elapsed = time.perf_counter() - start
    _verdict(9, "range-Doppler coupling orientation", ok,
             f"ridge covariance ascending {asc:+.2f}, descending {desc:+.2f}", 60.0, elapsed)


def test_criterion_10_fisher_and_crlb():
    start = time.perf_counter()
    # exact identities
    t, b, n0 = 1.0, 100.0, 1.0
    c = snr_constant(n0)
    fim = fisher_matrix([0, 1, 2, 3], WaveformParams(m=4, t=t, delta_f=1.0), n0, b)
    j22_ok = fim.j22 == c * 4 * 4 * t * t / 12.0
    params1 = WaveformParams(m=1, t=t, delta_f=1.0)
    inv_c = 1.0 / c
    tau1, om1 = crlb_simplified(params1, n0, b)
    m1_ok = tau1 == inv_c * t / (2.0 * b) and om1 == inv_c * 12.0 / (t * t)
    # full bound equals the numeric inverse across a parameter sweep
    rng = np.random.default_rng(11)
    inv_ok = True
    for _ in range(100):
        m = int(rng.integers(1, 9))
        tt = float(rng.uniform(0.2, 3.0))
        params = WaveformParams(m=m, t=tt, delta_f=1.0 / tt, f0=float(rng.uniform(0.0, 2.0)) / tt)
        perm = list(rng.permutation(m))
        fim = fisher_matrix(perm, params, float(rng.uniform(0.1, 3.0)), 1e8 / tt)
        got = crlb_from_fisher(fim)
        inv = np.linalg.inv([[fim.j11, fim.j12], [fim.j12, fim.j22]])
        inv_ok = inv_ok and abs(got[0] - inv[0, 0]) <= 1e-10 * abs(inv[0, 0])
        inv_ok = inv_ok and abs(got[1] - inv[1, 1]) <= 1e-10 * abs(inv[1, 1])
    # coupling-sum extremality over every permutation through m=6
    extremal_ok = True
    for m in range(2, 7):
        params = WaveformParams(m=m, t=1.0, delta_f=1.0, f0=0.5)
        sums = {p: weighted_tone_sum(list(p), params) for p in permutations(range(m))}
        extremal_ok = extremal_ok and max(sums, key=sums.get) == tuple(range(m))
        extremal_ok = extremal_ok and min(sums, key=sums.get) == tuple(range(m))[::-1]
    # envelope time moments by quadrature
    moments_ok = True
    for m, tt in ((1, 1.0), (4, 0.5), (8, 2.0)):
        dur = m * tt
        u = np.linspace(0.0, dur, 2 * 4096 * m + 1)
        env2 = np.full(u.shape, 1.0 / dur)
        first = simpson(u * env2, x=u)
        second = simpson(u * u * env2, x=u)
        moments_ok = moments_ok and abs(first - dur / 2.0) <= 1e-9 * (dur / 2.0)
        moments_ok = moments_ok and abs(second - dur**2 / 3.0) <= 1e-9 * (dur**2 / 3.0)
    ok = j22_ok and m1_ok and inv_ok and extremal_ok and moments_ok
    elapsed = time.perf_counter() - start
    _verdict(10, "Fisher identities and estimation bounds", ok,
             f"j22 exact={j22_ok}, m1 exact={m1_ok}, inverse 1e-10={inv_ok}, "
             f"extremality={extremal_ok}, moments={moments_ok}", 60.0, elapsed)
