"""Bound tests: derangement counts, Q values, and the fading Craig/MGF integral."""

from itertools import permutations
from math import comb, exp, factorial, fsum, lgamma, log, log1p, sqrt

import numpy as np
import pytest
from scipy import integrate, stats

import permrad.bounds as bnd
from permrad.bounds import block_error_bounds, pairwise_errors, qfunc, subfactorial
from permrad.errors import NumericError, ValidationError


def rician_p2(l: int, m: int, n: int, k: float, snr: float) -> float:
    """P2(l) under Rician fading: entry l - 2 of the one array of a call."""
    return float(pairwise_errors(m, n, "rician", k, snr)[l - 2])


# --- combinatorics ----------------------------------------------------------


def _count_derangements(x: int) -> int:
    return sum(1 for p in permutations(range(x)) if all(p[i] != i for i in range(x)))


def test_subfactorial_values():
    assert subfactorial(0) == 1
    assert subfactorial(1) == 0
    assert subfactorial(2) == 1
    assert subfactorial(4) == 9
    for x in range(8):
        assert subfactorial(x) == _count_derangements(x)


def test_subfactorial_range():
    with pytest.raises(ValidationError):
        subfactorial(-1)
    with pytest.raises(ValidationError):
        subfactorial(21)


def rival_count(m: int) -> int:
    """Total rivals counted by the union bound; equals m! - 1."""
    return sum(subfactorial(l) * comb(m, l) for l in range(2, m + 1))


def clamp(p: float) -> float:
    """Display helper: probabilities bounded above by 1."""
    return min(p, 1.0)


@pytest.mark.parametrize("m", range(2, 9))
def test_union_bound_counts_every_rival_once(m):
    assert rival_count(m) == factorial(m) - 1


# --- Q function -------------------------------------------------------------


def _q_quadrature(x: float) -> float:
    val, _ = integrate.quad(lambda u: np.exp(-u * u / 2) / sqrt(2 * np.pi), x, np.inf)
    return val


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.0, 3.1622776601683795, 5.0])
def test_qfunc_against_quadrature(x):
    assert qfunc(x) == pytest.approx(_q_quadrature(x), rel=1e-10)


def test_qfunc_reference_value():
    assert qfunc(1.0) == pytest.approx(0.15865525393145707, rel=1e-12)


# --- AWGN bounds ------------------------------------------------------------


def test_awgn_two_tone_equals_q():
    ub, nn = block_error_bounds(2, 1, "awgn", 0.0, 1.0)
    assert ub == pytest.approx(qfunc(1.0), rel=1e-15)
    assert nn == ub


def test_awgn_nn_example():
    # m=4, n=2, snr=10: 6 * Q(sqrt(10))
    expected = 6.0 * _q_quadrature(sqrt(10.0))
    nn = block_error_bounds(4, 2, "awgn", 0.0, 10.0)[1]
    assert nn == pytest.approx(expected, rel=1e-9)
    assert nn == pytest.approx(4.696e-3, rel=1e-3)


def test_awgn_high_snr_vanishes():
    assert block_error_bounds(4, 2, "awgn", 0.0, 1e6)[0] == 0.0


def test_nn_below_union_bound():
    for snr_db in np.arange(-5, 20, 2.5):
        snr = 10 ** (snr_db / 10)
        ub, nn = block_error_bounds(6, 2, "awgn", 0.0, snr)
        assert nn <= ub


def test_union_bound_term_structure():
    # m=4: 6 rivals at distance 2, 8 at 3, 9 at 4
    m, n, snr = 4, 2, 4.0
    by_hand = (
        6 * qfunc(sqrt(n * snr * 2 / m))
        + 8 * qfunc(sqrt(n * snr * 3 / m))
        + 9 * qfunc(sqrt(n * snr * 4 / m))
    )
    assert block_error_bounds(m, n, "awgn", 0.0, snr)[0] == pytest.approx(by_hand, rel=1e-14)


def test_bound_can_exceed_one_and_clamp():
    ub = block_error_bounds(8, 1, "awgn", 0.0, 1e-3)[0]
    assert ub > 1.0
    assert clamp(ub) == 1.0


# --- Rayleigh oracle ----------------------------------------------------------


def _normal_exceeds_chi(order: int, c: float) -> float:
    """Pr[chi(2*order) < sqrt(c) * Z], the chi-vs-normal probability; with
    c = 2 M / (snr l) it is the Rayleigh pairwise term at N = order.

    Positive-term closed form (Proakis, Digital Communications, eq. 14.4-15):
    ((1-mu)/2)^order * sum_{k<order} C(order-1+k, k) ((1+mu)/2)^k with
    mu = 1/sqrt(1+c).  For c < 1, 1-mu is formed as c/(s(s+1)) with
    s = sqrt(1+c), so small c does not cancel.  The terms are summed in the
    log domain, shifted by the largest, so nothing overflows or underflows
    before the result does.
    """
    s = sqrt(1.0 + c)
    # (1 - mu) / 2; the direct form for c >= 1 also covers c = inf (zero SNR)
    half_gap = 0.5 * c / (s * (s + 1.0)) if c < 1.0 else 0.5 * (1.0 - 1.0 / s)
    if half_gap == 0.0:  # infinite SNR
        return 0.0
    log_b = log1p(-half_gap)  # log((1 + mu) / 2)
    base = lgamma(order)
    logs = [lgamma(order + k) - lgamma(k + 1) - base + k * log_b for k in range(order)]
    top = max(logs)
    total = fsum(exp(t - top) for t in logs)
    return exp(order * log(half_gap) + top + log(total))


@pytest.mark.parametrize("order", range(1, 46))
def test_rayleigh_against_closed_form_oracle(order):
    for m in (4, 20):
        for l in (2, m):
            for snr_db in (-30.0, 0.0, 20.0, 60.0):
                snr = 10.0 ** (snr_db / 10.0)
                oracle = _normal_exceeds_chi(order, 2.0 * m / (snr * l))
                got = rician_p2(l, m, order, 0.0, snr)
                assert got == pytest.approx(oracle, rel=1e-9, abs=0), (m, l, snr_db)


# --- fading bounds ----------------------------------------------------------


def test_single_antenna_rayleigh_closed_form():
    # n=1, k=0 collapses to (1 - 1/sqrt(1+c)) / 2 with c = 2m/(snr*l)
    m, snr = 2, 10.0
    c = 2.0 * m / (snr * 2)
    assert c == pytest.approx(0.2)
    expected = 0.5 * (1.0 - 1.0 / sqrt(1.0 + c))
    assert rician_p2(2, m, 1, 0.0, snr) == pytest.approx(expected, rel=1e-12)
    nn = block_error_bounds(m, 1, "rayleigh", 0.0, snr)[1]
    assert nn == pytest.approx(expected, rel=1e-12)
    # direct sampling of the defining probability at the same point
    rng = np.random.default_rng(14)
    size = 1_000_000
    chi = rng.chisquare(2, size=size)
    z = rng.standard_normal(size)
    p_hat = (np.sqrt(chi) < sqrt(c) * z).mean()
    assert abs(p_hat - expected) <= 3.0 * sqrt(expected * (1 - expected) / size)


def test_rayleigh_bounds_monotone_in_snr():
    snrs = [10 ** (db / 10) for db in np.arange(-5.0, 20.0, 2.5)]
    ub, nn = zip(*(block_error_bounds(4, 2, "rayleigh", 0.0, s) for s in snrs))
    assert all(a > b for a, b in zip(ub, ub[1:]))
    assert all(a > b for a, b in zip(nn, nn[1:]))


def test_pairwise_monte_carlo_cross_check():
    # Pr[sqrt(scaled noncentral chi-square) < sqrt(c) Z] by direct sampling
    l, m, n, k, snr = 2, 4, 2, 1.0, 5.0
    analytic = rician_p2(l, m, n, k, snr)
    rng = np.random.default_rng(11)
    size = 1_000_000
    chi = rng.noncentral_chisquare(2 * n, 2 * n * k, size=size)
    z = rng.standard_normal(size)
    c = 2.0 * (m / (snr * l)) * (k + 1.0)
    hits = np.sqrt(chi) < np.sqrt(c) * z
    p_hat = hits.mean()
    sigma = sqrt(analytic * (1 - analytic) / size)
    assert abs(p_hat - analytic) <= 3 * sigma


@pytest.mark.parametrize("m,n", [(2, 4), (4, 4), (4, 2)])
def test_rician_k0_equals_rayleigh(m, n):
    for snr_db in np.linspace(0, 19, 20):
        snr = 10 ** (snr_db / 10)
        ub_ric, nn_ric = block_error_bounds(m, n, "rician", 0.0, snr)
        ub_ray, nn_ray = block_error_bounds(m, n, "rayleigh", 0.0, snr)
        assert abs(ub_ric - ub_ray) <= 1e-12 * max(ub_ray, 1e-300)
        assert abs(nn_ric - nn_ray) <= 1e-12 * max(nn_ray, 1e-300)


def test_stronger_los_improves_error_probability():
    for snr_db in (0.0, 5.0, 10.0):
        snr = 10 ** (snr_db / 10)
        values = [block_error_bounds(4, 2, "rician", k, snr)[0] for k in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_two_tone_rician_union_equals_nn():
    ub, nn = block_error_bounds(2, 3, "rician", 1.5, 4.0)
    assert ub == pytest.approx(nn, rel=1e-15)


def test_high_snr_rician_vanishes():
    assert rician_p2(2, 4, 2, 1.0, 1e9) <= 1e-9


def test_union_bound_invariant_under_halving_the_rule(monkeypatch):
    fine = [block_error_bounds(4, 4, "rician", k, 10.0)[0] for k in (0.5, 1.0, 4.0)]
    # evaluate on the nested coarse rule alone: every other node, double weight
    monkeypatch.setattr(bnd, "_SIN2", bnd._SIN2[::2])
    monkeypatch.setattr(bnd, "_WEIGHTS", 2.0 * bnd._WEIGHTS[::2])
    coarse = [block_error_bounds(4, 4, "rician", k, 10.0)[0] for k in (0.5, 1.0, 4.0)]
    for a, b in zip(fine, coarse):
        assert abs(a - b) < 1e-10


def _disagreeing_rule(monkeypatch):
    # doubling the odd nodes' weights moves the fine level but not the coarse
    weights = bnd._WEIGHTS.copy()
    weights[1::2] *= 2.0
    monkeypatch.setattr(bnd, "_WEIGHTS", weights)


def test_rule_disagreement_raises_with_diagnostics(monkeypatch):
    _disagreeing_rule(monkeypatch)
    with pytest.raises(NumericError) as info:
        pairwise_errors(4, 4, "rician", 6.0, 2.0)
    details = info.value.details
    assert details["l"] == 2
    assert details["fine"] > 0.0 and details["coarse"] > 0.0
    assert abs(details["fine"] - details["coarse"]) > 1e-6 * details["fine"]


def test_large_order_path_is_sane():
    # N K = 40: a strong line-of-sight term at four antennas
    lo_snr = rician_p2(2, 4, 4, 10.0, 0.5)
    hi_snr = rician_p2(2, 4, 4, 10.0, 50.0)
    assert 0.0 < hi_snr < lo_snr < 0.5
    # cross-check the value by Monte Carlo
    rng = np.random.default_rng(12)
    size = 2_000_000
    n, k = 4, 10.0
    c = 2.0 * (4 / (0.5 * 2)) * (k + 1.0)
    chi = rng.noncentral_chisquare(2 * n, 2 * n * k, size=size)
    z = rng.standard_normal(size)
    p_hat = (np.sqrt(chi) < np.sqrt(c) * z).mean()
    assert abs(p_hat - lo_snr) <= 4 * sqrt(lo_snr * (1 - lo_snr) / size)


def test_rician_union_bound_weights():
    # weighted sum of pairwise terms with the derangement-binomial counts
    m, n, k, snr = 4, 2, 1.0, 3.0
    total = sum(
        subfactorial(l) * comb(m, l) * rician_p2(l, m, n, k, snr)
        for l in range(2, m + 1)
    )
    assert block_error_bounds(m, n, "rician", k, snr)[0] == pytest.approx(total, rel=1e-14)


def test_validation():
    with pytest.raises(ValidationError):
        block_error_bounds(1, 1, "awgn", 0.0, 1.0)
    with pytest.raises(ValidationError):
        block_error_bounds(4, 0, "awgn", 0.0, 1.0)
    with pytest.raises(ValidationError):
        block_error_bounds(4, 1, "awgn", 0.0, 0.0)
    with pytest.raises(ValidationError):
        pairwise_errors(4, 1, "rician", -1.0, 1.0)
    with pytest.raises(ValidationError):
        block_error_bounds(4, 1, "rician", float("inf"), 1.0)
    # K is not used off Rician, but a malformed one is refused there too
    for channel in ("awgn", "rayleigh"):
        for k in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValidationError, match="Rician factor"):
                block_error_bounds(4, 1, channel, k, 1.0)
    with pytest.raises(ValidationError, match="channel kind"):
        pairwise_errors(4, 1, "urban", 0.0, 1.0)


@pytest.mark.parametrize("channel,k", [("rayleigh", 0.0), ("rician", 0.5), ("rician", 1e308)])
def test_nn_is_the_lone_l2_craig_term(channel, k):
    # the l = 2 row of a call over every l equals a call for l = 2 alone, so
    # the NN term taken from the union bound's array is the lone-term value
    for m in (2, 3, 8, 20):
        for n in (1, 4, 32):
            for snr_db in range(-20, 61, 10):
                snr = 10.0 ** (snr_db / 10.0)
                alone = bnd._craig_pairwise(np.array([2.0]), m, n, k, snr)[0]
                assert block_error_bounds(m, n, channel, k, snr)[1] == (m * (m - 1) / 2.0) * alone


@pytest.mark.parametrize("order", [1, 2, 4, 9, 17, 30, 33, 45])
@pytest.mark.parametrize("c", [0.05, 0.8, 7.0])
def test_chi_probability_against_angular_quadrature(order, c):
    # independent route: the probability has the angular integral form
    # (1/pi) * int_0^{pi/2} (sin^2 t / (1/c + sin^2 t))^order dt

    def integrand(theta):
        s2 = np.sin(theta) ** 2
        return (s2 / (1.0 / c + s2)) ** order

    oracle, err = integrate.quad(integrand, 0.0, np.pi / 2.0, epsabs=0, epsrel=1e-12)
    oracle /= np.pi
    # abs=0: the default absolute slack of 1e-12 would accept any tiny value
    assert _normal_exceeds_chi(order, c) == pytest.approx(oracle, rel=1e-9, abs=0)


def _rician_mgf_oracle(l, m, n, k, snr):
    # Craig/MGF form: (1/pi) int_0^{pi/2} M(snr l / (2 m sin^2 t)) dt with the
    # Rician MGF M(s) = ((1+K)/(1+K+s))^N exp(-N K s / (1+K+s)), written
    # through a = 1/(1+K) as (1 + a s)^-N exp(-N K a s / (1 + a s)), so that
    # 1 + K + s is never formed and K up to the largest double stays finite
    a = 1.0 / (1.0 + k)

    def mgf(s):
        return np.exp(-n * (np.log1p(a * s) + k * a * s / (1.0 + a * s)))

    def integrand(theta):
        return mgf(snr * l / (2.0 * m * np.sin(theta) ** 2))

    val, _ = integrate.quad(integrand, 0.0, np.pi / 2.0, epsabs=0, epsrel=1e-13, limit=200)
    return val / np.pi


@pytest.mark.parametrize(
    "l,m,n,k,snr",
    [(2, 8, 4, 4.0, 100.0), (4, 4, 4, 1.0, 1000.0), (2, 4, 8, 10.0, 1000.0),
     (2, 4, 4, 10.0, 50.0), (16, 16, 8, 2.0, 1000.0)],
)
def test_pairwise_rician_against_mgf_quadrature(l, m, n, k, snr):
    # high SNR, large N and large K
    oracle = _rician_mgf_oracle(l, m, n, k, snr)
    assert rician_p2(l, m, n, k, snr) == pytest.approx(oracle, rel=1e-9, abs=0)


@pytest.mark.parametrize("n", [1, 4, 32])
@pytest.mark.parametrize("m", [4, 8, 16, 20])
def test_pairwise_rician_grid_against_quadrature(m, n):
    # includes N = 32, K = 100 at 40 dB, where both underflow to exactly 0,
    # and the largest K, where 1 + K + s would overflow
    for k in (0.0, 1.0, 10.0, 100.0, 1e308):
        for snr_db in range(-30, 41, 10):
            snr = 10.0 ** (snr_db / 10.0)
            for l in (2, m):
                oracle = _rician_mgf_oracle(l, m, n, k, snr)
                got = rician_p2(l, m, n, k, snr)
                assert got == pytest.approx(oracle, rel=1e-9, abs=0), (k, snr_db, l)


@pytest.mark.parametrize("snr_db", [-30.0, 0.0, 10.0, 20.0])
@pytest.mark.parametrize("n", [1, 4, 32])
def test_largest_rician_factor_is_the_awgn_limit(n, snr_db):
    # as K -> inf the MGF tends to exp(-N s) and the Craig integral to
    # Q(sqrt(N snr l / M)); at K = 1e308 the two agree to rounding
    snr = 10.0 ** (snr_db / 10.0)
    for m in (4, 20):
        for l in (2, m):
            oracle = qfunc(sqrt(n * snr * l / m))
            if oracle > 1e-300:
                got = rician_p2(l, m, n, 1e308, snr)
                assert got == pytest.approx(oracle, rel=1e-9, abs=0), (m, l)


def test_chi_probability_decreases_with_order():
    values = [_normal_exceeds_chi(order, 1.5) for order in (1, 2, 5, 20, 29, 31, 35, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 < v < 0.5 for v in values)


def test_chi_probability_snr_limits():
    # c = 0 is infinite SNR (no error); c = inf is a vanishing SNR, where the
    # probability tends to Pr[Z > 0] = 1/2 at every order
    for order in (1, 2, 30, 230):
        assert _normal_exceeds_chi(order, 0.0) == 0.0
        assert _normal_exceeds_chi(order, float("inf")) == pytest.approx(0.5, rel=1e-12)


def test_chi_probability_float_path_matches_sampling():
    # a high order, checked by direct sampling of the defining probability
    for c in (0.2, 1.0, 5.0):
        with_floats = _normal_exceeds_chi(30, c)
        empirical = _mc_chi_probability(30, c)
        assert with_floats == pytest.approx(empirical, abs=5e-4)


def _mc_chi_probability(order: int, c: float) -> float:
    rng = np.random.default_rng(13)
    size = 1_000_000
    chi = stats.chi2(df=2 * order).rvs(size=size, random_state=rng)
    z = rng.standard_normal(size)
    return float((np.sqrt(chi) < sqrt(c) * z).mean())
