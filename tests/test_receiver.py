"""Detector tests: correlation construction, statistics, and assignment optimality."""

from itertools import permutations
from math import erfc, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permrad.channel import ChannelParams
from permrad.errors import CapabilityError, ValidationError
from permrad.lehmer import permutation_to_rank, rank_to_permutation
from permrad.receiver import (
    assignment_score,
    exhaustive_detect,
    hungarian_detect,
    permutation_table,
    statistic_matrices,
)
from permrad.waveform import ComplexSignal, WaveformParams, synthesize
from test_channel import FadingRealization, apply_channel, draw_fading

GOLDEN = np.array(
    [
        [-4.0, -3.0, -2.0, -6.0],
        [-2.0, 1.0, 0.0, -4.0],
        [4.0, -2.0, 5.0, -3.0],
        [5.0, 4.0, -4.0, 3.0],
    ]
)


def _correlation_matrix(received, h, params):
    """Single-trial receiver: per-pulse, per-tone correlations of the
    channel-combined signal.

    Entry [n, m] is Re( integral over pulse slot n of h^H r(t) times the
    conjugate unit-energy tone m ), evaluated by left-rule quadrature on
    the shared sampling grid.  On this grid the integer-cycle tones are
    orthogonal to rounding error.
    """
    if len(received) != h.h.size:
        raise ValidationError(
            f"got {len(received)} antenna signals for {h.h.size} channel entries"
        )
    spp = params.samples_per_pulse
    total = params.m * spp
    for sig in received:
        if sig.samples.size != total or sig.sample_rate != params.sample_rate:
            raise ValidationError("received signals do not share the waveform sampling grid")

    combined = np.zeros(total, dtype=complex)
    for hk, sig in zip(h.h, received):
        combined += np.conj(hk) * sig.samples

    tt = np.arange(spp) * params.dt
    tone_f = params.f0 + np.arange(params.m) * params.delta_f
    # unit-energy complex tones on one pulse: energy sums to 1 under the left rule
    basis = np.exp(2j * np.pi * np.outer(tone_f, tt)) / sqrt(params.t)
    pulses = combined.reshape(params.m, spp)
    return (pulses @ basis.conj().T).real * params.dt


def _statistic_matrix(perm, h, energy, n0, rng):
    """One trial for the sent permutation perm: statistic_matrices forms the
    identity's matrix r from unit noise, and relabelling its columns,
    r[:, argsort(perm)], puts the support on the entries [n, perm[n]]."""
    m = len(perm)
    r = statistic_matrices(np.asarray([sqrt(h.gain)]), energy / n0, rng.standard_normal((1, m, m)))
    return r[0][:, np.argsort(perm)]


# --- correlation matrix -----------------------------------------------------


def test_noiseless_correlation_peaks_on_transmitted_tone():
    params = WaveformParams(m=4, t=1.0, delta_f=1.0, energy=2.0)
    perm = [2, 0, 3, 1]
    sig = synthesize(perm, params)
    h = FadingRealization.from_vector(np.ones(1))
    rng = np.random.default_rng(0)
    received = apply_channel(sig, h, 1e-30, rng)
    r = _correlation_matrix(received, h, params)
    assert list(np.argmax(r, axis=1)) == perm
    for n in range(4):
        peak = r[n, perm[n]]
        for m in range(4):
            if m != perm[n]:
                assert abs(r[n, m]) <= 1e-3 * peak


def test_zero_input_gives_zero_matrix():
    params = WaveformParams(m=3, t=1.0, delta_f=1.0)
    zeros = ComplexSignal(
        samples=np.zeros(params.m * params.samples_per_pulse, dtype=complex),
        sample_rate=params.sample_rate,
    )
    h = FadingRealization.from_vector(np.ones(2))
    r = _correlation_matrix([zeros, zeros], h, params)
    assert np.all(r == 0.0)


def test_correlation_grid_mismatch_rejected():
    params = WaveformParams(m=3, t=1.0, delta_f=1.0)
    h = FadingRealization.from_vector(np.ones(1))
    short = ComplexSignal(samples=np.zeros(5, dtype=complex), sample_rate=params.sample_rate)
    with pytest.raises(ValidationError, match="grid"):
        _correlation_matrix([short], h, params)


def test_correlation_scaling_matches_continuous_model():
    # noiseless diagonal entries equal gain * sqrt(energy / m): the pulse
    # amplitude carries 1/sqrt(t), the unit-energy basis another, they cancel
    params = WaveformParams(m=2, t=2.0, delta_f=0.5, energy=3.0)
    perm = [1, 0]
    sig = synthesize(perm, params)
    h = FadingRealization.from_vector(np.array([1.0 + 1.0j, 0.5]))
    received = apply_channel(sig, h, 1e-30, np.random.default_rng(1))
    r = _correlation_matrix(received, h, params)
    expected = h.gain * sqrt(params.energy / params.m)
    for n, p in enumerate(perm):
        assert r[n, p] == pytest.approx(expected, rel=1e-9)


# --- statistic matrix -------------------------------------------------------


def test_statistic_matrix_noise_free_support():
    h = FadingRealization.from_vector(np.ones(2))
    rng = np.random.default_rng(2)
    r = _statistic_matrix([2, 0, 1], h, energy=1.0, n0=1e-300, rng=rng)
    # in units of the noise, the support holds sqrt(2 g snr / m)
    shift = sqrt(2.0 * h.gain * 1e300 / 3.0)
    expected = np.zeros((3, 3))
    for n, p in enumerate([2, 0, 1]):
        expected[n, p] = 1.0
    assert np.allclose(r / shift, expected, rtol=1e-15, atol=1e-140)


def test_statistic_matrix_decision_gap_variance():
    # permutations differing in all 3 slots: in units of the noise, the score
    # gap has mean 3 sqrt(2 gain snr / m) and variance 6, the continuous
    # receiver's mean 3 energy gain / m over its noise scale
    # sqrt(energy n0 gain / (2 m))
    m, energy, n0, gain = 3, 2.0, 0.7, 1.5
    rng = np.random.default_rng(3)
    size = 1_000_000
    rival = [1, 2, 0]
    noise = rng.standard_normal((size, m, m))
    r = statistic_matrices(np.full(size, sqrt(gain)), energy / n0, noise)  # sends [0, 1, 2]
    rows = np.arange(m)
    gaps = r[:, rows, rows].sum(axis=1) - r[:, rows, rival].sum(axis=1)
    expected_var = 6.0
    expected_mean = 3.0 * energy / m * gain / sqrt(energy * n0 * gain / (2.0 * m))
    assert gaps.var() == pytest.approx(expected_var, rel=0.02)
    assert gaps.mean() == pytest.approx(expected_mean, rel=0.02)


def test_two_tone_pairwise_error_rate_matches_q():
    # AWGN mode, m=2: block errors are exactly the pairwise events with
    # rate Q(sqrt(n * snr * l / m)) = Q(sqrt(n)/alpha_2)
    m, n_ant, snr = 2, 1, 1.0
    energy, n0 = 1.0, 1.0 / snr
    size = 1_000_000
    rng = np.random.default_rng(4)
    noise = rng.standard_normal((size, m, m))
    r = statistic_matrices(np.full(size, sqrt(n_ant)), energy / n0, noise)  # sends [0, 1]
    # score of [0,1] vs [1,0]
    errors = (r[:, 0, 0] + r[:, 1, 1]) < (r[:, 0, 1] + r[:, 1, 0])
    p_hat = errors.mean()
    p = 0.5 * erfc(sqrt(n_ant * snr * 2 / m) / sqrt(2))
    sigma = sqrt(p * (1 - p) / size)
    assert abs(p_hat - p) <= 3 * sigma


# --- detectors --------------------------------------------------------------


def test_golden_assignment_case():
    got = hungarian_detect(GOLDEN)
    assert got == [2, 1, 0, 3]
    assert assignment_score(GOLDEN, got) == 6.0
    assert exhaustive_detect(GOLDEN) == got


def test_dominant_diagonal_picks_identity():
    r = -np.ones((5, 5)) + 10.0 * np.eye(5)
    assert hungarian_detect(r) == [0, 1, 2, 3, 4]
    assert exhaustive_detect(r) == [0, 1, 2, 3, 4]


def test_single_element():
    assert hungarian_detect(np.array([[3.0]])) == [0]
    assert exhaustive_detect(np.array([[3.0]])) == [0]


@pytest.mark.parametrize("m", range(2, 8))
def test_random_matrices_match_exhaustive(m):
    rng = np.random.default_rng(100 + m)
    for _ in range(300):
        r = rng.normal(size=(m, m))
        a = hungarian_detect(r)
        b = exhaustive_detect(r)
        assert assignment_score(r, a) == pytest.approx(assignment_score(r, b), abs=1e-9)
        assert a == b  # continuous entries: the argmax is a.s. unique


def test_tie_breaking_is_lexicographic():
    assert hungarian_detect(np.zeros((4, 4))) == [0, 1, 2, 3]
    assert hungarian_detect(np.ones((3, 3))) == [0, 1, 2]
    # two optimal assignments; [0, 1] is the lexicographically smaller one
    r = np.array([[2.0, 2.0], [1.0, 1.0]])
    assert hungarian_detect(r) == [0, 1]
    assert exhaustive_detect(r) == [0, 1]


def test_scale_invariance():
    rng = np.random.default_rng(5)
    r = rng.normal(size=(5, 5))
    base = hungarian_detect(r)
    for c in (1e-6, 0.5, 3.0, 1e6):
        assert hungarian_detect(c * r) == base


def test_row_shift_invariance():
    rng = np.random.default_rng(6)
    r = rng.normal(size=(5, 5))
    base = hungarian_detect(r)
    base_gaps = [
        assignment_score(r, base) - assignment_score(r, p)
        for p in permutations(range(5))
    ]
    shifted = r.copy()
    shifted[2, :] += 7.25
    assert hungarian_detect(shifted) == base
    shifted_gaps = [
        assignment_score(shifted, base) - assignment_score(shifted, p)
        for p in permutations(range(5))
    ]
    assert np.allclose(base_gaps, shifted_gaps, atol=1e-9)


def test_certificate_against_sampled_rivals():
    rng = np.random.default_rng(7)
    for m in (3, 5, 8, 12):
        r = rng.normal(size=(m, m))
        best = hungarian_detect(r)
        score = assignment_score(r, best)
        for _ in range(50):
            rival = rng.permutation(m)
            assert score >= assignment_score(r, rival) - 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_optimality_property(m, seed):
    r = np.random.default_rng(seed).normal(size=(m, m))
    got = hungarian_detect(r)
    want = exhaustive_detect(r)
    assert assignment_score(r, got) == pytest.approx(assignment_score(r, want), abs=1e-9)


def test_exhaustive_guard():
    with pytest.raises(CapabilityError):
        exhaustive_detect(np.zeros((11, 11)))


def test_detector_input_validation():
    with pytest.raises(ValidationError):
        hungarian_detect(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        hungarian_detect(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# finite, but its shifted cost r.max() - r overflows to inf, on which the
# assignment core never terminated
OVERFLOWING = np.array(
    [
        [-1e308, -1e308, -1e308, -1e308, 1.7e308],
        [-1e308, -1e308, -1.7e308, -1.7e308, 1e308],
        [-1.0, 1e308, 1.0, 1.7e308, 0.0],
        [1e308, 1e308, -1.7e308, 0.0, 0.0],
        [-1.0, 0.0, -1.0, 0.0, 1e308],
    ]
)


@pytest.mark.parametrize("detect", [hungarian_detect, exhaustive_detect])
def test_detectors_refuse_entries_whose_sums_overflow(detect):
    with pytest.raises(ValidationError, match="overflow"):
        detect(OVERFLOWING)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_detectors_at_the_overflow_limit_match_the_rescaled_matrix(m, seed):
    # largest entries accepted: 2 m max|r| is the largest finite double
    r = np.random.default_rng(seed).normal(size=(m, m))
    r /= np.abs(r).max()
    r *= np.nextafter(np.finfo(float).max / (2 * m), 0.0)
    small = r * 2.0**-900  # exact: a power-of-two scale of normal doubles
    for detect in (hungarian_detect, exhaustive_detect):
        assert detect(r) == detect(small)


def test_permutation_table_matches_codec():
    for m in range(1, 6):
        table = permutation_table(m)
        for rank, row in enumerate(table):
            assert list(row) == rank_to_permutation(rank, m)


def test_end_to_end_low_noise_recovers_symbol():
    m = 5
    rng = np.random.default_rng(8)
    params = ChannelParams(n=2, k=1.0, n0=1e-9, kind="rician")
    for symbol in (0, 31, 119):
        perm = rank_to_permutation(symbol, m)
        h = draw_fading(params, rng)
        r = _statistic_matrix(perm, h, energy=1.0, n0=params.n0, rng=rng)
        assert permutation_to_rank(hungarian_detect(r)) == symbol
