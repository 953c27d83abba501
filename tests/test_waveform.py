"""Waveform synthesis tests: energy, envelope, orthogonality, validation."""

from itertools import permutations
from math import factorial

import numpy as np
import pytest

from permrad.cli import main
from permrad.errors import ValidationError
from permrad.lehmer import rank_to_permutation
from permrad.waveform import WaveformParams, synthesize, tone_frequencies


def _energy(samples: np.ndarray, sample_rate: float) -> float:
    """Discrete energy sum(|s|^2) * dt."""
    return float(np.sum(np.abs(samples) ** 2)) / sample_rate


def test_single_pulse_is_all_ones():
    params = WaveformParams(m=1, t=1.0, delta_f=1.0, f0=0.0, energy=1.0)
    assert np.allclose(synthesize([0], params), 1.0, atol=1e-15)


def test_energy_normalization():
    params = WaveformParams(m=2, t=1.0, delta_f=1.0, energy=1.0)
    assert abs(_energy(synthesize([0, 1], params), params.sample_rate) - 1.0) <= 1e-9


def test_constant_modulus_every_permutation_up_to_m8():
    # unity PAPR and exact discrete energy for the full codebook of each size;
    # minimum oversampling keeps the sweep quick, the properties are grid exact
    for m in range(1, 9):
        params = WaveformParams(m=m, t=0.5, delta_f=2.0, energy=2.0, oversampling=2 * m)
        for perm in permutations(range(m)):
            samples = synthesize(list(perm), params)
            assert np.allclose(np.abs(samples), params.amplitude, rtol=1e-12)
            energy = _energy(samples, params.sample_rate)
            assert abs(energy - params.energy) <= 1e-9 * params.energy


def test_reverse_permutation_same_envelope():
    params = WaveformParams(m=5, t=1.0, delta_f=1.0)
    for symbol in (0, 17, 100):
        perm = rank_to_permutation(symbol, 5)
        a = synthesize(perm, params)
        b = synthesize(perm[::-1], params)
        assert np.allclose(np.abs(a), np.abs(b), atol=1e-12)


def test_per_pulse_tone_orthogonality():
    params = WaveformParams(m=4, t=1.0, delta_f=1.0)
    spp = params.samples_per_pulse
    tt = np.arange(spp) * params.dt
    tones = params.amplitude * np.exp(
        2j * np.pi * np.outer(params.f0 + np.arange(params.m) * params.delta_f, tt)
    )
    limit = 1e-3 * params.energy / params.m
    for p in range(params.m):
        for q in range(params.m):
            inner = np.sum(tones[p] * np.conj(tones[q])) * params.dt
            if p == q:
                assert abs(inner - params.energy / params.m) <= 1e-12
            else:
                assert abs(inner) <= limit


def test_tone_frequencies_examples():
    params = WaveformParams(m=3, t=1.0, delta_f=1.0, f0=0.0)
    assert np.allclose(tone_frequencies([0, 1, 2], params), [0.0, 1.0, 2.0])
    params = WaveformParams(m=3, t=0.2, delta_f=5.0, f0=10.0)
    assert np.allclose(tone_frequencies([2, 0, 1], params), [20.0, 10.0, 15.0])


def test_non_integer_spacing_rejected():
    with pytest.raises(ValidationError, match="delta_f"):
        WaveformParams(m=2, t=1.0, delta_f=0.5)


def test_sub_nyquist_oversampling_rejected():
    with pytest.raises(ValidationError, match="Nyquist"):
        WaveformParams(m=4, t=1.0, delta_f=1.0, oversampling=6)


def test_permutation_length_mismatch_rejected():
    params = WaveformParams(m=3, t=1.0, delta_f=1.0)
    with pytest.raises(ValidationError, match="length"):
        synthesize([0, 1], params)


def test_bad_params_rejected():
    with pytest.raises(ValidationError):
        WaveformParams(m=0, t=1.0, delta_f=1.0)
    with pytest.raises(ValidationError):
        WaveformParams(m=2, t=-1.0, delta_f=1.0)
    with pytest.raises(ValidationError):
        WaveformParams(m=2, t=1.0, delta_f=1.0, energy=0.0)


@pytest.mark.parametrize(
    "field,value",
    [("t", float("inf")), ("t", float("nan")), ("delta_f", float("inf")),
     ("delta_f", float("nan")), ("f0", float("inf")), ("f0", float("nan")),
     ("energy", float("inf")), ("delta_f", 1e308), ("f0", 1e307)],
)
def test_non_finite_params_rejected(field, value):
    # the last two cases are finite, but delta_f * t overflows to inf, and
    # so does the top tone's phase over the waveform, 2 pi f0 m t
    kwargs = {"m": 2, "t": 10.0, "delta_f": 0.1, field: value}
    with pytest.raises(ValidationError):
        WaveformParams(**kwargs)


def test_sample_grid_and_times(capsys):
    # the t column of waveform's CSV: one row per sample, from 0 in steps of
    # dt; the re and im columns are synthesize's samples, bit for bit
    params = WaveformParams(m=2, t=0.5, delta_f=2.0, f0=3.0)
    samples = synthesize([1, 0], params)
    assert samples.size == params.m * params.samples_per_pulse
    argv = ["waveform", "--m", "2", "--perm", "1,0", "--t-sec", "0.5", "--delta-f-hz", "2",
            "--f0-hz", "3"]
    assert main(argv) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert rows[0] == "t,re,im"
    times = np.array([float(row.split(",")[0]) for row in rows[1:]])
    assert times.size == params.m * params.samples_per_pulse
    assert times[0] == 0.0
    assert times[-1] < params.duration
    assert np.allclose(np.diff(times), params.dt)
    values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert values[:, 1].tobytes() == samples.real.tobytes()
    assert values[:, 2].tobytes() == samples.imag.tobytes()


def test_default_oversampling_follows_band():
    params = WaveformParams(m=4, t=1.0, delta_f=2.0)
    assert params.spacing_periods == 2
    assert params.samples_per_pulse == 8 * 4 * 2


def test_signal_energy_helper():
    assert _energy(np.ones(10, dtype=complex), 10.0) == pytest.approx(1.0)


def test_total_symbol_count_sanity():
    # m distinct tones give m! waveforms; the codec addresses all of them
    m = 4
    seen = set()
    params = WaveformParams(m=m, t=1.0, delta_f=1.0)
    for v in range(factorial(m)):
        perm = tuple(rank_to_permutation(v, m))
        seen.add(perm)
        synthesize(list(perm), params)
    assert len(seen) == factorial(m)
