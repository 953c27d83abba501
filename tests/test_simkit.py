"""Monte Carlo engine tests: determinism, receiver equivalence, exactness."""

import tracemalloc
from dataclasses import replace
from math import erfc, factorial, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permrad.channel import draw_fading_batch
from permrad.errors import NumericError, ValidationError
from permrad.lehmer import rank_to_permutation
from permrad.receiver import exhaustive_detect, hungarian_detect, statistic_matrices
from permrad.simkit import (
    _BLOCK,
    _TONE_TABLE_BUDGET,
    BlerPoint,
    SimConfig,
    _block_errors,
    _blocks,
    _run_block,
    run_bler_sweep,
    wilson_interval,
)


def _bler_sigma(p: float, n: int) -> float:
    return sqrt(p * (1.0 - p) / n)


def _random_perms(rng, size, m):
    """size uniformly random permutations of 0..m-1, one per row."""
    return rng.permuted(np.tile(np.arange(m), (size, 1)), axis=1)


def _relabel(r_all, perms):
    """Trials for the identity turned into trials for perms: trial i's columns
    are relabelled by perms[i], so r_p[i][n, perms[i, n']] = r_all[i][n, n'].
    The noise law is unchanged and the mean moves onto [n, perms[i, n]]."""
    return np.take_along_axis(r_all, np.argsort(perms, axis=1)[:, None, :], axis=2)


def _to_identity(r_all, perms):
    """The inverse of _relabel: r[i][n, n'] = r_p[i][n, perms[i, n']]."""
    return np.take_along_axis(r_all, perms[:, None, :], axis=2)


def test_deterministic_across_worker_counts():
    base = dict(
        m=4, n=2, snr_db=(0.0, 4.0), channel="rician", k=1.0,
        trials=20_000, master_seed=42, receiver="exhaustive",
    )
    serial = run_bler_sweep(SimConfig(workers=1, **base))
    parallel = run_bler_sweep(SimConfig(workers=4, **base))
    assert serial == parallel  # bit-identical, not merely close
    # sampled mode over three blocks, the last one partial
    base.update(n=3, snr_db=(4.0,), channel="rayleigh", k=0.0, trials=20_000, mode="sampled")
    serial = run_bler_sweep(SimConfig(workers=1, **base))
    parallel = run_bler_sweep(SimConfig(workers=2, **base))
    assert serial == parallel
    assert 0 < serial[0].errors < serial[0].trials


def test_deterministic_repeat_runs():
    cfg = SimConfig(m=3, n=1, snr_db=(2.0,), trials=5_000, master_seed=7)
    assert run_bler_sweep(cfg) == run_bler_sweep(cfg)


def test_seed_changes_result():
    cfg_a = SimConfig(m=3, n=1, snr_db=(2.0,), trials=5_000, master_seed=1)
    cfg_b = SimConfig(m=3, n=1, snr_db=(2.0,), trials=5_000, master_seed=2)
    assert run_bler_sweep(cfg_a) != run_bler_sweep(cfg_b)


def test_receiver_equivalence_identical_error_counts():
    for m in (3, 5):
        base = dict(
            m=m, n=2, snr_db=(1.0,), channel="rayleigh",
            trials=10_000, master_seed=11,
        )
        hung = run_bler_sweep(SimConfig(receiver="hungarian", **base))[0]
        exh = run_bler_sweep(SimConfig(receiver="exhaustive", **base))[0]
        assert hung.errors == exh.errors
        assert hung.trials == exh.trials


def test_statistic_and_sampled_modes_agree():
    base = dict(m=4, n=2, channel="rician", k=1.0, trials=100_000,
                master_seed=3, receiver="exhaustive")
    for snr_db in (0.0, 4.0, 8.0):
        stat = run_bler_sweep(SimConfig(mode="statistic", snr_db=(snr_db,), **base))[0]
        samp = run_bler_sweep(SimConfig(mode="sampled", snr_db=(snr_db,), **base))[0]
        gap = abs(stat.bler - samp.bler)
        sigma = sqrt(
            _bler_sigma(stat.bler, stat.trials) ** 2
            + _bler_sigma(samp.bler, samp.trials) ** 2
        )
        assert gap <= 3.0 * sigma


def test_noise_free_limit_has_no_errors():
    cfg = SimConfig(m=4, n=2, snr_db=(60.0,), trials=10_000, receiver="exhaustive")
    point = run_bler_sweep(cfg)[0]
    assert point.errors == 0
    assert point.bler == 0.0


def test_two_tone_error_rate_matches_q_function():
    cfg = SimConfig(
        m=2, n=1, snr_db=(0.0,), channel="awgn",
        trials=200_000, master_seed=5, receiver="exhaustive",
    )
    point = run_bler_sweep(cfg)[0]
    p = 0.5 * erfc(1.0 / sqrt(2.0))  # Q(1)
    assert abs(point.bler - p) <= 3.0 * _bler_sigma(p, point.trials)


def test_awgn_equals_huge_k_rician():
    base = dict(m=4, n=2, snr_db=(2.0,), trials=100_000, master_seed=6,
                receiver="exhaustive")
    awgn = run_bler_sweep(SimConfig(channel="awgn", **base))[0]
    rician = run_bler_sweep(SimConfig(channel="rician", k=1e12, **base))[0]
    sigma = sqrt(
        _bler_sigma(awgn.bler, awgn.trials) ** 2
        + _bler_sigma(rician.bler, rician.trials) ** 2
    )
    assert abs(awgn.bler - rician.bler) <= 3.0 * sigma


def test_rayleigh_channel_is_k_zero_rician():
    base = dict(m=3, n=2, snr_db=(4.0,), trials=50_000, master_seed=8,
                receiver="exhaustive")
    ray = run_bler_sweep(SimConfig(channel="rayleigh", **base))[0]
    ric = run_bler_sweep(SimConfig(channel="rician", k=0.0, **base))[0]
    assert ray == ric  # same draws, same statistics


def test_partial_last_block():
    cfg = SimConfig(m=2, n=1, snr_db=(0.0,), trials=10_000, receiver="exhaustive")
    point = run_bler_sweep(cfg)[0]
    assert point.trials == 10_000


def test_target_errors_stops_early():
    cfg = SimConfig(
        m=4, n=1, snr_db=(0.0,), trials=500_000, target_errors=100,
        master_seed=9, receiver="exhaustive",
    )
    point = run_bler_sweep(cfg)[0]
    assert point.errors >= 100
    assert point.trials < 500_000


def test_target_errors_deterministic_across_workers():
    base = dict(
        m=4, n=1, snr_db=(2.0,), trials=200_000, target_errors=250, master_seed=10,
        receiver="exhaustive",
    )
    serial = run_bler_sweep(SimConfig(workers=1, **base))
    parallel = run_bler_sweep(SimConfig(workers=3, **base))
    assert serial == parallel


def test_target_errors_unreachable_warns():
    cfg = SimConfig(
        m=2, n=1, snr_db=(60.0,), trials=5_000, target_errors=10, master_seed=1,
        receiver="exhaustive",
    )
    with pytest.warns(UserWarning, match="trial cap"):
        point = run_bler_sweep(cfg)[0]
    assert point.errors < 10
    assert point.trials == 5_000


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 12, 20])
def test_block_errors_match_per_trial_detectors(m):
    rng = np.random.default_rng(1000 + m)
    size = 200
    flagged = 0
    for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0):
        gains = rng.exponential(size=size)
        noise = rng.standard_normal((size, m, m))
        r_all = statistic_matrices(np.sqrt(gains), 10.0 ** (snr_db / 10.0), noise)
        got = _block_errors(r_all)
        # the detectors see each trial relabelled to a random sent permutation
        perms = _random_perms(rng, size, m)
        r_sent = _relabel(r_all, perms)
        sent = [list(p) for p in perms]
        assert got.tolist() == [hungarian_detect(r) != p for r, p in zip(r_sent, sent)]
        if m <= 8:
            assert got.tolist() == [exhaustive_detect(r) != p for r, p in zip(r_sent, sent)]
        flagged += int(got.sum())
    assert 0 < flagged < 5 * size  # both outcomes occur, so the check is not vacuous


def _reference_basis(wf, m):
    """Sample times of one pulse and the unit-energy tones B, shape (m, spp)."""
    tt = np.arange(wf.samples_per_pulse) * wf.dt
    tone_f = wf.f0 + np.arange(m) * wf.delta_f
    return tt, np.exp(2j * np.pi * np.outer(tone_f, tt)) / sqrt(wf.t)


def _sampled_reference(cfg, perms, h, n0, rng):
    """Reference: synthesise tx, noise and rx sample by sample, then combine
    the antennas and correlate each pulse with the sampled tones."""
    wf = cfg.waveform_params()
    size, m = perms.shape
    spp = wf.samples_per_pulse
    total = m * spp
    tt, basis = _reference_basis(wf, m)

    freqs = wf.f0 + perms.astype(float) * wf.delta_f
    tx = wf.amplitude * np.exp(2j * np.pi * freqs[:, :, None] * tt)
    tx = tx.reshape(size, total)

    sigma = sqrt(n0 * wf.sample_rate / 2.0)
    noise = sigma * (
        rng.standard_normal((size, cfg.n, total))
        + 1j * rng.standard_normal((size, cfg.n, total))
    )
    rx = h[:, :, None] * tx[:, None, :] + noise
    combined = np.einsum("bn,bns->bs", h.conj(), rx)

    pulses = combined.reshape(size, m, spp)
    return np.einsum("bps,ms->bpm", pulses, basis.conj()).real * wf.dt


class _ZeroRng:
    """Draws zeros in place of standard normals: a noise-free synthesis."""

    def standard_normal(self, shape):
        return np.zeros(shape)


# default geometry; a tone offset; delta_f * t = 2 with t != 1; an explicit
# oversampling above the Nyquist floor that is not a multiple of it
_SAMPLED_GEOMETRIES = (
    {},
    {"f0": 1e3},
    {"t": 0.5, "delta_f": 4.0},
    {"oversampling": 29},
)


def _sampled_case(m, n, channel, geometry, seed, size):
    """A sampled-mode config and one block's fading, with random permutations
    for the reference synthesis to send."""
    snr_db = m + 2.0  # keeps the error rate away from 0 and 1
    cfg = SimConfig(m=m, n=n, snr_db=(snr_db,), channel=channel, k=1.5,
                    mode="sampled", energy=2.0, **geometry)
    n0 = cfg.energy / 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(seed)
    perms = _random_perms(rng, size, m)
    h = draw_fading_batch(cfg.channel_params(), rng, size)
    return cfg, perms, h, n0


@pytest.mark.parametrize("channel", ["awgn", "rayleigh", "rician"])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("m", [1, 2, 4, 6, 8])
def test_sampled_matrices_match_full_synthesis(m, n, channel):
    # sampled mode decides the statistic matrices; the full synthesis, over
    # its noise scale sqrt(|h|^2 n0 / 2), has their mean and noise law
    size = 256
    for g_idx, geometry in enumerate(_SAMPLED_GEOMETRIES):
        cfg, perms, h, n0 = _sampled_case(m, n, channel, geometry, [m, n, g_idx], size)
        wf = cfg.waveform_params()
        gains = np.sum(np.abs(h) ** 2, axis=1)
        snr = cfg.energy / n0
        scale = np.sqrt(gains * n0 / 2.0)[:, None, None]

        # noise-free mean: |h|^2 times the sampled tones' Gram rows of the sent
        # tones; the reference sends perms and is relabelled to the identity
        mean = statistic_matrices(np.sqrt(gains), snr, np.zeros((size, m, m)))
        want = _to_identity(_sampled_reference(cfg, perms, h, n0, _ZeroRng()), perms)
        want /= scale
        assert mean.shape == want.shape == (size, m, m)
        assert np.max(np.abs(mean - want)) <= 1e-12 * np.max(np.abs(want))

        # with identity draws, a trial's noise N has N^T N = the covariance of
        # one pulse's noise row; the reference correlator of white noise of
        # variance sigma^2 = n0 * sample_rate / 2 per real part gives
        # sigma^2 dt^2 Re(B B^H), which over the noise scale is the identity
        root = statistic_matrices(np.sqrt(gains), snr, np.tile(np.eye(m), (size, 1, 1))) - mean
        got = np.einsum("bpm,bpk->bmk", root, root)
        _, basis = _reference_basis(wf, m)
        cov = wf.sample_rate * wf.dt ** 2 * (basis @ basis.conj().T).real
        assert np.max(np.abs(got - cov)) <= 1e-12 * np.max(np.abs(cov))


@pytest.mark.parametrize("geometry", [{}, {"t": 0.5, "delta_f": 4.0}])
def test_sampled_matrices_bler_matches_full_synthesis(geometry):
    size = 20_000
    cfg, perms, h, n0 = _sampled_case(4, 2, "rician", geometry, 17, size)
    root_gains = np.sqrt(np.sum(np.abs(h) ** 2, axis=1))
    noise = np.random.default_rng(1).standard_normal((size, 4, 4))
    got = np.count_nonzero(_block_errors(statistic_matrices(root_gains, cfg.energy / n0, noise)))
    rng = np.random.default_rng(2)
    want = 0
    for lo in range(0, size, 2000):  # the reference holds every sample of its trials
        part = slice(lo, lo + 2000)
        r = _sampled_reference(cfg, perms[part], h[part], n0, rng)
        want += np.count_nonzero(_fw_block_errors(r, perms[part]))
    p_got, p_want = got / size, want / size
    assert 0.05 < p_want < 0.5  # the comparison is not vacuous
    pooled = (got + want) / (2 * size)
    assert abs(p_got - p_want) <= 4.0 * sqrt(2.0 * pooled * (1.0 - pooled) / size)


def test_block_errors_find_cycle_longer_than_a_swap():
    # the sent identity scores 0.  Trial 0: the 3-cycle 0->1->2->0 scores 3 and
    # every swap -4.  Trial 1: swapping tones 0 and 1 scores 4.  Trial 2: no
    # positive edge at all.
    cyclic = np.array([[0.0, 1.0, -5.0], [-5.0, 0.0, 1.0], [1.0, -5.0, 0.0]])
    r_all = np.stack([cyclic, -cyclic.T, np.eye(3)])
    assert _block_errors(r_all).tolist() == [True, True, False]
    # the same trials sent as 2,0,1 give the same decisions
    perms = np.tile([2, 0, 1], (3, 1))
    assert _fw_block_errors(_relabel(r_all, perms), perms).tolist() == [True, True, False]


def _fw_block_errors(r_all, perms):
    """Reference decision: every trial with a positive edge goes through
    max-plus Floyd-Warshall on the swap graph gathered by take_along_axis."""
    batch, m, _ = r_all.shape
    out = np.zeros(batch, dtype=bool)
    chunk = max(1, (1 << 16) // (m * m))
    for lo in range(0, batch, chunk):
        part, p = r_all[lo : lo + chunk], perms[lo : lo + chunk]
        swapped = np.take_along_axis(part, p[:, None, :], axis=2)
        w = swapped - np.diagonal(swapped, axis1=1, axis2=2)[:, :, None]
        live = (w > 0).any(axis=(1, 2))
        w = w[live]
        step = np.empty_like(w)
        for k in range(m - 1):
            np.add(w[:, :, k, None], w[:, None, k, :], out=step)
            np.maximum(w, step, out=w)
        out[lo : lo + chunk][live] = (np.diagonal(w, axis1=1, axis2=2) > 0).any(axis=1)
    return out


def _mask_ranks_to_permutations(symbols, m):
    """Reference decode: pick each digit's tone out of a boolean-masked
    array of the tones still unused."""
    rest = np.asarray(symbols, dtype=np.int64)
    batch = rest.shape[0]
    rows = np.arange(batch)
    remaining = np.broadcast_to(np.arange(m), (batch, m))
    out = np.empty((batch, m), dtype=np.int64)
    for i in range(m):
        digit, rest = np.divmod(rest, factorial(m - 1 - i))
        out[:, i] = remaining[rows, digit]
        remaining = remaining[np.arange(m - i) != digit[:, None]].reshape(batch, m - 1 - i)
    return out


def _identity_perms(size, m):
    return np.tile(np.arange(m), (size, 1))


def _statistic_reference(perms, gains, snr, noise):
    """Reference matrices: a copy of the unit noise with the shift
    sqrt(2 g snr / m) added by a 3-array scatter onto the sent support."""
    batch, m = perms.shape
    r = noise.copy()
    shift = sqrt(2.0 / m) * sqrt(snr) * np.sqrt(gains)
    r[np.arange(batch)[:, None], np.arange(m)[None, :], perms] += shift[:, None]
    return r


def _reference_run_block(cfg, block_idx, size, symbols=False):
    """Reference block: the sweep's (seed, block) stream drawn whole, every
    trial decided at every point by the reference decision, with no
    ascending filter; the error count per point.  Both modes decide the
    same matrices.

    With symbols, each trial first draws a random rank, decoded by
    masking; the shift is placed and the swap graph gathered through its
    permutation, not the identity."""
    rng = np.random.default_rng([cfg.master_seed, block_idx])
    if symbols:
        perms = _mask_ranks_to_permutations(rng.integers(0, factorial(cfg.m), size=size), cfg.m)
    else:
        perms = _identity_perms(size, cfg.m)
    h = draw_fading_batch(cfg.channel_params(), rng, size)
    gains = np.sum(np.abs(h) ** 2, axis=1)
    noise = rng.standard_normal((size, cfg.m, cfg.m))
    return [
        int(np.count_nonzero(_fw_block_errors(
            _statistic_reference(perms, gains, 10.0 ** (snr_db / 10.0), noise), perms
        )))
        for snr_db in cfg.snr_db
    ]


@pytest.mark.parametrize("m", range(1, 21))
def test_batch_decode_matches_mask_decode(m):
    # the random-symbol reference decodes its ranks by masking; it must be
    # the codec's decode, up to the largest rank 20! - 1 in int64
    ranks = np.random.default_rng(m).integers(0, factorial(m), size=2000)
    ranks[:2] = (0, factorial(m) - 1)
    want = [rank_to_permutation(int(v), m) for v in ranks]
    assert _mask_ranks_to_permutations(ranks, m).tolist() == want


# (m, n, channel, rician k, snr dB): every symbol has the same error
# probability, so the identity sweep's BLER is the random-symbol BLER
_SYMBOL_CASES = [
    (4, 1, "awgn", 0.0, 6.0),
    (8, 2, "rician", 2.0, 10.0),
    (12, 1, "rayleigh", 0.0, 18.0),
    (20, 1, "awgn", 0.0, 19.0),
]


@pytest.mark.parametrize("m, n, channel, k, snr_db", _SYMBOL_CASES)
def test_identity_sweep_matches_random_symbol_bler(m, n, channel, k, snr_db):
    trials = 65_536
    cfg = SimConfig(m=m, n=n, snr_db=(snr_db,), channel=channel, k=k, trials=trials,
                    master_seed=m)
    got = run_bler_sweep(cfg)[0].errors
    ref_cfg = replace(cfg, master_seed=m + 1000)  # an independent stream
    want = sum(_reference_run_block(ref_cfg, b, s, symbols=True)[0] for b, s in _blocks(cfg))
    assert 0.05 < want / trials < 0.95  # the comparison is not vacuous
    pooled = (got + want) / (2 * trials)
    assert abs(got - want) / trials <= 4.0 * sqrt(2.0 * pooled * (1.0 - pooled) / trials)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 12, 20])
def test_block_errors_match_floyd_warshall_trial_by_trial(m):
    size = 3000
    flagged = 0
    for snr_db in range(0, 31, 3):
        rng = np.random.default_rng([m, snr_db])
        gains = rng.exponential(size=size)
        snr = 10.0 ** (snr_db / 10.0)
        noise = np.random.default_rng(snr_db).standard_normal((size, m, m))
        want_r = _statistic_reference(_identity_perms(size, m), gains, snr, noise)
        r_all = statistic_matrices(np.sqrt(gains), snr, noise)
        assert np.array_equal(r_all, want_r)
        got = _block_errors(r_all)
        # the reference gathers the swap graph of each trial sent as a random permutation
        perms = _random_perms(rng, size, m)
        assert got.tolist() == _fw_block_errors(_relabel(r_all, perms), perms).tolist()
        flagged += int(got.sum())
    assert 0 < flagged < 11 * size


def _settling_exit(w):
    """Which of _block_errors' tests first decides the swap graph w."""
    if not (w > 0).any():
        return "no positive edge"
    if (w + w.T > 0).any():
        return "positive 2-cycle"
    d = w.max(axis=0)
    if not (d[:, None] + w > d[None, :]).any():
        return "potential"
    return "floyd-warshall"


# swap graphs W (zero diagonal), the test that settles each, and whether the
# sent permutation is in error
_EXIT_CASES = [
    ([[0, -1, -1], [-1, 0, -1], [-1, -1, 0]], "no positive edge", False),
    ([[0, 1, -5], [1, 0, -5], [-5, -5, 0]], "positive 2-cycle", True),
    ([[0, 1, -5], [-5, 0, -5], [-5, -5, 0]], "potential", False),
    ([[0, 1, -5], [-5, 0, 1], [-5, -5, 0]], "floyd-warshall", False),
    ([[0, 1, -5], [-5, 0, 1], [1, -5, 0]], "floyd-warshall", True),
]


@pytest.mark.parametrize("sent", [[0, 1, 2], [2, 0, 1]])
@pytest.mark.parametrize("w, settled_by, error", _EXIT_CASES)
def test_block_errors_each_settling_exit(w, settled_by, error, sent):
    w = np.array(w, dtype=float)
    assert _settling_exit(w) == settled_by
    r = np.empty_like(w)
    r[:, sent] = w + 3.0  # r[n, p(n')] - r[n, p(n)] = W[n, n']
    got = _block_errors((w + 3.0)[None])  # the same trial, sent as the identity
    assert got.tolist() == [error] == _fw_block_errors(r[None], np.array([sent])).tolist()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("channel", ["awgn", "rayleigh", "rician"])
@pytest.mark.parametrize(
    "mode, trials", [("statistic", 9_000), ("sampled", 1_500), ("sampled", 9_000)]
)
def test_sweep_matches_reference_blocks(mode, trials, channel, workers):
    # one partial block per point, or two with the second partial; at 1,500
    # trials every M > 1 still makes some errors, and not on every trial
    for m, snr_db in ((1, (0.0,)), (4, (4.0, 10.0)), (12, (12.0, 18.0)), (20, (18.0, 28.0))):
        cfg = SimConfig(m=m, n=2, snr_db=snr_db, channel=channel, k=2.0, trials=trials,
                        master_seed=m, mode=mode, workers=workers)
        got = run_bler_sweep(cfg)
        want = np.sum([_reference_run_block(cfg, b, s) for b, s in _blocks(cfg)], axis=0)
        assert [(p.trials, p.errors) for p in got] == [(trials, int(w)) for w in want]
        if m > 1:
            assert 0 < sum(p.errors for p in got) < trials * len(got)


@pytest.mark.parametrize(
    "bad",
    [
        {"energy": float("inf")},
        {"energy": float("nan")},
        {"snr_db": (0.0, float("inf"))},
        {"snr_db": (float("nan"),)},
        {"snr_db": (float("-inf"),)},
        {"t": float("inf")},
        {"t": float("nan")},
        {"t": 0.0},
        {"energy": 1e308},  # finite, but the noise scale energy * n0 overflows
    ],
)
def test_non_finite_config_values_rejected(bad):
    base = dict(m=2, n=1, snr_db=(0.0,))
    with pytest.raises(ValidationError):
        SimConfig(**{**base, **bad})


def test_wilson_interval_contains_estimate():
    for errors, trials in ((0, 100), (1, 100), (50, 100), (100, 100), (3, 10**6)):
        lo, hi = wilson_interval(errors, trials)
        assert 0.0 <= lo <= errors / trials <= hi <= 1.0


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**7), st.data())
def test_wilson_interval_property(trials, data):
    errors = data.draw(st.integers(min_value=0, max_value=trials))
    lo, hi = wilson_interval(errors, trials)
    assert 0.0 <= lo <= errors / trials <= hi <= 1.0


def test_points_carry_interval_fields():
    cfg = SimConfig(m=2, n=1, snr_db=(3.0,), trials=2_000, receiver="exhaustive")
    point = run_bler_sweep(cfg)[0]
    assert isinstance(point, BlerPoint)
    assert point.ci_lo <= point.bler <= point.ci_hi
    assert point.snr_db == 3.0


def test_validation_errors():
    with pytest.raises(ValidationError):
        SimConfig(m=0, n=1, snr_db=(0.0,))
    with pytest.raises(ValidationError):
        SimConfig(m=2, n=0, snr_db=(0.0,))
    with pytest.raises(ValidationError):
        SimConfig(m=2, n=1, snr_db=())
    with pytest.raises(ValidationError):
        SimConfig(m=2, n=1, snr_db=(0.0,), trials=0)
    with pytest.raises(ValidationError):
        SimConfig(m=2, n=1, snr_db=(0.0,), receiver="genie")
    with pytest.raises(ValidationError):
        SimConfig(m=2, n=1, snr_db=(0.0,), mode="exact")
    with pytest.raises(ValidationError):
        SimConfig(m=12, n=1, snr_db=(0.0,), receiver="exhaustive")
    with pytest.raises(ValidationError):
        SimConfig(m=2, n=1, snr_db=(0.0,), channel="fso")
    with pytest.raises(ValidationError):
        SimConfig(m=2, n=1, snr_db=(0.0,), master_seed=-1)


def test_overflowed_scales_raise_rather_than_count_as_correct():
    # a non-finite statistic shift (from an infinite gain or SNR), or the
    # sampled noise scale at a 1e-300 s pulse width, which the config
    # admits; the nan matrices they would leave read as "no positive
    # cycle", i.e. correct
    for root_gains, snr in (([1.0, np.inf], 1.0), ([1.0, 1.0], np.inf)):
        with pytest.raises(NumericError):
            statistic_matrices(np.array(root_gains), snr, np.zeros((2, 2, 2)))
    cfg = SimConfig(m=2, n=1, snr_db=(0.0,), trials=10, mode="sampled",
                    energy=1e10, t=1e-300)
    with pytest.raises(NumericError):
        run_bler_sweep(cfg)


def test_block_memory_does_not_grow_with_m_squared():
    # drawn whole, a full M=20 block's statistics are 8192 * 400 float64
    # values (26 MB); drawn and decided in slices, the block stays within
    # its fading draw and a few slice-sized temporaries
    cfg = SimConfig(m=20, n=1, snr_db=(24.0,), channel="rician", k=1.0, trials=_BLOCK)
    tracemalloc.start()
    try:
        (errors,) = _run_block(cfg, 0, _BLOCK, (0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < errors < _BLOCK
    assert peak <= 4 * 2**20


def test_sampled_block_draw_budget():
    # every point of the sampled-mode benchmark (m <= 6, n <= 4, default
    # 8 m samples per pulse) fits; a tone table that could never be held does not
    for m in range(1, 7):
        for n in range(1, 5):
            SimConfig(m=m, n=n, snr_db=(0.0,), mode="sampled")
    assert 2 * 6 * 48 <= _TONE_TABLE_BUDGET
    for geometry in ({"oversampling": 10**12}, {"delta_f": 1e6}, {"delta_f": float("inf")}):
        with pytest.raises(ValidationError, match="budget"):
            SimConfig(m=2, n=1, snr_db=(0.0,), mode="sampled", **geometry)
    # statistic mode draws no samples
    SimConfig(m=2, n=1, snr_db=(0.0,), oversampling=10**12)


def test_sampled_mode_bad_geometry_rejected():
    cfg = SimConfig(m=2, n=1, snr_db=(0.0,), mode="sampled", t=1.0, delta_f=0.3)
    with pytest.raises(ValidationError):
        run_bler_sweep(cfg)


def test_bler_decreases_with_snr():
    cfg = SimConfig(
        m=4, n=2, snr_db=(0.0, 4.0, 8.0), trials=50_000, master_seed=12,
        receiver="exhaustive",
    )
    points = run_bler_sweep(cfg)
    assert points[0].bler > points[1].bler > points[2].bler


def test_trial_cap_warning_points_at_the_caller():
    cfg = SimConfig(m=2, n=1, snr_db=(60.0,), trials=100, target_errors=10)
    with pytest.warns(UserWarning, match="trial cap") as record:
        run_bler_sweep(cfg)
    assert [w.filename for w in record if "trial cap" in str(w.message)] == [__file__]


_CHANNELS = st.sampled_from([("awgn", 0.0), ("rayleigh", 0.0), ("rician", 2.0)])


def _sweep_case(draw, max_points=5):
    """A small sweep: m, n, channel, seed and an unsorted grid that spans
    error rates from near 1 to near 0."""
    m = draw(st.integers(min_value=2, max_value=8))
    channel, k = draw(_CHANNELS)
    grid = draw(st.lists(st.integers(min_value=-4, max_value=22), min_size=2, max_size=max_points))
    return dict(m=m, n=draw(st.integers(min_value=1, max_value=3)), channel=channel, k=k,
                snr_db=tuple(float(x) for x in grid),
                master_seed=draw(st.integers(min_value=0, max_value=2**32)))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_error_counts_do_not_increase_along_an_ascending_grid(data):
    case = _sweep_case(data.draw)
    case["snr_db"] = tuple(sorted(case["snr_db"]))
    errors = [p.errors for p in run_bler_sweep(SimConfig(trials=3_000, **case))]
    assert errors == sorted(errors, reverse=True)


@pytest.mark.filterwarnings("ignore:snr point")  # points that hit the trial cap
@pytest.mark.parametrize("target_errors", [None, 60])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_each_point_equals_its_single_point_sweep(target_errors, data):
    # 20,000 trials are three blocks, so an error target can stop the
    # points at different blocks
    cfg = SimConfig(trials=20_000, target_errors=target_errors, **_sweep_case(data.draw, 4))
    got = run_bler_sweep(cfg)
    for snr_db, point in zip(cfg.snr_db, got):
        assert run_bler_sweep(replace(cfg, snr_db=(snr_db,))) == [point]


def test_unsorted_grid_gives_the_sorted_rows_in_the_given_order():
    base = dict(m=6, n=2, channel="rician", k=1.0, trials=9_000, master_seed=21)
    grid = (14.0, 2.0, 8.0, 11.0, 8.0, 5.0)  # unsorted, with a repeated point
    got = run_bler_sweep(SimConfig(snr_db=grid, **base))
    by_snr = {p.snr_db: p for p in run_bler_sweep(SimConfig(snr_db=tuple(sorted(set(grid))), **base))}
    assert got == [by_snr[x] for x in grid]
    assert len({p.errors for p in got}) == 5  # the rows differ


def test_target_errors_workers_agree_when_points_stop_at_different_blocks():
    base = dict(m=4, n=1, channel="rayleigh", snr_db=(20.0, 4.0, 12.0, 30.0),
                trials=5 * _BLOCK, target_errors=400, master_seed=33)
    with pytest.warns(UserWarning, match="trial cap"):  # 30 dB cannot reach the target
        serial = run_bler_sweep(SimConfig(workers=1, **base))
    with pytest.warns(UserWarning, match="trial cap"):
        parallel = run_bler_sweep(SimConfig(workers=2, **base))
    assert serial == parallel
    assert len({p.trials for p in serial}) >= 3  # the stop blocks differ
