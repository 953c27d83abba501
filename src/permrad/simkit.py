"""Deterministic Monte Carlo engine for block error rate sweeps.

Trials are processed in fixed-size blocks; every block draws from its own
generator seeded by (master_seed, point_index, block_index), so results
are bit-identical for any worker count and blocks can run in parallel
with plain integer-sum reduction.

Both modes draw each trial's M x M correlator outputs from their exact
law and share the block size: statistic mode from the continuous
receiver's statistics, sampled mode from those of a receiver that
correlates with the sampled tones.  On every accepted geometry the
sampled tones are orthogonal, so the two laws differ by one positive
scale.  Sampled mode holds no samples; SimConfig still bounds the
(m, samples_per_pulse) tone table its receiver is defined by.

A block is drawn and decided in slices of at most _DECISION_ELEMS
statistics, in order from the block's one generator, so its memory does
not grow with M^2 and its numbers are those of one whole-block draw.

Every trial sends the identity tone order.  Permutation codes are
geometrically uniform: relabelling the columns of a trial's matrix by
p^-1 turns a trial for symbol p into one for the identity, with the same
noise law and the same ML decision, so every symbol has the same error
probability and no symbol needs to be drawn.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import isfinite, sqrt
from typing import Iterable

import numpy as np

from .channel import CHANNEL_KINDS, ChannelParams, draw_fading_batch, n0_from_snr_db
from .errors import NumericError, ValidationError
from .lehmer import MAX_M
from .receiver import MAX_EXHAUSTIVE_M, statistic_matrices
from .waveform import WaveformParams

RECEIVERS = ("hungarian", "exhaustive")
MODES = ("statistic", "sampled")

# A fixed block size keeps the RNG block structure independent of trial
# count and worker count.  A block holds its (block, n) fading draw; its
# statistics are held one slice at a time.
_BLOCK = 8192

# float64 values of the sampled receiver's tone table, the real and
# imaginary parts of its (m, samples_per_pulse) entries: 8 MiB
_TONE_TABLE_BUDGET = 1 << 20

# float64 elements per (slice, m, m) array: a block draws and decides its
# statistics a slice at a time, in a workspace of three such arrays
# (1.5 MB), since peak memory is part of its cost
_DECISION_ELEMS = 1 << 16

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SimConfig:
    """Full description of one BLER sweep.

    snr is energy / n0 per receive antenna; the grid is given in dB.
    ``trials`` is the per-point trial budget; with ``target_errors`` set,
    a point stops at the first block boundary where the error target has
    been met (still deterministic for any worker count).
    """

    m: int
    n: int
    snr_db: tuple[float, ...]
    channel: str = "awgn"
    k: float = 0.0
    trials: int = 100_000
    target_errors: int | None = None
    master_seed: int = 0
    receiver: str = "hungarian"
    mode: str = "statistic"
    energy: float = 1.0
    workers: int = 1
    # waveform geometry, used by sampled mode only
    t: float = 1.0
    delta_f: float | None = None
    f0: float = 0.0
    oversampling: int | None = None

    def __post_init__(self):
        if not 1 <= self.m <= MAX_M:
            raise ValidationError(f"m must be in [1, {MAX_M}], got {self.m}")
        if self.n < 1:
            raise ValidationError(f"n must be at least 1, got {self.n}")
        if len(self.snr_db) == 0:
            raise ValidationError("snr grid must not be empty")
        if self.trials < 1:
            raise ValidationError(f"trials must be at least 1, got {self.trials}")
        if self.target_errors is not None and self.target_errors < 1:
            raise ValidationError("target_errors must be at least 1 when set")
        if self.channel not in CHANNEL_KINDS:
            raise ValidationError(f"channel must be one of {CHANNEL_KINDS}, got {self.channel!r}")
        if self.receiver not in RECEIVERS:
            raise ValidationError(f"receiver must be one of {RECEIVERS}, got {self.receiver!r}")
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.receiver == "exhaustive" and self.m > min(8, MAX_EXHAUSTIVE_M):
            raise ValidationError(
                f"exhaustive receiver sweeps are limited to m <= 8, got m={self.m}"
            )
        if not (self.energy > 0 and isfinite(self.energy)):
            raise ValidationError(f"energy must be positive and finite, got {self.energy}")
        if not all(isfinite(x) for x in self.snr_db):
            raise ValidationError(f"snr grid must be finite, got {self.snr_db}")
        for snr_db in self.snr_db:
            n0 = n0_from_snr_db(self.energy, snr_db)  # raises unless 0 < n0 < inf
            if not isfinite(self.energy * n0):
                raise ValidationError(
                    f"energy {self.energy} at snr {snr_db} dB: the noise scale "
                    f"energy * n0 = energy**2 / snr overflows"
                )
        if not (self.t > 0 and isfinite(self.t)):
            raise ValidationError(f"pulse width must be positive and finite, got {self.t}")
        if self.mode == "sampled":
            q = (self.delta_f if self.delta_f is not None else 1.0 / self.t) * self.t
            spp = self.oversampling if self.oversampling is not None else 8 * self.m * q
            table = 2 * self.m * spp
            if table > _TONE_TABLE_BUDGET:  # a nan geometry is left to WaveformParams
                raise ValidationError(
                    f"the sampled receiver's tone table would hold 2 * m * samples_per_pulse = "
                    f"{table:.4g} float64 values, over the budget of {_TONE_TABLE_BUDGET} "
                    "(8 MiB); lower the oversampling, delta_f * t or m"
                )
        if self.workers < 1:
            raise ValidationError(f"workers must be at least 1, got {self.workers}")
        if self.master_seed < 0:
            raise ValidationError("master_seed must be non-negative")

    def waveform_params(self) -> WaveformParams:
        delta_f = self.delta_f if self.delta_f is not None else 1.0 / self.t
        return WaveformParams(
            m=self.m,
            t=self.t,
            delta_f=delta_f,
            f0=self.f0,
            energy=self.energy,
            oversampling=self.oversampling,
        )

    def channel_params(self, n0: float, snr_db: float) -> ChannelParams:
        k = 0.0 if self.channel == "rayleigh" else self.k
        return ChannelParams(n=self.n, k=k, n0=n0, kind=self.channel, snr_db=snr_db)


@dataclass(frozen=True)
class BlerPoint:
    """One sweep point with its Wilson 95% interval."""

    snr_db: float
    bler: float
    ci_lo: float
    ci_hi: float
    trials: int
    errors: int


def wilson_interval(errors: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval; well behaved at zero and small error counts."""
    if trials < 1:
        raise ValidationError("interval needs at least one trial")
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    # rounding can land a boundary an ulp inside the point estimate; the
    # interval must always contain it
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


def run_bler_sweep(cfg: SimConfig) -> list[BlerPoint]:
    """Monte Carlo BLER at every SNR point of the config."""
    if cfg.mode == "sampled":
        cfg.waveform_params()  # validate geometry up front
    pool = None
    if cfg.workers > 1:
        # imported here: the pool's modules take a sizeable share of a
        # serial CLI call's start-up
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=cfg.workers)
    try:
        return [
            _run_point(cfg, idx, pool) for idx in range(len(cfg.snr_db))
        ]
    finally:
        if pool is not None:
            pool.shutdown()


def _blocks(cfg: SimConfig) -> list[tuple[int, int]]:
    size = _BLOCK
    full, rest = divmod(cfg.trials, size)
    out = [(i, size) for i in range(full)]
    if rest:
        out.append((full, rest))
    return out


def _run_point(cfg: SimConfig, point_idx: int, pool) -> BlerPoint:
    blocks = _blocks(cfg)
    errors = 0
    trials = 0
    if cfg.target_errors is None:
        if pool is None:
            results: Iterable[int] = (
                _run_block(cfg, point_idx, b_idx, b_size) for b_idx, b_size in blocks
            )
        else:
            results = pool.map(
                _block_worker, [(cfg, point_idx, b_idx, b_size) for b_idx, b_size in blocks]
            )
        for (_, b_size), err in zip(blocks, results):
            errors += err
            trials += b_size
    else:
        # include block k iff the error target was not met over blocks 0..k-1;
        # this prefix rule keeps the stop point worker-count independent
        wave = max(1, cfg.workers)
        pos = 0
        while pos < len(blocks) and errors < cfg.target_errors:
            batch = blocks[pos : pos + wave]
            if pool is None:
                outs = [_run_block(cfg, point_idx, b, s) for b, s in batch]
            else:
                outs = list(pool.map(_block_worker, [(cfg, point_idx, b, s) for b, s in batch]))
            for (_, b_size), err in zip(batch, outs):
                errors += err
                trials += b_size
                if errors >= cfg.target_errors:
                    break
            pos += len(batch)
        if errors < cfg.target_errors:
            warnings.warn(
                f"snr point {cfg.snr_db[point_idx]} dB: reached the {cfg.trials}-trial cap "
                f"with {errors} < {cfg.target_errors} target errors",
                stacklevel=2,
            )
    lo, hi = wilson_interval(errors, trials)
    return BlerPoint(
        snr_db=cfg.snr_db[point_idx],
        bler=errors / trials,
        ci_lo=lo,
        ci_hi=hi,
        trials=trials,
        errors=errors,
    )


def _block_worker(args) -> int:
    return _run_block(*args)


def _run_block(cfg: SimConfig, point_idx: int, block_idx: int, size: int) -> int:
    """Simulate one block of trials; returns the error count.

    After the block's fading draw, its statistics are drawn and decided a
    slice of trials at a time from the block's generator.  Consecutive
    normal draws continue one stream, so the slices hold the numbers of
    one draw for the whole block.
    """
    rng = np.random.default_rng([cfg.master_seed, point_idx, block_idx])
    n0 = n0_from_snr_db(cfg.energy, cfg.snr_db[point_idx])
    ch = cfg.channel_params(n0, cfg.snr_db[point_idx])
    h = draw_fading_batch(ch, rng, size)
    step = max(1, _DECISION_ELEMS // (cfg.m * cfg.m))
    # a slice's statistics and the decision's two temporaries, allocated
    # once: slice-sized arrays allocated and freed slice by slice made the
    # allocator hand their pages back and fault them in again
    work = np.empty((3, min(step, size), cfg.m, cfg.m))
    errors = 0
    for lo in range(0, size, step):
        h_part = h[lo : lo + step]
        r = work[0, : h_part.shape[0]]
        if cfg.mode == "statistic":
            gains = np.sum(np.abs(h_part) ** 2, axis=1)
            statistic_matrices(cfg.m, gains, cfg.energy, n0, rng, out=r)
        else:
            _sampled_matrices(cfg, h_part, n0, rng, out=r)
        errors += int(np.count_nonzero(_block_errors(r, work[1:, : r.shape[0]])))
    return errors


def _block_errors(r: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Per-trial error indicators of the optimal (max-sum assignment) detector
    for trials that sent the identity.

    Detection fails exactly when the identity is not an optimal assignment
    of r, i.e. when the swap graph W[n, n'] = r[n, n'] - r[n, n] has a
    cycle of positive weight (Klein's cycle-cancelling criterion).
    The trials are settled in this order:

    * no positive edge: no positive cycle, the trial is correct;
    * a positive 2-cycle, W + W^T > 0 somewhere: the trial is an error;
    * one Bellman-Ford round from a virtual source that changes nothing,
      max_n (d[n] + W[n, .]) == d for d the column maxima of W: d is a
      potential that bounds every cycle's weight by 0, the trial is correct;
    * the rest go through max-plus Floyd-Warshall, which relaxes W through
      intermediate nodes in turn; afterwards a positive diagonal entry
      exists iff a positive cycle does.  Node m-1 is never needed as an
      intermediate: every cycle can be closed at its largest node.

    Its float temporaries live in ``work``, shape (2,) + r.shape, which is
    overwritten (allocated if not given); the rest are per-trial vectors
    and boolean arrays.  So callers bound its memory by the slice they pass
    (_run_block passes _DECISION_ELEMS values).  Ties have probability zero
    under continuous noise.
    """
    batch, m, _ = r.shape
    if work is None:
        work = np.empty((2,) + r.shape)
    diag = np.diagonal(r, axis1=1, axis2=2)
    w = np.subtract(r, diag[:, :, None], out=work[0])  # zero diagonal
    live = np.flatnonzero((w > 0).any(axis=(1, 2)))
    # mode="clip" takes straight into out (the default buffers); the
    # indices are in range either way
    w = np.take(w, live, axis=0, out=work[1, : live.size], mode="clip")
    t = np.add(w, w.transpose(0, 2, 1), out=work[0, : live.size])
    err = (t > 0).any(axis=(1, 2))
    d = w[:, 0, :].copy()  # column maxima; a middle-axis max() is slower
    for n in range(1, m):
        np.maximum(d, w[:, n, :], out=d)
    np.add(d[:, :, None], w, out=t)
    unsettled = np.flatnonzero(~err & (t > d[:, None, :]).any(axis=(1, 2)))
    w = np.take(w, unsettled, axis=0, out=work[0, : unsettled.size], mode="clip")
    step = work[1, : unsettled.size]
    for k in range(m - 1):
        np.add(w[:, :, k, None], w[:, None, k, :], out=step)
        np.maximum(w, step, out=w)
    err[unsettled] = (np.diagonal(w, axis1=1, axis2=2) > 0).any(axis=1)
    out = np.zeros(batch, dtype=bool)
    out[live] = err
    return out


def _sampled_matrices(
    cfg: SimConfig,
    h: np.ndarray,
    n0: float,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Waveform-level correlation matrices of one block, drawn from their
    exact law (into ``out`` if given).

    The sampled receiver (combine the antennas with conj(h), correlate each
    pulse with the M sampled unit-energy tones) is linear: r = g * G
    plus the receiver applied to the noise alone, with g = |h|^2 and G the
    Gram table of the sent tones against the receiver's.  White circular
    noise combined with conj(h) is white circular noise of g times its
    variance, whatever the phase of h, so its projections are Gaussian,
    independent across pulses, with covariance g * n0 / 2 times the Gram
    matrix of the unit-energy tones.  Every accepted geometry has
    delta_f * t an integer and at least the Nyquist floor of samples per
    pulse, so the sampled tones are exactly orthogonal: G = sqrt(E / M) * I
    and the noise entries are iid of variance g * n0 / 2.  That is the
    statistic law times sqrt(E M).
    """
    wf = cfg.waveform_params()
    # the sampled receiver sees noise samples of this scale; an overflowed
    # one has no float64 waveform, so it is refused as at full synthesis
    if not isfinite(n0 * wf.sample_rate / 2.0):
        raise NumericError(
            "sampled noise scale overflows", n0=n0, sample_rate=wf.sample_rate
        )
    gains = np.sum(np.abs(h) ** 2, axis=1)
    r = statistic_matrices(wf.m, gains, wf.energy, n0, rng, out=out)
    r *= sqrt(wf.energy) * sqrt(wf.m)
    return r
