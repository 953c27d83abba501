"""Deterministic Monte Carlo engine for block error rate sweeps.

Trials are processed in fixed-size blocks; every block draws from its own
generator seeded by (master_seed, block_index), so results are
bit-identical for any worker count and blocks can run in parallel with
plain integer-sum reduction.

Every SNR point of a sweep decides the same trials (common random
numbers).  In units of the noise, a trial's M x M correlator outputs are
unit normal noise plus the shift sqrt(2 g snr / M) on the diagonal, with
g = |h|^2, so the SNR enters only through that shift.  A block draws its
fading once and its noise once, and decides each trial at every point.
A trial that is decoded at one SNR is decoded at every higher SNR, so the
points are decided in ascending SNR, each only on the trials that erred at
the point before.  Each point's count is the one a sweep of that point
alone gives; the rows of one sweep share their trials, so the curve is
non-increasing.

Both modes decide the same matrices.  Sampled mode's receiver correlates
with the sampled tones, and on every accepted geometry those are
orthogonal, so its law differs from the continuous receiver's by one
positive scale, which the decision cannot see.  Sampled mode holds no
samples; SimConfig still bounds the (m, samples_per_pulse) tone table its
receiver is defined by, and the sweep refuses a point whose per-sample
noise scale overflows.

A block's noise is drawn and decided in slices of at most _DECISION_ELEMS
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
from math import inf, isfinite, sqrt
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

    def channel_params(self) -> ChannelParams:
        k = 0.0 if self.channel == "rayleigh" else self.k
        return ChannelParams(n=self.n, k=k, kind=self.channel)


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
    """Monte Carlo BLER at every SNR point of the config.

    The points share their trials: each point's count is the one a sweep
    of that point alone would give, and the rows are in the grid's order.
    """
    if cfg.mode == "sampled":
        rate = cfg.waveform_params().sample_rate  # validates the geometry
        for snr_db in cfg.snr_db:
            n0 = n0_from_snr_db(cfg.energy, snr_db)
            # the sampled receiver sees noise samples of this scale; an
            # overflowed one has no float64 waveform, so it is refused as at
            # full synthesis
            if not isfinite(n0 * rate / 2.0):
                raise NumericError("sampled noise scale overflows", n0=n0, sample_rate=rate)
    pool = None
    if cfg.workers > 1:
        # imported here: the pool's modules take a sizeable share of a
        # serial CLI call's start-up
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=cfg.workers)
    try:
        trials, errors = _run_points(cfg, pool)
    finally:
        if pool is not None:
            pool.shutdown()
    points = []
    for snr_db, n, e in zip(cfg.snr_db, trials, errors):
        if cfg.target_errors is not None and e < cfg.target_errors:
            warnings.warn(
                f"snr point {snr_db} dB: reached the {cfg.trials}-trial cap "
                f"with {e} < {cfg.target_errors} target errors",
                stacklevel=2,  # the caller's line, not this module's
            )
        lo, hi = wilson_interval(e, n)
        points.append(BlerPoint(snr_db=snr_db, bler=e / n, ci_lo=lo, ci_hi=hi, trials=n, errors=e))
    return points


def _blocks(cfg: SimConfig) -> list[tuple[int, int]]:
    size = _BLOCK
    full, rest = divmod(cfg.trials, size)
    out = [(i, size) for i in range(full)]
    if rest:
        out.append((full, rest))
    return out


def _run_points(cfg: SimConfig, pool) -> tuple[list[int], list[int]]:
    """Trials and errors per point.

    With an error target, block k counts at a point iff that point's target
    was not met over blocks 0..k-1; a block is drawn while any point still
    counts it, and decided at those points only.  Blocks go out in waves of
    one per worker, so the stop points do not depend on the worker count.
    """
    points = range(len(cfg.snr_db))
    trials = [0] * len(points)
    errors = [0] * len(points)
    target = inf if cfg.target_errors is None else cfg.target_errors
    blocks = _blocks(cfg)
    wave = len(blocks) if cfg.target_errors is None else cfg.workers
    for pos in range(0, len(blocks), wave):
        active = tuple(p for p in points if errors[p] < target)
        if not active:
            break
        jobs = [(cfg, b_idx, b_size, active) for b_idx, b_size in blocks[pos : pos + wave]]
        if pool is None:
            results: Iterable[list[int]] = (_run_block(*job) for job in jobs)
        else:
            results = pool.map(_block_worker, jobs)
        for (_, _, b_size, _), counts in zip(jobs, results):
            for p, err in zip(active, counts):
                if errors[p] < target:
                    errors[p] += err
                    trials[p] += b_size
    return trials, errors


def _block_worker(args) -> list[int]:
    return _run_block(*args)


def _run_block(cfg: SimConfig, block_idx: int, size: int, points: tuple[int, ...]) -> list[int]:
    """Simulate one block of trials; returns the error count at each of
    ``points``.

    After the block's fading draw, its unit noise is drawn a slice of
    trials at a time from the block's generator.  Consecutive normal draws
    continue one stream, so the slices hold the numbers of one draw for the
    whole block.  Each slice is decided at every point in ascending SNR,
    and at each point only on the trials that erred at the one before: a
    trial errs iff a cycle of its swap graph has a mean weight above its
    diagonal shift, and the shift grows with the SNR.
    """
    rng = np.random.default_rng([cfg.master_seed, block_idx])
    h = draw_fading_batch(cfg.channel_params(), rng, size)
    root_gains = np.sqrt(np.sum(np.abs(h) ** 2, axis=1))
    snrs = [10.0 ** (cfg.snr_db[p] / 10.0) for p in points]
    order = sorted(range(len(points)), key=snrs.__getitem__)
    step = max(1, _DECISION_ELEMS // (cfg.m * cfg.m))
    # the slice's noise, and the decision's two temporaries, the second of
    # which also holds the point's matrices (the decision reads them only
    # to form its first), allocated once: slice-sized arrays allocated and
    # freed slice by slice made the allocator hand their pages back and
    # fault them in again
    work = np.empty((3, min(step, size), cfg.m, cfg.m))
    errors = [0] * len(points)
    for lo in range(0, size, step):
        noise = rng.standard_normal(out=work[0, : min(step, size - lo)])
        erred = np.arange(noise.shape[0])
        for i in order:
            r = np.take(noise, erred, axis=0, out=work[2, : erred.size], mode="clip")
            statistic_matrices(root_gains[lo + erred], snrs[i], r)
            erred = erred[_block_errors(r, work[1:, : erred.size])]
            errors[i] += erred.size
            if erred.size == 0:
                break
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
    overwritten (allocated if not given).  r is read only to form work[0],
    so it may live in work[1].  The rest are per-trial vectors
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
