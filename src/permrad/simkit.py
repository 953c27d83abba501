"""Deterministic Monte Carlo engine for block error rate sweeps.

Trials are processed in fixed-size blocks; every block draws from its own
generator seeded by (master_seed, block_index), so results are
bit-identical for any worker count and blocks can run in parallel with
plain integer-sum reduction.

Every SNR point of a sweep decides the same trials (common random
numbers).  The receiver's M x M correlator outputs are (energy / M) g on
the diagonal, g = |h|^2, plus noise of variance energy n0 g / (2M); the
decision is blind to a positive scale, so in units of the noise they are
unit normal noise plus the shift sqrt(2 g snr / M) on the diagonal, with
snr = energy / n0, and the SNR enters only through that shift.  A block
draws its fading once and its noise once, and decides each trial at every
point.
A trial that is decoded at one SNR is decoded at every higher SNR, so the
points are decided in ascending SNR, each on the trials not found decoded
at the point before.  A trial that exact screens leave open waits for one
batched cycle search, and stays a candidate at the next point.  Each
point's count is the one a sweep of that point alone gives; the rows of
one sweep share their trials, so the curve is non-increasing.

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

import os
import warnings
from dataclasses import dataclass
from itertools import islice
from math import inf, sqrt
from typing import Iterator

import numpy as np

from .channel import check_channel, draw_fading_batch, snr_from_db
from .errors import NumericError, ValidationError
from .lehmer import MAX_M

# A fixed block size keeps the RNG block structure independent of trial
# count and worker count.  A block holds its (block, n) fading draw; its
# statistics are held one slice at a time.
_BLOCK = 8192

# float64 elements per (slice, m, m) array: a block draws and decides its
# statistics a slice at a time, in a workspace of three such arrays
# (1.5 MB), since peak memory is part of its cost
_DECISION_ELEMS = 1 << 16

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SimConfig:
    """Full description of one BLER sweep.

    snr is energy / n0 per receive antenna; the grid is given in dB.
    ``k`` is the Rician factor; on the other channels it is set to 0.
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
    workers: int = 1

    def __post_init__(self):
        if not 1 <= self.m <= MAX_M:
            raise ValidationError(f"m must be in [1, {MAX_M}], got {self.m}")
        if len(self.snr_db) == 0:
            raise ValidationError("snr grid must not be empty")
        if self.trials < 1:
            raise ValidationError(f"trials must be at least 1, got {self.trials}")
        if self.target_errors is not None and self.target_errors < 1:
            raise ValidationError("target_errors must be at least 1 when set")
        object.__setattr__(self, "k", check_channel(self.channel, self.n, self.k))
        for snr_db in self.snr_db:
            snr_from_db(snr_db)
        if self.workers < 1:
            raise ValidationError(f"workers must be at least 1, got {self.workers}")
        if self.master_seed < 0:
            raise ValidationError("master_seed must be non-negative")


@dataclass(frozen=True)
class BlerPoint:
    """One sweep point with its Wilson 95% interval."""

    snr_db: float
    bler: float
    ci_lo: float
    ci_hi: float
    trials: int
    errors: int


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval; well behaved at zero and small error counts."""
    if trials < 1:
        raise ValidationError("interval needs at least one trial")
    p = errors / trials
    denom = 1.0 + _Z95 * _Z95 / trials
    center = (p + _Z95 * _Z95 / (2 * trials)) / denom
    half = _Z95 * sqrt(p * (1.0 - p) / trials + _Z95 * _Z95 / (4.0 * trials * trials)) / denom
    # rounding can land a boundary an ulp inside the point estimate; the
    # interval must always contain it
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


def run_bler_sweep(cfg: SimConfig) -> list[BlerPoint]:
    """Monte Carlo BLER at every SNR point of the config.

    The points share their trials: each point's count is the one a sweep
    of that point alone would give, and the rows are in the grid's order.
    """
    # no more processes than blocks, or than cores; a serial run does not
    # ask for the core count
    workers = min(cfg.workers, -(-cfg.trials // _BLOCK))
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool's modules take a sizeable share of a
        # serial CLI call's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            wave = None if cfg.target_errors is None else workers  # None: all blocks
            trials, errors = _run_points(cfg, pool.map, wave)
    else:
        trials, errors = _run_points(cfg, map, 1)
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


def _blocks(cfg: SimConfig) -> Iterator[tuple[int, int]]:
    """(index, size) of each block in turn: block b holds trials
    b * _BLOCK onwards, at most _BLOCK of them."""
    for b_idx, start in enumerate(range(0, cfg.trials, _BLOCK)):
        yield b_idx, min(_BLOCK, cfg.trials - start)


def _run_points(cfg: SimConfig, mapper, wave: int | None) -> tuple[list[int], list[int]]:
    """Trials and errors per point, from the blocks' counts as
    ``mapper(_run_block, ...)`` yields them: the builtin map in this
    process, or a pool's map.

    With an error target, block k counts at a point iff that point's target
    was not met over blocks 0..k-1; a block is drawn while any point still
    counts it, and decided at those points only.  Blocks go out in waves of
    ``wave`` blocks (None: all of them); under a target that is one per
    worker, so the stop points do not depend on the worker count.  They are
    taken from the block schedule as they go out, so a sweep that meets its
    target early, or runs in this process with waves of one, never lists
    the rest of its trial cap.  Without a target, a pool gets every block
    in one wave: a wave per worker made `--workers 2` about 14% slower, one
    wait per wave.
    """
    points = range(len(cfg.snr_db))
    trials = [0] * len(points)
    errors = [0] * len(points)
    target = inf if cfg.target_errors is None else cfg.target_errors
    blocks = _blocks(cfg)
    while active := tuple(p for p in points if errors[p] < target):
        jobs = [(cfg, b_idx, b_size, active) for b_idx, b_size in islice(blocks, wave)]
        if not jobs:
            break
        for (_, _, b_size, _), counts in zip(jobs, mapper(_run_block, *zip(*jobs))):
            for p, err in zip(active, counts):
                if errors[p] < target:
                    errors[p] += err
                    trials[p] += b_size
    return trials, errors


def _run_block(cfg: SimConfig, block_idx: int, size: int, points: tuple[int, ...]) -> list[int]:
    """Simulate one block of trials; returns the error count at each of
    ``points``.

    After the block's fading draw, its unit noise is drawn a slice of
    trials at a time from the block's generator.  Consecutive normal draws
    continue one stream, so the slices hold the numbers of one draw for the
    whole block.  Each slice is decided at every point in ascending SNR: a
    trial errs iff a cycle of its swap graph has a mean weight above its
    diagonal shift, which grows with the SNR, so a trial decoded at one
    point leaves the slice.  A trial that _screen leaves open waits, with
    its point, in the workspace; one _cycle_errors pass decides the waiting
    trials when the next point's would not fit beside them, and at the end.
    """
    rng = np.random.default_rng([cfg.master_seed, block_idx])
    h = draw_fading_batch(cfg.channel, cfg.n, cfg.k, rng, size)
    root_gains = np.sqrt(np.sum(np.abs(h) ** 2, axis=1))
    del h  # only the gains enter the statistics
    snrs = [snr_from_db(cfg.snr_db[p]) for p in points]
    order = sorted(range(len(points)), key=snrs.__getitem__)
    # a trial's shift at point i is scales[i] * sqrt(g) = sqrt(2/M) *
    # sqrt(snr) * sqrt(g), which grows with snr even after rounding; a
    # non-finite shift would leave inf/nan swap graphs, read as decoded
    scales = sqrt(2.0 / cfg.m) * np.sqrt(snrs)
    if not np.isfinite(scales.max() * root_gains).all():
        raise NumericError(
            "statistic shift overflows", snr=max(snrs), max_root_gain=float(np.max(root_gains))
        )
    m, mm = cfg.m, cfg.m * cfg.m
    step = max(1, _DECISION_ELEMS // mm)
    rows = min(step, size)
    # the slice's noise; the waiting swap graphs (trials first), then the
    # point's (trials last); temporaries.  Allocated once: slice-sized arrays
    # allocated slice by slice made the allocator refault their pages
    work = np.empty((3, rows * mm))
    waiting, runs = 0, []  # runs: (point, count) of the waiting graphs in turn
    errors = np.zeros(len(points), dtype=np.int64)
    for lo in range(0, size, step):
        noise = rng.standard_normal(out=work[0, : min(step, size - lo) * mm].reshape(-1, m, m))
        diag = np.einsum("...ii->...i", noise)  # a view of the diagonals
        # W[n, n'] = Z[n, n'] - (Z[n, n] + shift), the swap graph of the
        # noise Z plus the shift on the diagonal, has a positive edge in row
        # n iff the row's largest entry exceeds Z[n, n] + shift (Z[n, n]
        # never does: shift >= 0)
        row_max = noise[:, :, 0].copy()
        for col in range(1, m):  # noise.max(axis=2) took 3-20 times as long
            np.maximum(row_max, noise[:, :, col], out=row_max)
        cand = np.arange(noise.shape[0])  # row_max[j] is trial cand[j]'s
        for i in order:
            bar = diag[cand]  # Z[n, n] + shift
            bar += scales[i] * root_gains[lo + cand, None]
            live = (row_max > bar).any(axis=1)
            row_max = row_max[live]
            cand, bar = cand[live], bar[live]
            if cand.size == 0:
                break
            if waiting + cand.size > rows:
                errors += _decide_waiting(work, waiting, m, runs, len(points))
                waiting, runs = 0, []
            # mode="clip" takes straight into out (the default buffers); the
            # indices are in range either way
            g = np.take(noise, cand, axis=0, out=work[2, : cand.size * mm].reshape(-1, m, m),
                        mode="clip")
            g -= bar[:, :, None]
            del bar  # not held through _screen, where a small block peaks
            np.einsum("...ii->...i", g)[...] = 0.0
            w = work[1, waiting * mm : (waiting + cand.size) * mm].reshape(m, m, cand.size)
            np.copyto(w, g.transpose(1, 2, 0))
            err, wait = _screen(w, work[2])
            errors[i] += np.count_nonzero(err)
            if wait.any():  # the waiting graphs join the others, trials first
                j = np.flatnonzero(wait)
                kept = np.take(w, j, axis=2, out=work[2, : j.size * mm].reshape(m, m, -1),
                               mode="clip")
                np.copyto(work[1, waiting * mm : (waiting + j.size) * mm].reshape(-1, m, m),
                          kept.transpose(2, 0, 1))
                runs.append((i, j.size))
                waiting += j.size
            undecoded = err | wait
            cand, row_max = cand[undecoded], row_max[undecoded]
    if waiting:
        errors += _decide_waiting(work, waiting, m, runs, len(points))
    return errors.tolist()


def _decide_waiting(work: np.ndarray, waiting: int, m: int, runs: list, points: int) -> np.ndarray:
    """Errors per point of the waiting swap graphs at the front of work[1]."""
    err = _cycle_errors(work[1, : waiting * m * m].reshape(-1, m, m), work[2])
    return np.bincount(np.repeat(*zip(*runs))[err], minlength=points)


def _screen(w: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(error, open) indicators of the optimal (max-sum assignment) detector
    for trials that sent the identity, from their swap graphs w, shape
    (m, m, trials): the W[n, n'] = r[n, n'] - r[n, n] of their correlation
    matrices r, each with a positive edge.

    Detection fails exactly when W has a cycle of positive weight (Klein's
    cycle-cancelling criterion).  A positive 2-cycle, W + W^T > 0, is an
    error.  One Bellman-Ford round from a virtual source that changes
    nothing, max_n (d[n] + W[n, .]) == d for d the column maxima of W,
    makes d a potential that bounds every cycle by 0: correct.  The rest
    are open.  The flat ``work`` (w.size elements) is overwritten.  Ties
    have probability zero under continuous noise.
    """
    m, _, trials = w.shape
    t = work[: w.size].reshape(w.shape)
    np.add(w, w.transpose(1, 0, 2), out=t)
    err = t.reshape(m * m, trials).max(axis=0) > 0
    d = w.max(axis=0)
    np.add(d[:, None, :], w, out=t)
    return err, ~err & (t.max(axis=0) > d).any(axis=0)


def _cycle_errors(w: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Whether each swap graph of w, shape (trials, m, m) with a zero
    diagonal, has a cycle of positive weight.

    w is copied trials last into the flat ``work`` (w.size elements) and
    decided there by max-plus Floyd-Warshall in elimination order: step k
    relaxes only the entries among nodes above k, so afterwards x[k, k]
    holds the best cycle whose largest node is k (about a third of a full
    pass's work).  w is overwritten.
    """
    trials, m, _ = w.shape
    x = work[: w.size].reshape(m, m, trials)
    np.copyto(x, w.transpose(1, 2, 0))
    step = w.reshape(-1)
    for k in range(m - 1):
        rest = x[k + 1 :, k + 1 :]
        t = step[: rest.size].reshape(rest.shape)
        np.add(x[k + 1 :, k, None], x[None, k, k + 1 :], out=t)
        np.maximum(rest, t, out=rest)
    return (np.einsum("iil->il", x) > 0).any(axis=0)
