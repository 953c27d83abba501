"""Closed-form block error analytics: union bounds and nearest-neighbour terms.

Every bound is assembled from the pairwise error probability between two
waveforms whose tone orders differ in l pulse slots.  The number of
rivals at distance l is subfactorial(l) * C(M, l); summing pairwise
terms over l = 2..M gives the union bound, keeping only l = 2 gives the
nearest-neighbour approximation.  Over AWGN the pairwise term is
Q(sqrt(N snr l / M)).  Under Rician fading with factor K (Rayleigh is
K = 0) it is Craig's integral of the fading MGF (Craig, MILCOM 1991;
Simon & Alouini, Digital Communication over Fading Channels, ch. 5):

    P2(l) = (1/pi) int_0^{pi/2} M(snr l / (2 M sin^2 t)) dt,
    M(s) = ((1+K) / (1+K+s))^N exp(-N K s / (1+K+s)),

evaluated for every l of a call in one array on a fixed tanh-sinh rule
and checked against the rule's nested half.  ``pairwise_errors`` gives
that array, and ``block_error_bounds`` both bounds of one SNR from it.
Values are returned unclamped: a bound may exceed 1 at low SNR.
"""

from __future__ import annotations

from math import comb, erfc, fsum, sqrt

import numpy as np

from .channel import check_channel
from .errors import NumericError, ValidationError
from .lehmer import MAX_M


def _craig_rule() -> tuple[np.ndarray, np.ndarray]:
    """sin^2 of the nodes, and the weights (1/pi included), of a 257-node
    tanh-sinh rule on [0, pi/2]: theta = (pi/2) / (1 + exp(-pi sinh t)) at
    t = -4..4 in steps of 1/32.  Its even nodes at double weight form the
    nested rule of step 1/16.
    """
    t = np.arange(-128, 129) / 32.0
    e = np.exp(-np.pi * np.sinh(t))
    return np.sin(0.5 * np.pi / (1.0 + e)) ** 2, (np.pi / 64.0) * np.cosh(t) * e / (1.0 + e) ** 2


_SIN2, _WEIGHTS = _craig_rule()
# Relative gap allowed between the two rule levels.  The largest gap seen,
# over M <= 20, N <= 2000, K <= 1e8 and -80..80 dB, is 3.6e-8 (at the lowest
# SNRs); over M <= 20, N <= 32, K <= 100 and -30..40 dB the fine level stays
# within 1e-13 of adaptive quadrature.
_AGREE = 1e-6
# gaps below the smallest normal double are underflow, not disagreement
_TINY = float(np.finfo(float).tiny)


def subfactorial(x: int) -> int:
    """Number of derangements of x elements, by the exact integer recurrence."""
    if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x <= 20:
        raise ValidationError(f"subfactorial is supported for integers 0..20, got {x!r}")
    acc = 1
    for i in range(1, x + 1):
        acc = i * acc + (-1) ** i
    return acc


def qfunc(x: float) -> float:
    """Gaussian tail probability via the complementary error function.

    erfc is evaluated by the C library to within a few ulp, so the
    relative error here stays below 1e-12 over the whole useful range.
    """
    return 0.5 * erfc(x / sqrt(2.0))


def _craig_pairwise(ls: np.ndarray, m: int, n: int, k: float, snr: float) -> np.ndarray:
    """Craig/MGF pairwise terms for the slot mismatches ls, one (l, node) array.

    The MGF is taken through r = 1/s = 2 M sin^2(t) / (snr l) and
    a = 1/(1+K) as exp(-N [log1p(a/r) + K a / (r + a)]), which stays
    finite as s -> inf (r = 0) and for K up to the largest double.  Raises
    NumericError with both values when the rule and its nested half disagree.
    """
    a = 1.0 / (1.0 + k)
    with np.errstate(divide="ignore", over="ignore"):
        r = (2.0 * m / snr / ls)[:, None] * _SIN2
        vals = np.exp(-n * (np.log1p(a / r) + (k * a) / (r + a)))
    # summed per row rather than by BLAS, so a row does not depend on which
    # other l share the call
    fine = (vals * _WEIGHTS).sum(axis=1)
    coarse = 2.0 * (vals[:, ::2] * _WEIGHTS[::2]).sum(axis=1)
    bad = np.abs(fine - coarse) > _AGREE * fine + _TINY
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericError(
            "fading integral did not converge: the rule and its nested half disagree",
            l=int(ls[i]), fine=float(fine[i]), coarse=float(coarse[i]),
            m=m, n=n, k=k, snr=snr,
        )
    return fine


def pairwise_errors(m: int, n: int, channel: str, k: float, snr: float) -> np.ndarray:
    """Pairwise error probabilities P2(l) for l = 2..m, in that order.

    ``channel`` and ``k`` are checked as ``check_channel`` does; Rayleigh and
    AWGN ignore ``k``.
    """
    if m < 2:
        raise ValidationError(f"bounds need m >= 2 (no rival permutations below that), got {m}")
    if m > MAX_M:
        raise ValidationError(f"bounds support m up to {MAX_M}, got {m}")
    k = check_channel(channel, n, k)
    if not snr > 0:
        raise ValidationError(f"snr must be positive, got {snr}")
    if channel == "awgn":
        return np.array([qfunc(sqrt(n * snr * l / m)) for l in range(2, m + 1)])
    return _craig_pairwise(np.arange(2.0, m + 1), m, n, k, snr)


def block_error_bounds(m: int, n: int, channel: str, k: float, snr: float) -> tuple[float, float]:
    """(union bound, nearest-neighbour approximation) on the block error rate,
    snr = energy / n0 per receive antenna."""
    p = pairwise_errors(m, n, channel, k, snr).tolist()
    ub = fsum(subfactorial(l) * comb(m, l) * pl for l, pl in zip(range(2, m + 1), p))
    return ub, (m * (m - 1) / 2.0) * p[0]
