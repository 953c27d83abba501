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
and checked against the rule's nested half.  Values are returned
unclamped: a bound may exceed 1 at low SNR.
"""

from __future__ import annotations

from math import comb, erfc, fsum, isfinite, sqrt

import numpy as np

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


def _check_common(m: int, n: int, snr: float) -> None:
    if m < 2:
        raise ValidationError(f"bounds need m >= 2 (no rival permutations below that), got {m}")
    if m > MAX_M:
        raise ValidationError(f"bounds support m up to {MAX_M}, got {m}")
    if n < 1:
        raise ValidationError(f"antenna count must be at least 1, got {n}")
    if not snr > 0:
        raise ValidationError(f"snr must be positive, got {snr}")


def _check_k(k: float) -> None:
    if not (k >= 0 and isfinite(k)):
        raise ValidationError(f"Rician factor must be non-negative and finite, got {k}")


def union_bound_awgn(m: int, n: int, snr: float) -> float:
    """Union bound on the block error rate over AWGN, snr = energy / n0."""
    _check_common(m, n, snr)
    terms = [
        subfactorial(l) * comb(m, l) * qfunc(sqrt(n * snr * l / m))
        for l in range(2, m + 1)
    ]
    return fsum(terms)


def nn_awgn(m: int, n: int, snr: float) -> float:
    """Nearest-neighbour approximation over AWGN: only the l = 2 rivals."""
    _check_common(m, n, snr)
    return (m * (m - 1) / 2.0) * qfunc(sqrt(n * snr * 2 / m))


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
    # other l share the call: the l = 2 term of the union bound is the NN term
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


def pairwise_rician(l: int, m: int, n: int, k: float, snr: float) -> float:
    """Pairwise error probability for an l-slot mismatch under Rician fading."""
    _check_common(m, n, snr)
    if not 2 <= l <= m:
        raise ValidationError(f"slot mismatch l must lie in [2, {m}], got {l}")
    _check_k(k)
    return float(_craig_pairwise(np.array([l], dtype=float), m, n, k, snr)[0])


def union_bound_rician(m: int, n: int, k: float, snr: float) -> float:
    """Union bound over Rician fading with factor k."""
    _check_common(m, n, snr)
    _check_k(k)
    ls = range(2, m + 1)
    terms = _craig_pairwise(np.array(ls, dtype=float), m, n, k, snr)
    return fsum(subfactorial(l) * comb(m, l) * p for l, p in zip(ls, terms.tolist()))


def nn_rician(m: int, n: int, k: float, snr: float) -> float:
    """Nearest-neighbour approximation over Rician fading."""
    return (m * (m - 1) / 2.0) * pairwise_rician(2, m, n, k, snr)


def union_bound_rayleigh(m: int, n: int, snr: float) -> float:
    """Union bound over Rayleigh fading: the Rician bound at k = 0."""
    return union_bound_rician(m, n, 0.0, snr)


def nn_rayleigh(m: int, n: int, snr: float) -> float:
    """Nearest-neighbour approximation over Rayleigh fading: Rician at k = 0."""
    return nn_rician(m, n, 0.0, snr)
