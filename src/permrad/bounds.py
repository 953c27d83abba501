"""Closed-form block error analytics: union bounds and nearest-neighbour terms.

Every bound is assembled from the pairwise error probability between two
waveforms whose tone orders differ in l pulse slots.  The number of
rivals at distance l is subfactorial(l) * C(M, l); summing pairwise
terms over l = 2..M gives the union bound, keeping only l = 2 gives the
nearest-neighbour approximation.  Under fading the pairwise term is the
chi-vs-normal probability Pr[chi(2L) < sqrt(c) Z], computed from its
positive-term closed form in doubles at every order; Rayleigh uses it
directly and Rician mixes it over a Poisson series of orders.  Values are
returned unclamped: a bound may exceed 1 at low SNR.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, erfc, exp, fsum, isfinite, lgamma, log, log1p, sqrt

from .errors import NumericError, ValidationError
from .lehmer import MAX_M


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation controls for the Poisson-weighted fading series."""

    tol: float = 1e-12
    j_max: int = 200

    def __post_init__(self):
        if not self.tol > 0:
            raise ValidationError(f"series tolerance must be positive, got {self.tol}")
        if self.j_max < 1:
            raise ValidationError(f"series cap must be at least 1, got {self.j_max}")


DEFAULT_SERIES = SeriesConfig()


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


def _alpha_sq(l: int, m: int, snr: float) -> float:
    """Square of the noise-to-signal scale for an l-slot mismatch."""
    return m / (snr * l)


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


def _normal_exceeds_chi(order: int, c: float) -> float:
    """Pr[chi(2*order) < sqrt(c) * Z], the chi-vs-normal probability.

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


def pairwise_rician(
    l: int,
    m: int,
    n: int,
    k: float,
    snr: float,
    cfg: SeriesConfig = DEFAULT_SERIES,
) -> float:
    """Pairwise error probability for an l-slot mismatch under Rician fading.

    Poisson-weighted series over the non-central chi-square mixture; the
    term of weight j is the positive-term closed form _normal_exceeds_chi
    at order n + j.  Truncates once a term past the Poisson mode drops
    below cfg.tol times the partial sum; failing to converge within
    cfg.j_max raises NumericError.
    """
    _check_common(m, n, snr)
    if not 2 <= l <= m:
        raise ValidationError(f"slot mismatch l must lie in [2, {m}], got {l}")
    if not (k >= 0 and isfinite(k)):
        raise ValidationError(f"Rician factor must be non-negative and finite, got {k}")
    c = 2.0 * _alpha_sq(l, m, snr) * (k + 1.0)
    nk = n * k
    if nk == 0:
        return _normal_exceeds_chi(n, c)
    total = 0.0
    log_nk = log(nk)
    for j in range(cfg.j_max + 1):
        weight = exp(j * log_nk - nk - lgamma(j + 1))
        term = weight * _normal_exceeds_chi(n + j, c)
        total += term
        # the Poisson weights rise until j ~ nk; only truncate past the mode
        if j > nk and term <= cfg.tol * total:
            return total
    raise NumericError(
        f"fading series did not converge within j_max={cfg.j_max}",
        j_max=cfg.j_max,
        last_term=term,
        partial_sum=total,
        poisson_mean=nk,
    )


def union_bound_rician(
    m: int, n: int, k: float, snr: float, cfg: SeriesConfig = DEFAULT_SERIES
) -> float:
    """Union bound over Rician fading with factor k."""
    return fsum(
        subfactorial(l) * comb(m, l) * pairwise_rician(l, m, n, k, snr, cfg)
        for l in range(2, m + 1)
    )


def nn_rician(
    m: int, n: int, k: float, snr: float, cfg: SeriesConfig = DEFAULT_SERIES
) -> float:
    """Nearest-neighbour approximation over Rician fading."""
    return (m * (m - 1) / 2.0) * pairwise_rician(2, m, n, k, snr, cfg)


def union_bound_rayleigh(m: int, n: int, snr: float) -> float:
    """Union bound over Rayleigh fading: the k = 0 closed form, no series."""
    _check_common(m, n, snr)
    return fsum(
        subfactorial(l) * comb(m, l) * _normal_exceeds_chi(n, 2.0 * _alpha_sq(l, m, snr))
        for l in range(2, m + 1)
    )


def nn_rayleigh(m: int, n: int, snr: float) -> float:
    """Nearest-neighbour approximation over Rayleigh fading."""
    _check_common(m, n, snr)
    return (m * (m - 1) / 2.0) * _normal_exceeds_chi(n, 2.0 * _alpha_sq(2, m, snr))
