"""Coherent detection of the transmitted tone permutation.

The receiver correlates the channel-combined signal in every pulse slot
against every candidate tone, collects the real parts into an M x M
matrix, and picks the permutation maximizing the sum of selected
entries.  That argmax is an assignment problem: ``hungarian_detect``
solves it in O(M^3) worst case, ``exhaustive_detect`` is the O(M!)
reference oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import isfinite, sqrt
from typing import Sequence

import numpy as np

from .errors import CapabilityError, NumericError, ValidationError

MAX_EXHAUSTIVE_M = 10


def statistic_matrices(root_gains: np.ndarray, snr: float, noise: np.ndarray) -> np.ndarray:
    """Correlation matrices of the identity tone order at one SNR, in units
    of the noise: adds the shift sqrt(2 g snr / M) to the diagonals of
    ``noise``, a batch of M x M unit normal matrices, in place and returns it.

    The continuous receiver's matrix for gain g = |h|^2 (``root_gains`` holds
    sqrt(g) per trial) has (energy/M) * g on the transmitted support, here
    the diagonal, plus iid real Gaussian noise of variance
    energy * n0 * g / (2M).  The decision is blind to a positive scale, so
    the matrix is taken over the noise's standard deviation: unit normal
    noise plus sqrt(2 g snr / M) on the diagonal, with snr = energy / n0.
    Decision-variable differences over l mismatched slots then have mean
    l * sqrt(2 g snr / M) and variance 2l, the continuous-receiver
    statistics over the noise scale, with no sampling involved.  Only the
    shift depends on the SNR, so one noise draw serves every SNR point.
    Formed as sqrt(2/M) * sqrt(snr) * sqrt(g), the shift stays finite at any
    finite snr and gain, and it grows with snr even after rounding.
    """
    m = noise.shape[-1]
    shift = sqrt(2.0 / m) * sqrt(snr) * np.asarray(root_gains, dtype=float)
    # a non-finite shift leaves inf/nan matrices, which the block decision
    # would count as decoded
    if not np.isfinite(shift).all():
        raise NumericError(
            "statistic shift overflows", snr=snr, max_root_gain=float(np.max(root_gains))
        )
    np.einsum("...ii->...i", noise)[...] += shift[:, None]  # a view of the diagonals
    return noise


def assignment_score(r: np.ndarray, perm: Sequence[int]) -> float:
    """Objective sum r[n, perm[n]] accumulated in row order."""
    r = np.asarray(r, dtype=float)
    return float(sum(r[n, p] for n, p in enumerate(perm)))


@lru_cache(maxsize=None)
def permutation_table(m: int) -> np.ndarray:
    """All permutations of 0..m-1 in lexicographic order, shape (m!, m).

    Row index equals the Lehmer rank of that row.
    """
    if m > MAX_EXHAUSTIVE_M:
        raise CapabilityError(
            f"permutation table for m={m} would have {m}! rows; limit is {MAX_EXHAUSTIVE_M}"
        )
    return np.array(list(permutations(range(m))), dtype=np.int64)


def exhaustive_detect(r: np.ndarray) -> list[int]:
    """Argmax over all M! permutations; the brute-force reference detector."""
    r = _checked_square(r)
    m = r.shape[0]
    if m > MAX_EXHAUSTIVE_M:
        raise CapabilityError(
            f"exhaustive search over {m}! permutations is not supported (m > {MAX_EXHAUSTIVE_M})"
        )
    table = permutation_table(m)
    best_idx = -1
    best = -np.inf
    rows = np.arange(m)
    # chunked so the (chunk, m!, m) gather stays within a modest memory budget
    chunk = max(1, int(5_000_000 // m))
    for lo in range(0, table.shape[0], chunk):
        part = table[lo : lo + chunk]
        scores = r[rows, part].sum(axis=1)
        i = int(np.argmax(scores))
        # strict > keeps the earliest (lexicographically smallest) maximizer
        if scores[i] > best:
            best = float(scores[i])
            best_idx = lo + i
    return [int(x) for x in table[best_idx]]


def hungarian_detect(r: np.ndarray) -> list[int]:
    """Optimal assignment detector.

    Negates the matrix, shifts it to non-negative, and runs a minimizing
    augmenting-path core with dual potentials.  Among equal-objective
    assignments the lexicographically smallest permutation is returned,
    identified through the zero-reduced-cost edges of the optimal duals.
    """
    r = _checked_square(r)
    m = r.shape[0]
    if m == 1:
        return [0]
    # shift so the minimizing core works on non-negative entries
    cost = (float(r.max()) - r).tolist()
    col_of_row, u, v = _solve_min_assignment(cost)
    reduced = np.asarray(cost) - np.asarray(u)[:, None] - np.asarray(v)[None, :]
    span = float(np.ptp(r))
    zero = reduced <= 1e-9 * (1.0 + span)
    if int(zero.sum()) > m:
        # extra tight edges: ties are possible, refine lexicographically
        return _lex_smallest_matching(zero)
    return col_of_row


def _checked_square(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] < 1:
        raise ValidationError(f"correlation matrix must be square, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValidationError("correlation matrix contains non-finite entries")
    # the detectors form shifted costs and sums of up to m entries; past
    # this bound they overflow to inf
    if not isfinite(2.0 * r.shape[0] * float(np.abs(r).max())):
        raise ValidationError("correlation matrix entries too large: sums would overflow a double")
    return r


def _solve_min_assignment(cost: list[list[float]]) -> tuple[list[int], list[float], list[float]]:
    """Augmenting-path assignment minimizer (shortest path with potentials).

    Returns (column per row, row potentials, column potentials); the
    potentials certify optimality through non-negative reduced costs.
    """
    n = len(cost)
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = 1-based row matched to column j; column 0 is virtual
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = 0
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col_of_row = [0] * n
    for j in range(1, n + 1):
        col_of_row[p[j] - 1] = j - 1
    return col_of_row, u[1:], v[1:]


def _lex_smallest_matching(zero: np.ndarray) -> list[int]:
    """Lexicographically smallest perfect matching of the tight-edge graph.

    Fixes rows in order to their smallest feasible column, where feasible
    means the remaining rows still admit a perfect matching (checked by
    augmenting paths).  The graph is guaranteed to contain one.
    """
    n = zero.shape[0]
    out: list[int] = []
    free_cols = set(range(n))
    for row in range(n):
        for c in sorted(free_cols):
            if zero[row, c] and _can_match(zero, range(row + 1, n), free_cols - {c}):
                out.append(c)
                free_cols.discard(c)
                break
        else:  # pragma: no cover - unreachable when zero contains a perfect matching
            raise AssertionError("tight-edge graph lost its perfect matching")
    return out


def _can_match(zero: np.ndarray, rows, cols: set[int]) -> bool:
    match: dict[int, int | None] = {c: None for c in cols}

    def extend(row: int, seen: set[int]) -> bool:
        for c in cols:
            if zero[row, c] and c not in seen:
                seen.add(c)
                if match[c] is None or extend(match[c], seen):
                    match[c] = row
                    return True
        return False

    return all(extend(row, set()) for row in rows)
