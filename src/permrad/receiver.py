"""Detection of the transmitted tone permutation.

Entry [n, k] of an M x M statistic matrix is the receiver's correlation of
pulse slot n with tone k.  The decision is the permutation whose selected
entries have the largest sum: an assignment problem, which
``hungarian_detect`` solves in O(M^3) worst case.  The tests check it
against a brute-force search over all M! permutations.
"""

from __future__ import annotations

from math import isfinite

import numpy as np

from .errors import ValidationError


def hungarian_detect(r: np.ndarray) -> list[int]:
    """Optimal assignment detector.

    Negates the matrix, shifts it to non-negative, and runs a minimizing
    augmenting-path core with dual potentials.  Among equal-objective
    assignments the lexicographically smallest permutation is returned: a
    second solve of the same core keeps only the edges that the optimal
    duals leave tight, and orders their matchings lexicographically.
    """
    r = _checked_square(r)
    m = r.shape[0]
    # shift so the minimizing core works on non-negative entries
    cost = (float(r.max()) - r).tolist()
    _, u, v = _solve_min_assignment(cost)
    reduced = np.asarray(cost) - np.asarray(u)[:, None] - np.asarray(v)[None, :]
    # the optimal matchings are the perfect matchings of the tight edges; a
    # tolerance of rounding size relative to the span only, so the answer
    # does not depend on the matrix's scale
    tight = reduced <= 8 * m * np.finfo(float).eps * float(np.ptp(r))
    # exact integer costs: a tight edge (i, j) costs digit j of a base-m
    # number, any other edge more than every tight matching, so the cheapest
    # matching is the lexicographically smallest optimal permutation
    lex = [
        [j * m ** (m - 1 - i) if t else m**m for j, t in enumerate(row)]
        for i, row in enumerate(tight.tolist())
    ]
    return _solve_min_assignment(lex)[0]


def _checked_square(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] < 1:
        raise ValidationError(f"correlation matrix must be square, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValidationError("correlation matrix contains non-finite entries")
    # the detector forms shifted costs and sums of up to m entries; past
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
    # integer potentials keep integer costs exact; float costs are unchanged
    u = [0] * (n + 1)
    v = [0] * (n + 1)
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
