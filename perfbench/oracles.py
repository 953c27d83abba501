"""Reference values the benchmark checks permrad's CLI output against.

Nothing here imports permrad: every oracle is an independent computation.

* Pairwise error probability by the Craig/MGF integral, evaluated with
  ``scipy.integrate.quad`` (AWGN uses erfc directly); union and
  nearest-neighbour sums are built from it.
* A Monte Carlo BLER reference: statistic matrices drawn from their exact
  distribution with a separate generator and decoded by
  ``scipy.optimize.linear_sum_assignment``.
* A piecewise Gauss-Legendre quadrature of the ambiguity integral
  A(tau, omega) = int s(u) s*(u - tau) exp(j omega u) du.
"""

from __future__ import annotations

import math
from math import comb, erfc, exp, fsum, pi, sin, sqrt

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linear_sum_assignment

BOUNDS_RTOL = 1e-6
MC_SIGMAS = 5.0
AF_ATOL = 1e-6
AF_SYMMETRY_ATOL = 1e-9
AF_PEAK_ATOL = 1e-9
AF_CHECK_CELLS = 16


# --------------------------------------------------------------- CSV parsing

def parse_csv(text: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Split permrad CSV output into (header key/values, column names, rows)."""
    header: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            header[key] = value
        elif not columns:
            columns = line.split(",")
        elif line:
            rows.append(line.split(","))
    return header, columns, rows


# ----------------------------------------------------- pairwise error oracle

def subfactorial(x: int) -> int:
    acc = 1
    for i in range(1, x + 1):
        acc = i * acc + (-1) ** i
    return acc


def _mgf(s: float, n: int, k: float) -> float:
    """E[exp(-s g)] for g = |h|^2 over n Rician antennas of unit mean power."""
    a = 1.0 + k + s
    return ((1.0 + k) / a) ** n * exp(-n * k * s / a)


def pairwise_error(l: int, m: int, n: int, channel: str, k: float, snr: float) -> float:
    """Probability that one rival at Hamming distance l beats the sent waveform.

    AWGN: Q(sqrt(n snr l / m)).  Fading: (1/pi) int_0^{pi/2} M_g(snr l / (2 m sin^2 t)) dt.
    """
    if channel == "awgn":
        return 0.5 * erfc(sqrt(n * snr * l / m / 2.0))
    kk = 0.0 if channel == "rayleigh" else k
    c = snr * l / (2.0 * m)
    val, _ = quad(
        lambda t: _mgf(c / sin(t) ** 2, n, kk) if t > 0.0 else 0.0,
        0.0, pi / 2.0, epsabs=0.0, epsrel=1e-12, limit=400,
    )
    return val / pi


def bounds_reference(m: int, n: int, channel: str, k: float, snr_db: float) -> tuple[float, float]:
    """(union bound, nearest-neighbour approximation) at one SNR point."""
    snr = 10.0 ** (snr_db / 10.0)
    peps = {l: pairwise_error(l, m, n, channel, k, snr) for l in range(2, m + 1)}
    ub = fsum(subfactorial(l) * comb(m, l) * peps[l] for l in range(2, m + 1))
    nn = (m * (m - 1) / 2.0) * peps[2]
    return ub, nn


def _close(got: float, ref: float, rtol: float) -> bool:
    if ref == 0.0:  # reference underflowed: only an absolute check is possible
        return abs(got) <= 1e-300
    return abs(got - ref) <= rtol * abs(ref)


def check_bounds(text: str, spec: dict, reference: dict) -> list[str]:
    """Problems found in one ``bounds`` output; empty when it matches the oracle.

    ``reference`` maps snr_db to (ub, nn) for the spec's (m, n, channel, k).
    """
    _, columns, rows = parse_csv(text)
    if columns != ["snr_db", "ub", "nn", "channel", "M", "N", "K"]:
        return [f"unexpected columns {columns}"]
    if len(rows) != len(spec["snr_db"]):
        return [f"expected {len(spec['snr_db'])} rows, got {len(rows)}"]
    problems = []
    for row, snr_db in zip(rows, spec["snr_db"]):
        if float(row[0]) != snr_db:
            problems.append(f"row snr {row[0]} != {snr_db}")
            continue
        ub_ref, nn_ref = reference[snr_db]
        for label, got, ref in (("ub", float(row[1]), ub_ref), ("nn", float(row[2]), nn_ref)):
            if not _close(got, ref, BOUNDS_RTOL):
                problems.append(f"{label} at {snr_db} dB: got {got!r}, reference {ref!r}")
    return problems


# ----------------------------------------------------- Monte Carlo reference

def _gains(rng: np.random.Generator, n: int, channel: str, k: float, size: int) -> np.ndarray:
    if channel == "awgn":
        return np.full(size, float(n))
    kk = 0.0 if channel == "rayleigh" else k
    scatter = rng.normal(scale=sqrt(0.5 / (kk + 1.0)), size=(size, n, 2))
    re = sqrt(kk / (kk + 1.0)) + scatter[..., 0]
    return np.sum(re * re + scatter[..., 1] ** 2, axis=1)


def mc_reference(m: int, n: int, channel: str, k: float, snr_db: float,
                 trials: int, seed: list[int]) -> int:
    """Block errors of the optimal detector in ``trials`` independent draws.

    By symmetry the identity permutation is sent.  Scaled to unit noise, the
    statistic matrix is Z + sqrt(2 snr g / m) I; a block error is the event
    that the identity is not the maximum-weight assignment.  When every
    row maximum sits on the diagonal the identity is optimal outright, so
    only the remaining matrices go through the assignment solver.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    snr = 10.0 ** (snr_db / 10.0)
    errors = 0
    chunk = 4096
    eye = np.arange(m)
    for lo in range(0, trials, chunk):
        size = min(chunk, trials - lo)
        g = _gains(rng, n, channel, k, size)
        r = rng.standard_normal((size, m, m))
        r[:, eye, eye] += np.sqrt(2.0 * snr * g / m)[:, None]
        sure = np.all(np.argmax(r, axis=2) == eye, axis=1)
        for i in np.flatnonzero(~sure):
            _, cols = linear_sum_assignment(r[i], maximize=True)
            errors += bool(np.any(cols != eye))
    return errors


def check_simulate(text: str, spec: dict, reference: dict) -> list[str]:
    """Problems found in one ``simulate`` output.

    ``reference`` maps snr_db to (errors, trials, l2_pairwise) for the spec's
    configuration.  A point fails when its BLER differs from the reference
    by more than MC_SIGMAS pooled standard errors, or falls below the l=2
    pairwise error probability (a lower bound on BLER) by more than
    MC_SIGMAS binomial standard errors.
    """
    _, columns, rows = parse_csv(text)
    if columns[:6] != ["snr_db", "bler", "ci_lo", "ci_hi", "trials", "errors"]:
        return [f"unexpected columns {columns}"]
    if len(rows) != len(spec["snr_db"]):
        return [f"expected {len(spec['snr_db'])} rows, got {len(rows)}"]
    problems = []
    for row, snr_db in zip(rows, spec["snr_db"]):
        got_snr, bler, trials, errors = float(row[0]), float(row[1]), int(row[4]), int(row[5])
        if got_snr != snr_db or trials != spec["trials"] or bler != errors / trials:
            problems.append(f"row {row[:6]} does not match snr {snr_db}, trials {spec['trials']}")
            continue
        ref_err, ref_trials, l2 = reference[snr_db]
        pooled = (errors + ref_err) / (trials + ref_trials)
        se = sqrt(pooled * (1.0 - pooled) * (1.0 / trials + 1.0 / ref_trials))
        ref_bler = ref_err / ref_trials
        if abs(bler - ref_bler) > MC_SIGMAS * se:
            problems.append(
                f"bler {bler} at {snr_db} dB vs reference {ref_bler} (> {MC_SIGMAS} se = {se:.3g})"
            )
        floor = l2 - MC_SIGMAS * sqrt(l2 * (1.0 - l2) / trials)
        if bler < floor:
            problems.append(f"bler {bler} at {snr_db} dB below the l=2 pairwise bound {l2:.4g}")
    return problems


# ------------------------------------------------------------- AF reference

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(128)


def af_reference(perm: list[int], tau: float, omega: float) -> complex:
    """A(tau, omega) of the unit-energy train (t = 1, delta_f = 1, f0 = 0).

    Between consecutive pulse edges of s(u) and s(u - tau) the integrand is
    a single complex exponential; each piece gets 128-node Gauss-Legendre.
    """
    m = len(perm)
    w = 2.0 * pi * np.asarray(perm, dtype=float)
    lo, hi = max(0.0, tau), min(float(m), m + tau)
    if lo >= hi:
        return 0j
    edges = {lo, hi}
    for p in range(1, m):
        for e in (float(p), p + tau):
            if lo < e < hi:
                edges.add(e)
    edges = sorted(edges)
    total = 0j
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        pa = min(m - 1, max(0, math.floor(mid)))
        pb = min(m - 1, max(0, math.floor(mid - tau)))
        u = mid + 0.5 * (b - a) * _GL_NODES
        f = np.exp(1j * (w[pa] * (u - pa) - w[pb] * (u - tau - pb) + omega * u))
        total += 0.5 * (b - a) * complex(np.dot(_GL_WEIGHTS, f))
    return total / m


def af_check_cells(seed: int, tau_steps: int, omega_steps: int) -> list[tuple[int, int]]:
    """Seeded cells for the quadrature comparison (always AF_CHECK_CELLS of them)."""
    rng = np.random.default_rng([seed, 0xAF])
    flat = rng.choice(tau_steps * omega_steps, size=AF_CHECK_CELLS, replace=False)
    return [(int(x) // omega_steps, int(x) % omega_steps) for x in flat]


def check_af(text: str, spec: dict, cells: list[tuple[int, int]]) -> list[str]:
    """Problems found in one ``af`` output (delay, Doppler in rad/s, |A|)."""
    header, columns, rows = parse_csv(text)
    if columns != ["tau", "omega_rad_s", "magnitude"]:
        return [f"unexpected columns {columns}"]
    geometry = (header.get("t_sec"), header.get("delta_f_hz"), header.get("f0_hz"))
    if geometry != ("1.0", "1.0", "0.0"):  # the geometry af_reference integrates
        return [f"unexpected pulse geometry {geometry}"]
    nt, nw = spec["tau_steps"], spec["doppler_steps"]
    if len(rows) != nt * nw:
        return [f"expected {nt * nw} rows, got {len(rows)}"]
    grid = np.array(rows, dtype=float).reshape(nt, nw, 3)
    tau, omega, mag = grid[..., 0], grid[..., 1], grid[..., 2]
    problems = []
    i0, j0 = nt // 2, nw // 2
    if abs(tau[i0, j0]) > 1e-12 or abs(omega[i0, j0]) > 1e-12:
        problems.append(f"centre cell is not (0, 0): {tau[i0, j0]}, {omega[i0, j0]}")
    elif abs(mag[i0, j0] - 1.0) > AF_PEAK_ATOL:
        problems.append(f"|A(0,0)| = {mag[i0, j0]!r}, expected 1")
    asym = float(np.max(np.abs(mag - mag[::-1, ::-1])))
    if asym > AF_SYMMETRY_ATOL:
        problems.append(f"|A(-tau,-omega)| differs from |A(tau,omega)| by {asym:.3g}")
    perm = spec["perm"]
    for i, j in cells:
        ref = abs(af_reference(perm, tau[i, j], omega[i, j]))
        if abs(mag[i, j] - ref) > AF_ATOL:
            problems.append(
                f"|A({tau[i, j]!r}, {omega[i, j]!r})| = {mag[i, j]!r}, quadrature {ref!r}"
            )
    return problems
