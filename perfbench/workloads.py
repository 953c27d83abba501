"""The benchmark's workloads: fixed lists of permrad CLI invocations.

Every workload is a cycle of operations (one operation = one CLI call).
The workload seed chooses the ``simulate --seed`` values, the random tone
orders and the order of the ``bounds`` calls; everything else is fixed so
that the same seed always gives the same inputs.

Why each workload exists:

* ``mc-statistic``: ``simulate`` in statistic mode with the default
  ``hungarian`` receiver.  The per-trial assignment solver dominates, and
  M > 8 also takes the per-symbol ``rank_to_permutation`` path.
* ``mc-sampled``: ``simulate --mode sampled --receiver exhaustive``.  Same
  engine and receiver layers, but the waveform-level pipeline and the
  vectorised m!-gather do the work, not the per-trial solver.
* ``af-surface``: ``af`` on the 161 x 161 grid; isolates ``radar`` and the
  CLI's CSV formatting.
* ``bounds-grid``: ``bounds`` over the full (M, N, channel) grid at
  0..30 dB; isolates ``bounds``.  It is not listed in BENCHMARK.json while
  permrad's fading union bounds miss the quadrature oracle (the Rician
  series loses precision at high SNR and N=4): its runs report those
  calls as failed operations, and a listed workload must have none.
"""

from __future__ import annotations

import random

# (m, n, channel, rician k, (snr_db, snr_db)); each SNR pair puts the
# optimal detector's BLER roughly between 1e-2 and 0.3
MC_STATISTIC = [
    (4, 1, "awgn", 0.0, (8.0, 12.0)),
    (8, 4, "rayleigh", 0.0, (8.0, 12.0)),
    (12, 2, "rician", 4.0, (14.0, 18.0)),
    (20, 1, "rician", 1.0, (24.0, 32.0)),
]
MC_STATISTIC_TRIALS = 1000

MC_SAMPLED = [
    (4, 1, "awgn", 0.0, (8.0, 12.0)),
    (4, 4, "awgn", 0.0, (2.0, 6.0)),
    (4, 1, "rayleigh", 0.0, (10.0, 20.0)),
    (4, 4, "rayleigh", 0.0, (2.0, 8.0)),
    (6, 1, "awgn", 0.0, (12.0, 14.0)),
    (6, 4, "awgn", 0.0, (6.0, 8.0)),
    (6, 1, "rayleigh", 0.0, (14.0, 24.0)),
    (6, 4, "rayleigh", 0.0, (6.0, 10.0)),
]
MC_SAMPLED_TRIALS = 1024  # one sampled-mode block per point

AF_MS = (8, 12, 20)
AF_STEPS = 161

BOUNDS_MS = (4, 8, 12, 20)
BOUNDS_NS = (1, 4)
BOUNDS_CHANNELS = (("awgn", 0.0), ("rayleigh", 0.0), ("rician", 1.0), ("rician", 4.0))
BOUNDS_SNR_DB = tuple(float(x) for x in range(0, 31, 2))

WORKLOADS = ("mc-statistic", "mc-sampled", "af-surface", "bounds-grid")

# what one unit of work is on each workload (unit_us is wall time per unit)
UNIT_NAMES = {
    "mc-statistic": "trial",
    "mc-sampled": "trial",
    "af-surface": "cell",
    "bounds-grid": "row",
}


def _fmt_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _simulate_ops(configs, trials: int, mode: str, receiver: str, rng: random.Random):
    ops = []
    for m, n, channel, k, snrs in configs:
        sim_seed = rng.randrange(2**31)
        argv = [
            "simulate", "--m", str(m), "--n", str(n), "--channel", channel,
            "--rician-k", repr(k), "--snr-db", _fmt_list(snrs), "--trials", str(trials),
            "--seed", str(sim_seed), "--mode", mode, "--receiver", receiver, "--workers", "1",
        ]
        ops.append({
            "command": "simulate", "argv": argv, "units": trials * len(snrs),
            "m": m, "n": n, "channel": channel, "k": k, "snr_db": list(snrs),
            "trials": trials, "seed": sim_seed,
        })
    return ops


def _af_ops(rng: random.Random):
    ops = []
    for m in AF_MS:
        shuffled = list(range(m))
        rng.shuffle(shuffled)
        for order, perm in (
            ("ascending", list(range(m))),
            ("descending", list(range(m))[::-1]),
            ("random", shuffled),
        ):
            tone_arg = (
                ["--perm", ",".join(map(str, perm))] if order == "random" else ["--order", order]
            )
            argv = ["af", "--m", str(m), *tone_arg, "--tau-steps", str(AF_STEPS),
                    "--doppler-steps", str(AF_STEPS), "--workers", "1"]
            ops.append({
                "command": "af", "argv": argv, "units": AF_STEPS * AF_STEPS, "m": m,
                "perm": perm, "tau_steps": AF_STEPS, "doppler_steps": AF_STEPS,
            })
    return ops


def _bounds_ops(rng: random.Random):
    ops = []
    for m in BOUNDS_MS:
        for n in BOUNDS_NS:
            for channel, k in BOUNDS_CHANNELS:
                argv = ["bounds", "--m", str(m), "--n", str(n), "--channel", channel,
                        "--rician-k", repr(k), "--snr-db", _fmt_list(BOUNDS_SNR_DB)]
                ops.append({
                    "command": "bounds", "argv": argv, "units": len(BOUNDS_SNR_DB),
                    "m": m, "n": n, "channel": channel, "k": k,
                    "snr_db": list(BOUNDS_SNR_DB),
                })
    rng.shuffle(ops)
    return ops


def operations(workload: str, seed: int) -> list[dict]:
    """The operation cycle of ``workload`` for workload seed ``seed``."""
    rng = random.Random(seed)
    if workload == "mc-statistic":
        return _simulate_ops(MC_STATISTIC, MC_STATISTIC_TRIALS, "statistic", "hungarian", rng)
    if workload == "mc-sampled":
        return _simulate_ops(MC_SAMPLED, MC_SAMPLED_TRIALS, "sampled", "exhaustive", rng)
    if workload == "af-surface":
        return _af_ops(rng)
    if workload == "bounds-grid":
        return _bounds_ops(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

