"""permrad benchmark: run one workload of permrad CLI calls and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc-statistic --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each exists): mc-statistic, mc-sampled,
af-surface, bounds-grid.  The workload runs in a fresh interpreter as a
closed loop with one client; run.py then checks every output against the
oracles in oracles.py, outside all timed sections.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``setup_s``: median time for a fresh interpreter to ``import permrad.cli``
  (after one untimed warm-up import), over SETUP_PROBES interpreters.
* ``unit_us``: wall microseconds per unit of work, median over cycles.  A
  unit is one Monte Carlo trial on mc-* (so trials/s = 1e6 / unit_us), one
  delay-Doppler cell on af-surface, one bounds row on bounds-grid.
* ``peak_rss_mb``: peak resident memory of the workload process.

Both timings are rescaled to nominal machine speed (see calibrate.py); the
unscaled values are printed before the last line.

With ``--trace 1`` it reports the per-layer metrics of tracing.py instead,
each per cycle, plus the tracing overhead (traced over untraced cycle time).

An operation is one CLI call; it fails on a nonzero exit, an output that
differs from the first output of the same call in this run, or an oracle
mismatch.  The last line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the same numbers
with the workload's own names (trials_per_s, grid_ms, cell_us, fail_ratio),
the problems found and the run record.  Outputs go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import oracles
import workloads
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0     # every run must end within 180 s
ORACLE_ALLOWANCE_S = 25.0
SETUP_PROBES = 15
MC_REFERENCE_TRIALS = 8000

# prints the seconds a fresh interpreter takes to import argv[1] (after
# putting argv[2], if given, first on sys.path)
_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[2:]\n"
    "t = time.perf_counter()\n"
    "__import__(sys.argv[1])\n"
    "print(repr(time.perf_counter() - t))\n"
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child(cmd: list[str], timeout: float, label: str) -> subprocess.CompletedProcess:
    """Run a child process to completion; on timeout it is killed and reaped."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, timeout), check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{label} did not finish within {timeout:.0f} s") from exc


def _import_seconds(module: str, deadline: float, *path: str) -> float:
    proc = _child([sys.executable, "-c", _PROBE, module, *path], deadline - time.monotonic(),
                  f"importing {module}")
    if proc.returncode != 0:
        raise BenchError(f"a fresh interpreter could not import {module}")
    return float(proc.stdout.strip())


def setup_seconds(deadline: float) -> list[tuple[float, float]]:
    """(measured, rescaled) import times of permrad.cli in SETUP_PROBES fresh
    interpreters, each between two numpy-import yardsticks."""
    src = str(ROOT / "src")
    _import_seconds("permrad.cli", deadline, src)  # compiles bytecode; users have it cached
    times = []
    before = _import_seconds("numpy", deadline)
    for _ in range(SETUP_PROBES):
        seconds = _import_seconds("permrad.cli", deadline, src)
        after = _import_seconds("numpy", deadline)
        times.append((seconds, calibrate.rescale(seconds, before, after,
                                                 calibrate.NOMINAL_IMPORT_S)))
        before = after
    return times


def git_sha() -> str | None:
    """HEAD of the checkout if it is a git work tree (read without running git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def check_operation(op: dict, idx: int, text: str, seed: int, bounds_cache: dict) -> list[str]:
    """Oracle problems in the output ``text`` of operation ``idx``."""
    if op["command"] == "simulate":
        reference = {}
        for pt, snr_db in enumerate(op["snr_db"]):
            errors = oracles.mc_reference(
                op["m"], op["n"], op["channel"], op["k"], snr_db,
                MC_REFERENCE_TRIALS, [seed, idx, pt],
            )
            l2 = oracles.pairwise_error(2, op["m"], op["n"], op["channel"], op["k"],
                                        10.0 ** (snr_db / 10.0))
            reference[snr_db] = (errors, MC_REFERENCE_TRIALS, l2)
        return oracles.check_simulate(text, op, reference)
    if op["command"] == "bounds":
        key = (op["m"], op["n"], op["channel"], op["k"])
        if key not in bounds_cache:
            bounds_cache[key] = {s: oracles.bounds_reference(*key, s) for s in op["snr_db"]}
        return oracles.check_bounds(text, op, bounds_cache[key])
    cells = oracles.af_check_cells(seed + idx, op["tau_steps"], op["doppler_steps"])
    return oracles.check_af(text, op, cells)


def check_outputs(seed: int, ops: list[dict], run_dir: Path) -> list[list[str]]:
    """Oracle problems per operation, judged on its first output."""
    problems = []
    bounds_cache: dict = {}
    for idx, op in enumerate(ops):
        path = run_dir / f"op{idx}.csv"
        if path.is_file():
            text = path.read_text(encoding="utf-8")
            problems.append(check_operation(op, idx, text, seed, bounds_cache))
        else:
            problems.append(["no output to check"])
    return problems


def count_failures(outcomes: list[dict], problems: list[list[str]]) -> tuple[int, int]:
    """(attempted, failed) over every CLI call of the run."""
    attempted = failed = 0
    for outcome, found in zip(outcomes, problems):
        attempted += outcome["invocations"]
        bad = outcome["bad_exit"] + outcome["bad_digest"]
        failed += outcome["invocations"] if found else bad
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "permrad" / "cli.py").is_file():
        raise BenchError(f"no permrad sources under {ROOT / 'src'}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_sha": git_sha(), "loadavg_start": os.getloadavg(),
    }
    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup = setup_seconds(deadline) if args.trace == 0 else []
    proc = _child(
        [sys.executable, str(HERE / "worker.py"), str(ROOT), args.workload, str(args.seed),
         repr(args.seconds), str(args.trace), str(run_dir)],
        deadline - time.monotonic() - ORACLE_ALLOWANCE_S, "the workload process",
    )
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    result = json.loads((run_dir / "worker.json").read_text(encoding="utf-8"))

    ops = workloads.operations(args.workload, args.seed)
    problems = check_outputs(args.seed, ops, run_dir)
    attempted, failed = count_failures(result["outcomes"], problems)
    for idx, outcome in enumerate(result["outcomes"]):
        found = outcome["errors"] + problems[idx]
        if outcome["bad_digest"]:
            found.append(f"{outcome['bad_digest']} repeats changed the output")
        if found:
            print(f"operation {idx} failed ({' '.join(ops[idx]['argv'])}): {len(found)} problems")
            for item in found[:3]:
                print(f"  {item}")

    cycles = result["cycle_seconds"]
    units = result["units_per_cycle"]
    unit_us = statistics.median(1e6 * scaled / units for _, scaled in cycles)
    record.update(numpy=result["numpy"], cycles=len(cycles), ops_per_cycle=len(ops),
                  units_per_cycle=units, unit=workloads.UNIT_NAMES[args.workload],
                  cycle_seconds=cycles)
    print(f"workload {args.workload}: {len(cycles)} cycles of {len(ops)} operations, "
          f"{units} {record['unit']}s per cycle")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4g} (failed/attempted operations)")
    print(f"unit_us measured without rescaling: "
          f"{statistics.median(1e6 * raw / units for raw, _ in cycles):.6g} us")
    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
            "unit_us": (unit_us, "us"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        }
        record["setup_s_samples"] = setup
        print(f"setup_s measured without rescaling: {statistics.median(raw for raw, _ in setup):.6g} s")
        if args.workload.startswith("mc-"):
            print(f"trials_per_s {1e6 / unit_us:.6g} 1/s")
        elif args.workload == "bounds-grid":
            print(f"grid_ms {unit_us * units / len(ops) / 1e3:.6g} ms per bounds call")
        else:
            print(f"cell_us {unit_us:.6g} us")
    else:
        metrics = {name: (result["layer_metrics"][name], unit)
                   for name, (unit, _) in LAYER_METRICS.items()}
        for name, base in result["ratio_bases"].items():
            print(f"base of {name}: {base}")
        print(f"absent spans: {', '.join(result['absent']) or 'none'}")
        selfs = {name: value for name, (value, _) in metrics.items() if name.endswith(".self_s")}
        top = sorted(selfs, key=selfs.get, reverse=True)[:3]
        print("largest self times per cycle: " + ", ".join(f"{n} {selfs[n]:.4g} s" for n in top))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("record " + json.dumps(record))
    for path in run_dir.glob("*.csv"):
        path.unlink()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        sys.exit(2)
