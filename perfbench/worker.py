"""Closed-loop runner for one workload, run in a fresh interpreter by run.py.

One client, one operation at a time: each operation is a call of
``permrad.cli.main(argv)`` with ``--out`` pointing at a file in the run
directory.  Whole cycles of the workload's operations run until the
requested seconds have passed.  The first output of every operation is
kept for run.py's oracle checks; later repeats must reproduce its digest.

Usage: python3 worker.py ROOT WORKLOAD SEED SECONDS TRACE RUN_DIR
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import workloads
from tracing import Tracer


def _peak_rss_kb() -> int:
    """High-water resident set of this process in KiB.

    VmHWM belongs to this process's own address space.  ru_maxrss is not
    used where VmHWM exists: on Linux it also keeps the parent's resident
    set from before the exec that started this interpreter.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _reset_caches() -> None:
    """Drop permrad's in-process caches between operations.

    Each CLI call is a fresh process for its users, so whatever permrad
    memoises (the permutation table, for one) is paid on every call.
    """
    for name, module in list(sys.modules.items()):
        if name == "permrad" or name.startswith("permrad."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


class Loop:
    """Runs operation cycles and keeps every operation's outcome."""

    def __init__(self, cli, ops: list[dict], run_dir: Path):
        self.cli = cli
        self.ops = ops
        self.run_dir = run_dir
        self.outcomes = [
            {"invocations": 0, "bad_exit": 0, "bad_digest": 0, "digest": None, "errors": []}
            for _ in ops
        ]
        self.bytes_out = 0

    def _invoke(self, idx: int) -> tuple[float, float]:
        """One CLI call; returns its (measured, rescaled) seconds."""
        outcome = self.outcomes[idx]
        name = f"op{idx}.csv" if outcome["invocations"] == 0 else "repeat.csv"
        path = self.run_dir / name
        if path.exists():
            path.unlink()
        argv = self.ops[idx]["argv"] + ["--out", str(path)]
        _reset_caches()
        before = calibrate.kernel_seconds()
        start = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation, not a failed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        times = elapsed, calibrate.rescale(elapsed, before, calibrate.kernel_seconds())
        outcome["invocations"] += 1
        if rc != 0 or not path.exists():
            outcome["bad_exit"] += 1
            if len(outcome["errors"]) < 3:
                outcome["errors"].append(f"exit {rc}")
            return times
        data = path.read_bytes()
        self.bytes_out += len(data)
        digest = hashlib.sha256(data).hexdigest()
        if outcome["digest"] is None:
            outcome["digest"] = digest
        elif digest != outcome["digest"]:
            outcome["bad_digest"] += 1
        return times

    def cycle(self) -> tuple[float, float]:
        """One pass over every operation; returns summed (measured, rescaled) seconds."""
        times = [self._invoke(idx) for idx in range(len(self.ops))]
        return sum(t for t, _ in times), sum(s for _, s in times)

    def run(self, seconds: float) -> list[tuple[float, float]]:
        """Whole cycles until ``seconds`` have passed; returns each cycle's times."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            times.append(self.cycle())
        return times


def main(argv: list[str]) -> int:
    root, workload, seed, seconds, trace, run_dir = argv
    root, run_dir = Path(root), Path(run_dir)
    src = root / "src"
    sys.path.insert(0, str(src))
    import numpy
    import permrad.cli as cli

    if src.resolve() not in Path(cli.__file__).resolve().parents:
        sys.stderr.write(f"permrad was imported from {cli.__file__}, not from {src}\n")
        return 2

    ops = workloads.operations(workload, int(seed))
    units = sum(op["units"] for op in ops)
    loop = Loop(cli, ops, run_dir)
    result = {"numpy": numpy.__version__, "units_per_cycle": units}
    if trace == "0":
        times = loop.run(seconds=float(seconds))
        result["cycle_seconds"] = times
        result["peak_rss_kb"] = _peak_rss_kb()
    else:
        # untraced and traced cycles alternate, so drift in machine speed
        # over the run does not bias the overhead ratio
        tracer = Tracer()
        untraced, traced, traced_bytes = [], [], 0
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < float(seconds):
            untraced.append(loop.cycle())
            bytes_before = loop.bytes_out
            tracer.install()
            try:
                traced.append(loop.cycle())
            finally:
                tracer.uninstall()
            traced_bytes += loop.bytes_out - bytes_before
        overhead = statistics.median(s for _, s in traced) / statistics.median(s for _, s in untraced)
        time_scale = sum(s for _, s in traced) / sum(t for t, _ in traced)
        metrics, bases = tracer.layer_metrics(len(traced), traced_bytes, overhead, time_scale)
        tracer.write_spans(run_dir.parent / f"{run_dir.name}-spans.csv")
        result["cycle_seconds"] = untraced
        result["traced_cycle_seconds"] = traced
        result["layer_metrics"] = metrics
        result["ratio_bases"] = bases
        result["absent"] = tracer.absent
    result["outcomes"] = loop.outcomes
    (run_dir / "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
