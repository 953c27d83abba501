"""Per-layer tracing from outside the program.

Timing wrappers replace module attributes at the sites where permrad looks
them up (for example ``simkit.hungarian_detect``, the name ``simkit``
calls), so no permrad file changes.  Each call records a span (name,
start, end, parent) in memory; self time is a span's duration minus the
part of it that its child spans cover.  A wrapped name that no longer
exists is reported as absent rather than failing the run.
"""

from __future__ import annotations

import importlib
import time
from math import factorial


def _sampled_bytes(cfg, perms, h, *_):
    size, m = perms.shape
    return size * h.shape[1] * m * cfg.waveform_params().samples_per_pulse * 16


def _gather_elems(r_all, m, *_):
    return r_all.shape[0] * factorial(m) * m


def _pulse_pairs(perm, *_):
    return len(perm) ** 2


# (module, attribute, span name, optional counter computed from the arguments)
SPANS = [
    ("permrad.cli", "main", "cli.main", None),
    ("permrad.simkit", "run_bler_sweep", "simkit.run_bler_sweep", None),
    ("permrad.simkit", "_sampled_matrices", "simkit._sampled_matrices", _sampled_bytes),
    ("permrad.simkit", "_exhaustive_ranks", "simkit._exhaustive_ranks", _gather_elems),
    ("permrad.simkit", "hungarian_detect", "receiver.hungarian_detect", None),
    ("permrad.simkit", "statistic_matrices", "receiver.statistic_matrices", None),
    ("permrad.simkit", "permutation_table", "receiver.permutation_table", None),
    ("permrad.simkit", "rank_to_permutation", "lehmer.rank_to_permutation", None),
    ("permrad.simkit", "draw_fading_batch", "channel.draw_fading_batch", None),
    ("permrad.radar", "af_grid", "radar.af_grid", None),
    ("permrad.radar", "complex_af", "radar.complex_af", _pulse_pairs),
    ("permrad.radar", "pulse_af", "radar.pulse_af", None),
    ("permrad.bounds", "union_bound_awgn", "bounds.union_bound", None),
    ("permrad.bounds", "union_bound_rayleigh", "bounds.union_bound", None),
    ("permrad.bounds", "union_bound_rician", "bounds.union_bound", None),
    ("permrad.bounds", "nn_awgn", "bounds.nn", None),
    ("permrad.bounds", "nn_rayleigh", "bounds.nn", None),
    ("permrad.bounds", "nn_rician", "bounds.nn", None),
    ("permrad.bounds", "pairwise_rician", "bounds.pairwise_rician", None),
]

# counted without a span, so they add no layer of their own to self times
COUNTS = [("permrad.simkit", "_run_block", "simkit.blocks")]

# per-layer metrics: name -> (unit, better).  Counts and self times are per
# cycle (one pass over the workload's operations); ratios are over the run.
LAYER_METRICS = {
    "cli.main.self_s": ("s", "lower"),
    "cli.bytes_out": ("B", "lower"),
    "simkit.run_bler_sweep.self_s": ("s", "lower"),
    "simkit.blocks": ("count", "lower"),
    "simkit._sampled_matrices.self_s": ("s", "lower"),
    "simkit.sampled_bytes_per_block": ("B", "lower"),
    "simkit._exhaustive_ranks.self_s": ("s", "lower"),
    "receiver.exhaustive_gather_elems": ("count", "lower"),
    "receiver.hungarian_detect.calls": ("count", "lower"),
    "receiver.hungarian_detect.self_s": ("s", "lower"),
    "receiver.statistic_matrices.self_s": ("s", "lower"),
    "receiver.permutation_table.self_s": ("s", "lower"),
    "lehmer.rank_to_permutation.calls": ("count", "lower"),
    "lehmer.rank_to_permutation.self_s": ("s", "lower"),
    "channel.draw_fading_batch.self_s": ("s", "lower"),
    "bounds.union_bound.self_s": ("s", "lower"),
    "bounds.nn.self_s": ("s", "lower"),
    "bounds.pairwise_rician.calls": ("count", "lower"),
    "bounds.pairwise_rician.self_s": ("s", "lower"),
    "bounds.numeric_errors": ("count", "lower"),
    "radar.complex_af.self_s": ("s", "lower"),
    "radar.pulse_af.calls": ("count", "lower"),
    "radar.pulse_af.self_s": ("s", "lower"),
    "radar.pulse_pairs_ratio": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Installs the wrappers, records spans, and derives per-layer numbers."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for module_name, attr, name, counter in SPANS:
            self._patch(module_name, attr, name, lambda orig, n=name, c=counter: self._span(orig, n, c))
        for module_name, attr, name in COUNTS:
            self._patch(module_name, attr, name, lambda orig, n=name: self._count(orig, n))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _patch(self, module_name, attr, name, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        self._installed.append((module, attr, original))
        setattr(module, attr, make(original))

    def _span(self, original, name, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if counter is not None:
                try:
                    self.counters[name] = self.counters.get(name, 0) + counter(*args)
                except (AttributeError, IndexError, TypeError, ValueError):
                    self.counters.setdefault(name, 0)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            err = None
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, err)

        return wrapper

    def _count(self, original, name):
        def wrapper(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        selfs: dict[str, float] = {}
        calls: dict[str, int] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for lo, hi in sorted(children.get(idx, ())):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            selfs[name] = selfs.get(name, 0.0) + (end - start - covered)
            calls[name] = calls.get(name, 0) + 1
        return selfs, calls

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,error\n")
            for idx, (name, start, end, parent, err) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start!r},{end!r},{parent},{err or ''}\n")

    def layer_metrics(self, cycles: int, bytes_out: int, overhead: float,
                      time_scale: float) -> tuple[dict, dict]:
        """Every LAYER_METRICS value per cycle (names never called read 0),
        plus the bases of the ratios.  Self times are multiplied by
        ``time_scale``, the run's rescaling to nominal machine speed."""
        selfs, calls = self.self_times()
        totals = {
            "cli.bytes_out": bytes_out,
            "simkit.blocks": self.counters.get("simkit.blocks", 0),
            "receiver.exhaustive_gather_elems": self.counters.get("simkit._exhaustive_ranks", 0),
            "bounds.numeric_errors": sum(
                1 for name, _, _, parent, err in self.spans
                if err == "NumericError" and name.startswith("bounds.")
                and (parent < 0 or not self.spans[parent][0].startswith("bounds."))
            ),
        }
        for metric in LAYER_METRICS:
            if metric.endswith(".self_s"):
                totals[metric] = selfs.get(metric[: -len(".self_s")], 0.0) * time_scale
            elif metric.endswith(".calls"):
                totals[metric] = calls.get(metric[: -len(".calls")], 0)
        out = {k: v / cycles for k, v in totals.items()}
        sampled_calls = calls.get("simkit._sampled_matrices", 0)
        sampled_bytes = self.counters.get("simkit._sampled_matrices", 0)
        out["simkit.sampled_bytes_per_block"] = sampled_bytes / sampled_calls if sampled_calls else 0.0
        pulse_calls = calls.get("radar.pulse_af", 0)
        pair_base = self.counters.get("radar.complex_af", 0)
        out["radar.pulse_pairs_ratio"] = pulse_calls / pair_base if pair_base else 0.0
        out["trace.overhead_ratio"] = overhead
        bases = {
            "radar.pulse_pairs_ratio": f"{pulse_calls} pulse_af calls / {pair_base} (complex_af calls x M^2)",
            "simkit.sampled_bytes_per_block": f"{sampled_bytes} B over {sampled_calls} blocks",
        }
        return out, bases
