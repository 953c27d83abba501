"""Self-check of the benchmark.

Every oracle must accept a real output and reject a deliberately perturbed
one, and one command must print every metric of BENCHMARK.json with its
unit plus the attempted and failed operation counts.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from permrad import cli  # noqa: E402

SEED = 0
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _op_output(tmp_path, workload: str, pick) -> tuple[int, dict, str]:
    ops = workloads.operations(workload, SEED)
    idx = next(i for i, op in enumerate(ops) if pick(op))
    out = tmp_path / "out.csv"
    assert cli.main(ops[idx]["argv"] + ["--out", str(out)]) == 0
    return idx, ops[idx], out.read_text(encoding="utf-8")


def _replace_row(text: str, row_index: int, edit) -> str:
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    fields = lines[data[row_index]].split(",")
    lines[data[row_index]] = ",".join(edit(fields))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", ["mc-statistic", "mc-sampled"])
def test_simulate_oracle_rejects_a_perturbed_bler(tmp_path, workload):
    idx, op, text = _op_output(tmp_path, workload, lambda op: True)
    assert run.check_operation(op, idx, text, SEED, {}) == []

    def inflate(fields):
        trials, errors = int(fields[4]), int(fields[5])
        errors = min(trials, 2 * errors + 40)
        fields[1], fields[5] = repr(errors / trials), str(errors)
        return fields

    perturbed = _replace_row(text, 0, inflate)
    assert run.check_operation(op, idx, perturbed, SEED, {})


def test_bounds_oracle_rejects_a_perturbed_row(tmp_path):
    idx, op, text = _op_output(tmp_path, "bounds-grid", lambda op: op["channel"] == "awgn")
    assert run.check_operation(op, idx, text, SEED, {}) == []

    def nudge(fields):
        fields[1] = repr(float(fields[1]) * (1.0 + 1e-5))
        return fields

    assert run.check_operation(op, idx, _replace_row(text, 3, nudge), SEED, {})


def _af_cells(op, idx):
    return oracles.af_check_cells(SEED + idx, op["tau_steps"], op["doppler_steps"])


@pytest.mark.parametrize("case", ["peak", "symmetry", "quadrature"])
def test_af_oracle_rejects_a_perturbed_surface(tmp_path, case):
    idx, op, text = _op_output(tmp_path, "af-surface", lambda op: op["m"] == 8)
    assert run.check_operation(op, idx, text, SEED, {}) == []
    nt, nw = op["tau_steps"], op["doppler_steps"]
    if case == "peak":
        cells = [(nt // 2, nw // 2)]
    elif case == "symmetry":
        cells = [(1, 2)]
    else:  # a checked cell and its mirror together, so symmetry still holds
        i, j = _af_cells(op, idx)[0]
        cells = [(i, j), (nt - 1 - i, nw - 1 - j)]

    perturbed = text
    for i, j in cells:
        def bump(fields):
            fields[2] = repr(float(fields[2]) + 1e-5)
            return fields

        perturbed = _replace_row(perturbed, i * nw + j, bump)
    problems = run.check_operation(op, idx, perturbed, SEED, {})
    assert problems
    expected = {"peak": "|A(0,0)|", "symmetry": "differs", "quadrature": "quadrature"}[case]
    assert any(expected in p for p in problems)


def test_repeats_that_change_output_count_as_failures():
    outcomes = [
        {"invocations": 3, "bad_exit": 0, "bad_digest": 1},
        {"invocations": 2, "bad_exit": 1, "bad_digest": 0},
        {"invocations": 4, "bad_exit": 0, "bad_digest": 0},
    ]
    assert run.count_failures(outcomes, [[], [], []]) == (9, 2)
    assert run.count_failures(outcomes, [[], [], ["oracle mismatch"]]) == (9, 6)


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(
        tracing, "SPANS", tracing.SPANS + [("permrad.simkit", "no_such_stage", "simkit.gone", None)]
    )
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["permrad.simkit.no_such_stage"]
    metrics, _ = tracer.layer_metrics(1, 0, 1.0, 1.0)
    assert set(metrics) == set(tracing.LAYER_METRICS)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_one_command_prints_every_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-sampled", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == 0:
        assert "trials_per_s" in proc.stdout and "fail_ratio" in proc.stdout


def test_benchmark_json_lists_the_layer_metrics_of_the_trace():
    listed = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert listed == tracing.LAYER_METRICS
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-statistic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
