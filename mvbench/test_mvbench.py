"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest -q mvbench

They show that the oracles are not vacuous (a deliberately wrong expected
answer makes ops fail), that op times are scaled by the speed probe, that a
short run emits every metric BENCHMARK.json names with its unit, that exact
counts repeat between traced runs, and that the benchmark refuses to run
without the package source.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from mvpolytopes import lusztig, polytope, rep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# per-layer metrics that are times, or ratios of times, and so vary run to run
TIMED = (".self_s", ".share", ".setup_s", "trace.overhead_frac")


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "mvbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@functools.lru_cache(maxsize=None)
def short_run(workload: str, trace: int, repeat: int = 0):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def _plus_one(fn):
    return lambda *args: fn(*args) + 1


CORRUPTIONS = [
    # (workload, owner, attribute, corruption, ops to run)
    ("assemble", lusztig, "transport", lambda f: lambda *a: tuple(v + 1 for v in f(*a)), 10),
    ("multiplicity", rep, "kostant_weight_mult", _plus_one, 200),
    ("multiplicity", rep, "steinberg_tensor_mult", _plus_one, 200),
    (
        "catalog",
        workloads,
        "CATALOG_COUNTS",
        lambda counts: {key: (c[0] + 1,) + c[1:] for key, c in counts.items()},
        2,
    ),
    ("catalog", polytope, "scale", lambda f: lambda g, d, c: f(g, d, c + 1), 4),
]


@pytest.mark.parametrize(
    "workload, owner, name, corrupt, count",
    CORRUPTIONS,
    ids=[f"{c[0]}-{c[2]}" for c in CORRUPTIONS],
)
def test_wrong_expected_answer_counts_as_failed(monkeypatch, workload, owner, name, corrupt, count):
    ops = workloads.WORKLOADS[workload].build(1, workloads.shared_group)
    monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
    durations, _, failures, _ = run.run_ops(ops, 1, None, count)
    assert len(durations) == count
    assert len(failures) / len(durations) > 0


def test_op_times_are_scaled_by_the_speed_probe(monkeypatch):
    ops = workloads.WORKLOADS["multiplicity"].build(1, workloads.shared_group)
    # a machine at half the reference speed: every probe takes twice as long
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.PROBE_NOMINAL_S)
    durations, reference, failures, _ = run.run_ops(ops, 1, None, 40)
    assert not failures
    assert reference == pytest.approx([d / 2 for d in durations])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_metric_with_its_unit(workload, trace, section):
    stdout, result = short_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert "kernels.share" in stdout.split("numba-deletion gate input", 1)[1].splitlines()[0]
    else:
        assert "failed_frac" in stdout and "# env " in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = short_run(workload, 1)[1]["metrics"]
    second = short_run(workload, 1, repeat=1)[1]["metrics"]
    exact = [name for name in first if not name.endswith(TIMED)]
    assert exact
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "mvbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
