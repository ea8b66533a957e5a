"""Smoke test of the benchmark: every workload at a tiny size, few steps.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECKS = {"completed", "no_flags", "deterministic", "exact_counters"}


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_traced_run_reports_every_metric(workload, tmp_path):
    res = harness.bench(workload, seed=3, seconds=0.0, trace=True, work=tmp_path / "work", tiny=True)
    assert res["error"] is None
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 3
    assert set(res["end_to_end"]) == _names("end_to_end")
    assert set(res["per_layer"]) == _names("per_layer")
    assert all(isinstance(v, (int, float)) for v in res["end_to_end"].values())
    assert all(isinstance(v, (int, float)) for v in res["per_layer"].values())
    expected = CHECKS | ({"oracle_gap", "restart_matches_straight"} if workload.startswith("oracle") else set())
    assert set(res["checks"]) == expected
    # the first call has nothing to repeat; the oracle call also compares its half run to its straight run
    compared_from_call_2 = {"exact_counters"} | (set() if workload.startswith("oracle") else {"deterministic"})
    assert {name: runs for name, (runs, _) in res["checks"].items()} == {
        name: 2 if name in compared_from_call_2 else 3 for name in expected
    }
    assert all(failures == 0 for _, failures in res["checks"].values())
    layers = res["per_layer"]
    # counts, not seed values: a fused history pass is meant to lower them
    assert layers["spectral.fft2d_per_slice_step"] > 0 and layers["simulation.stack_passes_per_step"] > 0
    assert (layers["snapshots.bytes_written"] > 0) == workload.startswith("oracle")
    assert res["spans"] and not (tmp_path / "work").exists()


def test_reference_seconds_cut_out_calibration_and_follow_kernel_speed():
    clock = harness.StepClock()
    ref_s = harness.CAL_REF_S
    # (start, end, kernel seconds): calibrated, a bare mark, calibrated; 10 s of program time between marks
    clock.marks = [(0.0, 1.0, 2 * ref_s), (11.0, 11.0, None), (21.0, 23.0, ref_s), (33.0, 34.0, ref_s)]
    wall, ref = clock.timelines()
    assert wall == [0.0, 10.0, 20.0, 30.0]
    # the first two stretches lie between the samples 2 * ref_s and ref_s, the last between ref_s and ref_s
    assert ref == pytest.approx([0.0, 10 / 1.5, 20 / 1.5, 20 / 1.5 + 10])


def test_broken_determinism_is_counted_as_failure(tmp_path, monkeypatch):
    real_run = harness.sim.run
    calls = []

    def drifting_run(cfg, restart_from=None, progress=None):
        res = real_run(cfg, restart_from=restart_from, progress=progress)
        calls.append(cfg)
        res.records[-1].energy *= 1.0 + 1e-12 * len(calls)  # differs from call to call
        return res

    monkeypatch.setattr(harness.sim, "run", drifting_run)
    res = harness.bench("psm-n128", seed=0, seconds=0.0, trace=False, work=tmp_path / "work", tiny=True)
    assert not res["correct"]
    assert res["attempted"] == 2 and res["failed"] == 1
    assert res["checks"]["deterministic"] == [1, 1]


def test_command_prints_the_contract_line(tmp_path, monkeypatch, capsys):
    import run

    monkeypatch.setattr(harness, "bench", functools.partial(harness.bench, tiny=True))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        args = ["--workload", "shortmem-n256", "--seed", "5", "--seconds", "0", "--trace", str(trace)]
        assert run.main(args) == 0
        last = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2
        assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    assert (tmp_path / "shortmem-n256-seed5-trace1-spans.json").is_file()


def test_command_refuses_a_checkout_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "harness.py", "tracing.py"):
        (tmp_path / "perfbench" / f).write_text((HERE / f).read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "psm-n128", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""
