"""Smoke test of ``tools/bitgate.py`` on four cases at n = 16: three Oldroyd-B cases, two from rest, one of
them through the fill-up and the wrap of its history, and one from an explicit history; and the bounded
psm-raw measure from rest."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bitgate.py"


def bitgate(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True)


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("bitgate")
    proc = bitgate("run", out, "--n", "16", "--case", "oldroyd-oracle", "--case", "oldroyd-oracle-n32-explicit",
                   "--case", "oldroyd-oracle-n32", "--case", "taylor-green-psm")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out


def alike_runs(manifest, case):
    """The case's straight run at 1 thread, once its straight and resumed runs at 1 and 2 threads are equal."""
    runs = json.loads((manifest / "manifest.json").read_text())["cases"][case]
    records = [runs[threads][kind] for threads in ("threads1", "threads2") for kind in ("straight", "resumed")]
    for rec in records[1:]:
        assert rec == records[0]
    return records[0]


def test_threads_and_restart_are_byte_identical(manifest):
    reference = alike_runs(manifest, "oldroyd-oracle")
    assert {"diagnostics.csv", "checkpoint/oracle_tau.fld", "snap_000020/g_00005.fld"} <= reference["files"].keys()
    assert len(reference["columns"]["t"]) == 21  # the initial record and 20 steps


def test_explicit_history_is_byte_identical(manifest):
    # every row live from step 0: the runs start from the potentials extracted from a physical identity stack
    reference = alike_runs(manifest, "oldroyd-oracle-n32-explicit")
    assert {"diagnostics.csv", "checkpoint/history.fld", "snap_000060/g_00005.fld"} <= reference["files"].keys()
    assert len(reference["columns"]["t"]) == 61  # the initial record and 60 steps


def test_history_through_fill_up_and_wrap_is_byte_identical(manifest):
    # from rest, N_s = 94 rows fill at step 93 and drop the oldest from then on; the resumed runs start at
    # step 60 with no carried first stage, so carried and recomputed first stages must give the same bits
    reference = alike_runs(manifest, "oldroyd-oracle-n32")
    assert {"diagnostics.csv", "checkpoint/history.fld", "snap_000120/g_00005.fld"} <= reference["files"].keys()
    assert len(reference["columns"]["t"]) == 121  # the initial record and 120 steps


def test_bounded_measure_is_byte_identical(manifest):
    # psm-raw's stress has no isotropic offset, Oldroyd-B's has one; both are written as their 2 x 2 tensor
    reference = alike_runs(manifest, "taylor-green-psm")
    assert {"diagnostics.csv", "checkpoint/history.fld", "snap_000024/tau.fld", "snap_000024/g_00005.fld"} \
        <= reference["files"].keys()
    assert len(reference["columns"]["t"]) == 26  # the initial record and 25 steps


def test_manifest_holds_each_runs_peak_rss(manifest):
    rss = json.loads((manifest / "manifest.json").read_text())["peak_rss_mib"]["oldroyd-oracle"]
    assert rss.keys() == {"threads1", "threads2"}
    for kinds in rss.values():
        assert kinds.keys() == {"straight", "half", "resumed"} and all(v > 0 for v in kinds.values())
    assert "peak RSS" in bitgate("compare", manifest, manifest).stdout


def test_compare_reports_equal_files_and_flags_a_changed_one(manifest, tmp_path):
    proc = bitgate("compare", manifest, manifest)
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "bitgate: 0 files differ; largest relative column gap 0"
    spec = importlib.util.spec_from_file_location("bitgate", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    changed = json.loads((manifest / "manifest.json").read_text())
    changed["cases"]["oldroyd-oracle"]["threads2"]["resumed"]["files"]["diagnostics.csv"] = "0" * 64
    assert tool.check(changed["cases"]) == [
        "oldroyd-oracle: threads2 resumed differs from threads1 straight in ['diagnostics.csv']"]
    changed["cases"]["oldroyd-oracle"]["threads1"]["straight"]["files"]["diagnostics.csv"] = "0" * 64
    columns = changed["cases"]["oldroyd-oracle"]["threads1"]["straight"]["columns"]
    columns["energy"][-1] *= 1.0 + 1e-12  # the largest relative gap, over one at roundoff
    columns["stress_sup"][-1] *= 1.0 + 1e-15
    columns["divu_sup"][-1] += 1.0  # compared in absolute terms: not a relative gap
    (tmp_path / "manifest.json").write_text(json.dumps(changed))
    proc = bitgate("compare", manifest, tmp_path)
    assert proc.returncode == 1 and "DIFFER  diagnostics.csv" in proc.stdout
    assert proc.stdout.splitlines()[-1] == (
        "bitgate: 1 files differ; largest relative column gap 1e-12 (oldroyd-oracle, energy)")
