import configparser
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from memflow.agegrid import build_age_grid
from memflow.cli import main
from memflow.constitutive import INI_MODELS, model_catalog
from memflow.diagnostics import CSV_COLUMNS
from memflow.snapshots import read_checkpoint, write_field
from memflow.spectral import SpectralGrid
from memflow.transport import identity_stack

CONFIG = """
[grid]
n = 32

[flow]
viscosity = 0.1
dt = 0.05
t_final = 0.3

[model]
name = {model}

[history]
eps_tail = 1e-4

[output]
directory = {outdir}
"""


def write_cfg(tmp_path, model="psm-raw", outdir=""):
    p = tmp_path / "sim.ini"
    p.write_text(CONFIG.format(model=model, outdir=outdir))
    return str(p)


class TestRunCommand:
    def test_run_ok(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", write_cfg(tmp_path, outdir=str(out))])
        assert code == 0
        assert (out / "diagnostics.csv").exists()
        assert "completed" in capsys.readouterr().out

    def test_history_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", write_cfg(tmp_path, outdir=str(out))]) == 0
        ages = build_age_grid(model_catalog("psm-raw")[0], 0.05, 1e-4)
        line = (f"history: N_s={ages.n_nodes}  s_max={ages.s_max:.6g}  tail_error={ages.tail_error:.4e}  "
                "rows stepped in last step=6")  # 6 steps from rest: 6 older rows; the newborn is set, not stepped
        assert line in capsys.readouterr().out.splitlines()
        assert not re.search("N_s|rows stepped", (out / "diagnostics.csv").read_text())

    def test_substeps_line(self, tmp_path, capsys, monkeypatch):
        from memflow import simulation

        inner, returns = simulation.advance_flow, []

        def counting(*args, **kwargs):
            returns.append(inner(*args, **kwargs))
            return returns[-1]

        monkeypatch.setattr(simulation, "advance_flow", counting)
        assert main(["run", write_cfg(tmp_path)]) == 0
        assert len(returns) == 6 and f"flow: substeps={sum(returns)}" in capsys.readouterr().out.splitlines()

    def test_history_slice_past_age_grid_exit_one(self, tmp_path, capsys):
        n_s = build_age_grid(model_catalog("psm-raw")[0], 0.05, 1e-4).n_nodes
        out = tmp_path / "out"
        p = tmp_path / "slices.ini"
        p.write_text(CONFIG.format(model="psm-raw", outdir=out) + f"snapshot_every = 1\nhistory_slices = 0, {n_s}\n")
        assert main(["run", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: output.history_slices [{n_s}] outside 0 .. {n_s - 1}") and "N_s" in err
        assert not out.exists()

    def test_bad_config_exit_one(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[grid]\nn = 48\n[flow]\nviscosity=1\ndt=0.1\nt_final=1\n[model]\nname=psm-raw\n")
        assert main(["run", str(p)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("flow.dt", "nan"), ("flow.t_final", "inf"), ("history.memory_cap_mb", "nan"), ("history.memory_cap_mb", "inf"),
        ("model.lam", "0"), ("model.lam", "nan"), ("model.alpha", "0"), ("flow.viscosity", "nan"),
        ("velocity.amplitude", "nan"), ("model.mu_p", "nan"), ("diagnostics.det_tol", "nan"),
        ("diagnostics.stress_tol", "nan"),
    ])
    def test_unrunnable_number_exit_one(self, tmp_path, capsys, key, value):
        # a number no run can use is refused before anything is written: not a traceback, exit 2 or a dead check
        out = tmp_path / "out"
        parser = configparser.ConfigParser()
        parser.read_string(CONFIG.format(model="psm-raw" if key == "model.alpha" else "oldroyd-b", outdir=out))
        section, name = key.split(".")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, name, value)
        p = tmp_path / "unrunnable.ini"
        with open(p, "w") as fh:
            parser.write(fh)
        assert main(["run", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert not out.exists()

    def test_restart_flag(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", write_cfg(tmp_path, outdir=str(out))]) == 0
        code = main(["run", write_cfg(tmp_path, outdir=str(tmp_path / "out2")), "--restart", str(out / "checkpoint")])
        assert code == 0

    @pytest.mark.parametrize("case", ["other-grid", "corrupt-meta", "missing", "past-t-final", "four-field",
                                      "two-component-velocity", "csv-other-header", "csv-garbage-row", "csv-nan-t",
                                      "csv-text-y-integrand", "other-model", "other-viscosity", "no-physics"])
    def test_bad_restart_exit_one(self, tmp_path, capsys, case):
        out = tmp_path / "out"
        assert main(["run", write_cfg(tmp_path, outdir=str(out))]) == 0
        checkpoint = out / "checkpoint"
        cfg = write_cfg(tmp_path)
        csv = out / "diagnostics.csv"
        if case.startswith("csv-"):  # a restart into the run's directory continues its diagnostics.csv
            cfg = write_cfg(tmp_path, outdir=str(out))
            lines = csv.read_text().splitlines(keepends=True)
            cols = lines[3].split(",")
            if case == "csv-other-header":
                lines[0] = lines[0].replace("y_integrand", "y")
            elif case == "csv-garbage-row":
                lines[3] = "garbage\n"
            else:
                column, value = ("t", "nan") if case == "csv-nan-t" else ("y_integrand", "x")
                cols[CSV_COLUMNS.index(column)] = value
                lines[3] = ",".join(cols)
            csv.write_text("".join(lines))
            written = csv.read_bytes()
        elif case in ("other-model", "other-viscosity"):  # into the run's directory: refused before it is touched
            text = CONFIG.format(model="psm-raw", outdir=out)
            cfg = tmp_path / "other.ini"
            cfg.write_text(text.replace("psm-raw", "oldroyd-b") if case == "other-model"
                           else text.replace("viscosity = 0.1", "viscosity = 0.2"))
            written = csv.read_bytes()
        elif case == "no-physics":  # written before checkpoints recorded their physics
            meta = json.loads((checkpoint / "meta.json").read_text())
            del meta["physics"]
            (checkpoint / "meta.json").write_text(json.dumps(meta))
        elif case == "other-grid":  # an n = 32 checkpoint under an n = 64 config
            cfg = tmp_path / "n64.ini"
            cfg.write_text(CONFIG.format(model="psm-raw", outdir="").replace("n = 32", "n = 64"))
        elif case == "past-t-final":  # a checkpoint at step 6 under a 2-step config
            cfg = tmp_path / "short.ini"
            cfg.write_text(CONFIG.format(model="psm-raw", outdir="").replace("t_final = 0.3", "t_final = 0.1"))
        elif case == "corrupt-meta":
            (checkpoint / "meta.json").write_text('{"step": ')
        elif case == "four-field":  # an older layout: each row as the band spectra of its four components
            chk = read_checkpoint(checkpoint)
            psi = chk["history"][: chk["live"]]
            write_field(checkpoint / "history.fld", SpectralGrid(32).curl_hat(psi), n_s=chk["live"])
        elif case == "two-component-velocity":  # an older layout: the velocity as the band spectra of its components
            write_field(checkpoint / "u.fld", SpectralGrid(32).curl_hat(read_checkpoint(checkpoint)["u"]))
        else:
            checkpoint = tmp_path / "nowhere"
        capsys.readouterr()
        assert main(["run", str(cfg), "--restart", str(checkpoint)]) == 1
        err = capsys.readouterr().err
        if case.startswith("csv-"):
            line = {"csv-other-header": f"line 1 is not the header {','.join(CSV_COLUMNS)!r}",
                    "csv-garbage-row": f"line 4 has 1 columns, not {len(CSV_COLUMNS)}"}.get(
                        case, "line 4 has a t or y_integrand that does not parse")
            assert err == f"config error: cannot continue {csv}: {line}\n"
            assert csv.read_bytes() == written  # refused before the file is touched
        else:
            assert f"config error: cannot restart from {checkpoint}: " in err
        if case == "two-component-velocity":
            assert "velocity must be the band spectrum" in err
        if case in ("other-model", "other-viscosity"):
            differs = "model.name = 'psm-raw', not 'oldroyd-b'" if case == "other-model" else "flow.viscosity = 0.1, not 0.2"
            assert err.endswith(f": it was written under {differs}\n")
            assert csv.read_bytes() == written
        if case == "no-physics":
            assert 'no "physics" in meta.json' in err

    def test_degenerate_initial_history_exit_one(self, tmp_path, capsys):
        # an unusable initial history used to end in a traceback, not in exit code 1
        n_s = build_age_grid(model_catalog("psm-raw")[0], 0.05, 1e-4).n_nodes
        path = tmp_path / "history.fld"
        write_field(path, 0.5 * identity_stack(n_s, 32), n_s=n_s)  # det G = 0.25, below mu_min = 1
        p = tmp_path / "degenerate.ini"
        p.write_text(CONFIG.format(model="psm-raw", outdir="").replace("[history]\n", f"[history]\ninitial = snapshot:{path}\n"))
        capsys.readouterr()
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err.startswith("config error: cannot build the initial state: ")

    def test_memory_cap_too_small_exit_one(self, tmp_path, capsys):
        p = tmp_path / "capped.ini"
        capped = CONFIG.format(model="psm-raw", outdir="").replace("[history]\n", "[history]\nmemory_cap_mb = 1\n")
        p.write_text(capped)
        assert main(["run", str(p)]) == 1
        assert "config error: history too long" in capsys.readouterr().err


NO_SCIPY = """
import sys
from dataclasses import replace

import memflow.cli  # noqa: F401 (the CLI's import graph)
from memflow.config import parse_config
from memflow.convergence import coupled_self_convergence
from memflow.simulation import run
from memflow.verification import run_verification

cfg = replace(parse_config(sys.argv[1]), n=16, t_final=0.12, output_dir="")
assert run(cfg).ok
assert run_verification().passed
coupled_self_convergence(cfg, 2)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_run_verify_and_converge_load_no_scipy():
    # scipy serves only the homogeneous-shear quadrature references, which no command reaches
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, str(root / "configs" / "taylor-green-psm.ini")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


class TestVerifyCommand:
    def test_verify_passes_catalog(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()

        def passed(kind, name):
            return any(re.match(rf"{kind:<8}{re.escape(name)}\s+PASS\b", line) for line in lines)

        # every check has its PASS line, so a check that is dropped fails here
        for check in ("cauchy-schwarz", "inner-product", "am-gm norm bound"):
            assert passed("tensor", check), check
        for name in INI_MODELS:
            assert passed("kernel", name) and passed("measure", name), name
        assert "oldroyd-b" in out and "h2_satisfied=false" in out
        assert "FAIL" not in out
        assert lines[-1] == "verify: PASS"

    def test_bad_thread_count_exit_one(self):
        # MEMFLOW_THREADS is read when the command starts, not when memflow is imported
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, MEMFLOW_THREADS="abc",
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-m", "memflow.cli", "verify"], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 1
        assert done.stderr == "config error: MEMFLOW_THREADS must be an integer, got 'abc'\n"
        assert done.stdout == ""

    def test_zero_thread_count_exit_one(self):
        # a count below 1 is refused, not run with 1 worker
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, MEMFLOW_THREADS="0",
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-m", "memflow.cli", "verify"], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 1
        assert done.stderr == "config error: MEMFLOW_THREADS must be a positive integer, got 0\n"
        assert done.stdout == ""

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_flag_below_one_exit_one(self, capsys, threads):
        assert main(["--threads", threads, "verify"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: --threads must be a positive integer, got {threads}\n"
        assert captured.out == ""


class TestOracleCommand:
    def test_oracle_gap_reported(self, tmp_path, capsys):
        code = main(["oracle", write_cfg(tmp_path, model="oldroyd-b"), "--tol", "0.05"])
        assert code == 0
        assert "oracle gap" in capsys.readouterr().out

    def test_oracle_requires_oldroyd(self, tmp_path, capsys):
        assert main(["oracle", write_cfg(tmp_path, model="psm-raw")]) == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tol_not_positive_finite_exit_one(self, tmp_path, capsys, tol):
        # a NaN or infinite tolerance would pass every gap, a negative one fail every gap
        assert main(["oracle", write_cfg(tmp_path, model="oldroyd-b"), "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: --tol must be a positive finite number, got {float(tol)}\n"
        assert captured.out == ""

    def test_nan_gap_fails(self, tmp_path, capsys, monkeypatch):
        from memflow import cli

        inner = cli.run

        def nan_gap(*args, **kwargs):
            result = inner(*args, **kwargs)
            result.oracle_gap = float("nan")
            return result

        monkeypatch.setattr(cli, "run", nan_gap)
        assert main(["oracle", write_cfg(tmp_path, model="oldroyd-b"), "--tol", "0.05"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "oracle: gap not within tolerance 5.0e-02"


class TestConvergeCommand:
    def test_converge_writes_table(self, tmp_path, capsys):
        out_csv = tmp_path / "levels.csv"
        code = main(["converge", write_cfg(tmp_path), "--levels", "2", "--out", str(out_csv)])
        assert code == 0
        assert out_csv.exists()
        assert "order[" in capsys.readouterr().out

    def test_fewer_than_two_levels_exit_one(self, tmp_path, capsys):
        assert main(["converge", write_cfg(tmp_path), "--levels", "1"]) == 1
        assert capsys.readouterr().err == "config error: need at least two refinement levels, got 1\n"

    def test_failed_level_exit_code(self, tmp_path, capsys):
        p = tmp_path / "fatal.ini"
        p.write_text(CONFIG.format(model="oldroyd-b", outdir="").replace("n = 32", "n = 16")
                     + "\n[diagnostics]\nfatal_on_violation = true\ndet_tol = 1e-30\n")
        assert main(["run", str(p)]) == 3
        capsys.readouterr()
        assert main(["converge", str(p), "--levels", "2"]) == 3
        assert re.match(r"converge: level 0 failed: bounds violated at t = .* \(exit 3\)$", capsys.readouterr().out)
