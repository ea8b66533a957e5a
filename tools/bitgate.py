"""Bit gate: run a fixed matrix of simulations and record the bits of every output.

    python tools/bitgate.py run OUT [--checkout DIR] [--n N] [--case NAME ...]
    python tools/bitgate.py compare A B

``run`` runs the matrix with the sources in ``DIR/src`` (default: the
checkout that holds this file), each run in a fresh process through
``python -m memflow.cli``, and writes ``OUT/manifest.json``: for every run
the sha256 of each output file and the column values of its
``diagnostics.csv``, and under ``peak_rss_mib`` the peak RSS of every run's
process (``ru_maxrss`` from ``os.wait4``).  The matrix (:data:`CASES`)
takes both bundled configs with ``snapshot_every = 4`` and
``history_slices = 0, 3, 5``, plus
``oldroyd-oracle.ini`` at n = 32 and ``eps_tail = 1e-2`` (N_s = 94) twice:
from rest to ``t_final = 6``, so the history fills up, and to
``t_final = 3`` from an explicit identity stack of N_s rows, written by the
checkout's own sources, so every row is live from step 0 and the first
passes transform its extracted rows.  Each case runs straight and resumed
from the final checkpoint of a run to its middle step, at 1 and at 2 FFT
threads.  ``run`` exits 1 if a run fails, or if a case's files differ
between 1 and 2 threads or between its straight and resumed runs.  ``--n``
sets every case's grid size, for a quick check; ``--case`` runs only the
named cases.

``compare A B`` reads the manifests of two ``OUT`` directories and prints,
for each case, the byte equality of each file and the largest relative
difference of each ``diagnostics.csv`` column; ``divu_sup``, a
roundoff-level quantity, is compared in absolute terms.  It also prints each
case's largest peak RSS on either side, for information only: RSS depends on
the machine, so it never fails the gate.  Its last line counts the files
that differ and gives the largest relative column gap over all cases, with
its case and column.  It exits 1 if any file differs.
To compare against another commit, check it out locally (``git worktree
add`` or ``git archive``) and run the matrix there with ``--checkout``.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = {"snapshot_every": "4", "history_slices": "0, 3, 5"}
# name -> (bundled config, {section: {key: value}} set on top of it)
CASES = {
    "taylor-green-psm": ("taylor-green-psm.ini", {"output": OUTPUT}),
    "oldroyd-oracle": ("oldroyd-oracle.ini", {"output": OUTPUT}),
    "oldroyd-oracle-n32": ("oldroyd-oracle.ini", {
        "grid": {"n": "32"}, "history": {"eps_tail": "1e-2"}, "flow": {"t_final": "6"}, "output": OUTPUT,
    }),
    "oldroyd-oracle-n32-explicit": ("oldroyd-oracle.ini", {
        "grid": {"n": "32"}, "history": {"eps_tail": "1e-2"}, "flow": {"t_final": "3"}, "output": OUTPUT,
    }),
}
# cases started from an explicit identity stack of N_s rows, so that every row is live from step 0
EXPLICIT = {"oldroyd-oracle-n32-explicit"}
# writes that stack for the config argv[1] into argv[2], run on the checkout's own sources
IDENTITY_STACK = """
import sys
from memflow.agegrid import build_age_grid
from memflow.config import parse_config
from memflow.constitutive import model_catalog
from memflow.snapshots import write_field
from memflow.transport import identity_stack

cfg = parse_config(sys.argv[1])
n_s = build_age_grid(model_catalog(cfg.model_name, **cfg.model_params)[0], cfg.dt, cfg.eps_tail).n_nodes
write_field(sys.argv[2], identity_stack(n_s, cfg.n), n_s=n_s)
"""
THREADS = (1, 2)
ABSOLUTE = {"divu_sup"}  # columns compared in absolute terms
TEXT = {"flags"}  # columns compared as strings


def write_config(case: str, path: Path, output_dir: Path, n: int | None, steps: int | None = None,
                 history: Path | None = None):
    """The case's INI at ``path``, writing into ``output_dir``; ``steps`` cuts
    ``t_final`` to that many steps, and ``history`` is a snapshot file to
    start from.  Returns the case's step count."""
    bundled, overrides = CASES[case]
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(ROOT / "configs" / bundled)
    for section, values in overrides.items():
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section].update(values)
    if n is not None:
        parser["grid"]["n"] = str(n)
    parser["output"]["directory"] = str(output_dir)
    if history is not None:
        parser["history"]["initial"] = f"snapshot:{history}"
    dt = float(parser["flow"]["dt"])
    n_steps = round(float(parser["flow"]["t_final"]) / dt)
    if steps is not None:
        parser["flow"]["t_final"] = repr(steps * dt)
    with open(path, "w") as fh:
        parser.write(fh)
    return n_steps


def python(checkout: Path, *args) -> float:
    """``python *args`` on the sources of ``checkout``: the child's peak RSS in
    MiB, from ``os.wait4``; ``RuntimeError``, with its output, if it exits non-zero."""
    proc = subprocess.Popen([sys.executable, *map(str, args)], env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    with proc.stdout:
        output = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, for its resource usage
    if proc.returncode:
        raise RuntimeError(f"python {' '.join(map(str, args))} exited {proc.returncode}:\n{output}")
    return usage.ru_maxrss / 1024.0  # KiB on Linux


def run_memflow(checkout: Path, threads: int, *args) -> float:
    """``memflow run *args`` on the sources of ``checkout`` at ``threads`` FFT
    threads: its peak RSS in MiB."""
    return python(checkout, "-m", "memflow.cli", "--threads", threads, "run", *args)


def record(directory: Path) -> dict:
    """The sha256 of each file under ``directory`` and the columns of its ``diagnostics.csv``."""
    files = {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }
    with open(directory / "diagnostics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    columns = {name: [v if name in TEXT else float(v) for v in values] for name, *values in zip(*rows)}
    return {"files": files, "columns": columns}


def run_case(checkout: Path, out: Path, case: str, threads: int, n: int | None) -> tuple[dict, dict]:
    """A case's straight and resumed runs at ``threads`` threads, in ``out``,
    and the peak RSS in MiB of its straight, half and resumed runs."""
    base = out / case / f"threads{threads}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    straight, half, resumed = (base / name for name in ("straight", "half", "resumed"))
    history = base / "identity.fld" if case in EXPLICIT else None
    n_steps = write_config(case, base / "straight.ini", straight, n, history=history)
    write_config(case, base / "half.ini", half, n, steps=n_steps // 2, history=history)
    write_config(case, base / "resumed.ini", resumed, n, history=history)
    if history is not None:  # in the checkout's own file format
        python(checkout, "-c", IDENTITY_STACK, base / "straight.ini", history)
    rss = {"straight": run_memflow(checkout, threads, base / "straight.ini"),
           "half": run_memflow(checkout, threads, base / "half.ini")}
    shutil.copytree(half, resumed)  # the diagnostics and snapshots a resumed run continues
    rss["resumed"] = run_memflow(checkout, threads, base / "resumed.ini", "--restart", half / "checkpoint")
    return {"straight": record(straight), "resumed": record(resumed)}, rss


def check(cases: dict) -> list[str]:
    """The runs of each case whose files differ from its straight run at 1 thread."""
    faults = []
    for case, runs in cases.items():
        reference = runs["threads1"]["straight"]["files"]
        for threads, kinds in runs.items():
            for kind, rec in kinds.items():
                if rec["files"] != reference:
                    differ = sorted(k for k in reference.keys() | rec["files"].keys()
                                    if reference.get(k) != rec["files"].get(k))
                    faults.append(f"{case}: {threads} {kind} differs from threads1 straight in {differ}")
    return faults


def cmd_run(args) -> int:
    out, checkout = Path(args.out).resolve(), Path(args.checkout).resolve()
    out.mkdir(parents=True, exist_ok=True)
    start, cases, rss = time.perf_counter(), {}, {}
    for case in args.case or CASES:
        cases[case], rss[case] = {}, {}
        for threads in THREADS:
            try:
                cases[case][f"threads{threads}"], rss[case][f"threads{threads}"] = run_case(
                    checkout, out, case, threads, args.n)
            except RuntimeError as exc:
                print(f"bitgate: {case} at {threads} threads: {exc}", file=sys.stderr)
                return 1
    seconds = time.perf_counter() - start
    manifest = {"checkout": str(checkout), "n": args.n, "seconds": round(seconds, 1), "cases": cases,
                "peak_rss_mib": rss}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    faults = check(cases)
    for fault in faults:
        print(f"bitgate: {fault}", file=sys.stderr)
    print(f"bitgate: {len(cases)} cases, {len(cases) * len(THREADS) * 3} runs in {seconds:.1f} s; "
          f"1 vs 2 threads and straight vs resumed {'differ' if faults else 'byte-identical'}")
    return 1 if faults else 0


def column_gap(name: str, a: list, b: list) -> tuple[str, float | None]:
    """The largest difference between two runs' values of column ``name``,
    as text and as the relative gap (None for the other kinds): each row's
    relative to the larger magnitude, absolute for ``ABSOLUTE`` columns,
    equality for ``TEXT`` ones."""
    if len(a) != len(b):
        return f"{len(a)} rows vs {len(b)}", None
    if name in TEXT:
        return "equal" if a == b else "differ", None
    if name in ABSOLUTE:
        return f"abs {max((abs(x - y) for x, y in zip(a, b)), default=0.0):.3g}", None
    gap = 0.0
    for x, y in zip(a, b):
        if x != y:
            scale = max(abs(x), abs(y))
            gap = max(gap, abs(x - y) / scale if scale and math.isfinite(scale) else math.inf)
    return f"rel {gap:.3g}", gap


def cmd_compare(args) -> int:
    a, b = (json.loads((Path(out) / "manifest.json").read_text()) for out in (args.a, args.b))
    differ, largest = 0, (0.0, "")
    for case in [case for case in a["cases"] if case in b["cases"]]:
        # run asserts each case's runs alike, so its straight run at 1 thread stands for them
        ra, rb = (m["cases"][case]["threads1"]["straight"] for m in (a, b))
        print(f"== {case}")
        peaks = [max((v for kinds in m.get("peak_rss_mib", {}).get(case, {}).values() for v in kinds.values()),
                     default=math.nan) for m in (a, b)]
        print(f"  peak RSS {peaks[0]:.1f} MiB vs {peaks[1]:.1f} MiB (largest run; informational)")
        for name in sorted(ra["files"].keys() | rb["files"].keys()):
            same = ra["files"].get(name) == rb["files"].get(name)
            differ += not same
            print(f"  {'equal ' if same else 'DIFFER'}  {name}")
        for name in [name for name in ra["columns"] if name in rb["columns"]]:
            text, gap = column_gap(name, ra["columns"][name], rb["columns"][name])
            print(f"  column {name:<16} {text}")
            if gap is not None and gap > largest[0]:
                largest = (gap, f" ({case}, {name})")
    print(f"bitgate: {differ} files differ; largest relative column gap {largest[0]:.3g}{largest[1]}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the matrix and write OUT/manifest.json")
    p.add_argument("out")
    p.add_argument("--checkout", default=str(ROOT), help="checkout whose src/ to run (default: this one)")
    p.add_argument("--n", type=int, default=None, help="grid size of every case")
    p.add_argument("--case", action="append", choices=sorted(CASES), help="run only this case (repeatable)")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare", help="compare two manifests")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
