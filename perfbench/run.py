"""Benchmark command of memflow.

    python3 perfbench/run.py --workload psm-n128 --seed 1 --seconds 10 --trace 0

Runs one workload of ``harness.py`` against the sources in ``src/`` of the
checkout that holds this file.  Prints one line of context (environment,
checks, samples) and, as the last line, a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  End-to-end times are in reference seconds: wall time scaled
by a calibration kernel timed through the run (see ``harness.py``).  The full
result, with the raw wall times, and the spans of a traced run, are written
to ``.perfbench_out/`` in the checkout.  Exits with 2 when the checkout has
no memflow sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "memflow" / "__init__.py").is_file():
        print(f"perfbench: no memflow sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    result = harness.bench(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR / f"work-{os.getpid()}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["per_layer"] if args.trace else result["end_to_end"]
    if result["correct"] and set(values) != {m["name"] for m in listed}:
        print(f"perfbench: metrics {sorted(values)} differ from BENCHMARK.json", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in listed}

    spans = result.pop("spans")
    if spans:
        (OUT_DIR / f"{tag}-spans.json").write_text(json.dumps(spans))
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(result, indent=1))
    context = {k: result[k] for k in ("workload", "env", "failed_frac", "error", "checks", "extra")}
    print(json.dumps(context))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
