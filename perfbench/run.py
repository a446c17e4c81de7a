"""Run one benchmark workload and print its result as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload study --seed 7 --seconds 10 --trace 0

Workloads: ``study``, ``ingest``, ``report`` (batch paths from input to
report) and ``serve`` (a ``repro serve`` process under reads and cold
computes).  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
runs the workload with every layer boundary traced and prints the
per-layer metrics instead.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the full record,
with input sizes and environment, is also written to
``perfbench/out/<workload>-seed<seed>[-trace].json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study", "ingest", "report", "serve")


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    root: str
    #: Scratch space for the run's inputs; removed when the run ends.
    workdir: str
    #: Where results and spans are written.
    outdir: str


def _units() -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fileobj:
        spec = json.load(fileobj)
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {src}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    from perfbench import campus

    outdir = os.path.join(HERE, "out")
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    os.makedirs(workdir)
    ctx = Context(seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), root=ROOT, workdir=workdir,
                  outdir=outdir)
    try:
        if args.workload == "serve":
            from perfbench import serving
            outcome = serving.run(ctx)
        else:
            from perfbench import batch
            outcome = batch.run(args.workload, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run's scratch space is still there

    units = _units()
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in outcome["metrics"].items()}
    result = {"correct": outcome["failed"] == 0,
              "attempted": outcome["attempted"],
              "failed": outcome["failed"], "metrics": metrics}
    record = {**result, "workload": args.workload,
              "seconds": args.seconds, "trace": args.trace,
              "info": outcome["info"],
              "environment": campus.environment(ROOT, args.seed)}
    suffix = "-trace" if args.trace else ""
    with open(os.path.join(outdir, f"{args.workload}-seed{args.seed}"
                                   f"{suffix}.json"), "w") as fileobj:
        json.dump(record, fileobj, indent=2, sort_keys=True)
    print(f"report_sha256 {outcome['info'].get('report_sha256', '-')}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
