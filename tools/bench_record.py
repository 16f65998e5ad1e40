#!/usr/bin/env python3
"""Record the benchmark's end-to-end medians in a JSON file.

    python3 tools/bench_record.py --runs 3 --seed 0 --out BENCH_<n>.json

Runs `python3 perfbench/run.py --workload all --seed S` K times on this
checkout, one run after the other, and writes the median over the runs of
each end-to-end metric that BENCHMARK.json declares, per workload, with K,
the seed, the commit (and whether the tree differs from it), the Python and
numpy versions, the number of usable CPUs and `src_lines`, the `wc -l` total
of src/tgkit/*.py.  Standard library only; it leaves perfbench/ and
BENCHMARK.json as they are.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def aggregate(result_lines, workloads, metrics):
    """{workload: {metric: median}} over the final JSON lines of `run.py
    --workload all` runs, whose metric keys read "<workload>.<metric>"."""
    runs = [json.loads(line)["metrics"] for line in result_lines]
    return {w: {m: statistics.median(run[f"{w}.{m}"]["value"] for run in runs)
                for m in metrics}
            for w in workloads}


def src_lines(root):
    """Lines of src/tgkit/*.py under root, counted as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (Path(root) / "src" / "tgkit").glob("*.py"))


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", required=True, help="JSON file, relative to the repository root")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, failed = [], 0
    for _ in range(args.runs):
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all",
                               "--seed", str(args.seed)], cwd=ROOT, capture_output=True,
                              text=True, check=True)
        lines.append(proc.stdout.strip().splitlines()[-1])
        failed += json.loads(lines[-1])["failed"]
    record = {
        "runs": args.runs,
        "seed": args.seed,
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(ROOT),
        "failed_ops": failed,
        "medians": aggregate(lines, [w["name"] for w in spec["workloads"]],
                             [m["name"] for m in spec["end_to_end"]]),
    }
    (ROOT / args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
