#!/usr/bin/env python3
"""Write or compare the census answers of the benchmark's census inputs.

    python3 tools/census_digest.py --seeds 0 1 2 7 13 --out digest.json
    python3 tools/census_digest.py --compare before.json after.json

The first form runs the census op of `perfbench/workloads.py` (search, then
classify each normal) on every algebra that `perfbench/generate.py` makes
for each seed, and writes each op's count, continuum flag, case tags,
isolated normals and continuum components (each as the gram projector
B^T B gram onto the span of its gram-orthonormal rows B).  The second
applies the census rule to two such files: equal counts, flags and tags,
isolated normals within 1e-9, and equal component spans (projectors
within 1e-9); it prints each mismatch and exits 1 if there is one.  A
normal of one file that lies in a component span of the other (P y = y
within 1e-9) is a sample of that component, as the multistart that once
answered for kernel spheres printed them, and is set aside with its tag
before the counts are compared; spans are compared where both files
record components.
Standard library plus numpy; it imports perfbench/ and leaves it as it
is.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
NORMAL_TOL = 1e-9


def digest(seeds):
    """{"seeds": seeds, "ops": [...]}, one entry per census op and seed."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import generate
    import workloads
    tg = workloads.Tgkit()
    census = workloads.Census()
    ops = []
    for seed in seeds:
        for index, item in enumerate(generate.algebras(seed)):
            M = workloads.build_algebra(tg, item)
            res, reports = census.op(tg, (item, M))
            ops.append({"seed": seed, "index": index, "kind": item["kind"],
                        "base": item["base"], "count": len(res),
                        "continuum": bool(res.continuum),
                        "tags": [rep.case_tag.value for rep in reports],
                        "normals": [[float(x) for x in v] for v in res.normals],
                        "components": [(B.T @ B @ M.gram).tolist() for B in res.components]})
    return {"seeds": list(seeds), "ops": ops}


def _isolated(op, projectors):
    """op with the normals (and their tags) that lie in the span of one of
    projectors set aside: samples of a component, not isolated normals."""
    keep = [k for k, y in enumerate(op["normals"])
            if not any(np.abs(np.array(P) @ y - y).max() <= NORMAL_TOL for P in projectors)]
    return dict(op, count=len(keep), normals=[op["normals"][k] for k in keep],
                tags=[op["tags"][k] for k in keep])


def compare(a, b):
    """Mismatch messages between two digests; empty when they agree."""
    if a["seeds"] != b["seeds"] or len(a["ops"]) != len(b["ops"]):
        return [f"different inputs: seeds {a['seeds']} vs {b['seeds']}, "
                f"{len(a['ops'])} vs {len(b['ops'])} ops"]
    out = []
    for x, y in zip(a["ops"], b["ops"]):
        where = f"seed {x['seed']} op {x['index']} ({x['kind']} {x['base']})"
        P, Q = x.get("components", []), y.get("components", [])
        x, y = _isolated(x, Q), _isolated(y, P)
        for key in ("seed", "index", "count", "continuum", "tags"):
            if x[key] != y[key]:
                out.append(f"{where}: {key} {x[key]} vs {y[key]}")
        if x["count"] == y["count"]:
            for k, (u, v) in enumerate(zip(x["normals"], y["normals"])):
                d = max(abs(p - q) for p, q in zip(u, v))
                if not d <= NORMAL_TOL:
                    out.append(f"{where}: normal {k} differs by {d:.3e}")
        # a digest written before components were reported has no such key
        if "components" not in x or "components" not in y:
            continue
        if len(P) != len(Q):
            out.append(f"{where}: components {len(P)} vs {len(Q)}")
        for k, (u, v) in enumerate(zip(P, Q)):
            d = float(np.abs(np.subtract(u, v)).max())
            if not d <= NORMAL_TOL:
                out.append(f"{where}: component {k} span differs by {d:.3e}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--out", help="digest file to write")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="digest files to compare")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        bad = compare(a, b)
        for line in bad:
            print(line)
        print(f"{len(a['ops'])} ops, {len(bad)} mismatches")
        return 1 if bad else 0
    if not args.out:
        ap.error("give --out FILE or --compare A B")
    Path(args.out).write_text(json.dumps(digest(args.seeds), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
