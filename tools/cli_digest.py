#!/usr/bin/env python3
"""Write or compare the exit codes and printed bytes of a fixed set of argvs.

    python3 tools/cli_digest.py --out digest.json
    python3 tools/cli_digest.py --compare before.json after.json

The first form runs `tgkit.cli.run` in-process, from this checkout's src/,
on every subcommand over the catalog entries and on `--algebra` files that
a seeded numpy generator writes (rotated and SPD-gram sl2, sl2 + R,
nonhomo, aff(1) + aff(1), H3, H2 + R, H3 + R, su(2) + R, sl2 x| R^2,
aff(1) + sl2, Bianchi IV, sl2 + sl2 and su(2) + sl2, abelian:3 with an
SPD gram, and sl2 + R^2 in a general basis: search, then frenet and
classify on each normal and each kernel-sphere basis row the search
prints, and tg-check on a generic subspace; the same on rotated
sl2(1e3, 2e3), on sl2(1e200, 1e200), on sl2(1e-4, 40) and on
sl2(1e-3, 1e3)), and writes
each argv's exit code, stdout and stderr.  An argv
names an algebra file by its generator label, so digests of two checkouts
compare.  The second form lists every argv whose record differs or that
only one digest has, then, per subcommand, each differing field path with
its number of argvs (for example `classify .residuals.codazzi_residual
601`), and exits 1 if there is a difference.  Standard library plus numpy.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)


def _table(n, entries):
    """Antisymmetric structure constants from {(i, j, k): c_ij^k}."""
    c = np.zeros((n, n, n))
    for (i, j, k), v in entries.items():
        c[i, j, k] += v
        c[j, i, k] -= v
    return c


def _sl2(a, b, n=3):
    return _table(n, {(0, 1, 2): 2 * a, (0, 2, 0): 2 * b, (0, 2, 1): -2 * a,
                      (1, 2, 1): -2 * b})


BASES = {
    "sl2": lambda rng: _sl2(*rng.uniform(0.5, 2.0, 2)),
    "sl2+R": lambda rng: _sl2(*rng.uniform(0.5, 2.0, 2), n=4),
    "nonhomo": lambda rng: _table(4, {(0, 1, 1): 1.0, (0, 1, 2): 1.0, (0, 2, 1): -1.0,
                                      (0, 2, 2): 1.0, (0, 3, 3): 2.0}),
    "aff1+aff1": lambda rng: _table(4, {(0, 1, 1): 1.0, (2, 3, 3): 1.0}),
    "H3": lambda rng: _table(3, {(0, 1, 1): 1.0, (0, 2, 2): 1.0}),
    "H2+R": lambda rng: _table(3, {(0, 1, 1): 1.0}),
    "H3+R": lambda rng: _table(4, {(0, 1, 1): 1.0, (0, 2, 2): 1.0}),
    "su2+R": lambda rng: _table(4, dict(zip([(1, 2, 0), (2, 0, 1), (0, 1, 2)],
                                            rng.uniform(0.5, 2.0, 3)))),
    # h, e, f and the standard representation on span(x, y)
    "sl2xR2": lambda rng: _table(5, {(0, 1, 1): 2.0, (0, 2, 2): -2.0, (1, 2, 0): 1.0,
                                     (0, 3, 3): 1.0, (0, 4, 4): -1.0, (1, 4, 3): 1.0,
                                     (2, 3, 4): 1.0}),
    "aff1+sl2": lambda rng: _table(5, {(0, 1, 1): 1.0}) + np.pad(
        _sl2(*rng.uniform(0.5, 2.0, 2)), ((2, 0), (2, 0), (2, 0))),
    "bianchi4": lambda rng: _table(3, {(0, 1, 1): 1.0, (0, 2, 1): 1.0, (0, 2, 2): 1.0}),
    # two simple ideals: the search splits them through the centroid
    "sl2+sl2": lambda rng: _sl2(*rng.uniform(0.5, 2.0, 2), n=6)
    + np.pad(_sl2(*rng.uniform(0.5, 2.0, 2)), ((3, 0),) * 3),
    "su2+sl2": lambda rng: _table(6, dict(zip([(1, 2, 0), (2, 0, 1), (0, 1, 2)],
                                              rng.uniform(0.5, 2.0, 3))))
    + np.pad(_sl2(*rng.uniform(0.5, 2.0, 2)), ((3, 0),) * 3),
}


def _orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _rotated(c, rng):
    """c in a random orthonormal basis, antisymmetrized."""
    Q = _orthogonal(rng, c.shape[0])
    c = np.einsum('ia,jb,kd,ijk->abd', Q, Q, Q, c)
    return 0.5 * (c - c.transpose(1, 0, 2))


def _file(label, c, gram, rng):
    """(label, algebra file object, generic subspace text drawn from rng)."""
    n = c.shape[0]
    data = {"dim": n, "brackets": [{"i": i, "j": j, "coeffs": c[i, j].tolist()}
                                   for i in range(n) for j in range(i + 1, n)]}
    if gram is not None:
        data["gram"] = gram
    return label, data, ";".join(_vec(v) for v in rng.standard_normal((2, n)))


def _spd(rng, n):
    A = rng.standard_normal((n, n))
    gram = A @ A.T + 0.5 * np.eye(n)
    return (0.5 * (gram + gram.T)).tolist()


def algebra_files(seeds=SEEDS):
    """[(label, algebra file object, generic subspace text)]: each base in
    a random orthonormal basis with identity gram ('rot') and in its own
    basis with a random SPD gram ('spd'), per seed; then abelian:3 with an
    SPD gram, whose search prints a kernel sphere, so that classify runs on
    its basis rows under a dense frame; then sl2 + R^2 in a general
    basis B with the gram B^T B, whose geodesic normals see a nonzero
    curvature operator under a dense frame."""
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for base, make in BASES.items():
            for variant in ("rot", "spd"):
                c = make(rng)
                gram = None
                if variant == "rot":
                    c = _rotated(c, rng)
                else:
                    gram = _spd(rng, c.shape[0])
                out.append(_file(f"{base}-{variant}-{seed}.json", c, gram, rng))
    rng = np.random.default_rng(0)
    out.append(_file("abelian3-spd.json", np.zeros((3, 3, 3)), _spd(rng, 3), rng))
    rng = np.random.default_rng(1)
    B = _orthogonal(rng, 5) @ np.diag(rng.uniform(0.5, 2.0, 5)) @ _orthogonal(rng, 5)
    # the table in the basis f_a = B_ia e_i of an orthonormal basis e; gram B^T B
    c = np.einsum('ia,jb,ijk,dk->abd', B, B, _sl2(*rng.uniform(0.5, 2.0, 2), n=5),
                  np.linalg.inv(B))
    c = 0.5 * (c - c.transpose(1, 0, 2))
    out.append(_file("sl2+R2-general.json", c, (B.T @ B).tolist(), rng))
    return out


def fixed_files():
    """Four inputs at scale extremes, as algebra_files entries:
    sl2(1e3, 2e3) rotated, whose normals carry Codazzi round-off above
    1e-9; sl2(1e200, 1e200), whose Jacobi sum overflows; sl2(1e-4, 40),
    whose Frenet curvatures 80 and 2e-4 leave quotient-table round-off
    above 1e-9 at its lower Borel normal; and sl2(1e-3, 1e3), whose lower
    Borel normal (curvatures 2e3 and 2e-3) leaves Frenet-frame round-off
    above 1e-10."""
    rng = np.random.default_rng(0)
    return [_file("sl2-1e3-rot.json", _rotated(_sl2(1e3, 2e3), rng), None, rng),
            _file("sl2-1e200.json", _sl2(1e200, 1e200), None, rng),
            _file("sl2-1e-4-40.json", _sl2(1e-4, 40), None, rng),
            _file("sl2-1e-3-1e3.json", _sl2(1e-3, 1e3), None, rng)]


def _vec(v):
    return ",".join(repr(float(x)) for x in v)


CATALOG_ARGVS = [
    ["verify", "--json"], ["verify"],
    *[["verify", name, "--json"] for name in
      ("sl2", "nonhomo", "heisenberg", "abelian", "hyperbolic2", "twisted-h2",
       "euclidean", "sl2:0.3,-2", "twisted-h2:2.5", "abelian:5")],
    *[["info", "--builtin", name, "--json"] for name in
      ("sl2", "nonhomo", "heisenberg", "abelian", "hyperbolic2", "twisted-h2", "euclidean")],
    ["info", "--builtin", "sl2"],
    *[[cmd, "--builtin", name, "--json"] for cmd in ("curvature", "search")
      for name in ("sl2", "sl2:0.3,-2", "nonhomo", "heisenberg", "abelian")],
    *[[cmd, "--builtin", name, "--normal", normal, "--json"]
      for cmd in ("frenet", "classify", "tg-check")
      for name, normal in (("sl2", "1,0,0"), ("sl2:0.3,-2", "0,0,1"),
                           ("nonhomo", "0,0,0,1"), ("nonhomo", "1,0,0,0"),
                           ("heisenberg", "0,0,1"), ("abelian", "1,2,2"))],
    ["classify", "--builtin", "sl2", "--normal", "1,0,0"],
    *[["tg-check", "--builtin", name, "--subspace", sub, "--json"]
      for name, sub in (("sl2", "0,1,0;0,0,1"), ("sl2", "1,0,0;0,1,0"),
                        ("heisenberg", "1,0,0;0,1,0"), ("heisenberg", "0,0,1"),
                        ("nonhomo", "0,1,0,0;0,0,1,0"), ("abelian", "1,0,0;0,1,1"))],
    ["tg-check", "--builtin", "heisenberg", "--subspace", "1,0,0;0,1,0"],
    *[["geodesic", "--builtin", name, "--x0", x0, "--v0", v0, "--json"]
      for name, x0, v0 in (("hyperbolic2", "1,0.5", "0.6,0.4"),
                           ("euclidean", "0.1,0.2", "1,-1"),
                           ("twisted-h2", "0,1,0.5", "0.3,0.2,0.1"),
                           ("nonhomo", "0,0.1,0.2,0.3", "0.2,0.1,0,1"))],
    # the product stage off the anchor and off theta = 0, over two time units
    *[["geodesic", "--builtin", name, "--x0", "0.4,0.9,2.2", "--v0", "0.3,-0.2,0.25",
       "--tmax", "2", "--json"] for name in ("twisted-h2:0.5", "twisted-h2:2.5")],
    # the cartesian chart from its axis q = 0 and off it
    *[["geodesic", "--builtin", f"twisted-h2:kappa={kappa},chart=cartesian", "--x0", x0,
       "--v0", "0.3,-0.2,0.25", "--tmax", "2", "--json"]
      for kappa in ("0.5", "2.5") for x0 in ("0,0,0", "0.4,0.9,-1.3")],
    # the RK4 step at dimensions 1, 5 and 8, and a run ending in a partial gate block
    *[["geodesic", "--builtin", name, "--x0", x0, "--v0", v0, "--json"]
      for name, x0, v0 in (("euclidean:1", "0.3", "1"),
                           ("euclidean:5", "0.1,0.2,0.3,0.4,0.5", "1,-1,0.5,0.25,2"),
                           ("euclidean:8", "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7",
                            "1,-1,0.5,0.25,2,0,-0.3,0.7"))],
    ["geodesic", "--builtin", "hyperbolic2", "--x0", "1,0.5", "--v0", "0.6,0.4",
     "--step", "0.013", "--json"],
]


def _run(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def digest():
    """{argv text: {"exit", "stdout", "stderr"}} over the fixed argv set."""
    sys.path.insert(0, str(ROOT / "src"))
    from tgkit.cli import run
    records = {" ".join(argv): _run(run, argv) for argv in CATALOG_ARGVS}
    with tempfile.TemporaryDirectory() as tmp:
        for label, data, sub in algebra_files() + fixed_files():
            path = str(Path(tmp) / label)
            Path(path).write_text(json.dumps(data))

            def record(cmd, *rest):
                rec = _run(run, [cmd, "--algebra", path, *rest])
                records[" ".join([cmd, "--algebra", label, *rest])] = rec
                return rec
            found = record("search", "--json")
            result = {} if found["exit"] else json.loads(found["stdout"])["result"]
            rows = [row for comp in result.get("components", []) for row in comp["basis"]]
            for normal in result.get("normals", []) + rows:
                for cmd in ("frenet", "classify"):
                    record(cmd, "--normal=" + _vec(normal), "--json")
            record("tg-check", "--subspace=" + sub, "--json")
    return records


def compare(a, b):
    """The argvs whose records differ, or that one digest lacks, in order."""
    return [argv for argv in list(a) + [k for k in b if k not in a] if a.get(argv) != b.get(argv)]


def _json_paths(x, y, path):
    """The leaf paths at which the JSON values x and y differ: .key for an
    object field, [] for every list index, '.' for the whole value; a key
    that only one side has, or lists of two lengths, differ as a whole."""
    if isinstance(x, dict) and isinstance(y, dict):
        paths = {f"{path}.{k}" for k in x.keys() ^ y.keys()}
        for k in x.keys() & y.keys():
            paths |= _json_paths(x[k], y[k], f"{path}.{k}")
        return paths
    if isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        return {p for u, v in zip(x, y) for p in _json_paths(u, v, path + "[]")}
    return set() if json.dumps(x) == json.dumps(y) else {path or "."}


def _record_paths(ra, rb):
    """The fields at which two records of one argv differ: 'exit', 'stderr',
    'stdout' or, when both stdouts are JSON, its leaf paths; 'record' when
    one digest lacks the argv."""
    if ra is None or rb is None:
        return {"record"}
    paths = {key for key in ("exit", "stderr") if ra[key] != rb[key]}
    if ra["stdout"] != rb["stdout"]:
        try:
            paths |= _json_paths(json.loads(ra["stdout"]), json.loads(rb["stdout"]), "")
        except json.JSONDecodeError:
            paths.add("stdout")
    return paths


def field_counts(a, b):
    """{(subcommand, field path): number of argvs differing there} over the
    argvs that compare returns."""
    return collections.Counter((argv.split()[0], path) for argv in compare(a, b)
                               for path in _record_paths(a.get(argv), b.get(argv)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="digest file to write")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="digest files to compare")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        bad = compare(a, b)
        for line in bad:
            print(line)
        print(f"{len(set(a) | set(b))} argvs, {len(bad)} differ")
        for (cmd, path), count in sorted(field_counts(a, b).items()):
            print(cmd, path, count)
        return 1 if bad else 0
    if not args.out:
        ap.error("give --out FILE or --compare A B")
    Path(args.out).write_text(json.dumps(digest(), sort_keys=True, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
