"""Command line interface.

Exit codes: 0 success, 1 input or usage error, 2 certification failure
(a rejected subspace, a normal that is not totally geodesic, or a failed
verify ledger).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys

import numpy as np

from . import catalog
from .config import DEFAULT, Tolerances
from .coord_engine import (MAX_GRID, CoordinateMetric, export_trajectory_csv,
                           geodesic_integrate)
from .errors import AlgebraFileError, BadParams, NotTotallyGeodesic, TgkitError
from .lie_core import (DIM_RANGE, LieAlgebra, MetricLieAlgebra, Subspace,
                       curvature_tensor, jacobi_residual)
from .tg_analysis import (SearchConfig, classify_case, frenet_orbit,
                          hyperplane_tg_residual, search_tg_hyperplanes,
                          tg_subspace_check)


# ------------------------------------------------------------ serialization

def _sanitize(obj):
    """JSON-safe copy: numpy to python, non-finite floats to None."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if np.isfinite(f) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _dumps(obj) -> str:
    """Canonical JSON of an object that is already JSON-safe."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(obj) -> str:
    return _dumps(_sanitize(obj))


def _digest(desc) -> str:
    return hashlib.sha256(canonical_json(desc).encode("utf-8")).hexdigest()


# ------------------------------------------------------------- input parsing

_FILE_KEYS = {"dim", "basis", "brackets", "gram"}
_BRACKET_KEYS = {"i", "j", "coeffs"}


def parse_algebra_file(data, tol: Tolerances = DEFAULT) -> tuple:
    """Validated (MetricLieAlgebra, basis_names) from a parsed JSON object,
    admitted under `tol`."""
    if not isinstance(data, dict):
        raise AlgebraFileError("top level must be a JSON object")
    unknown = set(data) - _FILE_KEYS
    if unknown:
        raise AlgebraFileError(f"unknown keys: {sorted(unknown)}")
    if "dim" not in data:
        raise AlgebraFileError("missing required key 'dim'")
    dim = data["dim"]
    if not isinstance(dim, int) or not DIM_RANGE[0] <= dim <= DIM_RANGE[1]:
        raise AlgebraFileError(f"dim must be an integer in {list(DIM_RANGE)}, got {dim!r}")
    basis = data.get("basis", [f"e{i}" for i in range(dim)])
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(s, str) for s in basis)):
        raise AlgebraFileError(f"basis must be {dim} strings")
    c = np.zeros((dim, dim, dim))
    seen = set()
    for pos, entry in enumerate(data.get("brackets", [])):
        if not isinstance(entry, dict):
            raise AlgebraFileError(f"brackets[{pos}] must be an object")
        unknown = set(entry) - _BRACKET_KEYS
        if unknown:
            raise AlgebraFileError(f"brackets[{pos}] has unknown keys: {sorted(unknown)}")
        try:
            i, j, coeffs = entry["i"], entry["j"], entry["coeffs"]
        except KeyError as exc:
            raise AlgebraFileError(f"brackets[{pos}] missing key {exc}")
        if not (isinstance(i, int) and isinstance(j, int)):
            raise AlgebraFileError(f"brackets[{pos}]: i, j must be integers")
        if not (0 <= i < dim and 0 <= j < dim):
            raise AlgebraFileError(
                f"brackets[{pos}]: index pair ({i}, {j}) out of range for dim {dim}")
        if not i < j:
            raise AlgebraFileError(
                f"brackets[{pos}]: need i < j (0-based), got ({i}, {j})")
        if (i, j) in seen:
            raise AlgebraFileError(f"brackets[{pos}]: duplicate pair ({i}, {j})")
        seen.add((i, j))
        if not (isinstance(coeffs, list) and len(coeffs) == dim):
            raise AlgebraFileError(f"brackets[{pos}]: coeffs must be {dim} numbers")
        vals = np.asarray(coeffs, float)
        c[i, j] = vals
        c[j, i] = -vals
    gram = data.get("gram")
    if gram is not None:
        gram = np.asarray(gram, float)
        if gram.shape != (dim, dim):
            raise AlgebraFileError(f"gram must be {dim}x{dim}")
    M = MetricLieAlgebra(LieAlgebra(c, tol), gram, tol)
    return M, basis


_POSITIONAL_PARAMS = {"sl2": ("a", "b"), "abelian": ("n",),
                      "euclidean": ("n",), "twisted-h2": ("kappa",)}


def _coerce(tok):
    for cast in (int, float):
        try:
            return cast(tok)
        except ValueError:
            pass
    return tok


def parse_builtin(text):
    """'name' or 'name:p1,p2,key=value' -> (name, params dict)."""
    if text is None:
        raise BadParams("no input: give --builtin NAME or --algebra FILE")
    name, _, rest = text.partition(":")
    params = {}
    pos = []
    for tok in filter(None, rest.split(",")):
        if "=" in tok:
            key, _, val = tok.partition("=")
            params[key] = _coerce(val)
        else:
            pos.append(_coerce(tok))
    slots = _POSITIONAL_PARAMS.get(name, ())
    if len(pos) > len(slots):
        raise BadParams(f"{name} takes at most {len(slots)} positional parameters")
    for key, val in zip(slots, pos):
        if key in params:
            raise BadParams(f"{name}: parameter {key!r} given twice")
        params[key] = val
    return name, params


def _parse_vector(text, dim=None):
    try:
        v = np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise BadParams(f"cannot parse vector {text!r}")
    if not np.isfinite(v).all():
        raise BadParams(f"vector {text!r} has NaN or inf entries")
    if dim is not None and len(v) != dim:
        raise BadParams(f"vector {text!r} has length {len(v)}, expected {dim}")
    return v


def _unit_normal(M, args, desc, missing):
    """(--normal scaled to unit length, desc recording it); BadParams with
    the message `missing` when there is no --normal."""
    if not args.normal:
        raise BadParams(missing)
    T = _parse_vector(args.normal, M.dim)
    with np.errstate(over='ignore', invalid='ignore'):
        nrm = M.norm(T)
    if not np.isfinite(nrm):
        raise BadParams("normal vector length overflows float range")
    if nrm <= 1e-12:
        raise BadParams("normal vector has zero length")
    return T / nrm, dict(desc, normal=args.normal)


def _parse_subspace(text, dim):
    cols = [_parse_vector(part, dim) for part in filter(None, text.split(";"))]
    if not cols:
        raise BadParams("empty subspace")
    return Subspace(dim, np.stack(cols, axis=1))


def _lookup_builtin(text, tol):
    """(catalog entry admitted under tol, canonical input description)."""
    name, params = parse_builtin(text)
    return catalog.catalog_lookup(name, params, tol=tol), {"builtin": name, "params": params}


def _load_algebra(args, tol, entry=None):
    """(MetricLieAlgebra, basis names, canonical input description); entry
    is the builtin's _lookup_builtin pair when the caller already has it."""
    if entry is None and args.algebra:
        with open(args.algebra, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise AlgebraFileError(f"invalid JSON: {exc}")
        M, names = parse_algebra_file(data, tol)
        return M, names, {"algebra_file": data}
    M, desc = entry or _lookup_builtin(args.builtin, tol)
    if not isinstance(M, MetricLieAlgebra):
        raise BadParams(f"builtin {desc['builtin']!r} is a chart, not an algebra")
    return M, [f"e{i}" for i in range(M.dim)], desc


def _load_chart(args):
    if args.builtin is None:
        raise BadParams("geodesic needs --builtin NAME")
    name, params = parse_builtin(args.builtin)
    kind = "coordinate" if name == "nonhomo" else None
    obj = catalog.catalog_lookup(name, params, kind=kind)
    if not isinstance(obj, CoordinateMetric):
        raise BadParams(f"builtin {name!r} has no chart form")
    return obj, {"builtin": name, "params": params, "kind": kind}


# ----------------------------------------------------------------- commands

def _cmd_info(args, tol, grid):
    entry = _lookup_builtin(args.builtin, tol) if args.builtin else None
    if entry and isinstance(entry[0], CoordinateMetric):
        CM, desc = entry
        result = {"kind": "chart", "dim": CM.dim,
                  "exact_partials": CM.partials_at is not None}
        return result, {}, None, 0, desc
    M, names, desc = _load_algebra(args, tol, entry)
    brackets = []
    c = M.algebra.structure_constants
    for i in range(M.dim):
        for j in range(i + 1, M.dim):
            if np.abs(c[i, j]).max() > 0:
                brackets.append({"i": i, "j": j, "coeffs": c[i, j].tolist()})
    result = {"kind": "algebra", "dim": M.dim, "basis": names,
              "nonzero_brackets": brackets,
              "gram": M.gram.tolist()}
    residuals = {"jacobi": jacobi_residual(M.algebra), "onb": M.onb_residual}
    return result, residuals, None, 0, desc


def _cmd_curvature(args, tol, grid):
    M, names, desc = _load_algebra(args, tol)
    data = curvature_tensor(M)
    result = {"pairs": [list(p) for p in data.pairs],
              "eigenvalues": data.eigenvalues.tolist(),
              "operator": data.operator_matrix.tolist(),
              "coordinate_plane_sectionals": np.diag(data.operator_matrix).tolist()}
    return result, {}, None, 0, desc


def _cmd_tg_check(args, tol, grid):
    M, names, desc = _load_algebra(args, tol)
    if args.subspace:
        S = _parse_subspace(args.subspace, M.dim)
        desc = dict(desc, subspace=args.subspace)
        check = tg_subspace_check(M, S)
        result = dict(dataclasses.asdict(check), subspace_dim=S.dim)
        return (result, {"tg_residual": check.residual}, None,
                0 if check.ok else 2, desc)
    T, desc = _unit_normal(M, args, desc, "tg-check needs --subspace or --normal")
    res = hyperplane_tg_residual(M, T)
    ok = res < tol.tg_residual
    result = {"ok": ok, "residual": res, "witness": None,
              "subspace_dim": M.dim - 1}
    return result, {"tg_residual": res}, None, 0 if ok else 2, desc


def _cmd_frenet(args, tol, grid):
    M, names, desc = _load_algebra(args, tol)
    T, desc = _unit_normal(M, args, desc, "frenet needs --normal")
    fr = frenet_orbit(M, T)
    residuals = {"truncation_residual": fr.truncation_residual}
    return dataclasses.asdict(fr), residuals, None, 0, desc


def _cmd_classify(args, tol, grid):
    M, names, desc = _load_algebra(args, tol)
    T, desc = _unit_normal(M, args, desc, "classify needs --normal")
    try:
        report = classify_case(M, T)
    except NotTotallyGeodesic as exc:
        result = {"error": str(exc), "ok": False}
        return result, {exc.label: exc.residual}, None, 2, desc
    result = {"case_tag": report.case_tag.value,
              "frenet": dataclasses.asdict(report.frenet),
              "eigenvalue_lambda": report.eigenvalue_lambda,
              "character_hint": None if report.character_hint is None
              else report.character_hint.tolist()}
    if report.witness is not None:
        w = report.witness
        result["helix"] = {
            "recovered_a": w.recovered_a, "recovered_b": w.recovered_b,
            "quotient_constants": w.quotient_constants.tolist(),
            "residuals": dict(w.residuals)}
    return result, dict(report.residuals), report.case_tag.value, 0, desc


def _cmd_search(args, tol, grid):
    if args.seed < 0:
        raise BadParams(f"--seed must be non-negative, got {args.seed}")
    M, names, desc = _load_algebra(args, tol)
    config = SearchConfig(seed=args.seed)
    desc = dict(desc, seed=args.seed)
    res = search_tg_hyperplanes(M, config)
    result = {"count": len(res.normals),
              "normals": [v.tolist() for v in res.normals],
              "residuals": list(res.residuals),
              "components": [{"kind": "kernel_sphere", "basis": K.tolist(), "residual": r}
                             for K, r in zip(res.components, res.component_residuals)],
              "continuum": res.continuum}
    worst = max(res.residuals + res.component_residuals, default=None)
    return result, {"max_residual": worst}, None, 0, desc


def _cmd_geodesic(args, tol, grid):
    CM, desc = _load_chart(args)
    if not (args.x0 and args.v0):
        raise BadParams("geodesic needs --x0 and --v0")
    x0 = _parse_vector(args.x0, CM.dim)
    v0 = _parse_vector(args.v0, CM.dim)
    desc = dict(desc, x0=args.x0, v0=args.v0, tmax=args.tmax, step=args.step)
    traj = geodesic_integrate(CM, x0, v0, args.tmax, args.step, tol)
    result = {"endpoint": traj.points[-1].tolist(),
              "end_velocity": traj.velocities[-1].tolist(),
              "samples": len(traj.times),
              "step": traj.step,
              "speed_drift": traj.speed_drift}
    return result, {"speed_drift": traj.speed_drift}, None, 0, desc, traj


# ------------------------------------------------------------------- verify

def _cmd_verify(args, tol, grid):
    if args.name:
        name, params = parse_builtin(args.name)
        if name not in catalog.LEDGER:
            raise BadParams(
                f"no builtin named {name!r}; choices: {', '.join(catalog.CATALOG_NAMES)}")
        targets = [(name, params)]
    else:
        targets = [(n, {}) for n in catalog.CATALOG_NAMES]
    entries = []
    for name, params in targets:
        rows = catalog.LEDGER[name](params, tol, grid)
        entries.append({"name": name, "params": params, "checks": rows,
                        "ok": all(r["ok"] for r in rows)})
    all_ok = all(e["ok"] for e in entries)
    finite = [r["residual"] for e in entries for r in e["checks"]
              if not r["gate"] and r["residual"] is not None
              and np.isfinite(r["residual"])]
    result = {"entries": entries, "ok": all_ok}
    residuals = {"max_residual": max(finite) if finite else None}
    desc = {"verify": args.name or "all", "grid": grid}
    return result, residuals, None, 0 if all_ok else 2, desc


# ------------------------------------------------------------------- driver

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


_OPTIONS = {
    "name": dict(nargs="?", default=None, help="catalog entry, optionally name:params"),
    "--algebra": dict(metavar="FILE", help="JSON algebra description"),
    "--builtin": dict(metavar="NAME[:params]", help="catalog entry, e.g. sl2:1,2"),
    "--subspace": dict(metavar="VECS", help="semicolon-separated comma vectors"),
    "--normal": dict(metavar="VEC", help="comma vector"),
    "--x0": dict(metavar="VEC"),
    "--v0": dict(metavar="VEC"),
    "--tmax": dict(type=float, default=1.0),
    "--step": dict(type=float, default=1e-3),
    "--seed": dict(type=int, default=0),
    "--out": dict(metavar="FILE", help="write the report (.csv for geodesic trajectories)"),
    "--tol": dict(action="append", default=[], metavar="NAME=VALUE",
                  help="tolerance override"),
    "--json": dict(action="store_true", help="canonical JSON on stdout"),
}
# each subcommand: help, the options its handler reads, the handler
_INPUT = ("--algebra", "--builtin")
_SUBCOMMANDS = {
    "info": ("dimensions, brackets, and residual summary", _INPUT, _cmd_info),
    "curvature": ("curvature operator eigenvalues on coordinate pairs", _INPUT, _cmd_curvature),
    "tg-check": ("certify a subspace or hyperplane normal", _INPUT + ("--subspace", "--normal"),
                 _cmd_tg_check),
    "frenet": ("orbit curvatures of a unit normal", _INPUT + ("--normal",), _cmd_frenet),
    "classify": ("case analysis of a certified normal", _INPUT + ("--normal",), _cmd_classify),
    "search": ("certified hyperplane normals and kernel spheres (exact on Hofmann's R, "
               "aff(1) and sl2 families, else seeded multistart)", _INPUT + ("--seed",),
               _cmd_search),
    "geodesic": ("integrate a chart geodesic", ("--builtin", "--x0", "--v0", "--tmax", "--step"),
                 _cmd_geodesic),
    "verify": ("run the residual ledger over catalog entries", ("name",), _cmd_verify),
}


@functools.lru_cache(maxsize=None)     # one grammar per process; parsing leaves it as is
def _build_parser():
    parser = _Parser(prog="tgkit",
                     description="Totally geodesic hypersurface toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, flags, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag in flags + ("--out", "--tol", "--json"):
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


# each override takes the type of its field's default: float, or int
_TOL_KINDS = {f.name: type(f.default) for f in dataclasses.fields(Tolerances)}


def _parse_tols(pairs):
    overrides = {}
    for item in pairs:
        key, sep, val = item.partition("=")
        if not sep:
            raise BadParams(f"--tol expects NAME=VALUE, got {item!r}")
        overrides[key] = _coerce(val)
    grid = overrides.pop("grid", 50)
    if not isinstance(grid, int) or not 2 <= grid <= MAX_GRID:
        raise BadParams(f"grid must be an integer in [2, {MAX_GRID}], got {grid!r}")
    try:
        values = {k: float(v) for k, v in overrides.items()}
    except (ValueError, OverflowError) as exc:
        raise BadParams(f"bad tolerance value: {exc}")
    bad = sorted(set(values) - set(_TOL_KINDS))
    if bad:
        raise BadParams(f"unknown tolerance names: {bad}")
    bad = sorted(k for k, v in values.items() if _TOL_KINDS[k] is int and not v.is_integer())
    if bad:
        raise BadParams(f"integer tolerances need integral values: {bad}")
    # every default is finite, so only an override can be non-finite
    bad = sorted(k for k, v in values.items() if not np.isfinite(v))
    if bad:
        raise BadParams(f"tolerances must be finite: {bad}")
    return DEFAULT.replace(**{k: _TOL_KINDS[k](v) for k, v in values.items()}), grid, overrides


def _human(report, code):
    lines = [f"command: {report['command']}"]
    if report["case_tag"]:
        lines.append(f"case: {report['case_tag']}")
    result = report["result"]
    if report["command"] == "verify":
        for entry in result["entries"]:
            mark = "pass" if entry["ok"] else "FAIL"
            lines.append(f"[{mark}] {entry['name']}")
            for row in entry["checks"]:
                mark = "pass" if row["ok"] else "FAIL"
                res = row["residual"]
                shown = "n/a" if res is None else f"{res:.3e}"
                lines.append(f"    [{mark}] {row['check']}: residual {shown}"
                             f" (tol {row['tolerance']:.3e})")
    else:
        for key, val in sorted(result.items()):
            lines.append(f"{key}: {json.dumps(val)}")
    if report["residuals"]:
        parts = ", ".join(f"{k}={json.dumps(v)}"
                          for k, v in sorted(report["residuals"].items()))
        lines.append(f"residuals: {parts}")
    lines.append(f"exit: {code}")
    return "\n".join(lines)


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tol, grid, overrides = _parse_tols(args.tol)
        out = _SUBCOMMANDS[args.command][2](args, tol, grid)
        result, residuals, case_tag, code, desc = out[:5]
        traj = out[5] if len(out) > 5 else None
        desc = dict(desc, command=args.command, tol=overrides, grid=grid)
        report = {
            "command": args.command,
            "input_digest": _digest(desc),
            "result": _sanitize(result),
            "residuals": _sanitize(residuals),
            "tolerances_used": dict(sorted(vars(tol).items())),
            "case_tag": case_tag,
        }
        if args.out and args.out.endswith(".csv"):
            if traj is None:
                raise BadParams("--out .csv only applies to geodesic")
            export_trajectory_csv(traj, args.out)
        elif args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(_dumps(report) + "\n")
    except (TgkitError, OSError) as exc:
        print(f"tgkit: error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_dumps(report))
    else:
        print(_human(report, code))
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
