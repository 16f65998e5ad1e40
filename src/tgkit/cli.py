"""Command line interface.

Exit codes: 0 success, 1 input or usage error, 2 certification failure
(a rejected subspace, a normal that is not totally geodesic, or a failed
verify ledger).
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys

import numpy as np

from . import catalog
from .config import DEFAULT, Tolerances
from .coord_engine import (CoordinateMetric, LevelSetHypersurface,
                           ScalarField, build_twisted_product, christoffel,
                           eikonal_residuals, export_trajectory_csv,
                           frenet_numeric, geodesic_integrate,
                           second_fundamental_form, sectional_at,
                           twisting_ode_residual)
from .errors import AlgebraFileError, BadParams, NotTotallyGeodesic, TgkitError
from .lie_core import (LieAlgebra, MetricLieAlgebra, Subspace,
                       curvature_tensor, jacobi_residual, levi_civita,
                       sectional)
from .tg_analysis import (SearchConfig, classify_case, frenet_orbit,
                          helix_witness, hyperplane_tg_residual,
                          search_tg_hyperplanes, tg_subspace_check)


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


def canonical_json(obj) -> str:
    return json.dumps(_sanitize(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


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
    if not isinstance(dim, int) or not 2 <= dim <= 8:
        raise AlgebraFileError(f"dim must be an integer in [2, 8], got {dim!r}")
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


def _unit_normal(M, text):
    T = _parse_vector(text, M.dim)
    nrm = M.norm(T)
    if nrm <= 1e-12:
        raise BadParams("normal vector has zero length")
    return T / nrm


def _parse_subspace(text, dim):
    cols = [_parse_vector(part, dim) for part in filter(None, text.split(";"))]
    if not cols:
        raise BadParams("empty subspace")
    return Subspace(dim, np.stack(cols, axis=1))


def _admit(M, tol):
    """The catalog algebra M admitted again, under the run's tolerances."""
    return MetricLieAlgebra(LieAlgebra(M.algebra.structure_constants, tol), M.gram, tol)


def _load_algebra(args, tol):
    """(MetricLieAlgebra, basis names, canonical input description)."""
    if args.algebra:
        with open(args.algebra, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise AlgebraFileError(f"invalid JSON: {exc}")
        M, names = parse_algebra_file(data, tol)
        return M, names, {"algebra_file": data}
    name, params = parse_builtin(args.builtin)
    return _builtin_algebra(catalog.catalog_lookup(name, params), name, params, tol)


def _builtin_algebra(obj, name, params, tol):
    """_load_algebra's triple for the looked-up builtin obj."""
    if not isinstance(obj, MetricLieAlgebra):
        raise BadParams(f"builtin {name!r} is a chart, not an algebra")
    return _admit(obj, tol), [f"e{i}" for i in range(obj.dim)], \
        {"builtin": name, "params": params}


def _load_chart(args):
    if args.algebra:
        raise BadParams("geodesic needs a builtin chart, not an algebra file")
    name, params = parse_builtin(args.builtin)
    kind = "coordinate" if name == "nonhomo" else None
    obj = catalog.catalog_lookup(name, params, kind=kind)
    if not isinstance(obj, CoordinateMetric):
        raise BadParams(f"builtin {name!r} has no chart form")
    return obj, {"builtin": name, "params": params, "kind": kind}


# ----------------------------------------------------------------- commands

def _cmd_info(args, tol, grid):
    if args.builtin:
        name, params = parse_builtin(args.builtin)
        obj = catalog.catalog_lookup(name, params)
        if isinstance(obj, CoordinateMetric):
            result = {"kind": "chart", "dim": obj.dim,
                      "exact_partials": obj.partials_at is not None}
            return result, {}, None, 0, {"builtin": name, "params": params}
        M, names, desc = _builtin_algebra(obj, name, params, tol)
    else:
        M, names, desc = _load_algebra(args, tol)
    jac = jacobi_residual(M.algebra)
    Q = M.onb_change
    onb_res = float(np.abs(Q.T @ M.gram @ Q - np.eye(M.dim)).max())
    brackets = []
    c = M.algebra.structure_constants
    for i in range(M.dim):
        for j in range(i + 1, M.dim):
            if np.abs(c[i, j]).max() > 0:
                brackets.append({"i": i, "j": j, "coeffs": c[i, j].tolist()})
    result = {"kind": "algebra", "dim": M.dim, "basis": names,
              "nonzero_brackets": brackets,
              "gram": M.gram.tolist()}
    residuals = {"jacobi": jac, "onb": onb_res}
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
        witness = None
        if check.witness is not None:
            witness = {"kind": check.witness.kind, "i": check.witness.i,
                       "j": check.witness.j,
                       "component": check.witness.component.tolist()}
        result = {"ok": check.ok, "residual": check.residual, "witness": witness,
                  "subspace_dim": S.dim}
        return (result, {"tg_residual": check.residual}, None,
                0 if check.ok else 2, desc)
    if not args.normal:
        raise BadParams("tg-check needs --subspace or --normal")
    T = _unit_normal(M, args.normal)
    desc = dict(desc, normal=args.normal)
    res = hyperplane_tg_residual(M, T)
    ok = res < tol.tg_residual
    result = {"ok": ok, "residual": res, "witness": None,
              "subspace_dim": M.dim - 1}
    return result, {"tg_residual": res}, None, 0 if ok else 2, desc


def _frenet_payload(fr):
    return {"order": fr.order,
            "curvatures": list(fr.curvatures),
            "frame": [list(v) for v in fr.frame],
            "truncation_residual": fr.truncation_residual,
            "borderline": fr.borderline,
            "error_bars": fr.error_bars}


def _cmd_frenet(args, tol, grid):
    M, names, desc = _load_algebra(args, tol)
    if not args.normal:
        raise BadParams("frenet needs --normal")
    T = _unit_normal(M, args.normal)
    desc = dict(desc, normal=args.normal)
    fr = frenet_orbit(M, T)
    residuals = {}
    if fr.truncation_residual is not None:
        residuals["truncation_residual"] = fr.truncation_residual
    return _frenet_payload(fr), residuals, None, 0, desc


def _cmd_classify(args, tol, grid):
    M, names, desc = _load_algebra(args, tol)
    if not args.normal:
        raise BadParams("classify needs --normal")
    T = _unit_normal(M, args.normal)
    desc = dict(desc, normal=args.normal)
    try:
        report = classify_case(M, T)
    except NotTotallyGeodesic as exc:
        result = {"error": str(exc), "ok": False}
        return result, {exc.label: exc.residual}, None, 2, desc
    result = {"case_tag": report.case_tag.value,
              "frenet": _frenet_payload(report.frenet),
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
    M, names, desc = _load_algebra(args, tol)
    config = SearchConfig(seed=args.seed, residual_threshold=tol.search_residual)
    desc = dict(desc, seed=args.seed)
    res = search_tg_hyperplanes(M, config)
    result = {"count": len(res.normals),
              "normals": [v.tolist() for v in res.normals],
              "residuals": list(res.residuals),
              "continuum": res.continuum}
    worst = max(res.residuals) if res.residuals else None
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

def _row(check, residual, tolerance, ok=None):
    # explicit ok marks a gate (ratio / count check), not a residual bound
    gate = ok is not None
    if ok is None:
        ok = bool(residual <= tolerance)
    return {"check": check, "residual": residual, "tolerance": tolerance,
            "ok": bool(ok), "gate": gate}


def _verify_sl2(params, tol, grid):
    a = float(params.get("a", 1.0))
    b = float(params.get("b", 1.0))
    M = _admit(catalog.sl2(a, b), tol)
    rows = [_row("jacobi", jacobi_residual(M.algebra), tol.jacobi)]
    conn = levi_civita(M)
    rows.append(_row("torsion", conn.torsion_residual, tol.torsion))
    rows.append(_row("metric_compat", conn.compat_residual, tol.metric_compat))
    T = np.array([1.0, 0.0, 0.0])
    rows.append(_row("tg_hyperplane", hyperplane_tg_residual(M, T),
                     tol.tg_residual))
    fr = frenet_orbit(M, T)
    err = max(abs(fr.curvatures[0] - 2 * b), abs(fr.curvatures[1] - 2 * a))
    rows.append(_row("frenet_curvatures", err, 1e-9))
    w = helix_witness(M, T)
    rows.append(_row("helix_table", w.residuals["bracket_table_residual"],
                     tol.bracket_table))
    rows.append(_row("recognized_params",
                     max(abs(w.recovered_a - a), abs(w.recovered_b - b)),
                     tol.sl2_match))
    return rows


def _verify_nonhomo(tol, grid):
    M = _admit(catalog.nonhomo(), tol)
    T = np.array([0.0, 0.0, 0.0, 1.0])
    rows = [_row("jacobi", jacobi_residual(M.algebra), tol.jacobi),
            _row("tg_hyperplane", hyperplane_tg_residual(M, T),
                 tol.tg_residual)]
    report = classify_case(M, T)
    rows.append(_row("case_circle", abs(report.frenet.curvatures[0] - 2.0),
                     1e-9, ok=report.case_tag.value == "CircleNormal"
                     and abs(report.frenet.curvatures[0] - 2.0) <= 1e-9))
    rows.append(_row("character_annihilation",
                     report.residuals["character_annihilation"], 1e-9))
    return rows


def _verify_heisenberg(tol, grid):
    M = _admit(catalog.heisenberg(), tol)
    rows = [_row("jacobi", jacobi_residual(M.algebra), tol.jacobi)]
    res = search_tg_hyperplanes(
        M, SearchConfig(seed=0, residual_threshold=tol.search_residual))
    rows.append(_row("no_certified_hyperplanes", float(len(res.normals)),
                     0.0, ok=len(res.normals) == 0))
    return rows


def _verify_abelian(params, tol, grid):
    n = int(params.get("n", 3))
    M = _admit(catalog.abelian(n), tol)
    data = curvature_tensor(M)
    rows = [_row("flat_curvature", float(np.abs(data.components).max()), 1e-12)]
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(5):
        T = rng.standard_normal(n)
        worst = max(worst, hyperplane_tg_residual(M, T / np.linalg.norm(T)))
    rows.append(_row("all_hyperplanes_tg", worst, tol.tg_residual))
    return rows


def _verify_hyperbolic2(tol, grid):
    CM = catalog.hyperbolic_plane()
    worst = 0.0
    for r in (0.5, 1.0, 1.7):
        for th in (0.3, 2.1):
            x = np.array([r, th])
            worst = max(worst, float(np.abs(
                christoffel(CM, x, exact=True)
                - christoffel(CM, x, exact=False)).max()))
    rows = [_row("fd_vs_exact_christoffel", worst, tol.fd_vs_exact)]
    x = np.array([0.9, 1.2])
    K = sectional_at(CM, x, np.array([1.0, 0.0]), np.array([0.0, 1.0]), tol)
    rows.append(_row("sectional_minus_one", abs(K + 1.0), tol.cross_engine))
    x0 = np.array([1.0, 0.5])
    v0 = np.array([0.6, 0.4])
    ends = [geodesic_integrate(CM, x0, v0, 1.0, h, tol).points[-1]
            for h in (4e-3, 2e-3, 1e-3)]
    e1 = float(np.linalg.norm(ends[0] - ends[1]))
    e2 = float(np.linalg.norm(ends[1] - ends[2]))
    ratio = e1 / e2 if e2 > 0 else float("inf")
    rows.append(_row("rk4_halving_ratio", ratio, 32.0,
                     ok=8.0 <= ratio <= 32.0))
    return rows


def _verify_twisted(params, tol, grid):
    kappa = float(params.get("kappa", 1.0))
    spec = catalog.twisted_h2(kappa)
    CM = build_twisted_product(spec)
    rs = np.linspace(0.1, 2.0, grid)
    ths = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    u_points = np.stack([rs, ths], axis=1)
    t_vals = np.linspace(0.0, 2.0 * np.pi, grid)
    rows = [_row("twisting_ode", twisting_ode_residual(spec, t_vals, u_points),
                 tol.ode_residual)]
    eik = eikonal_residuals(spec, u_points)
    rows.append(_row("eikonal_alpha", eik.grad_alpha_residual, tol.eikonal))
    rows.append(_row("eikonal_beta", eik.grad_beta_residual, tol.eikonal,
                     ok=eik.beta_applicable
                     and eik.grad_beta_residual <= tol.eikonal))
    times = np.linspace(0.0, 2.0 * np.pi, 1201)
    pts = np.stack([times, np.full_like(times, 0.8),
                    np.full_like(times, 0.6)], axis=1)
    fr = frenet_numeric(CM, times, pts, tol=tol)
    err = max(abs(fr.curvatures[0] - 1.0), abs(fr.curvatures[1] - kappa))
    rows.append(_row("orbit_frenet", err, tol.leaf_frenet))
    rows.append(_row("orbit_closure", fr.truncation_residual, tol.leaf_k3))
    leaf = LevelSetHypersurface(ScalarField(
        lambda x: x[0], grad=lambda x: np.array([1.0, 0.0, 0.0]),
        hess=lambda x: np.zeros((3, 3))))
    worst = 0.0
    for r in (0.4, 1.1):
        for th in (0.2, 2.5):
            sff = second_fundamental_form(CM, leaf, np.array([0.0, r, th]), tol)
            worst = max(worst, sff.max_norm)
    rows.append(_row("leaf_sff", worst, tol.sff_leaf))
    cart = catalog.twisted_h2_cartesian(kappa)
    alg = _admit(catalog.sl2(kappa / 2.0, 0.5), tol)
    # at the anchor with t = 0 the chart frame lines up with the algebra
    # frame; along t it rotates at rate kappa, so only t = 0 matches planes
    x = np.zeros(3)
    worst = 0.0
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        u = np.eye(3)[i]
        v = np.eye(3)[j]
        Kc = sectional_at(cart, x, u, v, tol)
        # chart planes (t,x), (t,y), (x,y) meet the algebra as
        # (E1,E3), (E1,E2), (E2,E3)
        amap = {0: 0, 1: 2, 2: 1}
        Ka = sectional(alg, np.eye(3)[amap[i]], np.eye(3)[amap[j]])
        worst = max(worst, abs(Kc - Ka))
    rows.append(_row("anchor_sectional_vs_algebra", worst, tol.cross_engine))
    return rows


def _verify_euclidean(params, tol, grid):
    n = int(params.get("n", 2))
    CM = catalog.euclidean_metric(n)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(3):
        x = rng.uniform(-1, 1, n)
        worst = max(worst, float(np.abs(christoffel(CM, x)).max()))
    rows = [_row("flat_christoffel", worst, 1e-12)]
    x0 = rng.uniform(-1, 1, n)
    v0 = rng.uniform(-1, 1, n)
    traj = geodesic_integrate(CM, x0, v0, 1.0, 1e-2, tol)
    err = float(np.linalg.norm(traj.points[-1] - (x0 + v0)))
    rows.append(_row("straight_line", err, 1e-9))
    return rows


_VERIFIERS = {
    "sl2": lambda p, tol, grid: _verify_sl2(p, tol, grid),
    "nonhomo": lambda p, tol, grid: _verify_nonhomo(tol, grid),
    "heisenberg": lambda p, tol, grid: _verify_heisenberg(tol, grid),
    "abelian": lambda p, tol, grid: _verify_abelian(p, tol, grid),
    "hyperbolic2": lambda p, tol, grid: _verify_hyperbolic2(tol, grid),
    "twisted-h2": lambda p, tol, grid: _verify_twisted(p, tol, grid),
    "euclidean": lambda p, tol, grid: _verify_euclidean(p, tol, grid),
}


def _cmd_verify(args, tol, grid):
    if args.name:
        name, params = parse_builtin(args.name)
        if name not in _VERIFIERS:
            raise BadParams(
                f"no builtin named {name!r}; choices: {', '.join(catalog.CATALOG_NAMES)}")
        targets = [(name, params)]
    else:
        targets = [(n, {}) for n in catalog.CATALOG_NAMES]
    entries = []
    all_ok = True
    for name, params in targets:
        rows = _VERIFIERS[name](params, tol, grid)
        ok = all(r["ok"] for r in rows)
        all_ok = all_ok and ok
        entries.append({"name": name, "params": params, "checks": rows,
                        "ok": ok})
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


def _build_parser():
    parser = _Parser(prog="tgkit",
                     description="Totally geodesic hypersurface toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, chart=False, verify=False):
        p = sub.add_parser(name, help=help_)
        if verify:
            p.add_argument("name", nargs="?", default=None,
                           help="catalog entry, optionally name:params")
        else:
            p.add_argument("--algebra", metavar="FILE",
                           help="JSON algebra description")
            p.add_argument("--builtin", metavar="NAME[:params]",
                           help="catalog entry, e.g. sl2:1,2")
        p.add_argument("--subspace", metavar="VECS",
                       help="semicolon-separated comma vectors")
        p.add_argument("--normal", metavar="VEC", help="comma vector")
        if chart:
            p.add_argument("--x0", metavar="VEC")
            p.add_argument("--v0", metavar="VEC")
            p.add_argument("--tmax", type=float, default=1.0)
            p.add_argument("--step", type=float, default=1e-3)
        p.add_argument("--out", metavar="FILE",
                       help="write the report (.csv for geodesic trajectories)")
        p.add_argument("--tol", action="append", default=[],
                       metavar="NAME=VALUE", help="tolerance override")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true",
                       help="canonical JSON on stdout")
        return p

    add("info", "dimensions, brackets, and residual summary")
    add("curvature", "curvature operator eigenvalues on coordinate pairs")
    add("tg-check", "certify a subspace or hyperplane normal")
    add("frenet", "orbit curvatures of a unit normal")
    add("classify", "case analysis of a certified normal")
    add("search", "multistart search for certified hyperplane normals")
    add("geodesic", "integrate a chart geodesic", chart=True)
    add("verify", "run the residual ledger over catalog entries", verify=True)
    return parser


_HANDLERS = {
    "info": _cmd_info, "curvature": _cmd_curvature, "tg-check": _cmd_tg_check,
    "frenet": _cmd_frenet, "classify": _cmd_classify, "search": _cmd_search,
    "geodesic": _cmd_geodesic, "verify": _cmd_verify,
}


def _parse_tols(pairs):
    overrides = {}
    for item in pairs:
        key, sep, val = item.partition("=")
        if not sep:
            raise BadParams(f"--tol expects NAME=VALUE, got {item!r}")
        overrides[key] = _coerce(val)
    grid = overrides.pop("grid", 50)
    if not isinstance(grid, int) or grid < 2:
        raise BadParams("grid must be an integer >= 2")
    try:
        tol = DEFAULT.replace(**{k: float(v) for k, v in overrides.items()})
    except TypeError:
        known = sorted(f.name for f in dataclasses.fields(Tolerances))
        bad = sorted(set(overrides) - set(known))
        raise BadParams(f"unknown tolerance names: {bad}")
    except ValueError as exc:
        raise BadParams(f"bad tolerance value: {exc}")
    return tol, grid, overrides


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
            lines.append(f"{key}: {json.dumps(_sanitize(val))}")
    if report["residuals"]:
        parts = ", ".join(f"{k}={json.dumps(_sanitize(v))}"
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
        handler = _HANDLERS[args.command]
        out = handler(args, tol, grid)
        result, residuals, case_tag, code, desc = out[:5]
        traj = out[5] if len(out) > 5 else None
    except TgkitError as exc:
        print(f"tgkit: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"tgkit: error: {exc}", file=sys.stderr)
        return 1
    desc = dict(desc, command=args.command, tol=overrides, grid=grid)
    report = {
        "command": args.command,
        "input_digest": _digest(desc),
        "result": _sanitize(result),
        "residuals": _sanitize(residuals),
        "tolerances_used": dict(sorted(dataclasses.asdict(tol).items())),
        "case_tag": case_tag,
    }
    if args.out:
        if args.out.endswith(".csv"):
            if traj is None:
                print("tgkit: error: --out .csv only applies to geodesic",
                      file=sys.stderr)
                return 1
            export_trajectory_csv(traj, args.out)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(report) + "\n")
    if args.json:
        print(canonical_json(report))
    else:
        print(_human(report, code))
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
