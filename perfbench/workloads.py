"""The four benchmark workloads: set-up, one op, and the op's output check.

Each workload turns the plain inputs from `generate.make_inputs` into
tgkit objects in `build` (this is the timed set-up: catalog lookups and the
Jacobi, SPD and ONB admission gates), runs one op per input in `op` (the
only timed code), and checks the op's output in `check`, which returns a
list of failure messages.  Every tgkit call goes through a module attribute
(`tg.tg_analysis.search_tg_hyperplanes`, ...) so the traced run's
rebinding sees it.
"""
from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import generate


class Tgkit:
    """The tgkit modules, imported on demand so set-up timing includes them."""

    def __init__(self):
        import tgkit
        import tgkit.catalog
        import tgkit.cli
        import tgkit.config
        import tgkit.coord_engine
        import tgkit.lie_core
        import tgkit.tg_analysis
        self.pkg = tgkit
        self.catalog = tgkit.catalog
        self.cli = tgkit.cli
        self.coord_engine = tgkit.coord_engine
        self.lie_core = tgkit.lie_core
        self.tg_analysis = tgkit.tg_analysis
        self.tol = tgkit.config.DEFAULT


# ------------------------------------------------------------- algebras

def _constants(tg, factor):
    if "constants" in factor:
        return np.asarray(factor["constants"], float)
    M = tg.catalog.catalog_lookup(factor["name"], factor["params"])
    return M.algebra.structure_constants


def _direct_sum(blocks):
    n = sum(c.shape[0] for c in blocks)
    out = np.zeros((n, n, n))
    o = 0
    for c in blocks:
        m = c.shape[0]
        out[o:o + m, o:o + m, o:o + m] = c
        o += m
    return out


def build_algebra(tg, item):
    lie = tg.lie_core
    kind = item["kind"]
    if kind == "catalog":
        return tg.catalog.catalog_lookup(item["name"], item["params"])
    if kind == "ortho":
        c = _constants(tg, item)
        q = item["change"]
        # f_a = sum_i q[i, a] e_i and q^{-1} = q^T
        c = np.einsum('ia,jb,ijk,kc->abc', q, q, c, q)
        return lie.MetricLieAlgebra(lie.LieAlgebra(c))
    if kind == "sum":
        c = _direct_sum([_constants(tg, f) for f in item["factors"]])
        return lie.MetricLieAlgebra(lie.LieAlgebra(c))
    return lie.MetricLieAlgebra(lie.LieAlgebra(item["constants"]), item["gram"])


def _base_key(item):
    if item["kind"] not in ("catalog", "ortho"):
        return None
    p = item["params"]
    return (item["name"], p.get("a"), p.get("b"))


class Census:
    """search_tg_hyperplanes on one algebra, then classify_case per normal."""

    name = "census"

    def __init__(self):
        self.base_counts = {}

    def build(self, tg, inputs):
        return [(item, build_algebra(tg, item)) for item in inputs]

    def op(self, tg, prepared):
        item, M = prepared
        ta = tg.tg_analysis
        res = ta.search_tg_hyperplanes(M, ta.SearchConfig(seed=item["search_seed"]))
        reports = [ta.classify_case(M, T) for T in res.normals]
        return res, reports

    def _base_count(self, tg, item):
        key = _base_key(item)
        if key not in self.base_counts:
            base = dict(item, kind="catalog")
            M = build_algebra(tg, base)
            self.base_counts[key] = len(tg.tg_analysis.search_tg_hyperplanes(M))
        return self.base_counts[key]

    def check(self, tg, prepared, out):
        item, M = prepared
        res, reports = out
        tol = tg.tol
        errs = []
        for T in res.normals:
            r = tg.tg_analysis.hyperplane_tg_residual(M, T)
            if not r < tol.tg_residual:
                errs.append(f"normal {T} re-certifies at {r:.3e}")
            if not abs(M.norm(T) - 1.0) <= tol.unit_norm:
                errs.append(f"normal {T} has gram norm {M.norm(T)!r}")
        for rep in reports:
            if rep.case_tag is tg.tg_analysis.CaseTag.HIGHER_ORDER:
                errs.append("classify_case returned HigherOrder")
        key = _base_key(item)
        if item["kind"] == "catalog":
            self.base_counts[key] = len(res)
        if item["kind"] == "catalog" and item["name"] == "heisenberg" and len(res):
            errs.append(f"heisenberg certified {len(res)} normals, expected 0")
        if item["kind"] == "ortho" and len(res) != self._base_count(tg, item):
            errs.append(f"orthogonal change of {key} found {len(res)} normals, "
                        f"base found {self._base_count(tg, item)}")
        return errs


class Certify:
    """The certification bundle on one algebra; no search, no classify_case."""

    name = "certify"

    def build(self, tg, inputs):
        out = []
        for item in inputs:
            if item["known_normal"] is None:
                continue
            M = build_algebra(tg, item)
            S = tg.lie_core.Subspace(item["dim"], item["subspace"])
            out.append((item, M, S))
        return out

    def op(self, tg, prepared):
        item, M, S = prepared
        ta, lie = tg.tg_analysis, tg.lie_core
        T = item["known_normal"]
        x, y = item["plane"]
        return {"known": ta.hyperplane_tg_residual(M, T),
                "random": ta.hyperplane_tg_residual(M, item["random_normal"]),
                "subspace": ta.tg_subspace_check(M, S),
                "frenet": ta.frenet_orbit(M, T),
                "codazzi": ta.codazzi_residual(M, T),
                "sectional": lie.sectional(M, x, y),
                "curvature": lie.curvature_tensor(M)}

    def check(self, tg, prepared, out):
        item, M, S = prepared
        tol = tg.tol
        errs = []
        if not out["known"] < tol.tg_residual:
            errs.append(f"known TG normal residual {out['known']:.3e}")
        if not out["codazzi"] <= tol.codazzi:
            errs.append(f"codazzi residual {out['codazzi']:.3e} on a TG normal")
        sub = out["subspace"]
        if sub.ok != item["subspace_ok"]:
            errs.append(f"tg_subspace_check ok={sub.ok}, expected {item['subspace_ok']}")
        if not sub.ok:
            want = item["subspace_witness"]
            if sub.witness is None or (want and sub.witness.kind != want):
                errs.append(f"rejected subspace lacks a {want or 'any'} witness")
            if not abs(sub.residual - item["subspace_residual"]) <= 1e-9:
                errs.append(f"rejected subspace residual {sub.residual!r}, "
                            f"expected {item['subspace_residual']}")
        if item["base"] == "sl2" and item["kind"] in ("catalog", "ortho"):
            a, b = item["params"]["a"], item["params"]["b"]
            ks = out["frenet"].curvatures
            if len(ks) != 2 or max(abs(ks[0] - 2 * b), abs(ks[1] - 2 * a)) > 1e-9:
                errs.append(f"sl2 E1 orbit curvatures {ks}, expected ({2 * b}, {2 * a})")
        if not (math.isfinite(out["random"]) and math.isfinite(out["sectional"])
                and np.isfinite(out["curvature"].eigenvalues).all()):
            errs.append("non-finite residual or curvature")
        return errs


class Chart:
    """A geodesic from a seeded start, then its replay on the chart."""

    name = "chart"

    def build(self, tg, inputs):
        out = []
        for item in inputs:
            name = item["chart"].split(":")[0]
            CM = tg.catalog.catalog_lookup(name, item["params"], kind=item["kind"])
            leaf = None
            if "leaf_point" in item:
                times = np.linspace(0.0, 2 * np.pi, item["leaf_samples"])
                u = np.broadcast_to(item["leaf_point"], (len(times), 2))
                leaf = (times, np.column_stack([times, u]))
            out.append((item, CM, leaf))
        return out

    def op(self, tg, prepared):
        item, CM, leaf = prepared
        ce = tg.coord_engine
        traj = ce.geodesic_integrate(CM, item["x0"], item["v0"], item["tmax"], item["step"])
        end = traj.points[-1]
        u, v = item["plane"]
        out = {"traj": traj,
               "sectional": ce.sectional_at(CM, end, u, v),
               "exact": ce.christoffel(CM, end, exact=True),
               "fd": ce.christoffel(CM, end, exact=False),
               "leaf": None}
        if leaf is not None:
            out["leaf"] = ce.frenet_numeric(CM, *leaf)
        return out

    def check(self, tg, prepared, out):
        item, CM, leaf = prepared
        tol = tg.tol
        errs = []
        if item["chart"] == "euclidean":
            line = item["x0"] + item["v0"] * item["tmax"]
            err = float(np.linalg.norm(out["traj"].points[-1] - line))
            if not err <= 1e-9:
                errs.append(f"euclidean endpoint off the straight line by {err:.3e}")
        want = item["expected_sectional"]
        if want is not None and not abs(out["sectional"] - want) <= tol.cross_engine:
            errs.append(f"sectional {out['sectional']!r}, expected {want}")
        fd = float(np.abs(out["exact"] - out["fd"]).max())
        if not fd <= tol.fd_vs_exact:
            errs.append(f"FD and exact Christoffel differ by {fd:.3e}")
        if leaf is not None:
            fr = out["leaf"]
            kappa = item["params"]["kappa"]
            if fr.order != 2 or max(abs(fr.curvatures[0] - 1.0),
                                    abs(fr.curvatures[1] - kappa)) > tol.leaf_frenet:
                errs.append(f"leaf orbit curvatures {fr.curvatures}, expected (1, {kappa})")
        return errs


class Verify:
    """`tgkit verify <entry> --json` in-process, stdout captured."""

    name = "verify"

    def build(self, tg, inputs):
        return list(inputs)

    def op(self, tg, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tg.cli.run(argv)
        return code, buf.getvalue()

    def check(self, tg, argv, out):
        code, text = out
        if code != 0:
            return [f"{' '.join(argv)} exited {code}"]
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"{' '.join(argv)} printed invalid JSON: {exc}"]
        bad = [f"{e['name']}.{r['check']}" for e in report["result"]["entries"]
               for r in e["checks"] if not r["ok"]]
        if bad or not report["result"]["ok"]:
            return [f"{' '.join(argv)} ledger rows not ok: {bad}"]
        return []


WORKLOADS = {w.name: w for w in (Census, Certify, Chart, Verify)}


def setup(workload, seed):
    """Import tgkit and build the workload's inputs; returns (tg, runner, items)."""
    tg = Tgkit()
    runner = WORKLOADS[workload]()
    items = runner.build(tg, generate.make_inputs(workload, seed))
    return tg, runner, items
