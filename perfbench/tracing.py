"""Span tracing from outside the program, by rebinding tgkit's public names.

`Rebound` replaces each traced function, method or constructor in every
tgkit module namespace that holds it with a wrapper that records a span
(name, start, end, parent span, op id, error flag, and one work number),
and puts every original back on exit, also when the traced code raised.
Spans live in flat arrays in memory and are written once at the end.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.work = array("d")
        self.stack = []
        self.op_id = -1

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self):
        return len(self.name)

    def wrap(self, fn, name, work=None):
        """fn recording one span per call; work(args, kwargs, result) -> float."""
        nid = self.name_id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, errors, works = self.start, self.end, self.error, self.work
        stack, clock = self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            errors.append(0)
            works.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if work is not None:
                works[idx] = work(args, kwargs, result)
            return result

        return traced

    def arrays(self):
        return {"name": np.array(self.name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "op": np.array(self.op, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
                "error": np.array(self.error, dtype=np.int8),
                "work": np.array(self.work, dtype=np.float64)}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent, start, end):
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so children never overlap and
    their covered time is the sum of their durations.
    """
    parent = np.asarray(parent)
    dur = np.asarray(end, float) - np.asarray(start, float)
    covered = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(covered, parent[has], dur[has])
    return dur - covered


def under(parent, name, ancestor_ids):
    """True where some proper ancestor of the span has a name in ancestor_ids."""
    flag = np.zeros(len(parent), dtype=bool)
    hit = np.isin(name, list(ancestor_ids))
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            flag[i] = flag[p] or hit[p]
    return flag


def _search_starts(args, kwargs, result):
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    return float(config.n_starts if config is not None else 64)


def _residual_value(args, kwargs, result):
    return float(result)


def _rk4_steps(args, kwargs, result):
    return float(len(result.times) - 1)


def _partials_exact(args, kwargs, result):
    cm = args[0]
    exact = kwargs.get("exact", args[2] if len(args) > 2 else None)
    return float(cm.partials_at is not None if exact is None else bool(exact))


# (owner, attribute, span name, work hook); an owner is a tgkit module or
# a class in one ("coord_engine.CoordinateMetric").  Constructors, methods
# and the catalog's builders share one span name per layer boundary.
TARGETS = (
    ("lie_core", "levi_civita", "lie_core.levi_civita", None),
    ("lie_core", "curvature_tensor", "lie_core.curvature_tensor", None),
    ("lie_core", "sectional", "lie_core.sectional", None),
    ("lie_core.LieAlgebra", "__init__", "lie_core.admission", None),
    ("lie_core.MetricLieAlgebra", "__init__", "lie_core.admission", None),
    ("tg_analysis", "hyperplane_tg_residual", "tg_analysis.hyperplane_tg_residual",
     _residual_value),
    ("tg_analysis", "search_tg_hyperplanes", "tg_analysis.search_tg_hyperplanes",
     _search_starts),
    ("tg_analysis", "frenet_orbit", "tg_analysis.frenet_orbit", None),
    ("tg_analysis", "codazzi_residual", "tg_analysis.codazzi_residual", None),
    ("tg_analysis", "tg_subspace_check", "tg_analysis.tg_subspace_check", None),
    ("tg_analysis", "classify_case", "tg_analysis.classify_case", None),
    ("tg_analysis", "helix_witness", "tg_analysis.helix_witness", None),
    ("coord_engine", "geodesic_integrate", "coord_engine.geodesic_integrate", _rk4_steps),
    ("coord_engine", "christoffel", "coord_engine.christoffel", None),
    ("coord_engine.CoordinateMetric", "gram", "coord_engine.gram", None),
    ("coord_engine.CoordinateMetric", "partials", "coord_engine.partials",
     _partials_exact),
    ("coord_engine", "riemann_at", "coord_engine.riemann_at", None),
    ("coord_engine", "sectional_at", "coord_engine.sectional_at", None),
    ("coord_engine", "frenet_numeric", "coord_engine.frenet_numeric", None),
    ("coord_engine", "second_fundamental_form", "coord_engine.second_fundamental_form",
     None),
    ("coord_engine", "twisting_ode_residual", "coord_engine.twisting_ode_residual", None),
    ("coord_engine", "eikonal_residuals", "coord_engine.eikonal_residuals", None),
) + tuple(("catalog", name, "catalog.lookup", None) for name in (
    "catalog_lookup", "sl2", "nonhomo", "heisenberg", "abelian", "euclidean_metric",
    "hyperbolic_plane", "nonhomo_metric", "twisted_h2", "twisted_h2_cartesian")) + (
    ("cli", "run", "cli.run", None),
    ("cli", "canonical_json", "cli.canonical_json", None),
)

SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span, _ in TARGETS))


def targets(tg):
    """TARGETS with each owner resolved on the imported tgkit modules."""
    out = []
    for owner, attr, span, work in TARGETS:
        obj = tg
        for part in owner.split("."):
            obj = getattr(obj, part)
        out.append((obj, attr, span, work))
    return out


class Rebound:
    """Context manager: wrap every target, restore every original on exit."""

    def __init__(self, tracer, targets):
        self.tracer = tracer
        self.targets = targets
        self.saved = []

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "tgkit" or name.startswith("tgkit."))]
        try:
            for owner, attr, span, work in self.targets:
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                    self._set(owner, attr, original,
                              self.tracer.wrap(original, span, work))
                    continue
                original = getattr(owner, attr)
                wrapped = self.tracer.wrap(original, span, work)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._set(mod, key, original, wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def _set(self, owner, attr, original, wrapped):
        self.saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self):
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self.restore()
        return False


# ------------------------------------------------------------------ metrics

SETUP_SPANS = ("catalog.lookup", "lie_core.admission")


def metric_names():
    """Every per-layer metric `layer_metrics` reports, in print order."""
    out = [f"{s}.{k}" for s in SPAN_NAMES for k in ("calls", "self_ms", "errors")]
    out += [f"{s}.setup_self_ms" for s in SETUP_SPANS]
    out += ["tg_analysis.search.starts", "tg_analysis.search.certified_start_ratio",
            "tg_analysis.search.nested_ms", "coord_engine.rk4_steps",
            "coord_engine.christoffel.calls_per_rk4_step",
            "coord_engine.gram.calls_per_rk4_step", "coord_engine.partials.fd_calls",
            "coord_engine.partials.exact_calls", "trace.spans_per_op"]
    return out


def layer_metrics(tracer, n_ops, search_threshold):
    """Per-op layer numbers from the spans of ops 0..n_ops-1.

    Spans with op id -1 come from the traced set-up pass and feed only the
    `.setup_self_ms` totals.  Returns (metrics, bases) where bases gives the
    denominator behind each ratio.
    """
    a = tracer.arrays()
    ids = {name: tracer.name_id(name) for name in SPAN_NAMES}
    name, parent, work = a["name"], a["parent"], a["work"]
    selft = self_times(parent, a["start"], a["end"])
    dur = a["end"] - a["start"]
    in_op = a["op"] >= 0
    setup = a["op"] == -1
    per = max(n_ops, 1)
    m = {}
    for span in SPAN_NAMES:
        mask = in_op & (name == ids[span])
        m[f"{span}.calls"] = int(mask.sum()) / per
        m[f"{span}.self_ms"] = float(selft[mask].sum()) * 1e3 / per
        m[f"{span}.errors"] = int(a["error"][mask].sum())
    for span in SETUP_SPANS:
        m[f"{span}.setup_self_ms"] = float(
            selft[setup & (name == ids[span])].sum()) * 1e3

    search = in_op & (name == ids["tg_analysis.search_tg_hyperplanes"])
    m["tg_analysis.search.starts"] = float(work[search].sum()) / per
    in_search = under(parent, name, {ids["tg_analysis.search_tg_hyperplanes"]})
    res = in_op & in_search & (name == ids["tg_analysis.hyperplane_tg_residual"])
    n_res = int(res.sum())
    m["tg_analysis.search.certified_start_ratio"] = (
        int((work[res] < search_threshold).sum()) / n_res if n_res else 0.0)
    nested = search & under(parent, name, {ids["tg_analysis.helix_witness"]})
    m["tg_analysis.search.nested_ms"] = float(dur[nested].sum()) * 1e3 / per

    geo = in_op & (name == ids["coord_engine.geodesic_integrate"])
    steps = float(work[geo].sum())
    in_geo = in_op & under(parent, name, {ids["coord_engine.geodesic_integrate"]})
    m["coord_engine.rk4_steps"] = steps / per
    for span in ("christoffel", "gram"):
        calls = int((in_geo & (name == ids[f"coord_engine.{span}"])).sum())
        m[f"coord_engine.{span}.calls_per_rk4_step"] = calls / steps if steps else 0.0
    partials = in_op & (name == ids["coord_engine.partials"])
    m["coord_engine.partials.fd_calls"] = int((partials & (work == 0.0)).sum()) / per
    m["coord_engine.partials.exact_calls"] = int((partials & (work == 1.0)).sum()) / per
    m["trace.spans_per_op"] = int(in_op.sum()) / per
    bases = {"tg_analysis.search.certified_start_ratio": n_res,
             "coord_engine.christoffel.calls_per_rk4_step": steps,
             "coord_engine.gram.calls_per_rk4_step": steps}
    return m, bases
