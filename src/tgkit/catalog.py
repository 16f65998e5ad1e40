"""Builtin algebras and chart metrics, and the verify ledger of their
known answers.

Algebra entries return MetricLieAlgebra instances with identity gram in the
stated basis order, admitted under the `tol` they are given.  Chart entries
return CoordinateMetric instances with exact partial derivatives, so finite
differencing is only exercised when a test asks for it, and with closed-form
geodesic stages.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .config import DEFAULT
from .coord_engine import (CoordinateMetric, ScalarField, TwistedProductSpec, _compiled,
                           _each, _product_metric, build_twisted_product, christoffel, coordinates,
                           eikonal_residuals, frenet_numeric, geodesic_integrate,
                           mathlib, second_fundamental_form, sectional_at,
                           twisting_ode_residual)
from .errors import BadParams, UnknownName
from .lie_core import (DIM_RANGE, LieAlgebra, MetricLieAlgebra, _antisym, _sl2_closed,
                       curvature_tensor, jacobi_residual, levi_civita, sectional)
from .tg_analysis import (_helix_witness, classify_case, frenet_orbit,
                          hyperplane_tg_residual, search_tg_hyperplanes)

def sl2(a=1.0, b=1.0, tol=DEFAULT):
    """Special linear algebra in the scaled basis

    E1 = a [[0,1],[-1,0]], E2 = 2b [[0,1],[0,0]], E3 = b [[1,0],[0,-1]],

    declared orthonormal.  The structure constants are the closed-form
    table _sl2_closed of the commutators of these matrices.
    """
    a, b = float(a), float(b)
    if a * b == 0.0:
        raise BadParams("sl2 needs nonzero a and b")
    if not math.isfinite(a * a + b * b + a * b):
        raise BadParams(f"sl2 needs a^2, b^2 and ab finite, got a = {a!r}, b = {b!r}")
    return MetricLieAlgebra(LieAlgebra(_sl2_closed(a, b), tol), tol=tol)


def nonhomo(tol=DEFAULT):
    """Four-dimensional solvable algebra, basis order (Z, X1, X2, Y):

    [Z,X1] = X1 + X2, [Z,X2] = -X1 + X2, [Z,Y] = 2Y, identity gram.
    """
    c = _antisym({(0, 1, 1): 1.0, (0, 1, 2): 1.0,
                  (0, 2, 1): -1.0, (0, 2, 2): 1.0,
                  (0, 3, 3): 2.0}, 4)
    return MetricLieAlgebra(LieAlgebra(c, tol), tol=tol)


def heisenberg(tol=DEFAULT):
    """[X,Y] = Z in basis order (X, Y, Z), identity gram."""
    return MetricLieAlgebra(LieAlgebra(_antisym({(0, 1, 2): 1.0}, 3), tol), tol=tol)


def _dimension(n, low):
    """int(n) in [low, DIM_RANGE[1]], checked before anything of size n exists."""
    n = int(n)
    if not low <= n <= DIM_RANGE[1]:
        raise BadParams(f"dimension {n} outside supported range [{low}, {DIM_RANGE[1]}]")
    return n


def abelian(n=3, tol=DEFAULT):
    n = _dimension(n, DIM_RANGE[0])
    return MetricLieAlgebra(LieAlgebra(np.zeros((n, n, n)), tol), tol=tol)


def _diagonal_metric(n, coeffs):
    """Chart with a diagonal gram that depends on x^0 alone.  coeffs(x^0, m) ->
    (the n diagonal entries, their derivatives in x^0), m = mathlib(x^0)."""
    def gram_at(x):
        g, x0 = np.zeros(x.shape[:-1] + (n, n)), coordinates(x)[0]
        for k, c in enumerate(coeffs(x0, mathlib(x0))[0]):
            g[..., k, k] = c
        return g

    def partials_at(x):
        dg, x0 = np.zeros(x.shape[:-1] + (n, n, n)), coordinates(x)[0]
        for k, c in enumerate(coeffs(x0, mathlib(x0))[1]):
            dg[..., 0, k, k] = c
        return dg

    return CoordinateMetric(n, gram_at, partials_at, _diagonal_stage(n)(coeffs))


@functools.cache
def _diagonal_stage(n):
    """make(coeffs) -> stage_at of _diagonal_metric, generated once per n: for j > 0,
    Gamma^0_00 = g_0'/(2 g_0), Gamma^0_jj = -g_j'/(2 g_0), Gamma^j_0j = g_j'/(2 g_j), else 0."""
    N = range(n)
    return _compiled(f"""\
def make(coeffs):
    def stage_at(x, v):
        ({_each('d{i}', N)},), ({_each('p{i}', N)},) = coeffs(x[0], math)
        {_each('v{i}', N)}, = v
        return [{', '.join(f'd{i // n}' if i % (n + 1) == 0 else '0.0' for i in range(n * n))}], [
            (0.5 * (0 + {_each('p{i} * v{i} * v{i}', N, ' + ')}) - v0 * p0 * v0) / d0,
            {_each('-(v0 * p{i} * v{i}) / d{i}', range(1, n))}]
    return stage_at
""", math=math)


def euclidean_metric(n=2):
    n = _dimension(n, 1)
    flat = ((1.0,) * n, (0.0,) * n)
    return _diagonal_metric(n, lambda x0, m: flat)


def hyperbolic_plane():
    """dr^2 + sinh(r)^2 dtheta^2 on r > 0, curvature -1."""
    def coeffs(r, m):
        s = m.sinh(r)
        return (1.0, s * s), (0.0, m.sinh(2.0 * r))

    return _diagonal_metric(2, coeffs)


def nonhomo_metric():
    """Chart form of nonhomo(), coordinates (z, y, x1, x2):

    dz^2 + e^{4z} dy^2 + e^{2z} (dx1^2 + dx2^2).
    """
    def coeffs(z, m):
        e2, e4 = m.exp(2.0 * z), m.exp(4.0 * z)
        return (1.0, e4, e2, e2), (0.0, 4.0 * e4, 2.0 * e2, 2.0 * e2)

    return _diagonal_metric(4, coeffs)


def twisted_h2(kappa=1.0) -> TwistedProductSpec:
    """Twisted product over the polar hyperbolic plane with alpha = r,
    beta = theta, k = 1, anchored at the origin."""
    alpha = ScalarField(lambda u: u[0], grad=lambda u: (1.0, 0.0))
    beta = ScalarField(lambda u: u[1], grad=lambda u: (0.0, 1.0))
    return TwistedProductSpec(hyperbolic_plane(), alpha, beta,
                              float(kappa), 1.0, np.zeros(2))


# ---- cartesian chart of the twisted build (regular across the polar axis)

def _hyperboloid_plane():
    """The hyperbolic plane in the coordinates q = (x, y) of its hyperboloid
    point (sqrt(1 + |q|^2), q), q = sinh(r) (cos theta, sin theta):
    gram I - q q^T / (1 + |q|^2), whose inverse is I + q q^T."""
    def gram_at(p):
        x, y = coordinates(p)
        d = 1.0 + x * x + y * y
        xy = -x * y / d
        return np.stack([np.stack([1.0 - x * x / d, xy], -1),
                         np.stack([xy, 1.0 - y * y / d], -1)], -2)

    def partials_at(p):
        # d_k g_ij = (2 q_i q_j q_k / d - delta_ki q_j - delta_kj q_i) / d
        q = np.asarray(p, float)
        d = (1.0 + q[..., 0] * q[..., 0] + q[..., 1] * q[..., 1])[..., None, None, None]
        qi, qj, qk = q[..., None, :, None], q[..., None, None, :], q[..., :, None, None]
        e = np.eye(2)
        return (2.0 * qk * qi * qj / d - e[:, :, None] * qj - e[:, None, :] * qi) / d

    def stage_at(p, v):
        # hyperboloid geodesics: q'' = <q', q'>_g q
        (x, y), (vx, vy) = p, v
        d = 1.0 + x * x + y * y
        s, xy = x * vx + y * vy, -x * y / d
        c = vx * vx + vy * vy - s * s / d
        return (1.0 - x * x / d, xy, xy, 1.0 - y * y / d), [c * x, c * y]

    return CoordinateMetric(2, gram_at, partials_at, stage_at)


def twisted_h2_cartesian(kappa=1.0):
    """Same geometry as build_twisted_product(twisted_h2(kappa)) in
    coordinates (t, x, y) with (x, y) = sinh(r) (cos theta, sin theta); smooth
    at the axis r = 0, where the polar chart degenerates.  There
    e^{-phi} = F = x cos(kappa t) - y sin(kappa t) + sqrt(1 + x^2 + y^2)."""
    kappa = float(kappa)
    if kappa == 0:
        raise BadParams("kappa must be nonzero")

    def weight(v, u, grad=False):
        (t,), (x, y) = v, u
        m = mathlib(t)
        cs, sn, h = m.cos(kappa * t), m.sin(kappa * t), m.sqrt(1.0 + x * x + y * y)
        F = x * cs - y * sn + h
        w = m.pow(F, -2.0)
        if not grad:
            return w
        m3 = -2.0 * m.pow(F, -3.0)
        return w, m3 * (-kappa * (x * sn + y * cs)), m3 * (cs + x / h), m3 * (y / h - sn)

    return _product_metric(1, _hyperboloid_plane(), weight, True)


# ----------------------------------------------------------------- dispatch

def catalog_lookup(name, params=None, kind=None, tol=DEFAULT):
    """Builtin by name, its algebra forms admitted under `tol`.  params is a
    dict of per-entry settings; kind picks between forms when an entry has
    more than one, and must be None on the others:

      nonhomo:    'algebra' (default) or 'coordinate'
      twisted-h2: 'chart' (default, polar), 'cartesian', or 'spec'; without
                  a kind, the parameter 'chart' picks the form
    """
    return _lookup(name, params, kind, tol)[0]


def _lookup(name, params, kind, tol):
    """(builtin, the parameter values it was built from, defaults included)."""
    params = dict(params or {})
    used = {}

    def take(key, default, cast):
        val = params.pop(key, default)
        try:
            used[key] = cast(val)
        except (TypeError, ValueError, OverflowError):
            raise BadParams(f"{name}: parameter {key!r} cannot be {val!r}")
        return used[key]

    def done(obj):
        if params:
            raise BadParams(f"unknown parameters for {name}: {sorted(params)}")
        return obj, used

    if kind is not None and name in CATALOG_NAMES and name not in ("nonhomo", "twisted-h2"):
        raise BadParams(f"{name} has no kind {kind!r}")
    if name == "sl2":
        return done(sl2(take("a", 1.0, float), take("b", 1.0, float), tol))
    if name == "nonhomo":
        if kind in (None, "algebra"):
            return done(nonhomo(tol))
        if kind == "coordinate":
            return done(nonhomo_metric())
        raise BadParams(f"nonhomo has no kind {kind!r}")
    if name == "heisenberg":
        return done(heisenberg(tol))
    if name == "abelian":
        return done(abelian(take("n", 3, int), tol))
    if name == "hyperbolic2":
        return done(hyperbolic_plane())
    if name == "twisted-h2":
        kappa = take("kappa", 1.0, float)
        chart = kind or take("chart", "chart", str)
        if chart in ("chart", "polar"):
            return done(build_twisted_product(twisted_h2(kappa)))
        if chart == "cartesian":
            return done(twisted_h2_cartesian(kappa))
        if chart == "spec":
            return done(twisted_h2(kappa))
        raise BadParams(f"twisted-h2 has no chart {chart!r}")
    if name == "euclidean":
        return done(euclidean_metric(take("n", 2, int)))
    raise UnknownName(f"no builtin named {name!r}; choices: {', '.join(CATALOG_NAMES)}")


# ------------------------------------------------------------- verify ledger
# Each verifier checks its builtin, got through _lookup under the run's tol,
# against known answers and returns report rows.

def _row(check, residual, tolerance, ok=None):
    # explicit ok marks a gate (ratio / count check), not a residual bound
    gate = ok is not None
    if ok is None:
        ok = bool(residual <= tolerance)
    return {"check": check, "residual": residual, "tolerance": tolerance,
            "ok": bool(ok), "gate": gate}


def _curvature_error(fd, k1, k2):
    # max |k_s - want|; a curvature the orbit truncated reads as 0, NaN stays NaN
    return float(np.abs(np.subtract((fd.curvatures + (0.0, 0.0))[:2], (k1, k2))).max())


def _verify_sl2(params, tol, grid):
    M, p = _lookup("sl2", params, None, tol)
    # the Frenet curvatures are norms, and so is the pair recovered from them
    a, b = abs(p["a"]), abs(p["b"])
    rows = [_row("jacobi", jacobi_residual(M.algebra), tol.jacobi)]
    conn = levi_civita(M)
    rows.append(_row("torsion", conn.torsion_residual, tol.torsion))
    rows.append(_row("metric_compat", conn.compat_residual, tol.metric_compat))
    T = np.array([1.0, 0.0, 0.0])
    rows.append(_row("tg_hyperplane", hyperplane_tg_residual(M, T),
                     tol.tg_residual))
    fr = frenet_orbit(M, T)
    rows.append(_row("frenet_curvatures", _curvature_error(fr, 2 * b, 2 * a), 1e-9))
    w = _helix_witness(M, fr)
    rows.append(_row("helix_table", w.residuals["bracket_table_residual"],
                     tol.bracket_table))
    rows.append(_row("recognized_params",
                     max(abs(w.recovered_a - a), abs(w.recovered_b - b)),
                     tol.sl2_match))
    return rows


def _verify_nonhomo(params, tol, grid):
    M, _ = _lookup("nonhomo", params, None, tol)
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


def _verify_heisenberg(params, tol, grid):
    M, _ = _lookup("heisenberg", params, None, tol)
    rows = [_row("jacobi", jacobi_residual(M.algebra), tol.jacobi)]
    res = search_tg_hyperplanes(M)
    rows.append(_row("no_certified_hyperplanes", float(len(res.normals)),
                     0.0, ok=len(res.normals) == 0))
    return rows


def _verify_abelian(params, tol, grid):
    M, _ = _lookup("abelian", params, None, tol)
    data = curvature_tensor(M)
    rows = [_row("flat_curvature", float(np.abs(data.components).max()), 1e-12)]
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(5):
        T = rng.standard_normal(M.dim)
        worst = max(worst, hyperplane_tg_residual(M, T / np.linalg.norm(T)))
    rows.append(_row("all_hyperplanes_tg", worst, tol.tg_residual))
    return rows


def _verify_hyperbolic2(params, tol, grid):
    CM, _ = _lookup("hyperbolic2", params, None, tol)
    X = np.array([[r, th] for r in (0.5, 1.0, 1.7) for th in (0.3, 2.1)])
    worst = float(np.abs(christoffel(CM, X, exact=True) - christoffel(CM, X, exact=False)).max())
    rows = [_row("fd_vs_exact_christoffel", worst, tol.fd_vs_exact)]
    x = np.array([0.9, 1.2])
    K = sectional_at(CM, x, np.array([1.0, 0.0]), np.array([0.0, 1.0]), tol)
    rows.append(_row("sectional_minus_one", abs(K + 1.0), tol.cross_engine))
    x0 = np.array([1.0, 0.5])
    v0 = np.array([0.6, 0.4])
    ends = [geodesic_integrate(CM, x0, v0, 1.0, h, tol).points[-1]
            for h in (4e-2, 2e-2, 1e-2)]
    e1 = float(np.linalg.norm(ends[0] - ends[1]))
    e2 = float(np.linalg.norm(ends[1] - ends[2]))
    ratio = e1 / e2 if e2 > 0 else float("inf")
    rows.append(_row("rk4_halving_ratio", ratio, 32.0,
                     ok=8.0 <= ratio <= 32.0))
    return rows


def _verify_twisted(params, tol, grid):
    spec, p = _lookup("twisted-h2", params, "spec", tol)
    kappa = p["kappa"]
    if not math.isfinite(kappa * kappa):
        # the twisting ODE and the sl2(kappa / 2, 1 / 2) model both need kappa^2
        raise BadParams(f"twisted-h2: kappa^2 is not finite for kappa = {kappa!r}")
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
    # the leaf's k2 is a norm, |kappa|
    rows.append(_row("orbit_frenet", _curvature_error(fr, 1.0, abs(kappa)), tol.leaf_frenet))
    rows.append(_row("orbit_closure", fr.truncation_residual, tol.leaf_k3))
    leaf = ScalarField(lambda x: x[0], grad=lambda x: (1.0, 0.0, 0.0),
                       hess=lambda x: ((0.0,) * 3,) * 3)
    worst = 0.0
    for r in (0.4, 1.1):
        for th in (0.2, 2.5):
            sff = second_fundamental_form(CM, leaf, np.array([0.0, r, th]))
            worst = max(worst, float(np.abs(sff).max()))
    rows.append(_row("leaf_sff", worst, tol.sff_leaf))
    cart = twisted_h2_cartesian(kappa)
    alg = sl2(kappa / 2.0, 0.5, tol)
    # at the anchor with t = 0 the chart frame lines up with the algebra
    # frame; along t it rotates at rate kappa, so only t = 0 matches planes.
    # Chart planes (t,x), (t,y), (x,y) meet the algebra as (E1,E3), (E1,E2), (E3,E2).
    e = np.eye(3)
    worst = 0.0
    for (i, j), (k, m) in (((0, 1), (0, 2)), ((0, 2), (0, 1)), ((1, 2), (2, 1))):
        Kc = sectional_at(cart, np.zeros(3), e[i], e[j], tol)
        worst = max(worst, abs(Kc - sectional(alg, e[k], e[m])))
    rows.append(_row("anchor_sectional_vs_algebra", worst, tol.cross_engine))
    return rows


def _verify_euclidean(params, tol, grid):
    CM, _ = _lookup("euclidean", params, None, tol)
    n = CM.dim
    rng = np.random.default_rng(1)
    worst = float(np.abs(christoffel(CM, rng.uniform(-1, 1, (3, n)))).max())
    rows = [_row("flat_christoffel", worst, 1e-12)]
    x0 = rng.uniform(-1, 1, n)
    v0 = rng.uniform(-1, 1, n)
    traj = geodesic_integrate(CM, x0, v0, 1.0, 1e-2, tol)
    err = float(np.linalg.norm(traj.points[-1] - (x0 + v0)))
    rows.append(_row("straight_line", err, 1e-9))
    return rows


LEDGER = {"sl2": _verify_sl2, "nonhomo": _verify_nonhomo,
          "heisenberg": _verify_heisenberg, "abelian": _verify_abelian,
          "hyperbolic2": _verify_hyperbolic2, "twisted-h2": _verify_twisted,
          "euclidean": _verify_euclidean}
CATALOG_NAMES = tuple(LEDGER)
