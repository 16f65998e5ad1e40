"""Chart-level metric engine.

Christoffel symbols (exact partials or central finite differences with one
Richardson level), geodesic integration (fixed-step RK4), second fundamental
forms of level-set hypersurfaces, warped and twisted product builders with
their conservation-law and eikonal checks, numeric Frenet data of sampled
curves, and pointwise curvature for cross-engine comparisons.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import struct
import typing

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (BadParams, DegeneratePlane, DimensionMismatch,
                     IrregularCurve, MetricDegenerate, TgkitError)
from .lie_core import gram_schmidt
from .tg_analysis import FrenetData

# Largest step count geodesic_integrate accepts: the trajectory and its
# speeds are held in memory, (2n + 2) floats per step.
MAX_RK4_STEPS = 10**6
# Largest verify sampling density (--tol grid): twisting_ode_residual
# evaluates a grid x grid stack of (t, u) points at once.
MAX_GRID = 1000
# RK4 steps whose stage grams geodesic_integrate gates in one pass; bounds
# the pending stage buffer at 4 * _GATE_STEPS grams.
_GATE_STEPS = 256
# Relative finite-difference steps: first derivatives of fields and grams,
# and the derivative of the Christoffel symbols in riemann_at.
_FD_STEP = 1e-5
_RIEMANN_STEP = 1e-3


def _richardson(f, x, step):
    """d f / d x^k at points x (..., n), on a new axis k after x's leading axes,
    with f called once on all 4n shifted points: central differences with one
    Richardson level, h_k = step * max(1, |x^k|), (4 D(h_k / 2) - D(h_k)) / 3."""
    h = step * np.maximum(1.0, np.abs(x))
    E = np.eye(x.shape[-1]) * h[..., None]          # E[..., k, :] = h_k e_k
    fs = f(x[..., None, None, :] + np.stack([E, -E, E / 2, -E / 2], axis=-3))
    fs = np.moveaxis(fs, x.ndim - 1, 0)
    h = h.reshape(h.shape + (1,) * (fs.ndim - x.ndim - 1))
    return (4 * ((fs[2] - fs[3]) / h) - (fs[0] - fs[1]) / (2 * h)) / 3


def coordinates(x):
    """The coordinates x[..., k] of points x (..., n): Python floats at one point."""
    return x.tolist() if x.ndim == 1 else [x[..., k] for k in range(x.shape[-1])]


class _Elementwise:
    """math's functions f(x, *constants), element by element over an array x."""

    def __getattr__(self, name):
        f = getattr(math, name)
        return lambda x, *c: np.fromiter(map(f, np.ravel(x).tolist(), *map(itertools.repeat, c)),
                                         float, np.size(x)).reshape(np.shape(x))


def mathlib(x, _elementwise=_Elementwise()):
    """math at a float x (the RK4 stage's path), else its functions element-wise:
    numpy's transcendentals and powers differ from math's in the last bit."""
    return math if isinstance(x, float) else _elementwise


# ------------------------------------------------------------- scalar fields

class ScalarField:
    """Scalar function with optional exact gradient / Hessian evaluators.

    fn, grad and hess take coordinates(x), n floats at one point or n arrays
    over a stack (..., n), transcendentals through mathlib, and return the
    value, the n partials and n rows of n, each a float or an array.  value,
    gradient and hessian take points (..., n) and return (...), (..., n) and
    (..., n, n), a float value at one point.  Missing derivatives fall back
    to central differences with one Richardson extrapolation level.
    """

    def __init__(self, fn, grad=None, hess=None):
        self.fn, self.grad, self.hess = fn, grad, hess

    @property
    def has_grad(self):
        return self.grad is not None

    def value(self, x):
        x = np.asarray(x, float)
        v = self.fn(coordinates(x))
        return float(v) if x.ndim == 1 else np.broadcast_to(np.asarray(v, float), x.shape[:-1])

    def gradient(self, x):
        x = np.asarray(x, float)
        if self.grad is None:
            return _richardson(self.value, x, _FD_STEP)
        return _last_axis(self.grad(coordinates(x)), x.shape[:-1])

    def hessian(self, x):
        x = np.asarray(x, float)
        if self.hess is not None:
            rows = self.hess(coordinates(x))
            return np.stack([_last_axis(row, x.shape[:-1]) for row in rows], -2)
        H = _richardson(self.gradient, x, _FD_STEP)
        return 0.5 * (H + np.swapaxes(H, -1, -2))


def _last_axis(parts, shape):
    """The entries parts, floats or arrays over shape, on a new last axis."""
    return np.stack([np.broadcast_to(np.asarray(p, float), shape) for p in parts], -1)


# ------------------------------------------------------------------- metrics

class CoordinateMetric:
    """Metric tensor evaluator on a chart.

    gram_at(x) -> symmetric positive definite matrices, gated by gram(x);
    partials_at, when given, returns dg[..., k, i, j] = d g_ij / d x^k
    exactly; all take points (..., dim).  stage_at(x, v), when given, takes
    Python floats and returns the RK4 stage of geodesic_integrate from one
    evaluation of the chart's coefficients: the ungated gram at x as dim^2
    floats, row-major (equal to gram_at(x)), and the spray -Gamma(v, v), dim floats.
    """

    def __init__(self, dim, gram_at, partials_at=None, stage_at=None):
        self.dim = int(dim)
        self.gram_at = gram_at
        self.partials_at = partials_at
        self.stage_at = stage_at

    def gram(self, x):
        return _grams(self, np.asarray(x, float))

    def partials(self, x, exact=None):
        """dg[..., k, i, j] at x (..., dim); exact=None auto-selects, True/False
        forces a path.  An evaluator error of _NOT_FINITE gates the grams at x,
        then raises MetricDegenerate naming the derivatives."""
        x = np.asarray(x, float)
        use_exact = self.partials_at is not None if exact is None else exact
        if use_exact and self.partials_at is None:
            raise TgkitError("no exact partials available")
        try:
            with np.errstate(all='ignore'):     # quiet as on floats; the gates report it
                if use_exact:
                    return np.asarray(self.partials_at(x), float)
                return _richardson(lambda y: np.asarray(self.gram_at(y), float), x, _FD_STEP)
        except _NOT_FINITE:
            _grams(self, x)
            raise MetricDegenerate(f"metric derivatives not finite at {x.tolist()}") from None


# float kernels raise these where numpy returns inf or NaN: math.sinh(1e3), math.cos(inf)
_NOT_FINITE = (ArithmeticError, ValueError)


def _eval_gram(CM, x):
    """gram_at(x) as a float array, not gated, at points x (..., dim); a wrong
    shape or an error of _NOT_FINITE counts as not finite."""
    try:
        with np.errstate(all='ignore'):
            g = np.asarray(CM.gram_at(x), float)
    except _NOT_FINITE:
        g = None
    if g is None or g.shape != x.shape[:-1] + (CM.dim, CM.dim):
        raise MetricDegenerate(f"gram not finite at {x.tolist()}")
    return g


def _gate_grams(points, grams):
    """The (N, n, n) stack grams, evaluated at points (N rows of floats),
    once each gram is finite, symmetric within 1e-12 and positive definite.

    One vectorised pass over the stack; if it fails, the first failing point
    raises MetricDegenerate naming the first check that point fails.
    """
    if (np.isfinite(grams).all()
            and np.abs(grams - np.swapaxes(grams, 1, 2)).max(initial=0.0) <= 1e-12):
        try:
            np.linalg.cholesky(grams)
            return grams
        except np.linalg.LinAlgError:
            pass
    for x, g in zip(np.asarray(points, float), grams):
        if not np.isfinite(g).all():
            raise MetricDegenerate(f"gram not finite at {x.tolist()}")
        if not np.abs(g - g.T).max() <= 1e-12:
            raise MetricDegenerate(f"gram not symmetric at {x.tolist()}")
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise MetricDegenerate(f"gram not positive definite at {x.tolist()}")
    return grams


def _packed(floats):
    """The list floats as a float array, bit for bit, from one struct.pack:
    faster than np.fromiter or np.array on a long flat list."""
    return np.frombuffer(struct.pack(f"{len(floats)}d", *floats))


def _grams(CM, points):
    """Gated grams at points (..., dim), from one gram_at call; if it raises, one
    call per point, each gated before the next: the earliest failure wins."""
    if points.shape[-1:] != (CM.dim,):
        raise DimensionMismatch(f"point has shape {points.shape}, metric dim {CM.dim}")
    flat = points.reshape(-1, CM.dim)
    try:    # a single point evaluates as one, on the charts' float path
        grams = _eval_gram(CM, points).reshape(-1, CM.dim, CM.dim)
    except Exception:
        grams = np.reshape([_gate_grams([x], _eval_gram(CM, x)[None]) for x in flat],
                           (-1, CM.dim, CM.dim))
    return _gate_grams(flat, grams).reshape(points.shape + (CM.dim,))


def _christoffel_from(g, dg):
    """Gamma[..., k, i, j] from grams g[..., :, :] and their partials
    dg[..., k, i, j]: one point, or a stack of points on the leading axes."""
    gi = np.linalg.inv(g)
    # W[i][j][l] = d_i g_jl + d_j g_il - d_l g_ij, the three terms in this
    # order, from dg[k][i][j] = d_k g_ij
    W = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    G = 0.5 * np.einsum('...kl,...ijl->...kij', gi, W)
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def christoffel(CM: CoordinateMetric, x, exact=None):
    """Gamma[..., k, i, j] = Gamma^k_{ij} at points x (..., dim), symmetric in (i, j)."""
    return _christoffel_from(CM.gram(x), CM.partials(x, exact=exact))


# ----------------------------------------------------------------- geodesics

@dataclasses.dataclass(frozen=True)
class GeodesicTrajectory:
    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    step: float
    speed_drift: float     # max relative speed change per unit time


def _spray(g, dg, v):
    """-Gamma^k_ij v^i v^j from the gram g and its partials dg at one point:
    the solution a of g a = -((d_v g) v - 1/2 dg(v, v))."""
    A = dg @ v          # A[k][i] = d_k g_ij v^j
    return -np.linalg.solve(g, v @ A - 0.5 * (A @ v))


def _generic_stage(CM, x, v):
    """The RK4 stage of a chart without stage_at: its gram as floats, not gated, and
    the _spray solve from its partials."""
    x = np.array(x)
    g = _eval_gram(CM, x)
    return g.ravel().tolist(), _spray(g, CM.partials(x), np.array(v)).tolist()


def _each(fmt, idx, sep=", "):
    return sep.join(fmt.format(i=i) for i in idx)


def _compiled(src, **scope):
    """The function make that the generated source src defines, with scope as its globals."""
    exec(src, scope)
    return scope["make"]


@functools.cache
def _rk4_step(n):
    """make(stage, push_x, push_g, h, hh, h6) -> step(xv), one RK4 step of
    geodesic_integrate at dimension n, from x + v as 2n floats to the next
    x + v, generated once per n as dataclasses generates __init__.  Each
    stage point goes to push_x before its stage call, each gram's n^2 floats
    to push_g after it."""
    def each(fmt, sep=", "):
        return _each(fmt, range(n), sep)
    return _compiled(f"""\
def make(stage, push_x, push_g, h, hh, h6):
    def step(xv):
        {each('x{i}')}, {each('v{i}')}, = xv
        y = [{each('x{i}')}]
        push_x(y)
        g, ({each('k1v{i}')},) = stage(y, [{each('v{i}')}])
        push_g(g)
        {each('k2x{i} = v{i} + hh * k1v{i}', '; ')}
        y = [{each('x{i} + hh * v{i}')}]
        push_x(y)
        g, ({each('k2v{i}')},) = stage(y, [{each('k2x{i}')}])
        push_g(g)
        {each('k3x{i} = v{i} + hh * k2v{i}', '; ')}
        y = [{each('x{i} + hh * k2x{i}')}]
        push_x(y)
        g, ({each('k3v{i}')},) = stage(y, [{each('k3x{i}')}])
        push_g(g)
        {each('k4x{i} = v{i} + h * k3v{i}', '; ')}
        y = [{each('x{i} + h * k3x{i}')}]
        push_x(y)
        g, ({each('k4v{i}')},) = stage(y, [{each('k4x{i}')}])
        push_g(g)
        return [{each('x{i} + h6 * (v{i} + 2 * k2x{i} + 2 * k3x{i} + k4x{i})')},
                {each('v{i} + h6 * (k1v{i} + 2 * k2v{i} + 2 * k3v{i} + k4v{i})')}]
    return step
""")


def geodesic_integrate(CM: CoordinateMetric, x0, v0, tmax, h=1e-3,
                       tol: Tolerances = DEFAULT) -> GeodesicTrajectory:
    """Fixed-step RK4 on the geodesic equation, on Python floats.

    A stage is one CM.stage_at call, or, on a chart without one, one
    gram_at call, one partials call and one _spray solve.  Stage grams and
    step ends gather in flat float lists, packed and gated _GATE_STEPS steps
    at a time; each step's speed comes from its first stage's gram, and no gram
    outlives its block.  A stage that raises sends the pending points, its own
    the last, through _grams: a degenerate gram raises at its point first.
    """
    x0, v0 = _one_point(CM, x0), _one_point(CM, v0, "velocity")
    with np.errstate(over='ignore', invalid='ignore'):
        s0 = float(np.sqrt(v0 @ CM.gram(x0) @ v0))
    if not math.isfinite(s0):
        raise BadParams("initial velocity length overflows float range"
                        if np.isfinite(v0).all() else "initial velocity is not finite")
    if s0 <= 0.0:
        raise BadParams("initial velocity has zero length")
    if not (math.isfinite(tmax) and math.isfinite(h)):
        raise BadParams("tmax and step must be finite")
    if tmax <= 0 or h <= 0:
        raise BadParams("tmax and step must be positive")
    if not tmax / h < MAX_RK4_STEPS + 0.5:
        raise BadParams(f"tmax / step = {tmax / h:.3e} RK4 steps exceeds the limit "
                        f"of {MAX_RK4_STEPS}")
    nsteps = max(1, round(tmax / h))
    h = tmax / nsteps
    n = CM.dim
    stage = CM.stage_at or (lambda x, v: _generic_stage(CM, x, v))
    chart = CM      # the stage contract, once, on the chart and on a product chart's base;
    while chart is not None and chart.stage_at:     # a stage's own error comes from the loop
        k = chart.dim
        try:
            lengths = tuple(map(len, chart.stage_at(x0.tolist()[-k:], v0.tolist()[-k:])))
        except Exception:
            lengths = None
        if lengths not in (None, (k * k, k)):
            raise DimensionMismatch(f"stage_at returned (gram, spray) of {lengths} floats; a "
                                    f"{k}-dim chart needs n^2 = {k * k} and n = {k}")
        chart = getattr(chart.stage_at, 'base', None)
    stage_x, stage_g, ends = [], [], []     # pending stage points; stage grams, step ends flat
    step = _rk4_step(n)(stage, stage_x.append, stage_g.extend, h, 0.5 * h, h / 6.0)

    times = np.arange(nsteps + 1) * h
    points = np.empty((nsteps + 1, n))
    vels = np.empty((nsteps + 1, n))
    speeds = np.empty(nsteps + 1)
    points[0], vels[0] = x0, v0
    xv = x0.tolist() + v0.tolist()
    # huge but finite partials overflow a stage's spray; the gram gate or the
    # divergence check below reports it, so numpy stays quiet for the loop
    with np.errstate(over='ignore', invalid='ignore'):
        for start in range(0, nsteps, _GATE_STEPS):
            stop = min(start + _GATE_STEPS, nsteps)
            for _ in range(start, stop):
                try:
                    xv = step(xv)
                except Exception as exc:
                    _grams(CM, np.array(stage_x))   # the failing stage's point is the last
                    if isinstance(exc, _NOT_FINITE):
                        raise MetricDegenerate(
                            f"metric derivatives not finite at {stage_x[-1]}") from None
                    raise
                ends.extend(xv)
            g = _gate_grams(stage_x, _packed(stage_g).reshape(len(stage_x), n, n))
            xv_ends = _packed(ends).reshape(stop - start, 2 * n)
            points[start + 1:stop + 1], vels[start + 1:stop + 1] = xv_ends[:, :n], xv_ends[:, n:]
            v = vels[start:stop]    # step i's first stage is at vels[i]: read after the write
            speeds[start:stop] = np.sqrt(np.einsum('ni,nij,nj->n', v, g[::4], v))
            del stage_x[:], stage_g[:], ends[:]
    if not (np.isfinite(points).all() and np.isfinite(vels).all()):
        raise TgkitError(f"geodesic integration diverged (step {h:.3e})")
    v = vels[-1:]
    speeds[-1:] = np.sqrt(np.einsum('ni,nij,nj->n', v, CM.gram(points[-1])[None], v))
    rel = np.abs(speeds - s0) / s0
    with np.errstate(divide='ignore'):
        rates = rel[1:] / np.maximum(times[1:], h)
    drift = float(rates.max()) if len(rates) else 0.0
    if not np.isfinite(drift) or drift > tol.speed_reject:
        raise TgkitError(f"speed drift {drift:.3e} per unit time; step rejected")
    return GeodesicTrajectory(times, points, vels, h, drift)


def export_trajectory_csv(traj: GeodesicTrajectory, path):
    """UTF-8 CSV with header t, x1..xn, v1..vn."""
    n = traj.points.shape[1]
    header = ",".join(["t"] + [f"x{i + 1}" for i in range(n)]
                      + [f"v{i + 1}" for i in range(n)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for t, x, v in zip(traj.times, traj.points, traj.velocities):
            row = [repr(float(t))] + [repr(float(c)) for c in x] + [repr(float(c)) for c in v]
            fh.write(",".join(row) + "\n")


# ------------------------------------------------------------- hypersurfaces

def second_fundamental_form(CM: CoordinateMetric, h: ScalarField, x) -> np.ndarray:
    """II(X, Y) = -<nabla_X Y, xi> = Hess h(X, Y) / |grad h|_g on the level
    set {h = 0}, in a g-orthonormal tangent frame at x."""
    x = np.asarray(x, float)
    if abs(h.value(x)) >= 1e-10:
        raise BadParams(f"point not on the hypersurface (h = {h.value(x):.3e})")
    g = CM.gram(x)
    dh = h.gradient(x)
    if np.linalg.norm(dh) <= 1e-8:
        raise MetricDegenerate("level-set gradient vanishes")
    G = _christoffel_from(g, CM.partials(x))
    hess = h.hessian(x) - np.einsum('kij,k->ij', G, dh)
    gradnorm = float(np.sqrt(dh @ np.linalg.solve(g, dh)))
    # tangent coordinate frame e_a - (dh[a] / dh[m]) e_m, a != m, eliminating
    # the largest-gradient coordinate m, then orthonormalized in g
    m = int(np.argmax(np.abs(dh)))
    n = CM.dim
    Q = gram_schmidt(np.delete(np.eye(n) - np.outer(np.eye(n)[m], dh / dh[m]), m, axis=1), g)
    return Q.T @ (hess / gradnorm) @ Q


# ---------------------------------------------------------- product builders

def _product_metric(m, base: CoordinateMetric, weight, exact) -> CoordinateMetric:
    """diag(w(x) I_m, base(u)) on x = (v, u), the m flat coordinates first.

    weight(v, u) -> w from coordinates(v) and coordinates(u) of the flat
    and base parts; weight(v, u, True) -> the flat jet (w, d_0 w, ...,
    d_{dim-1} w), d_k w = d w / d x^k, which is called for only when exact
    is true (otherwise the partials are finite differences).  The base gram
    is evaluated ungated: a block-diagonal gram is finite, symmetric and
    positive definite exactly when each block is, so the one gate on the
    composite covers the base.
    """
    dim = m + base.dim
    flat = slice(0, m * (dim + 1), dim + 1)    # entries (a, a), a < m, of a raveled gram

    def gram_at(x):
        g = np.zeros(x.shape[:-1] + (dim, dim))
        w = weight(coordinates(x[..., :m]), coordinates(x[..., m:]))
        g.reshape(x.shape[:-1] + (dim * dim,))[..., flat] = np.asarray(w)[..., None]
        g[..., m:, m:] = _eval_gram(base, x[..., m:])
        return g

    partials_at = stage_at = None
    if exact and base.partials_at is not None:
        def partials_at(x):
            dg = np.zeros(x.shape[:-1] + (dim, dim, dim))
            dw = weight(coordinates(x[..., :m]), coordinates(x[..., m:]), True)[1:]
            dg.reshape(x.shape[:-1] + (dim, dim * dim))[..., flat] = np.stack(
                np.broadcast_arrays(*dw), -1)[..., None]
            dg[..., m:, m:, m:] = base.partials_at(x[..., m:])
            return dg

    if exact and base.stage_at is not None:
        stage_at = _product_stage(m, base.dim)(weight, base.stage_at)
        stage_at.base = base    # for geodesic_integrate's stage contract check
    return CoordinateMetric(dim, gram_at, partials_at, stage_at)


@functools.cache
def _product_stage(m, nb):
    """make(weight, base_stage) -> stage_at of _product_metric, generated once
    per (m, base dim nb) on locals, with the weight's flat jet unpacked into
    w, dw0, dw1 and so on.  Warped and twisted product connection
    (O'Neill 1983, ch. 7; Ponge and Reckziegel 1993): with f = |v_flat|^2 / 2,
    the flat rows are (f d_a w - (dw . v) v_a) / w, the base rows the base
    spray s plus f g^-1 d_u w, by Gaussian elimination on the base gram g
    unrolled (g is positive definite, so no pivoting; a singular g raises
    ZeroDivisionError).  Sums start at 0, so -0.0 terms sum to 0.0."""
    X, flat, base, B = range(m + nb), range(m), range(m, m + nb), range(nb)
    gram = ["w" if i == j < m else f"g{(i - m) * nb + j - m}" if min(i, j) >= m else "0.0"
            for i in X for j in X]
    solve = []
    for k in B:
        for i in range(k + 1, nb):
            solve += [f"e = g{i * nb + k} / g{k * nb + k}"]
            solve += [f"g{i * nb + j} -= e * g{k * nb + j}" for j in range(k + 1, nb)]
            solve += [f"y{i} -= e * y{k}"]
    for k in reversed(B):
        solve += [f"y{k} -= g{k * nb + j} * y{j}" for j in range(k + 1, nb)]
        solve += [f"y{k} /= g{k * nb + k}"]
    return _compiled(f"""\
def make(weight, base_stage):
    def stage_at(x, v):
        ({_each('x{i}', X)},), ({_each('v{i}', X)},) = x, v
        w, {_each('dw{i}', X)}, = weight([{_each('x{i}', flat)}], [{_each('x{i}', base)}], True)
        ({_each('g{i}', range(nb * nb))},), ({_each('s{i}', B)},) = base_stage(
            [{_each('x{i}', base)}], [{_each('v{i}', base)}])
        gram = [{', '.join(gram)}]
        f = 0.5 * (0 + {_each('v{i} * v{i}', flat, ' + ')})
        dv = 0 + {_each('dw{i} * v{i}', X, ' + ')}
        {_each('r{i}', flat)}, = {_each('(f * dw{i} - dv * v{i}) / w', flat)},
        {_each('y{i}', B)}, = {_each('dw{i}', base)},
        {'; '.join(solve)}
        return gram, [{_each('r{i}', flat)}, {_each('s{i} + f * y{i}', B)}]
    return stage_at
""")


def build_warped_product(m: int, base: CoordinateMetric, logf: ScalarField) -> CoordinateMetric:
    """e^{2 logf(u)} sum_a (dv^a)^2 + base, flat v-coordinates first."""
    if m < 1:
        raise BadParams("flat factor dimension must be at least 1")

    def weight(v, u, grad=False):
        w = 2.0 * logf.fn(u)
        w = mathlib(w).exp(w)
        return (w, *[0.0] * m, *[2.0 * w * d for d in logf.grad(u)]) if grad else w

    return _product_metric(m, base, weight, logf.has_grad)


@dataclasses.dataclass(frozen=True)
class TwistedProductSpec:
    """Data for the twisted metric e^{2 phi(t,u)} dt^2 + base(u).

    e^{-phi} = sinh(alpha(u)) cos(kappa t + beta(u)) + cosh(alpha(u));
    the anchor is a base point where alpha vanishes, so phi(anchor, t) = 0.
    """
    base: CoordinateMetric
    alpha: ScalarField
    beta: ScalarField
    kappa: float
    k: float
    anchor: np.ndarray

    def __post_init__(self):
        if self.kappa == 0:
            raise BadParams("kappa must be nonzero")
        if self.k <= 0:
            raise BadParams("k must be positive")
        anchor = np.asarray(self.anchor, float)
        object.__setattr__(self, 'anchor', anchor)
        a0 = self.alpha.value(anchor)
        if abs(a0) > 1e-10:
            raise BadParams(f"alpha({anchor.tolist()}) = {a0:.3e}, anchor needs alpha = 0")


def _twist(spec: TwistedProductSpec, t, u):
    """(F, F_t, sinh alpha, cosh alpha, cos a, sin a, mathlib) at t and base
    coordinates u, a = kappa t + beta, F = e^{-phi} = sinh(alpha) cos a + cosh(alpha)."""
    a, ang = spec.alpha.fn(u), spec.kappa * t + spec.beta.fn(u)
    m = mathlib(ang)
    sa, ca, c, s = m.sinh(a), m.cosh(a), m.cos(ang), m.sin(ang)
    F = sa * c + ca
    if (F <= 0).any() if isinstance(F, np.ndarray) else F <= 0:     # impossible for real alpha
        raise TgkitError(f"e^{{-phi}} = {np.min(F):.3e} <= 0")
    return F, -spec.kappa * sa * s, sa, ca, c, s, m


def twisting_phi(spec: TwistedProductSpec, t, u):
    """(phi, phi_t, phi_tt) of the closed-form twisting function at times t
    and base points u (..., n)."""
    F, Ft, sa, _, c, _, m = _twist(spec, t, coordinates(np.asarray(u, float)))
    Ftt = -(spec.kappa * spec.kappa) * sa * c
    q = Ft / F
    return -m.log(F), -q, -Ftt / F + q * q


@functools.cache
def _twisted_weight(nb):
    """make(spec, alpha_grad, beta_grad) -> the weight of build_twisted_product
    over a base of dim nb, generated once per nb on locals: F^-2 and its flat
    jet, -2 F^-3 F_t and -2 F^-3 (F_alpha d_k alpha + F_beta d_k beta)."""
    B = range(nb)
    return _compiled(f"""\
def make(spec, alpha_grad, beta_grad):
    def weight(v, u, grad=False):
        F, Ft, sa, ca, c, s, m = _twist(spec, v[0], u)
        w = m.pow(F, -2.0)
        if not grad:
            return w
        m3 = -2.0 * m.pow(F, -3.0)
        da, db = m3 * (ca * c + sa), m3 * sa * s
        {_each('a{i}', B)}, = alpha_grad(u)
        {_each('b{i}', B)}, = beta_grad(u)
        return w, m3 * Ft, {_each('da * a{i} - db * b{i}', B)}
    return weight
""", _twist=_twist)


def build_twisted_product(spec: TwistedProductSpec) -> CoordinateMetric:
    """Coordinates (t, u^1..u^{n-1}); g_tt = e^{2 phi} = F^-2, base block-diagonal."""
    weight = _twisted_weight(spec.base.dim)(spec, spec.alpha.grad, spec.beta.grad)
    return _product_metric(1, spec.base, weight, spec.alpha.has_grad and spec.beta.has_grad)


def twisting_ode_residual(spec: TwistedProductSpec, t_vals, u_points,
                          phi_eval=None) -> float:
    """max |d/dt (e^{-phi} phi_t^2 + kappa^2 (e^phi + e^{-phi}))| on the grid.

    phi_eval(t, u) -> (phi, phi_t, phi_tt), on the grid as one stack of (1, T)
    times and (U, 1, n) base points, overrides the closed form, so a perturbed
    candidate runs through the identical differentiation.
    """
    ev = phi_eval or (lambda t, u: twisting_phi(spec, t, u))
    k2 = spec.kappa * spec.kappa
    # a huge kappa overflows to inf or NaN here, which the gate rejects
    with np.errstate(over='ignore', invalid='ignore'):
        phi, pt, ptt = ev(np.asarray(t_vals, float).reshape(1, -1),
                          np.atleast_2d(np.asarray(u_points, float))[:, None, :])
        em, ep = np.exp(-phi), np.exp(phi)
        terms = em * pt * (2.0 * ptt - pt * pt) + k2 * pt * (ep - em)
    # np.max, unlike max(), lets one NaN term make the residual NaN
    return float(np.abs(terms).max(initial=0.0))


class EikonalResiduals(typing.NamedTuple):
    grad_alpha_residual: float
    grad_beta_residual: float
    beta_applicable: bool


def eikonal_residuals(spec: TwistedProductSpec, u_points) -> EikonalResiduals:
    """max ||grad alpha|^2 - k^2| and max |sinh^2(alpha) |grad beta|^2 - k^2|.

    The beta residual is skipped (not applicable) where alpha vanishes,
    matching the polar-type degeneracy at the anchor.
    """
    k2 = spec.k ** 2
    u_points = np.atleast_2d(np.asarray(u_points, float))
    ginv = np.linalg.inv(_grams(spec.base, u_points))
    da = spec.alpha.gradient(u_points)
    ra = (da[:, None] @ ginv @ da[..., None])[:, 0, 0] - k2
    a = spec.alpha.value(u_points)
    on = np.abs(a) > 1e-12
    db = spec.beta.gradient(u_points[on])
    rb = np.sinh(a[on]) ** 2 * (db[:, None] @ ginv[on] @ db[..., None])[:, 0, 0] - k2
    # np.max, unlike max(), lets one NaN term make the residual NaN
    return EikonalResiduals(float(np.abs(ra).max(initial=0.0)),
                            float(np.abs(rb).max()) if on.any() else float('nan'),
                            bool(on.any()))


# ------------------------------------------------------- pointwise curvature

def _one_point(CM, x, what="point"):
    x = np.asarray(x, float)
    if x.shape != (CM.dim,):
        raise DimensionMismatch(f"{what} has shape {x.shape}, expected ({CM.dim},)")
    return x


def riemann_at(CM: CoordinateMetric, x):
    """R[i][j][k][l] = <R(d_i, d_j) d_k, d_l> at one point x (FD of a Christoffel stack)."""
    x = _one_point(CM, x)
    return _riemann(CM, x, CM.gram(x))


def _riemann(CM, x, g):
    """riemann_at at one point x whose gram g is gated."""
    dG = _richardson(lambda y: christoffel(CM, y), x, _RIEMANN_STEP)
    G = _christoffel_from(g, CM.partials(x))
    # R^l_{ijk} = d_i G^l_{jk} - d_j G^l_{ik} + G^l_{im} G^m_{jk} - G^l_{jm} G^m_{ik}
    Rup = (np.einsum('iljk->lijk', dG[:, :, :, :])
           - np.einsum('jlik->lijk', dG[:, :, :, :])
           + np.einsum('lim,mjk->lijk', G, G)
           - np.einsum('ljm,mik->lijk', G, G))
    return np.einsum('lijk,lm->ijkm', Rup, g)


def sectional_at(CM: CoordinateMetric, x, u, v, tol: Tolerances = DEFAULT) -> float:
    x = _one_point(CM, x)
    g = CM.gram(x)
    u, v = np.asarray(u, float), np.asarray(v, float)
    den = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
    if not den > tol.degenerate_plane:
        raise DegeneratePlane(f"Gram determinant {den:.3e}")
    R = _riemann(CM, x, g)
    return float(np.einsum('ijkl,i,j,k,l->', R, u, v, v, u) / den)


# ------------------------------------------------------------ numeric frenet

def _fd4(arr, h):
    """4th-order central first derivative along axis 0 (interior only)."""
    return (-arr[4:] + 8 * arr[3:-1] - 8 * arr[1:-3] + arr[:-4]) / (12.0 * h)


def _frenet_pipeline(dim, h, points, grams, gammas, tol):
    """Frenet data of samples h apart, from the grams and gammas at points[2:-2]."""
    vel = _fd4(points, h)
    speed = np.sqrt(np.einsum('ni,nij,nj->n', vel, grams, vel))
    if speed.min() <= 1e-8:
        raise IrregularCurve(f"speed drops to {speed.min():.3e}")
    frames = [vel / speed[:, None]]
    ks = []
    trunc = float('nan')
    # the extra lap past dim - 1 only measures the frame-closure residual
    for _ in range(dim):
        if len(frames[0]) < 9:
            break
        newest = frames[-1]
        dV = _fd4(newest, h)
        v_, s_ = vel[2:-2], speed[2:-2]
        G_, Gam_ = grams[2:-2], gammas[2:-2]
        Ds = (dV + np.einsum('nkij,ni,nj->nk', Gam_, v_, newest[2:-2])) / s_[:, None]
        w = Ds.copy()
        trimmed = [f[2:-2] for f in frames]
        for f in trimmed:
            w -= np.einsum('ni,nij,nj->n', w, G_, f)[:, None] * f
        knew = np.sqrt(np.einsum('ni,nij,nj->n', w, G_, w))
        kmed = float(np.median(knew))
        threshold = max(tol.eps_k, 1e-3 * max(1.0, ks[0] if ks else 0.0))
        if kmed < threshold or len(ks) == dim - 1:
            trunc = kmed
            break
        ks.append(kmed)
        frames = trimmed + [w / knew[:, None]]
        vel, speed, grams, gammas = v_, s_, G_, Gam_
    return ks, frames, trunc


def frenet_numeric(CM: CoordinateMetric, times, points,
                   tol: Tolerances = DEFAULT) -> FrenetData:
    """Frenet curvatures of a sampled curve by 4th-order finite differences.

    Uniform sampling required.  The samples are used as given: the chain
    rule handles non-unit speed, so the curve is never reparametrized by
    arclength.  Error bars come from step halving; the order cutoff is
    max(eps_k, 1e-3 max(1, k1)), and the borderline flag marks a truncated
    curvature that exceeded the strict algebraic zero threshold.
    """
    times, points = np.asarray(times, float), np.asarray(points, float)
    if len(times) < 50:
        raise IrregularCurve(f"need at least 50 samples, got {len(times)}")
    if points.shape != (len(times), CM.dim):
        raise DimensionMismatch("points must be samples x dim")
    steps = np.diff(times)
    if steps.min() <= 0 or (steps.max() - steps.min()) > 1e-9 * steps.max():
        raise IrregularCurve("sampling must be uniform and increasing")
    # one evaluation: the half sampling's interior is every other full one, from the third
    grams = _grams(CM, points[2:-2])
    gammas = _christoffel_from(grams, CM.partials(points[2:-2]))
    ks, frames, trunc = _frenet_pipeline(CM.dim, times[1] - times[0], points, grams, gammas, tol)
    half = slice(2, 2 * len(points[::2]) - 7, 2)
    ks2, _, _ = _frenet_pipeline(CM.dim, times[2] - times[0], points[::2],
                                 grams[half].copy(), gammas[half].copy(), tol)
    bars = {f"k{i + 1}": abs(ks[i] - ks2[i]) / 15.0
            for i in range(min(len(ks), len(ks2)))}
    mid = len(frames[0]) // 2
    frame = tuple(f[mid] for f in frames)
    borderline = bool(np.isfinite(trunc) and trunc >= tol.eps_k_warn)
    return FrenetData(len(ks), tuple(ks), frame, trunc, borderline, bars)
