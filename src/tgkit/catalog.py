"""Builtin algebras and chart metrics.

Algebra entries return MetricLieAlgebra instances with identity gram in the
stated basis order.  Chart entries return CoordinateMetric instances with
exact partial derivatives, so finite differencing is only exercised when a
test asks for it.
"""
from __future__ import annotations

from math import factorial

import numpy as np

from .config import DEFAULT
from .coord_engine import (CoordinateMetric, ScalarField, TwistedProductSpec,
                           build_twisted_product)
from .errors import BadParams, TgkitError, UnknownName
from .lie_core import LieAlgebra, MetricLieAlgebra

CATALOG_NAMES = ("sl2", "nonhomo", "heisenberg", "abelian",
                 "hyperbolic2", "twisted-h2", "euclidean")


def _antisym(entries, n):
    c = np.zeros((n, n, n))
    for (i, j, k), v in entries.items():
        c[i, j, k] += v
        c[j, i, k] -= v
    return c


def _sl2_closed(a, b):
    # [E1,E2] = 2a E3, [E1,E3] = 2b E1 - 2a E2, [E2,E3] = -2b E2
    return _antisym({(0, 1, 2): 2 * a,
                     (0, 2, 0): 2 * b, (0, 2, 1): -2 * a,
                     (1, 2, 1): -2 * b}, 3)


def sl2(a=1.0, b=1.0):
    """Special linear algebra in the scaled basis

    E1 = a [[0,1],[-1,0]], E2 = 2b [[0,1],[0,0]], E3 = b [[1,0],[0,-1]],

    declared orthonormal.  Structure constants are extracted from the 2x2
    matrices and cross-checked against the closed-form table.
    """
    a, b = float(a), float(b)
    if a * b == 0.0:
        raise BadParams("sl2 needs nonzero a and b")
    E = [a * np.array([[0., 1.], [-1., 0.]]),
         2 * b * np.array([[0., 1.], [0., 0.]]),
         b * np.array([[1., 0.], [0., -1.]])]
    c = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            br = E[i] @ E[j] - E[j] @ E[i]
            # triangular expansion in (E1, E2, E3); exact for dyadic a, b
            coef = np.array([-br[1, 0] / a,
                             (br[0, 1] + br[1, 0]) / (2 * b),
                             br[0, 0] / b])
            back = coef[0] * E[0] + coef[1] * E[1] + coef[2] * E[2]
            if np.abs(back - br).max() > 1e-12 * max(1.0, abs(a), abs(b)):
                raise TgkitError("bracket left the span of the basis matrices")
            c[i, j] = coef
    closed = _sl2_closed(a, b)
    if np.abs(c - closed).max() > 1e-12 * max(1.0, abs(a), abs(b)):
        raise TgkitError("matrix and closed-form structure constants disagree")
    return MetricLieAlgebra(LieAlgebra(c))


def nonhomo():
    """Four-dimensional solvable algebra, basis order (Z, X1, X2, Y):

    [Z,X1] = X1 + X2, [Z,X2] = -X1 + X2, [Z,Y] = 2Y, identity gram.
    """
    c = _antisym({(0, 1, 1): 1.0, (0, 1, 2): 1.0,
                  (0, 2, 1): -1.0, (0, 2, 2): 1.0,
                  (0, 3, 3): 2.0}, 4)
    return MetricLieAlgebra(LieAlgebra(c))


def heisenberg():
    """[X,Y] = Z in basis order (X, Y, Z), identity gram."""
    return MetricLieAlgebra(LieAlgebra(_antisym({(0, 1, 2): 1.0}, 3)))


def abelian(n=3):
    n = int(n)
    return MetricLieAlgebra(LieAlgebra(np.zeros((n, n, n))))


def euclidean_metric(n=2):
    n = int(n)
    if n < 1:
        raise BadParams("dimension must be positive")
    eye = np.eye(n)
    zeros = np.zeros((n, n, n))
    return CoordinateMetric(n, lambda x: eye, lambda x: zeros)


def hyperbolic_plane():
    """dr^2 + sinh(r)^2 dtheta^2 on r > 0, curvature -1."""
    def gram_at(x):
        return np.diag([1.0, np.sinh(x[0]) ** 2])

    def partials_at(x):
        dg = np.zeros((2, 2, 2))
        dg[0, 1, 1] = np.sinh(2.0 * x[0])
        return dg

    return CoordinateMetric(2, gram_at, partials_at)


def nonhomo_metric():
    """Chart form of nonhomo(), coordinates (z, y, x1, x2):

    dz^2 + e^{4z} dy^2 + e^{2z} (dx1^2 + dx2^2).
    """
    def gram_at(x):
        z = x[0]
        return np.diag([1.0, np.exp(4.0 * z), np.exp(2.0 * z), np.exp(2.0 * z)])

    def partials_at(x):
        z = x[0]
        dg = np.zeros((4, 4, 4))
        dg[0, 1, 1] = 4.0 * np.exp(4.0 * z)
        dg[0, 2, 2] = 2.0 * np.exp(2.0 * z)
        dg[0, 3, 3] = 2.0 * np.exp(2.0 * z)
        return dg

    return CoordinateMetric(4, gram_at, partials_at)


def twisted_h2(kappa=1.0) -> TwistedProductSpec:
    """Twisted product over the polar hyperbolic plane with alpha = r,
    beta = theta, k = 1, anchored at the origin."""
    if kappa == 0:
        raise BadParams("kappa must be nonzero")
    alpha = ScalarField(lambda u: u[0], grad=lambda u: np.array([1.0, 0.0]))
    beta = ScalarField(lambda u: u[1], grad=lambda u: np.array([0.0, 1.0]))
    return TwistedProductSpec(hyperbolic_plane(), alpha, beta,
                              float(kappa), 1.0, np.zeros(2))


# ---- cartesian chart of the twisted build (regular across the polar axis)

_CART_TERMS = 12
# per term m: the float values the series divides by and multiplies with,
# (2m+1)!, (2m+2)!, (2m+4)!, 2^(2m+1), 2^(2m+3), 2m, 2^(2m+2) m, 2^(2m+4) m
_CART_SERIES = tuple(
    (float(factorial(2 * m + 1)), float(factorial(2 * m + 2)),
     float(factorial(2 * m + 4)), 2.0 ** (2 * m + 1), 2.0 ** (2 * m + 3),
     float(2 * m), 2.0 ** (2 * m + 2) * m, 2.0 ** (2 * m + 4) * m)
    for m in range(_CART_TERMS))


def _cart_coeffs(u):
    """(S, S1, a, b, A, B) as functions of u = x^2 + y^2.

    S = sinh(r)/r, S1 = 2 dS/du, a = S^2, b = (1 - a)/u, A = 2 da/du,
    B = 2 db/du, all with r = sqrt(u).  Power series below u = 0.25,
    closed forms above; both branches agree to machine precision there.
    """
    if u < 0.25:
        u = float(u)    # same rounding as a numpy scalar, less call overhead
        S = S1 = a = b = A = B = 0.0
        up = 1.0        # u^m
        um = 0.0        # u^{m-1}, only consumed for m >= 1
        for f1, f2, f4, p1, p3, m2, p2m, p4m in _CART_SERIES:
            S += up / f1
            a += p1 * up / f2
            b -= p3 * up / f4
            if m2:      # m >= 1
                S1 += m2 * um / f1
                A += p2m * um / f2
                B -= p4m * um / f4
            um = up
            up *= u
        return S, S1, a, b, A, B
    r = np.sqrt(u)
    sh, ch = np.sinh(r), np.cosh(r)
    S = sh / r
    S1 = (r * ch - sh) / r ** 3
    a = S * S
    b = (1.0 - a) / u
    A = 2.0 * S * S1
    B = -(A + 2.0 * b) / u
    return S, S1, a, b, A, B


def twisted_h2_cartesian(kappa=1.0):
    """Same geometry as build_twisted_product(twisted_h2(kappa)) in
    coordinates (t, x, y) with x = r cos(theta), y = r sin(theta); smooth at
    the axis r = 0, where the polar chart degenerates."""
    kappa = float(kappa)
    if kappa == 0:
        raise BadParams("kappa must be nonzero")

    def pieces(p):
        t, x, y = p
        u = x * x + y * y
        S, S1, a, b, A, B = _cart_coeffs(u)
        cs, sn = np.cos(kappa * t), np.sin(kappa * t)
        w = x * cs - y * sn
        wbar = x * sn + y * cs
        F = S * w + np.cosh(np.sqrt(u))
        return u, S, S1, a, b, A, B, cs, sn, w, wbar, F

    def gram_at(p):
        _, _, _, a, b, _, _, _, _, _, _, F = pieces(p)
        x, y = p[1], p[2]
        g = np.zeros((3, 3))
        g[0, 0] = F ** -2.0
        g[1, 1] = a + b * x * x
        g[2, 2] = a + b * y * y
        g[1, 2] = g[2, 1] = b * x * y
        return g

    def partials_at(p):
        u, S, S1, a, b, A, B, cs, sn, w, wbar, F = pieces(p)
        x, y = p[1], p[2]
        Ft = -kappa * S * wbar
        Fx = S1 * x * w + S * cs + S * x
        Fy = S1 * y * w - S * sn + S * y
        dg = np.zeros((3, 3, 3))
        m3 = -2.0 * F ** -3.0
        dg[0, 0, 0] = m3 * Ft
        dg[1, 0, 0] = m3 * Fx
        dg[2, 0, 0] = m3 * Fy
        xv = np.array([x, y])
        for k in range(2):
            blk = (A * xv[k] * np.eye(2) + B * xv[k] * np.outer(xv, xv)
                   + b * (np.eye(2)[k][:, None] * xv[None, :]
                          + xv[:, None] * np.eye(2)[k][None, :]))
            dg[1 + k, 1:, 1:] = blk
        return dg

    return CoordinateMetric(3, gram_at, partials_at)


# ----------------------------------------------------------------- dispatch

def catalog_lookup(name, params=None, kind=None):
    """Builtin by name.  params is a dict of per-entry settings; kind picks
    between forms when an entry has more than one:

      nonhomo:    'algebra' (default) or 'coordinate'
      twisted-h2: 'chart' (default, polar), 'cartesian', or 'spec'
    """
    params = dict(params or {})

    def take(key, default):
        return params.pop(key, default)

    def done(obj):
        if params:
            raise BadParams(f"unknown parameters for {name}: {sorted(params)}")
        return obj

    if name == "sl2":
        return done(sl2(take("a", 1.0), take("b", 1.0)))
    if name == "nonhomo":
        if kind in (None, "algebra"):
            return done(nonhomo())
        if kind == "coordinate":
            return done(nonhomo_metric())
        raise BadParams(f"nonhomo has no kind {kind!r}")
    if name == "heisenberg":
        return done(heisenberg())
    if name == "abelian":
        return done(abelian(take("n", 3)))
    if name == "hyperbolic2":
        return done(hyperbolic_plane())
    if name == "twisted-h2":
        kappa = take("kappa", 1.0)
        chart = take("chart", None) or kind or "chart"
        if chart in ("chart", "polar"):
            return done(build_twisted_product(twisted_h2(kappa)))
        if chart == "cartesian":
            return done(twisted_h2_cartesian(kappa))
        if chart == "spec":
            return done(twisted_h2(kappa))
        raise BadParams(f"twisted-h2 has no chart {chart!r}")
    if name == "euclidean":
        return done(euclidean_metric(take("n", 2)))
    raise UnknownName(f"no builtin named {name!r}; choices: {', '.join(CATALOG_NAMES)}")
