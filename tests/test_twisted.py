import numpy as np
import pytest

from helpers import coordinate_field

from tgkit import catalog, coord_engine
from tgkit.coord_engine import (ScalarField, TwistedProductSpec, build_twisted_product,
                                eikonal_residuals, frenet_numeric,
                                second_fundamental_form, sectional_at,
                                twisting_ode_residual, twisting_phi)
from tgkit.errors import BadParams
from tgkit.lie_core import sectional

T_GRID = np.linspace(0.0, 6.0, 50)
U_GRID = np.stack([np.linspace(0.1, 2.0, 50), np.linspace(0.0, 6.0, 50)], axis=1)


def _beta():
    return coordinate_field(1, 2)


# --------------------------------------------------------------- twisting ODE

@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_ode_residual_vanishes_for_closed_form(kappa):
    spec = catalog.twisted_h2(kappa)
    assert twisting_ode_residual(spec, T_GRID, U_GRID) < 1e-10


def test_ode_residual_detects_perturbation():
    spec = catalog.twisted_h2(1.0)

    def pert(t, u):
        phi, pt, ptt = twisting_phi(spec, t, u)
        e = 1e-3
        return phi + e * np.sin(t), pt + e * np.cos(t), ptt - e * np.sin(t)

    assert twisting_ode_residual(spec, T_GRID, U_GRID, phi_eval=pert) > 1e-4


def test_ode_residual_nan_term_is_nan():
    # one NaN phi evaluation must fail the gate, not read as residual 0
    spec = catalog.twisted_h2(1.0)

    def nan_at_first(t, u):
        phi, pt, ptt = twisting_phi(spec, t, u)
        return np.where(t == T_GRID[0], np.nan, phi), pt, ptt

    assert np.isnan(twisting_ode_residual(spec, T_GRID, U_GRID, phi_eval=nan_at_first))


def test_ode_residual_huge_kappa_is_not_an_overflow_error():
    res = twisting_ode_residual(catalog.twisted_h2(1e200), T_GRID[:3], U_GRID[:3])
    assert not res <= 1e-10


def test_phi_vanishes_along_anchor_leaf():
    spec = catalog.twisted_h2(1.5)
    for t in (0.0, 0.4, 3.1):
        assert twisting_phi(spec, t, np.array([0.0, 0.7])) == (0.0, 0.0, 0.0)


# ------------------------------------------------------------------- eikonal

def test_eikonal_residuals_closed_form():
    out = eikonal_residuals(catalog.twisted_h2(1.0), U_GRID)
    assert out.grad_alpha_residual < 1e-12
    assert out.grad_beta_residual < 1e-12
    assert out.beta_applicable


def test_eikonal_detects_wrong_alpha():
    alpha2 = ScalarField(lambda u: 2.0 * u[0], grad=lambda u: (2.0, 0.0))
    bad = TwistedProductSpec(catalog.hyperbolic_plane(), alpha2, _beta(),
                             1.0, 1.0, np.zeros(2))
    out = eikonal_residuals(bad, U_GRID)
    assert out.grad_alpha_residual == 3.0


def test_eikonal_nan_term_is_nan():
    # the NaN alpha gradient sits at the last grid point, after finite terms
    last = U_GRID[-1]
    alpha = ScalarField(lambda u: u[0], grad=lambda u: (
        np.where((u[0] == last[0]) & (u[1] == last[1]), np.nan, 1.0), 0.0))
    spec = TwistedProductSpec(catalog.hyperbolic_plane(), alpha, _beta(),
                              1.0, 1.0, np.zeros(2))
    out = eikonal_residuals(spec, U_GRID)
    assert np.isnan(out.grad_alpha_residual)
    assert out.grad_beta_residual < 1e-12


def test_eikonal_gates_base_grams_in_one_batch(monkeypatch):
    spec = catalog.twisted_h2(1.0)
    want = eikonal_residuals(spec, U_GRID)
    calls = []
    gate = coord_engine._gate_grams
    monkeypatch.setattr(coord_engine, "_gate_grams",
                        lambda pts, grams: calls.append(len(pts)) or gate(pts, grams))
    assert eikonal_residuals(spec, U_GRID) == want
    assert calls == [len(U_GRID)]


def test_eikonal_beta_not_applicable_for_zero_alpha():
    az = ScalarField(lambda u: 0.0, grad=lambda u: (0.0, 0.0))
    spec = TwistedProductSpec(catalog.hyperbolic_plane(), az, _beta(),
                              1.0, 1.0, np.zeros(2))
    out = eikonal_residuals(spec, U_GRID)
    assert out.grad_alpha_residual == 1.0
    assert not out.beta_applicable
    assert np.isnan(out.grad_beta_residual)


# --------------------------------------------------------------- spec gates

def test_spec_gates():
    with pytest.raises(BadParams, match="kappa must be nonzero"):
        catalog.twisted_h2(0.0)
    with pytest.raises(BadParams):
        catalog.twisted_h2_cartesian(0.0)
    alpha = coordinate_field(0, 2)
    with pytest.raises(BadParams):
        TwistedProductSpec(catalog.hyperbolic_plane(), alpha, _beta(),
                           1.0, -1.0, np.zeros(2))
    with pytest.raises(BadParams):
        TwistedProductSpec(catalog.hyperbolic_plane(), alpha, _beta(),
                           1.0, 1.0, np.array([0.5, 0.0]))


# ------------------------------------------------------------- leaf geometry

@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_normal_leaf_is_order_two_helix(kappa):
    CM = build_twisted_product(catalog.twisted_h2(kappa))
    ts = np.linspace(0.0, 2 * np.pi / kappa, 1201)
    pts = np.stack([ts, np.full_like(ts, 0.8), np.full_like(ts, 0.3)], axis=1)
    fd = frenet_numeric(CM, ts, pts)
    assert fd.order == 2
    assert abs(fd.curvatures[0] - 1.0) < 1e-3
    assert abs(fd.curvatures[1] - kappa) < 1e-3
    assert fd.truncation_residual < 1e-4


def test_anchor_leaf_in_cartesian_chart():
    kappa = 2.0
    CM = catalog.twisted_h2_cartesian(kappa)
    ts = np.linspace(0.0, 2 * np.pi / kappa, 1201)
    pts = np.stack([ts, np.zeros_like(ts), np.zeros_like(ts)], axis=1)
    fd = frenet_numeric(CM, ts, pts)      # anchor leaf is already unit speed
    assert fd.order == 2
    assert abs(fd.curvatures[0] - 1.0) < 1e-6
    assert abs(fd.curvatures[1] - kappa) < 1e-6


def test_slices_are_totally_geodesic():
    CM = build_twisted_product(catalog.twisted_h2(1.0))
    h = coordinate_field(0, 3)
    for r in (0.3, 0.8, 1.5):
        for th in (0.2, 2.1):
            out = second_fundamental_form(CM, h, np.array([0.0, r, th]))
            assert np.abs(out).max() < 1e-7


# ------------------------------------------------------------ chart matching

def _to_cartesian(t, r, th):
    """The cartesian twisted-h2 point of the polar one (t, r, th), the Jacobian
    J = d(t, x, y) / d(t, r, theta) of (x, y) = sinh(r) (cos theta, sin theta)
    there, and its partials dJ[k] = d J / d(t, r, theta)^k."""
    c, s, sh, ch = np.cos(th), np.sin(th), np.sinh(r), np.cosh(r)
    J = np.array([[1.0, 0.0, 0.0], [0.0, ch * c, -sh * s], [0.0, ch * s, sh * c]])
    dJ = np.zeros((3, 3, 3))
    dJ[1, 1:, 1:] = [[sh * c, -ch * s], [sh * s, ch * c]]
    dJ[2, 1:, 1:] = [[-ch * s, -sh * c], [ch * c, -sh * s]]
    return np.array([t, sh * c, sh * s]), J, dJ


def test_cartesian_chart_matches_polar_gram():
    kappa = 2.0
    CMp = build_twisted_product(catalog.twisted_h2(kappa))
    CMc = catalog.twisted_h2_cartesian(kappa)
    th = 0.7
    for r in (0.1, 0.4, 0.4999, 0.5001, 1.2):
        xc, J, _ = _to_cartesian(0.3, r, th)
        assert np.abs(J.T @ CMc.gram(xc) @ J - CMp.gram(np.array([0.3, r, th]))).max() < 1e-12


def test_cartesian_chart_matches_polar_partials():
    # g_polar = J^T g_cart J, so
    # d_k g_polar = dJ_k^T g J + J^T g dJ_k + J^T (sum_l J[l, k] d_l g) J
    kappa = 2.0
    CMp = build_twisted_product(catalog.twisted_h2(kappa))
    CMc = catalog.twisted_h2_cartesian(kappa)
    for th in (0.7, 2.5):
        for r in (0.1, 0.4, 0.4999, 0.5001, 1.2):
            xc, J, dJ = _to_cartesian(0.3, r, th)
            g, dg = CMc.gram(xc), CMc.partials(xc)
            pushed = (np.einsum('kai,ab,bj->kij', dJ, g, J)
                      + np.einsum('ai,ab,kbj->kij', J, g, dJ)
                      + np.einsum('ai,lk,lab,bj->kij', J, J, dg, J))
            want = CMp.partials(np.array([0.3, r, th]))
            assert np.abs(pushed - want).max() <= 1e-12 * np.abs(want).max()


def test_cartesian_chart_matches_polar_sectionals():
    kappa = 2.0
    CMp = build_twisted_product(catalog.twisted_h2(kappa))
    CMc = catalog.twisted_h2_cartesian(kappa)
    xp = np.array([0.4, 0.7, 0.5])
    xc, J, _ = _to_cartesian(*xp)
    e = np.eye(3)
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        Kp = sectional_at(CMp, xp, e[i], e[j])
        Kc = sectional_at(CMc, xc, J @ e[i], J @ e[j])
        assert abs(Kp - Kc) < 1e-6


def test_cartesian_chart_smooth_at_axis():
    CM = catalog.twisted_h2_cartesian(1.0)
    assert np.abs(CM.gram(np.array([0.7, 0.0, 0.0])) - np.eye(3)).max() < 1e-14
    K = sectional_at(CM, np.zeros(3), np.array([0.0, 1.0, 0.0]),
                     np.array([0.0, 0.0, 1.0]))
    assert abs(K + 1.0) < 1e-6


# ---------------------------------------------------- anchor algebra matching

@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_anchor_curvature_matches_algebra_model(kappa):
    CM = catalog.twisted_h2_cartesian(kappa)
    M = catalog.sl2(kappa / 2.0, 0.5)
    x0 = np.zeros(3)
    e = np.eye(3)
    # coordinate frame at the anchor is orthonormal; planes map
    # (t,x)->(E1,E3), (t,y)->(E1,E2), (x,y)->(E2,E3)
    pairs = {(0, 1): (0, 2), (0, 2): (0, 1), (1, 2): (1, 2)}
    for (i, j), (p, q) in pairs.items():
        Kc = sectional_at(CM, x0, e[i], e[j])
        Ka = sectional(M, e[p], e[q])
        assert abs(Kc - Ka) < 1e-6


def test_cartesian_stacks_equal_the_per_point_results():
    # rows at the axis q = 0, on a coordinate axis and off both equal the
    # float path's at each point
    CM = catalog.twisted_h2_cartesian(1.5)
    pts = np.array([[0.0, 0.0, 0.0], [0.7, 0.0, 0.0], [0.2, 0.5, 0.0],
                    [-0.4, 0.0, -0.5], [1.1, -2.0, 0.3], [0.3, 0.4, -3.0]])
    for f in (CM.gram_at, CM.partials_at):
        stacked = f(pts)
        assert np.array_equal(stacked, np.stack([f(p) for p in pts]))
        assert np.array_equal(f(pts.reshape(2, 3, 3)), stacked.reshape((2, 3) + stacked.shape[1:]))
    assert CM.gram_at(np.empty((0, 3))).shape == (0, 3, 3)
    assert CM.partials_at(np.empty((0, 3))).shape == (0, 3, 3, 3)
