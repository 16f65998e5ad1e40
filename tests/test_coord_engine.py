import json
import warnings

import numpy as np
import pytest

from helpers import constant, coordinate_field, geodesic_per_stage

from tgkit import catalog, coord_engine
from tgkit.coord_engine import (_GATE_STEPS, CoordinateMetric, ScalarField, _gate_grams, christoffel,
                                export_trajectory_csv, frenet_numeric,
                                geodesic_integrate, mathlib, riemann_at,
                                second_fundamental_form, sectional_at,
                                build_twisted_product, build_warped_product)
from tgkit.errors import (BadParams, DegeneratePlane, DimensionMismatch,
                          IrregularCurve, MetricDegenerate, TgkitError)

HYP = catalog.catalog_lookup("hyperbolic2")
NH = catalog.catalog_lookup("nonhomo", kind="coordinate")
EUC2 = catalog.euclidean_metric(2)
EUC3 = catalog.euclidean_metric(3)


# ------------------------------------------------------------ scalar fields

def test_scalar_field_fd_derivatives():
    f = ScalarField(lambda x: np.sinh(x[0]) * np.cos(x[1]))
    x = np.array([0.7, -0.4])
    want_grad = np.array([np.cosh(0.7) * np.cos(-0.4),
                          -np.sinh(0.7) * np.sin(-0.4)])
    assert np.abs(f.gradient(x) - want_grad).max() < 1e-9
    want_hess = np.array([
        [np.sinh(0.7) * np.cos(-0.4), -np.cosh(0.7) * np.sin(-0.4)],
        [-np.cosh(0.7) * np.sin(-0.4), -np.sinh(0.7) * np.cos(-0.4)]])
    assert np.abs(f.hessian(x) - want_hess).max() < 1e-5
    assert not f.has_grad
    g = coordinate_field(0, 2)
    assert g.has_grad


# ------------------------------------------------------------------- gates

def test_metric_gates():
    bad = CoordinateMetric(2, lambda x: np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(MetricDegenerate):
        bad.gram(np.zeros(2))
    indef = CoordinateMetric(2, lambda x: np.diag([1.0, -1.0]))
    with pytest.raises(MetricDegenerate):
        indef.gram(np.zeros(2))
    with pytest.raises(DimensionMismatch):
        HYP.gram(np.zeros(3))
    nofd = CoordinateMetric(2, lambda x: np.eye(2))
    with pytest.raises(TgkitError):
        nofd.partials(np.zeros(2), exact=True)


# -------------------------------------------------------------- christoffel

def test_hyperbolic_christoffel_hand_values():
    r = 0.7
    G = christoffel(HYP, np.array([r, 1.1]))
    assert abs(G[0, 1, 1] + np.sinh(r) * np.cosh(r)) < 1e-12
    assert abs(G[1, 0, 1] - np.cosh(r) / np.sinh(r)) < 1e-12
    assert abs(G[1, 1, 0] - np.cosh(r) / np.sinh(r)) < 1e-12
    assert abs(G[0, 0, 0]) < 1e-14
    assert abs(G[1, 1, 1]) < 1e-14


def test_nonhomo_christoffel_hand_values():
    z = 0.3
    x = np.array([z, 0.2, -0.4, 0.9])
    G = christoffel(NH, x)
    assert abs(G[0, 1, 1] + 2.0 * np.exp(4 * z)) < 1e-12
    assert abs(G[0, 2, 2] + np.exp(2 * z)) < 1e-12
    assert abs(G[1, 0, 1] - 2.0) < 1e-12
    assert abs(G[2, 0, 2] - 1.0) < 1e-12
    assert abs(G[3, 0, 3] - 1.0) < 1e-12


def test_euclidean_christoffel_zero():
    G = christoffel(EUC2, np.array([0.4, -1.2]))
    assert np.abs(G).max() == 0.0


def test_christoffel_fd_matches_exact_on_all_charts():
    charts = [HYP, NH, EUC2,
              catalog.catalog_lookup("twisted-h2", {"kappa": 1.0}),
              catalog.catalog_lookup("twisted-h2", {"kappa": 2.0, "chart": "cartesian"})]
    rng = np.random.default_rng(2)
    for CM in charts:
        for _ in range(4):
            x = rng.uniform(0.2, 1.0, size=CM.dim)
            d = np.abs(christoffel(CM, x, exact=True)
                       - christoffel(CM, x, exact=False)).max()
            assert d < 1e-6


def test_float_kernel_errors_count_as_a_non_finite_gram():
    # the float kernels raise OverflowError (math.sinh(1000)) or ValueError
    # (math.cos(inf)) where numpy returned inf or NaN
    polar = catalog.catalog_lookup("twisted-h2", {"kappa": 1.0})
    for CM, x in ((HYP, [1000.0, 0.0]), (NH, [400.0, 0.0, 0.0, 0.0]),
                  (polar, [float("inf"), 1.0, 0.5])):
        x = np.array(x)
        for call in (CM.gram, CM.partials, lambda y: CM.partials(y, exact=False),
                     lambda y: christoffel(CM, y)):
            with pytest.raises(MetricDegenerate, match=r"gram not finite at \[") as err:
                call(x)
            assert str(err.value).endswith(f"at {x.tolist()}")


def test_christoffel_symmetric_lower_indices():
    x = np.array([0.5, 0.2, 0.1])
    CM = catalog.catalog_lookup("twisted-h2", {"kappa": 1.0})
    G = christoffel(CM, x)
    assert np.abs(G - np.transpose(G, (0, 2, 1))).max() < 1e-14


# ---------------------------------------------------------------- geodesics

def test_radial_geodesic_on_hyperbolic_plane():
    tr = geodesic_integrate(HYP, np.array([0.5, 0.3]), np.array([1.0, 0.0]), 1.0)
    assert np.abs(tr.points[-1] - [1.5, 0.3]).max() < 1e-9
    assert tr.speed_drift < 1e-9


def test_euclidean_straight_line():
    tr = geodesic_integrate(EUC2, np.zeros(2), np.array([0.3, 0.4]), 2.0)
    assert np.abs(tr.points[-1] - [0.6, 0.8]).max() < 1e-12
    assert np.abs(tr.velocities[-1] - [0.3, 0.4]).max() < 1e-12


def test_nonhomo_axis_geodesic():
    # nabla_Z Z = 0: the z-axis is a geodesic through the identity
    tr = geodesic_integrate(NH, np.zeros(4), np.array([1.0, 0, 0, 0]), 2.0)
    assert np.abs(tr.points[:, 1:]).max() < 1e-8
    assert np.abs(tr.points[-1, 0] - 2.0) < 1e-8


def test_rk4_halving_ratio():
    x0 = np.array([1.0, 0.5])
    v0 = np.array([0.6, 0.4])
    ends = [geodesic_integrate(HYP, x0, v0, 1.0, h).points[-1]
            for h in (4e-3, 2e-3, 1e-3)]
    ratio = np.linalg.norm(ends[0] - ends[1]) / np.linalg.norm(ends[1] - ends[2])
    assert 8.0 <= ratio <= 32.0


def test_geodesic_gates():
    with pytest.raises(BadParams):
        geodesic_integrate(HYP, np.array([1.0, 0.0]), np.zeros(2), 1.0)
    with pytest.raises(BadParams):
        geodesic_integrate(HYP, np.array([1.0, 0.0]), np.array([1.0, 0.0]), -1.0)
    # a coarse step must be rejected, not silently returned
    with pytest.raises(TgkitError):
        geodesic_integrate(HYP, np.array([1.0, 0.5]), np.array([0.6, 0.4]), 1.0, 0.25)
    with np.errstate(over='ignore', invalid='ignore'):
        with pytest.raises(TgkitError):
            geodesic_integrate(HYP, np.array([2.0, 1.0]), np.array([0.0, 1.0]), 3.0, 1.0)


def test_overflowing_initial_velocity_is_refused_by_its_length():
    # |v0|^2 overflows on both charts; a NaN v0 is named as such
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for CM, v0 in ((HYP, [1e200, 0.0]), (EUC2, [1e308, 1e308])):
            with pytest.raises(BadParams) as e:
                geodesic_integrate(CM, np.array([1.0, 0.5]), np.array(v0), 1.0)
            assert str(e.value) == "initial velocity length overflows float range"
        with pytest.raises(BadParams) as e:
            geodesic_integrate(HYP, np.array([1.0, 0.5]), np.array([np.nan, 0.0]), 1.0)
        assert str(e.value) == "initial velocity is not finite"
    assert [str(w.message) for w in caught] == []


# per-stage oracle: five catalog charts, each start well inside the chart
ORACLE_STARTS = {
    "hyperbolic2": (HYP, [1.0, 0.5], [0.3, -0.2]),
    "twisted-h2-polar": (catalog.catalog_lookup("twisted-h2", {"kappa": 1.5}),
                         [0.4, 1.1, 2.0], [0.2, -0.3, 0.25]),
    "twisted-h2-cartesian": (catalog.catalog_lookup("twisted-h2", {"kappa": 1.5},
                                                    kind="cartesian"),
                             [0.4, 0.3, -0.2], [0.2, -0.3, 0.25]),
    "nonhomo": (NH, [0.1, -0.2, 0.3, 0.05], [0.3, 0.1, -0.2, 0.15]),
    "euclidean": (EUC3, [0.1, 0.2, 0.3], [0.3, -0.4, 0.5]),
}


@pytest.fixture
def blocks_of_64(monkeypatch):
    """Gate 64 RK4 steps at a time, so that the runs below reach a gate block
    after a full one: geodesic_integrate reads _GATE_STEPS at each call."""
    monkeypatch.setattr(coord_engine, "_GATE_STEPS", 64)


@pytest.mark.usefixtures("blocks_of_64")
@pytest.mark.parametrize("name", sorted(ORACLE_STARTS))
def test_geodesic_matches_per_stage_oracle(name):
    # 250 steps: three full gate blocks and a partial one
    CM, x0, v0 = ORACLE_STARTS[name]
    tr = geodesic_integrate(CM, x0, v0, 1.0, 4e-3)
    points, vels, drift = geodesic_per_stage(CM, x0, v0, 1.0, 4e-3)
    assert np.abs(tr.points - points).max() <= 1e-12
    assert np.abs(tr.velocities - vels).max() <= 1e-12
    assert abs(tr.speed_drift - drift) <= 1e-12


def _turning_metric(threshold, bad, raise_beyond=None):
    """Flat plane until x^0 passes threshold, the gram `bad` past it; gram_at
    raises TgkitError past raise_beyond."""
    def gram_at(x):
        if raise_beyond is not None and (x[..., 0] > raise_beyond).any():
            raise TgkitError(f"chart ends at {x.tolist()}")
        return np.where((x[..., 0] <= threshold)[..., None, None], np.eye(2), bad)
    return CoordinateMetric(2, gram_at, constant(np.zeros((2, 2, 2))))


BAD_GRAMS = {"indefinite": [[1.0, 0.0], [0.0, -1.0]],
             "singular": [[0.0, 0.0], [0.0, 0.0]],
             "asymmetric": [[1.0, 0.5], [0.4, 1.0]],
             "nan": [[1.0, 0.0], [0.0, np.nan]]}


def _degenerate_point(exc):
    return float(str(exc).split("[")[1].split(",")[0])


@pytest.mark.usefixtures("blocks_of_64")
@pytest.mark.parametrize("bad", sorted(BAD_GRAMS))
@pytest.mark.parametrize("threshold", [0.22, 0.27, 7.02, 7.07])
def test_geodesic_degenerate_stage_raises_as_per_stage_oracle(bad, threshold):
    # along x = (t, 0) with h = 0.1 the first point past the threshold is a
    # step's second stage point, x_i + h/2, for 0.22 and 7.02, and its fourth,
    # x_i + h, for 0.27 and 7.07 (in the second gate block from 6.4 on)
    CM = _turning_metric(threshold, BAD_GRAMS[bad])
    x0, v0 = [0.0, 0.0], [1.0, 0.0]
    with np.errstate(invalid='ignore'):
        with pytest.raises(MetricDegenerate) as want:
            geodesic_per_stage(CM, x0, v0, 10.0, 0.1)
        with pytest.raises(MetricDegenerate) as got:
            geodesic_integrate(CM, x0, v0, 10.0, 0.1)
    assert str(got.value) == str(want.value)
    assert abs(_degenerate_point(got.value) - (threshold + 0.03)) < 1e-9


@pytest.mark.usefixtures("blocks_of_64")
@pytest.mark.parametrize("threshold", [0.22, 7.02])
def test_degenerate_stage_wins_over_a_later_error(threshold):
    # the gram turns indefinite at x^0 = threshold + 0.03, gram_at raises
    # from threshold + 0.05 on, two stages later
    CM = _turning_metric(threshold, BAD_GRAMS["indefinite"], raise_beyond=threshold + 0.05)
    x0, v0 = [0.0, 0.0], [1.0, 0.0]
    with pytest.raises(MetricDegenerate) as want:
        geodesic_per_stage(CM, x0, v0, 10.0, 0.1)
    with pytest.raises(MetricDegenerate) as got:
        geodesic_integrate(CM, x0, v0, 10.0, 0.1)
    assert str(got.value) == str(want.value)
    assert "positive definite" in str(got.value)


def _error_point(exc):
    return json.loads(str(exc).split(" at ")[1])


@pytest.mark.usefixtures("blocks_of_64")
@pytest.mark.parametrize("bad", sorted(BAD_GRAMS))
@pytest.mark.parametrize("threshold, third", [(0.281, 0.2825), (31.901, 31.9025)])
def test_degenerate_third_stage_is_named(bad, threshold, third):
    # a stage spray of (1, 0) from v = (1, 0) gives x = t + t^2 / 2, so a
    # step's third stage, x_i + h/2 (v_i + h/2), lies past its second,
    # x_i + h/2 v_i: the first stage past the threshold is step 2's third
    # (step 70's, in the second gate block, for 31.901)
    CM = _turning_metric(threshold, BAD_GRAMS[bad])
    CM.stage_at = lambda x, v: (CM.gram_at(np.array(x)).ravel().tolist(), [1.0, 0.0])
    with np.errstate(invalid='ignore'):
        with pytest.raises(MetricDegenerate) as got:
            geodesic_integrate(CM, [0.0, 0.0], [1.0, 0.0], 10.0, 0.1)
        with pytest.raises(MetricDegenerate) as want:
            CM.gram(np.array(_error_point(got.value)))
    assert str(got.value) == str(want.value)
    assert abs(_degenerate_point(got.value) - third) < 1e-9


def _flat_stage_raising(threshold, error):
    """The flat plane whose stage raises error past x^0 = threshold."""
    def stage_at(x, v):
        if x[0] > threshold:
            raise error
        return [1.0, 0.0, 0.0, 1.0], [0.0, 0.0]
    return CoordinateMetric(2, EUC2.gram_at, EUC2.partials_at, stage_at)


@pytest.mark.usefixtures("blocks_of_64")
@pytest.mark.parametrize("threshold", [0.22, 0.27, 7.02, 7.07])
def test_stage_float_error_names_its_stage_point(threshold):
    # the second stage (0.22, 7.02) or the fourth (0.27, 7.07), as above
    CM = _flat_stage_raising(threshold, OverflowError("math range error"))
    with pytest.raises(MetricDegenerate) as err:
        geodesic_integrate(CM, [0.0, 0.0], [1.0, 0.0], 10.0, 0.1)
    assert str(err.value).startswith("metric derivatives not finite at [")
    assert _error_point(err.value)[1] == 0.0
    assert abs(_degenerate_point(err.value) - (threshold + 0.03)) < 1e-9


def test_stage_tgkit_error_comes_back_unchanged(monkeypatch):
    seen = _counted_gates(monkeypatch)
    error = TgkitError("chart ends")
    # along x = (t, 0) with h = 0.1, step B + 6's second stage, at
    # 0.1 (B + 6) + 0.05, is the first past the threshold, B = _GATE_STEPS
    raising = 0.1 * (_GATE_STEPS + 6) + 0.05
    with pytest.raises(TgkitError) as err:
        geodesic_integrate(_flat_stage_raising(raising - 0.03, error), [0.0, 0.0], [1.0, 0.0],
                           0.2 * _GATE_STEPS, 0.1)
    assert err.value is error
    # x0, the first gate block, then steps B to B + 5 and step B + 6's first
    # two stages, the raising one last
    assert [len(points) for points in seen] == [1, 4 * _GATE_STEPS, 4 * 6 + 2]
    assert abs(seen[-1][-1][0] - raising) < 1e-9


def test_gram_stack_gate_raises_at_first_failing_point():
    points = np.arange(6.0)[:, None] * np.ones(2)
    grams = np.stack([np.eye(2)] * 6)
    grams[2] = BAD_GRAMS["asymmetric"]
    grams[3] = BAD_GRAMS["indefinite"]
    grams[4] = BAD_GRAMS["nan"]
    for first in (2, 3, 4):
        one = CoordinateMetric(2, lambda x, g=grams[first]: g)
        with pytest.raises(MetricDegenerate) as want:
            one.gram(points[first])
        with pytest.raises(MetricDegenerate) as got:
            _gate_grams(points, grams)
        assert str(got.value) == str(want.value)
        grams[first] = np.eye(2)
    assert _gate_grams(points, grams) is grams


def test_trajectory_csv_round_trip(tmp_path):
    tr = geodesic_integrate(EUC2, np.zeros(2), np.array([1.0, 2.0]), 0.1)
    path = tmp_path / "traj.csv"
    export_trajectory_csv(tr, path)
    raw = np.genfromtxt(path, delimiter=",", names=True)
    assert raw.dtype.names == ("t", "x1", "x2", "v1", "v2")
    assert np.abs(np.array([row["x1"] for row in raw]) - tr.points[:, 0]).max() == 0.0


# ------------------------------------------------------------ hypersurfaces

def test_sphere_second_fundamental_form():
    R = 2.0
    h = ScalarField(lambda x: sum(c * c for c in x) - R * R,
                    grad=lambda x: [2.0 * c for c in x],
                    hess=lambda x: 2.0 * np.eye(3))
    rng = np.random.default_rng(4)
    for _ in range(5):
        p = rng.normal(size=3)
        p *= R / np.linalg.norm(p)
        out = second_fundamental_form(EUC3, h, p)
        assert abs(np.abs(out).max() - 1.0 / R) < 1e-9


def test_flat_slice_of_nonhomo_chart():
    h = coordinate_field(2, 4)
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = rng.uniform(0.0, 1.0, size=4)
        p[2] = 0.0
        assert np.abs(second_fundamental_form(NH, h, p)).max() < 1e-8


def test_sff_gates():
    h = ScalarField(lambda x: x[0] ** 2 + x[1] ** 2 - 1.0,
                    grad=lambda x: (2 * x[0], 2 * x[1], 0.0))
    with pytest.raises(BadParams):
        second_fundamental_form(EUC3, h, np.array([2.0, 0.0, 0.0]))
    flat = ScalarField(lambda x: x[0] ** 2, grad=lambda x: (2 * x[0], 0.0, 0.0))
    with pytest.raises(MetricDegenerate):
        second_fundamental_form(EUC3, flat, np.array([0.0, 0.5, 0.5]))


# ---------------------------------------------------------------- curvature

def test_hyperbolic_sectional_minus_one():
    for r in (0.4, 0.9, 1.7):
        x = np.array([r, 0.6])
        K = sectional_at(HYP, x, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert abs(K + 1.0) < 1e-9


def test_nonhomo_chart_plane_curvatures():
    x = np.array([0.2, 0.4, -0.1, 0.3])
    e = np.eye(4)
    assert abs(sectional_at(NH, x, e[0], e[1]) + 4.0) < 1e-8
    assert abs(sectional_at(NH, x, e[0], e[2]) + 1.0) < 1e-8
    assert abs(sectional_at(NH, x, e[2], e[3]) + 1.0) < 1e-8


def test_riemann_symmetries_numeric():
    x = np.array([0.5, 0.3, 0.2])
    CM = catalog.catalog_lookup("twisted-h2", {"kappa": 1.0})
    R = riemann_at(CM, x)
    assert np.abs(R + np.transpose(R, (1, 0, 2, 3))).max() < 1e-7
    assert np.abs(R + np.transpose(R, (0, 1, 3, 2))).max() < 1e-7
    assert np.abs(R - np.transpose(R, (2, 3, 0, 1))).max() < 1e-7


def test_sectional_degenerate_plane_rejected():
    v = np.array([1.0, 1.0])
    with pytest.raises(DegeneratePlane):
        sectional_at(HYP, np.array([0.5, 0.0]), v, 2 * v)


def test_sectional_nan_plane_rejected():
    # a NaN Gram determinant fails the plane gate instead of returning NaN
    with pytest.raises(DegeneratePlane):
        sectional_at(HYP, np.array([0.9, 1.2]), np.array([np.nan, 0.0]),
                     np.array([0.0, 1.0]))


def test_curvature_at_rejects_a_stacked_point():
    # gram takes stacks (..., dim); riemann_at and sectional_at take one point
    x = np.array([[0.9, 1.2]])
    e = np.eye(2)
    with pytest.raises(DimensionMismatch, match=r"shape \(1, 2\)"):
        riemann_at(HYP, x)
    with pytest.raises(DimensionMismatch, match=r"shape \(1, 2\)"):
        sectional_at(HYP, x, e[0], e[1])


def test_sectional_invariant_under_linear_recoordinatization():
    # x1 = x1' + 0.3 x2' leaves the geometry alone
    A = np.eye(4)
    A[2, 3] = 0.3

    def gram_at(y):
        return A.T @ NH.gram_at(y @ A.T) @ A

    def partials_at(y):
        dg = NH.partials(y @ A.T, exact=True)
        dgp = np.einsum('lk,...lij->...kij', A, dg)
        return np.einsum('...kij,ia,jb->...kab', dgp, A, A)

    CM2 = CoordinateMetric(4, gram_at, partials_at)
    y = np.array([0.2, 0.4, -0.1, 0.3])
    x = A @ y
    e = np.eye(4)
    for (u, v) in ((e[0], e[1]), (e[0], e[2]), (e[2], e[3])):
        K_old = sectional_at(NH, x, A @ u, A @ v)
        K_new = sectional_at(CM2, y, u, v)
        assert abs(K_old - K_new) < 1e-7


# ------------------------------------------------------------ warped product

def _solvable_base():
    """du^2 + e^{4 u^0} (du^1)^2."""
    def gram_at(u):
        g = np.zeros(u.shape[:-1] + (2, 2))
        g[..., 0, 0], g[..., 1, 1] = 1.0, np.exp(4.0 * u[..., 0])
        return g

    def partials_at(u):
        dg = np.zeros(u.shape[:-1] + (2, 2, 2))
        dg[..., 0, 1, 1] = 4.0 * np.exp(4.0 * u[..., 0])
        return dg

    return CoordinateMetric(2, gram_at, partials_at)


def test_warped_product_reproduces_solvable_chart():
    base = _solvable_base()
    W = build_warped_product(2, base, coordinate_field(0, 2))
    assert W.dim == 4
    perm = [2, 3, 0, 1]     # (x1, x2, z, y) -> (z, y, x1, x2)
    rng = np.random.default_rng(12)
    for _ in range(5):
        xw = rng.uniform(-0.5, 0.5, size=4)
        xc = xw[perm]
        gw = W.gram(xw)
        gc = NH.gram(xc)
        assert np.abs(gw - gc[np.ix_(perm, perm)]).max() < 1e-12
        dw = W.partials(xw, exact=True)
        dc = NH.partials(xc, exact=True)
        assert np.abs(dw - dc[np.ix_(perm, perm, perm)]).max() < 1e-12


def test_warped_product_is_the_nonhomo_chart():
    # case (b) from its builder: e^{2z} (dx1^2 + dx2^2) over dz^2 + e^{4z} dy^2,
    # on the stage path of a diagonal base, is nonhomo_metric permuted
    def coeffs(z, m):
        e4 = m.exp(4.0 * z)
        return (1.0, e4), (0.0, 4.0 * e4)

    W = build_warped_product(2, catalog._diagonal_metric(2, coeffs), coordinate_field(0, 2))
    perm = [2, 3, 0, 1]     # (x1, x2, z, y) -> (z, y, x1, x2)
    rng = np.random.default_rng(12)
    for _ in range(5):
        xw = rng.uniform(-0.5, 0.5, size=4)
        xc = xw[perm]
        assert np.array_equal(W.gram(xw), NH.gram(xc)[np.ix_(perm, perm)])
        assert np.array_equal(christoffel(W, xw), christoffel(NH, xc)[np.ix_(perm, perm, perm)])
    xw, vw = np.array([0.1, -0.2, 0.15, 0.3]), np.array([0.2, 0.1, -0.3, 0.25])
    tw = geodesic_integrate(W, xw, vw, 1.0, 1e-3)
    tc = geodesic_integrate(NH, xw[perm], vw[perm], 1.0, 1e-3)
    assert np.abs(tw.points[-1] - tc.points[-1][perm]).max() <= 1e-12
    assert np.abs(tw.velocities[-1] - tc.velocities[-1][perm]).max() <= 1e-12


def test_warped_base_curvature():
    K = sectional_at(_solvable_base(), np.array([0.2, 0.5]),
                     np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert abs(K + 4.0) < 1e-8


def test_warped_product_gates():
    base = catalog.euclidean_metric(2)
    with pytest.raises(BadParams):
        build_warped_product(0, base, ScalarField(lambda u: 0.0))


def _counted_gates(monkeypatch):
    """Points of each _gate_grams call, recorded as lists of tuples."""
    seen = []
    gate = coord_engine._gate_grams

    def counted(points, grams):
        seen.append([tuple(p) for p in points])
        return gate(points, grams)

    monkeypatch.setattr(coord_engine, "_gate_grams", counted)
    return seen


def _warped_over_hyperbolic():
    return build_warped_product(2, HYP, coordinate_field(0, 2))


def test_product_gram_is_gated_once(monkeypatch):
    seen = _counted_gates(monkeypatch)
    twisted = build_twisted_product(catalog.twisted_h2(1.0))
    for CM, x in ((twisted, [0.3, 0.8, 0.6]), (_warped_over_hyperbolic(), [0.1, -0.2, 0.8, 0.6])):
        seen.clear()
        CM.gram(np.array(x))
        assert seen == [[tuple(x)]]


def test_polar_twisted_gate_counts(monkeypatch):
    seen = _counted_gates(monkeypatch)
    CM = build_twisted_product(catalog.twisted_h2(1.0))
    geodesic_integrate(CM, [0.5, 1.0, 0.5], [0.3, 0.1, 0.1], 1.0, 1e-3)
    # one gate per block of _GATE_STEPS steps, plus the first and last point
    assert len(seen) == -(-1000 // _GATE_STEPS) + 2
    seen.clear()
    ts = np.linspace(0.0, 2 * np.pi, 601)
    frenet_numeric(CM, ts, np.stack([ts, np.full(601, 0.8), np.full(601, 0.6)], axis=1))
    assert len(seen) == 1       # one stack serves the full and half sampling


def test_product_builds_take_an_empty_stack():
    # as the diagonal charts do: no points give no grams and no symbols
    twisted = build_twisted_product(catalog.twisted_h2(1.0))
    for CM in (HYP, twisted, _warped_over_hyperbolic()):
        x = np.empty((0, CM.dim))
        assert CM.gram(x).shape == (0, CM.dim, CM.dim)
        for exact in (True, False):
            assert christoffel(CM, x, exact=exact).shape == (0,) + (CM.dim,) * 3


def _root_warped():
    """A line warped over HYP by logf = sqrt(r - 1): at x = (0, 1, 0.5) the
    gram is e^{2 logf} = 1 while d logf / dr = 1 / (2 sqrt(r - 1)) divides by 0."""
    root = ScalarField(lambda u: mathlib(u[0]).sqrt(u[0] - 1.0),
                       grad=lambda u: (0.5 / mathlib(u[0]).sqrt(u[0] - 1.0), 0.0))
    return build_warped_product(1, HYP, root)


def test_stage_error_at_a_gated_gram_names_the_derivatives():
    CM, x0 = _root_warped(), [0.0, 1.0, 0.5]
    assert CM.gram(np.array(x0))[0, 0] == 1.0      # gated: finite and positive definite
    with pytest.raises(MetricDegenerate) as err:
        geodesic_integrate(CM, x0, [1.0, 0.0, 0.0], 1.0)
    assert str(err.value) == "metric derivatives not finite at [0.0, 1.0, 0.5]"


def test_partials_error_at_a_gated_gram_names_the_derivatives():
    CM, x = _root_warped(), np.array([0.0, 1.0, 0.5])
    for call in (lambda: christoffel(CM, x), lambda: christoffel(CM, x, exact=False),
                 lambda: second_fundamental_form(CM, coordinate_field(0, 3), x)):
        with pytest.raises(MetricDegenerate) as err:
            call()
        assert str(err.value) == "metric derivatives not finite at [0.0, 1.0, 0.5]"


def test_geodesic_start_shapes_are_checked():
    for x0, v0 in (([1.0, 0.5], [0.3, 0.2, 0.1]), ([1.0, 0.5], 0.3), ([[1.0, 0.5]], [0.3, 0.2])):
        with pytest.raises(DimensionMismatch, match=r"has shape \(.*\), expected \(2,\)"):
            geodesic_integrate(HYP, x0, v0, 1.0)


@pytest.mark.parametrize("gram, spray", [([1.0, 0.0, 0.0, 1.0], [0.0]),
                                         ([1.0, 0.0, 1.0], [0.0, 0.0])])
def test_stage_lengths_are_checked_once(gram, spray):
    # a spray one entry short, a gram of 3 floats on the plane
    starts = []

    def stage_at(x, v):
        starts.append(x)
        return gram, spray
    CM = CoordinateMetric(2, EUC2.gram_at, EUC2.partials_at, stage_at)
    with pytest.raises(DimensionMismatch, match=r"needs n\^2 = 4 and n = 2") as err:
        geodesic_integrate(CM, [0.0, 0.0], [1.0, 0.0], 1.0, 0.1)
    assert f"({len(gram)}, {len(spray)}) floats" in str(err.value)
    assert starts == [[0.0, 0.0]]


def test_product_base_stage_lengths_are_checked():
    # a flat plane whose stage returns a 1-float spray, alone and as the base
    # of a warped product: both raise the base's DimensionMismatch before any
    # step, the product after one product stage call and one base stage call
    starts = []

    def stage_at(x, v):
        starts.append(x)
        return [1.0, 0.0, 0.0, 1.0], [0.0]
    base = CoordinateMetric(2, EUC2.gram_at, EUC2.partials_at, stage_at)
    warped = build_warped_product(1, base, coordinate_field(0, 2))
    for CM, x0 in ((base, [0.5, 0.5]), (warped, [0.0, 0.5, 0.5])):
        starts.clear()
        with pytest.raises(DimensionMismatch) as err:
            geodesic_integrate(CM, x0, np.eye(CM.dim)[0], 1.0, 0.1)
        assert str(err.value) == ("stage_at returned (gram, spray) of (4, 1) floats; "
                                  "a 2-dim chart needs n^2 = 4 and n = 2")
        assert starts == [[0.5, 0.5]] * (CM.dim - 1)


def test_stage_contract_check_is_one_call():
    calls = []

    def stage_at(x, v):
        calls.append(x)
        return [1.0, 0.0, 0.0, 1.0], [0.0, 0.0]
    CM = CoordinateMetric(2, EUC2.gram_at, EUC2.partials_at, stage_at)
    geodesic_integrate(CM, [0.0, 0.0], [1.0, 0.0], 1.0, 0.1)
    assert len(calls) == 1 + 4 * 10 and calls[0] == calls[1] == [0.0, 0.0]


def test_stage_error_at_the_start_is_named_as_in_the_loop():
    # the contract check's stage call raises; the loop's first stage raises it again
    CM = _flat_stage_raising(-1.0, OverflowError("math range error"))
    with pytest.raises(MetricDegenerate, match=r"^metric derivatives not finite at \[0.0, 0.0\]$"):
        geodesic_integrate(CM, [0.0, 0.0], [1.0, 0.0], 1.0, 0.1)


def test_degenerate_base_names_the_composite_point():
    # the polar hyperbolic base degenerates on the axis r = 0
    twisted = build_twisted_product(catalog.twisted_h2(1.0))
    for CM, x in ((twisted, [0.3, 0.0, 0.6]), (_warped_over_hyperbolic(), [0.1, -0.2, 0.0, 0.6])):
        with pytest.raises(MetricDegenerate, match=r"not positive definite at \[") as err:
            CM.gram(np.array(x))
        assert str(err.value).endswith(f"at {x}")
        with pytest.raises(MetricDegenerate, match="not positive definite"):
            geodesic_integrate(CM, x, np.eye(len(x))[0], 0.01, 1e-3)


def test_sff_and_riemann_gate_the_point_once(monkeypatch):
    seen = _counted_gates(monkeypatch)
    h = ScalarField(lambda x: sum(c * c for c in x) - 4.0, grad=lambda x: [2 * c for c in x],
                    hess=lambda x: 2 * np.eye(3))
    x = np.array([0.0, 2.0, 0.0])
    second_fundamental_form(EUC3, h, x)
    assert seen == [[tuple(x)]]
    seen.clear()
    x = np.array([0.9, 1.2])
    riemann_at(HYP, x)
    # one stack of 4 Richardson offsets per coordinate, then x itself once
    assert sorted(map(len, seen)) == [1, 4 * 2]
    assert sum(pts == [tuple(x)] for pts in seen) == 1


# ------------------------------------------------------------ numeric frenet

def test_numeric_frenet_circle():
    ts = np.linspace(0.0, 2 * np.pi, 256)
    pts = np.stack([2 * np.cos(ts), 2 * np.sin(ts)], axis=1)
    fd = frenet_numeric(EUC2, ts, pts)
    assert fd.order == 1
    assert abs(fd.curvatures[0] - 0.5) < 1e-5
    assert fd.error_bars is not None
    assert not fd.borderline


def test_numeric_frenet_helix():
    ts = np.linspace(0.0, 4 * np.pi, 1024)
    pts = np.stack([np.cos(ts), np.sin(ts), 0.5 * ts], axis=1)
    fd = frenet_numeric(EUC3, ts, pts)
    assert fd.order == 2
    assert abs(fd.curvatures[0] - 0.8) < 1e-4
    assert abs(fd.curvatures[1] - 0.4) < 1e-4
    assert fd.truncation_residual < 1e-4


def test_numeric_frenet_needs_no_arclength_reparametrization():
    ts = np.linspace(0.0, 2 * np.pi, 512)
    tau = ts + 0.3 * np.sin(ts)       # non-constant speed parameterization
    pts = np.stack([np.cos(tau), np.sin(tau)], axis=1)
    plain = frenet_numeric(EUC2, ts, pts)
    assert abs(plain.curvatures[0] - 1.0) < 1e-4


def test_numeric_frenet_gates():
    ts = np.linspace(0.0, 1.0, 30)
    pts = np.stack([ts, ts], axis=1)
    with pytest.raises(IrregularCurve):
        frenet_numeric(EUC2, ts, pts)
    ts = np.concatenate([np.linspace(0, 1, 40), np.linspace(1.1, 2, 40)])
    pts = np.stack([ts, ts], axis=1)
    with pytest.raises(IrregularCurve):
        frenet_numeric(EUC2, ts, pts)


def test_frenet_evaluates_each_sample_gram_once():
    calls = []

    def gram_at(x):
        calls.append(x.shape)
        return constant(np.eye(2))(x)

    CM = CoordinateMetric(2, gram_at, constant(np.zeros((2, 2, 2))))
    ts = np.linspace(0.0, 2 * np.pi, 256)
    pts = np.stack([2 * np.cos(ts), 2 * np.sin(ts)], axis=1)
    fd = frenet_numeric(CM, ts, pts)
    assert abs(fd.curvatures[0] - 0.5) < 1e-5
    # one stack without the two samples at either end; the half sampling's
    # interior is a subset of it
    assert calls == [(256 - 4, 2)]


def test_frenet_pipeline_makes_one_christoffel_stack(monkeypatch):
    calls = {"pipeline": 0, "christoffel": []}
    pipeline, christoffel_from = coord_engine._frenet_pipeline, coord_engine._christoffel_from

    def counted_pipeline(*args):
        calls["pipeline"] += 1
        return pipeline(*args)

    def counted_christoffel(g, dg):
        calls["christoffel"].append(g.shape)
        return christoffel_from(g, dg)

    monkeypatch.setattr(coord_engine, "_frenet_pipeline", counted_pipeline)
    monkeypatch.setattr(coord_engine, "_christoffel_from", counted_christoffel)
    CM = build_twisted_product(catalog.twisted_h2(1.0))
    ts = np.linspace(0.0, 2 * np.pi, 601)
    frenet_numeric(CM, ts, np.stack([ts, np.full(601, 0.8), np.full(601, 0.6)], axis=1))
    # full and half sampling, from one stack without the two samples at either end
    assert calls["pipeline"] == 2
    assert calls["christoffel"] == [(601 - 4, 3, 3)]


def test_frenet_degenerate_sample_raises_at_first_one():
    CM = _turning_metric(1.5, BAD_GRAMS["indefinite"])
    ts = np.linspace(0.0, 2 * np.pi, 256)
    pts = np.stack([-2 * np.cos(ts), 2 * np.sin(ts)], axis=1)
    first = next(p for p in pts[2:-2] if p[0] > 1.5)
    assert first[1] > 0.5       # well inside the sampled arc
    with pytest.raises(MetricDegenerate) as want:
        CM.gram(first)
    with pytest.raises(MetricDegenerate) as got:
        frenet_numeric(CM, ts, pts)
    assert str(got.value) == str(want.value)
