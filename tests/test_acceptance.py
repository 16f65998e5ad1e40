"""End-to-end acceptance checks; each test pins one shipped guarantee."""
import itertools

import numpy as np

from tgkit import catalog
from tgkit.coord_engine import (build_twisted_product, christoffel,
                                eikonal_residuals, frenet_numeric,
                                geodesic_integrate, second_fundamental_form,
                                sectional_at, twisting_ode_residual)
from tgkit.lie_core import (LieAlgebra, MetricLieAlgebra, Subspace,
                            curvature_tensor, levi_civita, sectional)
from tgkit.tg_analysis import (CaseTag, SearchConfig, classify_case,
                               codazzi_residual, frenet_orbit,
                               hyperplane_tg_residual, search_tg_hyperplanes,
                               tg_subspace_check)

from helpers import (coordinate_field, direct_sum, normal_curvature_identity, random_orthogonal,
                     random_spd, rotate_constants, second_normal_identity)

AB_GRID = (0.5, 1.0, 2.0)


def test_01_scaled_sl2_family():
    for a, b in itertools.product(AB_GRID, AB_GRID):
        M = catalog.sl2(a, b)
        S = Subspace(3, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        check = tg_subspace_check(M, S)
        assert check.ok and check.residual < 1e-9
        fr = frenet_orbit(M, np.array([1.0, 0.0, 0.0]))
        assert fr.order == 2
        assert abs(fr.curvatures[0] - 2 * b) < 1e-10
        assert abs(fr.curvatures[1] - 2 * a) < 1e-10
        rep = classify_case(M, np.array([1.0, 0.0, 0.0]))
        w = rep.witness
        assert w.residuals["bracket_table_residual"] < 1e-9
        assert w.recovered_a == a
        assert w.recovered_b == b


def test_02_solvable_example_rejection_and_slice():
    M = catalog.nonhomo()          # basis order (Z, X1, X2, Y)
    cols = np.zeros((4, 3))
    cols[0, 0] = 1.0               # Z
    cols[3, 1] = 1.0               # Y
    cols[2, 2] = 1.0               # X2
    check = tg_subspace_check(M, Subspace(4, cols))
    assert not check.ok
    assert check.witness.kind == "bracket"
    assert (check.witness.i, check.witness.j) == (0, 2)
    assert np.array_equal(check.witness.component, [0.0, -1.0, 0.0, 0.0])

    CM = catalog.nonhomo_metric()  # coordinates (z, y, x1, x2)
    h = coordinate_field(2, 4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.uniform(0.0, 1.0, size=4)
        p[2] = 0.0
        assert np.abs(second_fundamental_form(CM, h, p)).max() < 1e-8


def test_03_hyperplane_search_census():
    cfg = SearchConfig(n_starts=64, seed=0)
    res_nh = search_tg_hyperplanes(catalog.nonhomo(), cfg)
    assert len(res_nh.normals) == 1
    assert abs(abs(res_nh.normals[0][3]) - 1.0) < 1e-9
    assert max(res_nh.residuals) < 1e-10

    res = search_tg_hyperplanes(catalog.sl2(1, 1), cfg)
    again = search_tg_hyperplanes(catalog.sl2(1, 1), cfg)
    assert all(np.array_equal(u, v) for u, v in zip(res.normals, again.normals))
    assert max(res.residuals) < 1e-10
    # In case (c) F is the preimage of *the* solvable TG subgroup of SL(2):
    # one class up to isometric automorphism, not one sign class.  On
    # sl2(a,b) the orthogonal involution Q below preserves the brackets, so
    # it preserves the connection and maps the TG hyperplane E1^perp (upper
    # Borel) onto (Q E1)^perp = span(E3, 2b E1 - a E2) (lower Borel).  With
    # Q E1 = (a, 2b, 0)/r != +-E1 there are two sign classes, one orbit.
    a, b = 1.0, 1.0
    r = np.hypot(a, 2 * b)
    Q = np.array([[a / r, 2 * b / r, 0.0],
                  [2 * b / r, -a / r, 0.0],
                  [0.0, 0.0, -1.0]])
    M = catalog.sl2(a, b)
    c = M.algebra.structure_constants
    assert np.abs(Q.T @ M.gram @ Q - M.gram).max() < 1e-12
    assert np.abs(np.einsum('pi,qj,pqk->ijk', Q, Q, c)
                  - np.einsum('kl,ijl->ijk', Q, c)).max() < 1e-12

    def same_class(u, v):
        return min(np.abs(u - v).max(), np.abs(u + v).max()) < 1e-9

    assert len(res.normals) == 2
    for w in (np.array([1.0, 0.0, 0.0]), np.array([a, 2 * b, 0.0]) / r):
        assert sum(same_class(u, w) for u in res.normals) == 1
    u, v = res.normals
    assert same_class(Q @ u, v) and same_class(Q @ v, u)


def test_04_normal_classification_cases():
    rep = classify_case(catalog.abelian(3), np.array([1.0, 0.0, 0.0]))
    assert rep.case_tag is CaseTag.GEODESIC_NORMAL
    e5 = np.eye(5)
    rep = classify_case(catalog.abelian(5), e5[2])
    assert rep.case_tag is CaseTag.GEODESIC_NORMAL

    rep = classify_case(catalog.nonhomo(), np.array([0.0, 0.0, 0.0, 1.0]))
    assert rep.case_tag is CaseTag.CIRCLE_NORMAL
    assert abs(rep.frenet.curvatures[0] - 2.0) < 1e-10

    c = direct_sum(catalog.sl2(1, 2).algebra.structure_constants,
                   np.zeros((2, 2, 2)))
    M = MetricLieAlgebra(LieAlgebra(c))
    rep = classify_case(M, e5[0])
    assert rep.case_tag is CaseTag.HELIX_ORDER_TWO
    w = rep.witness
    assert w.residuals["ideal_residual"] < 1e-10
    assert abs(w.recovered_a - 1.0) < 1e-8
    assert abs(w.recovered_b - 2.0) < 1e-8


def test_05_twisted_product_instance():
    t_grid = np.linspace(0.0, 6.0, 50)
    u_grid = np.stack([np.linspace(0.1, 2.0, 50),
                       np.linspace(0.0, 6.0, 50)], axis=1)
    slice_field = coordinate_field(0, 3)
    for kappa in (0.5, 1.0, 2.0):
        spec = catalog.twisted_h2(kappa)
        assert twisting_ode_residual(spec, t_grid, u_grid) < 1e-10
        eik = eikonal_residuals(spec, u_grid)
        assert eik.grad_alpha_residual < 1e-12
        assert eik.grad_beta_residual < 1e-12
        CM = build_twisted_product(spec)
        ts = np.linspace(0.0, 2 * np.pi / kappa, 1201)
        pts = np.stack([ts, np.full_like(ts, 0.8), np.full_like(ts, 0.3)],
                       axis=1)
        fd = frenet_numeric(CM, ts, pts)
        assert fd.order == 2
        assert abs(fd.curvatures[0] - 1.0) < 1e-3
        assert abs(fd.curvatures[1] - kappa) < 1e-3
        assert fd.truncation_residual < 1e-4     # no third curvature
        for r in (0.4, 1.1):
            out = second_fundamental_form(CM, slice_field, np.array([0.0, r, 0.8]))
            assert np.abs(out).max() < 1e-7


def test_06_cross_engine_agreement():
    CM = catalog.twisted_h2_cartesian(2.0)
    M = catalog.sl2(1.0, 0.5)
    x0 = np.zeros(3)
    e = np.eye(3)
    pairs = {(0, 1): (0, 2), (0, 2): (0, 1), (1, 2): (1, 2)}
    for (i, j), (p, q) in pairs.items():
        Kc = sectional_at(CM, x0, e[i], e[j])
        Ka = sectional(M, e[p], e[q])
        assert abs(Kc - Ka) < 1e-6

    NH = catalog.nonhomo_metric()
    tr = geodesic_integrate(NH, np.zeros(4), np.array([1.0, 0, 0, 0]), 2.0)
    assert np.abs(tr.points[:, 1:]).max() < 1e-8


def test_07_invariance_under_basis_and_gram_changes():
    tg_normal_index = {"sl2": [0], "nonhomo": [3],
                       "heisenberg": [], "abelian": [0, 1, 2]}
    order_two = {"sl2"}
    rng = np.random.default_rng(7)
    for name in ("sl2", "nonhomo", "heisenberg", "abelian"):
        M0 = catalog.catalog_lookup(name)
        c = M0.algebra.structure_constants
        n = M0.dim
        for _ in range(100):
            Q = random_orthogonal(rng, n)
            MQ = MetricLieAlgebra(LieAlgebra(rotate_constants(c, Q)))
            MG = MetricLieAlgebra(LieAlgebra(c), random_spd(rng, n))
            for M in (MQ, MG):
                table = levi_civita(M)
                assert table.torsion_residual < 1e-12
                assert table.compat_residual < 1e-12
                R = curvature_tensor(M).components
                assert np.abs(R + np.transpose(R, (1, 0, 2, 3))).max() < 1e-10
                assert np.abs(R + np.transpose(R, (0, 1, 3, 2))).max() < 1e-10
                assert np.abs(R - np.transpose(R, (2, 3, 0, 1))).max() < 1e-10
                bianchi = (R + np.transpose(R, (0, 2, 3, 1))
                           + np.transpose(R, (0, 3, 1, 2)))
                assert np.abs(bianchi).max() < 1e-10
            for idx in tg_normal_index[name]:
                T = Q[idx]           # transported coordinate normal
                assert hyperplane_tg_residual(MQ, T) < 1e-9
                assert codazzi_residual(MQ, T) < 1e-9
                assert normal_curvature_identity(MQ, T) < 1e-9
                if name in order_two:
                    assert second_normal_identity(MQ, T) < 1e-9
            if name == "heisenberg":
                # no hyperplane certifies in any basis
                assert min(hyperplane_tg_residual(MQ, Q[k])
                           for k in range(3)) > 1e-3


def test_08_fd_christoffel_and_rk4_convergence():
    charts = [catalog.hyperbolic_plane(), catalog.nonhomo_metric(),
              catalog.euclidean_metric(2),
              catalog.catalog_lookup("twisted-h2", {"kappa": 1.0}),
              catalog.twisted_h2_cartesian(2.0)]
    rng = np.random.default_rng(1)
    for CM in charts:
        for _ in range(3):
            x = rng.uniform(0.2, 1.0, size=CM.dim)
            d = np.abs(christoffel(CM, x, exact=True)
                       - christoffel(CM, x, exact=False)).max()
            assert d < 1e-6

    HYP = catalog.hyperbolic_plane()
    x0 = np.array([1.0, 0.5])
    v0 = np.array([0.6, 0.4])
    ends = [geodesic_integrate(HYP, x0, v0, 1.0, h).points[-1]
            for h in (4e-3, 2e-3, 1e-3)]
    ratio = (np.linalg.norm(ends[0] - ends[1])
             / np.linalg.norm(ends[1] - ends[2]))
    assert 8.0 <= ratio <= 32.0
