import numpy as np

from helpers import (descend_one, direct_sum, newton_one, random_orthogonal,
                     rotate_constants)

from tgkit import catalog
from tgkit.lie_core import LieAlgebra, MetricLieAlgebra, complement_onb, levi_civita
from tgkit.tg_analysis import (CaseTag, SearchConfig, _batch_descend,
                               _batch_newton, _search_objective, _solve_rows,
                               classify_case, hyperplane_tg_residual,
                               search_tg_hyperplanes)


def test_sl2_finds_both_borel_normals():
    # both triangular subalgebras are totally geodesic; the search must
    # report the two sign classes, sorted lexicographically
    for a, b in ((1.0, 1.0), (1.0, 2.0), (2.0, 0.5)):
        M = catalog.sl2(a, b)
        got = search_tg_hyperplanes(M)
        assert len(got) == 2
        second = np.array([a, 2 * b, 0.0]) / np.hypot(a, 2 * b)
        assert np.allclose(got.normals[0], second, atol=1e-9)
        assert np.allclose(got.normals[1], [1.0, 0.0, 0.0], atol=1e-9)
        assert max(got.residuals) < 1e-10
        assert not got.continuum


def test_nonhomo_finds_only_y():
    got = search_tg_hyperplanes(catalog.nonhomo())
    assert len(got) == 1
    assert np.allclose(got.normals[0], [0.0, 0.0, 0.0, 1.0], atol=1e-9)
    assert got.residuals[0] < 1e-10
    assert not got.continuum


def test_heisenberg_has_no_tg_hyperplane():
    got = search_tg_hyperplanes(catalog.heisenberg())
    assert len(got) == 0
    assert not got.continuum


def test_abelian_continuum_flag():
    got = search_tg_hyperplanes(catalog.abelian(3))
    assert got.continuum
    assert len(got) > 20
    assert max(got.residuals) == 0.0


def test_search_deterministic_under_seed():
    M = catalog.sl2(1, 1)
    r1 = search_tg_hyperplanes(M, SearchConfig(seed=5))
    r2 = search_tg_hyperplanes(M, SearchConfig(seed=5))
    assert len(r1) == len(r2)
    for x, y in zip(r1.normals, r2.normals):
        assert np.array_equal(x, y)
    assert r1.residuals == r2.residuals


def test_search_stable_across_seeds():
    M = catalog.nonhomo()
    for seed in (0, 1, 99):
        got = search_tg_hyperplanes(M, SearchConfig(seed=seed))
        assert len(got) == 1
        assert np.allclose(got.normals[0], [0, 0, 0, 1], atol=1e-8)


def test_search_invariant_under_orthogonal_change():
    rng = np.random.default_rng(23)
    c = catalog.sl2(1.0, 1.0).algebra.structure_constants
    base = search_tg_hyperplanes(catalog.sl2(1, 1))
    for _ in range(5):
        Q = random_orthogonal(rng, 3)
        M = MetricLieAlgebra(LieAlgebra(rotate_constants(c, Q)))
        got = search_tg_hyperplanes(M)
        assert len(got) == len(base)
        # transported normals match up to sign
        want = sorted(tuple(np.round(v, 9)) for v in
                      (np.sign((Q.T @ x)[np.argmax(np.abs(Q.T @ x))]) * Q.T @ x
                       for x in base.normals))
        have = sorted(tuple(np.round(v, 9)) for v in
                      (np.sign(x[np.argmax(np.abs(x))]) * x for x in got.normals))
        for w, h in zip(want, have):
            assert np.abs(np.array(w) - np.array(h)).max() < 1e-7


def test_every_reported_normal_certifies():
    for M in (catalog.sl2(0.5, 2), catalog.nonhomo()):
        got = search_tg_hyperplanes(M)
        for x, r in zip(got.normals, got.residuals):
            assert abs(np.linalg.norm(x) - 1.0) < 1e-12
            assert abs(hyperplane_tg_residual(M, x) - r) < 1e-15


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    for M in (catalog.sl2(1, 2), catalog.nonhomo()):
        G = levi_civita(M).coefficients
        f_grad = _search_objective(G)
        for _ in range(5):
            t = rng.normal(size=M.dim)
            t /= np.linalg.norm(t)
            _, g = f_grad(t)
            h = 1e-6
            for k in range(M.dim):
                e = np.zeros(M.dim)
                e[k] = h
                fp, _ = f_grad(t + e)
                fm, _ = f_grad(t - e)
                assert abs((fp - fm) / (2 * h) - g[k]) < 1e-6 * max(1.0, abs(g[k]))


def test_objective_batched_matches_row_by_row():
    # the search evaluates all starts as one (K, n) stack
    rng = np.random.default_rng(37)
    for M in (catalog.sl2(1, 2), catalog.nonhomo(), catalog.heisenberg()):
        f_grad = _search_objective(levi_civita(M).coefficients)
        T = rng.normal(size=(16, M.dim))
        T /= np.linalg.norm(T, axis=1)[:, None]
        F, Gr = f_grad(T)
        assert F.shape == (16,) and Gr.shape == (16, M.dim)
        for t, f, g in zip(T, F, Gr):
            f1, g1 = f_grad(t)
            assert abs(f1 - f) <= 1e-14
            assert np.abs(g1 - g).max() <= 1e-14


def test_direct_sum_census_sl2_plus_line():
    # sl2(1,1) + R: the product factor's normal E4 (case (a)) and the two
    # Borel normals of the sl2 factor (case (c))
    c = direct_sum(catalog.sl2(1.0, 1.0).algebra.structure_constants,
                   np.zeros((1, 1, 1)))
    M = MetricLieAlgebra(LieAlgebra(c))
    got = search_tg_hyperplanes(M)
    assert len(got) == 3
    want = [np.eye(4)[3], np.array([1.0, 2.0, 0.0, 0.0]) / np.sqrt(5.0), np.eye(4)[0]]
    tags = [CaseTag.GEODESIC_NORMAL, CaseTag.HELIX_ORDER_TWO, CaseTag.HELIX_ORDER_TWO]
    for x, r, w, tag in zip(got.normals, got.residuals, want, tags):
        assert np.abs(x - w).max() < 1e-9
        assert r < 1e-10
        assert classify_case(M, x).case_tag is tag
    assert not got.continuum


def test_batched_search_matches_one_start_at_a_time():
    # same operations in the same order, so equal to the last bit; the
    # rotated nonhomo has dense 4-dim connection coefficients
    rng = np.random.default_rng(41)
    c = catalog.nonhomo().algebra.structure_constants
    rotated = MetricLieAlgebra(LieAlgebra(rotate_constants(c, random_orthogonal(rng, 4))))
    for M in (catalog.sl2(1, 2), rotated, catalog.heisenberg()):
        f_grad = _search_objective(levi_civita(M).coefficients)
        T = rng.normal(size=(8, M.dim))
        T /= np.linalg.norm(T, axis=1)[:, None]
        D = _batch_descend(f_grad, T, 200)
        N = _batch_newton(f_grad, D, 6)
        for t, d, p in zip(T, D, N):
            d1 = descend_one(f_grad, t, 200)
            assert np.array_equal(d1, d)
            assert np.array_equal(newton_one(f_grad, d1, 6, complement_onb), p)


def test_singular_newton_solve_stops_only_its_row():
    A = np.stack([np.eye(2), np.zeros((2, 2)), 2 * np.eye(2)])
    x = _solve_rows(A, np.ones((3, 2)))
    assert np.array_equal(x[0], [1.0, 1.0])
    assert np.isnan(x[1]).all()
    assert np.array_equal(x[2], [0.5, 0.5])
