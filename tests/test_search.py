import contextlib
import io
import json
from unittest import mock

import numpy as np
import pytest

from helpers import (BIANCHI4, SL2_PLANE, SL2C, SL3, SU2, conic_starts_projector, direct_sum,
                     lm_one, random_orthogonal, random_spd, refuse, rotate_constants, table)

from tgkit import catalog, tg_analysis
from tgkit.cli import run
from tgkit.config import DEFAULT
from tgkit.lie_core import LieAlgebra, MetricLieAlgebra, levi_civita, rowdot
from tgkit.tg_analysis import (CaseTag, SearchConfig, _batch_lm, _family_starts,
                               _residual_jacobian, _sign_normalize, classify_case,
                               hyperplane_tg_residual, search_tg_hyperplanes)


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


def test_search_without_config_reads_the_algebras_threshold():
    # both sl2 normals certify near 1e-16, far above 1e-40
    M = catalog.sl2(1, 1, DEFAULT.replace(search_residual=1e-40))
    assert len(search_tg_hyperplanes(M)) == 0
    assert len(search_tg_hyperplanes(catalog.sl2(1, 1))) == 2


def test_search_with_config_reads_the_algebras_threshold():
    M = catalog.sl2(1, 1, DEFAULT.replace(search_residual=1e-40))
    assert len(search_tg_hyperplanes(M, SearchConfig(seed=3))) == 0
    with pytest.raises(TypeError):
        SearchConfig(residual_threshold=1e-40)


def test_abelian_continuum_flag():
    # every unit vector of R^3 is a TG normal: one 3-dim kernel sphere, no
    # isolated normal, certified at 0 since G = 0
    got = search_tg_hyperplanes(catalog.abelian(3))
    assert got.continuum
    assert len(got) == 0
    assert [K.shape for K in got.components] == [(3, 3)]
    assert got.component_residuals == [0.0]


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


def _rotated_nonhomo(rng):
    # dense 4-dim connection coefficients
    c = catalog.nonhomo().algebra.structure_constants
    return MetricLieAlgebra(LieAlgebra(rotate_constants(c, random_orthogonal(rng, 4))))


def test_residual_jacobian_matches_central_differences():
    # row d of J is the derivative of r along t -> (t + h d)/|t + h d|
    rng = np.random.default_rng(31)
    for M in (catalog.sl2(1, 2), catalog.nonhomo(), _rotated_nonhomo(rng)):
        rj = _residual_jacobian(levi_civita(M).coefficients)
        for _ in range(5):
            t = rng.normal(size=M.dim)
            t /= np.linalg.norm(t)
            r, J, Q = rj(t)
            assert r.shape == (M.dim ** 2,) and J.shape == (M.dim - 1, M.dim ** 2)
            assert np.abs(Q.T @ t).max() < 1e-15
            assert np.abs(Q.T @ Q - np.eye(M.dim - 1)).max() < 1e-15
            h = 1e-6
            for d in range(M.dim - 1):
                tp = t + h * Q[:, d]
                tm = t - h * Q[:, d]
                fd = (rj(tp / np.linalg.norm(tp))[0] - rj(tm / np.linalg.norm(tm))[0]) / (2 * h)
                assert np.abs(fd - J[d]).max() < 1e-8 * max(1.0, np.abs(J[d]).max())


def test_residual_jacobian_batched_matches_row_by_row():
    # the search evaluates all starts as one (K, n) stack, bit for bit
    rng = np.random.default_rng(37)
    for M in (catalog.sl2(1, 2), _rotated_nonhomo(rng), catalog.heisenberg()):
        rj = _residual_jacobian(levi_civita(M).coefficients)
        T = rng.normal(size=(16, M.dim))
        T /= np.linalg.norm(T, axis=1)[:, None]
        R, J, Q = rj(T)
        assert R.shape == (16, M.dim ** 2) and J.shape == (16, M.dim - 1, M.dim ** 2)
        for k, t in enumerate(T):
            for whole, alone in zip((R[k], J[k], Q[k]), rj(t)):
                assert np.array_equal(whole, alone)


def test_batched_lm_matches_one_start_at_a_time():
    # same operations in the same order, so equal to the last bit
    rng = np.random.default_rng(41)
    for M in (catalog.sl2(1, 2), _rotated_nonhomo(rng), catalog.heisenberg()):
        rj = _residual_jacobian(levi_civita(M).coefficients)
        T = rng.normal(size=(8, M.dim))
        T /= np.linalg.norm(T, axis=1)[:, None]
        for t, got in zip(T, _batch_lm(rj, T)):
            assert np.array_equal(lm_one(rj, t), got)


def _exact_start_algebras(rng):
    """The sl2(a, b) acceptance grid, three rotated nonhomo and two sl2 + R."""
    line = np.zeros((1, 1, 1))
    return ([catalog.sl2(a, b) for a in (0.5, 1.0, 2.0) for b in (0.5, 1.0, 2.0)]
            + [_rotated_nonhomo(rng) for _ in range(3)]
            + [MetricLieAlgebra(LieAlgebra(direct_sum(_sl2(a, b), line)))
               for a, b in ((1.0, 1.0), (0.5, 3.0))])


def _residual_only(rj):
    """rj with its residual and round-off, refusing the full call (the Jacobian)."""
    refused = mock.Mock(side_effect=refuse)
    refused.residual, refused.f_stop = rj.residual, rj.f_stop
    return refused


def test_exact_starts_retire_on_the_residual_alone():
    # where every exact start sits below the round-off f_stop, LM reads the
    # residual alone, builds no Jacobian and returns its input bit for bit,
    # and the search makes no full rj call either.  On sl2(0.5, 2) the lower
    # Borel start reads 6.2 f_stop: the full loop runs, one step, as lm_one
    rng = np.random.default_rng(43)
    make, retired = _residual_jacobian, []
    for M in _exact_start_algebras(rng):
        G = levi_civita(M).coefficients
        rj = make(G)
        starts, _ = _family_starts(M.onb_constants, G)
        r = rj.residual(starts)
        if (rowdot(r, r) < rj.f_stop).all():
            got = _batch_lm(_residual_only(rj), starts)
            assert got is not starts and got.tobytes() == starts.tobytes()
            with mock.patch.object(tg_analysis, "_residual_jacobian",
                                   lambda G: _residual_only(make(G))):
                assert len(search_tg_hyperplanes(M)) == len(starts)
            retired.append(M)
        else:
            for t, got in zip(starts, _batch_lm(rj, starts)):
                assert np.array_equal(lm_one(rj, t), got)
    assert len(retired) == 13


def test_lm_builds_no_jacobian_for_a_row_at_round_off():
    # the exact starts of sl2(0.5, 2) read f / f_stop = (0.117, 6.2): the
    # first row never enters a full rj call, and both rows are lm_one's
    M = catalog.sl2(0.5, 2)
    G = levi_civita(M).coefficients
    rj = _residual_jacobian(G)
    starts, _ = _family_starts(M.onb_constants, G)
    r = rj.residual(starts)
    assert (rowdot(r, r) < rj.f_stop).tolist() == [True, False]
    rows = []

    def counted(t):
        rows.extend(np.atleast_2d(t).tolist())
        return rj(t)
    counted.residual, counted.f_stop = rj.residual, rj.f_stop
    got = _batch_lm(counted, starts)
    assert rows and starts[0].tolist() not in rows
    for t, row in zip(starts, got):
        assert np.array_equal(lm_one(rj, t), row)


def test_lm_on_a_stack_with_a_start_at_round_off_matches_one_start_at_a_time():
    # one exact start amid seeded random ones: the stack is not at round-off,
    # so the full loop runs, and every row, the exact one too, is lm_one's;
    # rj.residual reads the bits of rj's residual
    rng = np.random.default_rng(47)
    for M in (catalog.sl2(1, 2), _rotated_nonhomo(rng),
              MetricLieAlgebra(LieAlgebra(direct_sum(_sl2(2.0, 0.25), np.zeros((1, 1, 1)))))):
        G = levi_civita(M).coefficients
        rj = _residual_jacobian(G)
        T = rng.normal(size=(6, M.dim))
        T /= np.linalg.norm(T, axis=1)[:, None]
        T = np.concatenate([T[:3], _family_starts(M.onb_constants, G)[0][:1], T[3:]])
        r = rj.residual(T)
        assert r.tobytes() == rj(T)[0].tobytes()
        f = rowdot(r, r)
        assert f[3] < rj.f_stop and (np.delete(f, 3) >= rj.f_stop).all()
        for t, got in zip(T, _batch_lm(rj, T)):
            assert np.array_equal(lm_one(rj, t), got)


def _e2_plus_line():
    e2 = np.zeros((3, 3, 3))                   # rotations of the plane
    e2[2, 0, 1], e2[0, 2, 1] = 1.0, -1.0
    e2[2, 1, 0], e2[1, 2, 0] = -1.0, 1.0
    return MetricLieAlgebra(LieAlgebra(direct_sum(e2, np.zeros((1, 1, 1)))))


def _e3_index(normals):
    return [i for i, x in enumerate(normals) if np.abs(x - np.eye(4)[2]).max() < 1e-7]


def _multistart(M, config=None):
    """search_tg_hyperplanes through the seeded multistart fallback."""
    with mock.patch.object(tg_analysis, "_family_starts", lambda c, G: None):
        return search_tg_hyperplanes(M, config)


def test_sign_rule_ignores_round_off_coordinates():
    # e(2) + R: the e3 normal sits at a double zero, so multistart (forced;
    # the exact path reports the kernel sphere) lands about 2e-8 off it; the
    # sign comes from its third coordinate, not from that round-off
    M = _e2_plus_line()
    for seed in range(4):
        got = _multistart(M, SearchConfig(seed=seed))
        assert got.continuum
        assert len(_e3_index(got.normals)) == 1, seed
    assert np.array_equal(_sign_normalize(np.array([2e-8, -1e-8, -1.0, 0.5])),
                          [-2e-8, 1e-8, 1.0, -0.5])


def test_sort_key_ignores_round_off_coordinates():
    # the sort key is rounded at the sign floor's 6 digits, so the e3 normal
    # sorts where (0, 0, 1, 0) itself does, whatever the sign of the ~2e-8
    # round-off in its first coordinates (negative on 22 of these seeds),
    # under forced multistart
    M = _e2_plus_line()
    for seed in range(40):
        got = _multistart(M, SearchConfig(seed=seed))
        k = _e3_index(got.normals)
        others = [tuple(np.round(x, 6)) for i, x in enumerate(got.normals) if i not in k]
        assert k == [sum(key < (0.0, 0.0, 1.0, 0.0) for key in others)], seed


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


def test_generic_gram_census():
    # a generic left-invariant metric on sl2, aff(1) + R or sol(1,2) has no
    # TG hyperplane; every metric on the H^3 algebra is hyperbolic, so its
    # TG hyperplanes form a continuum
    aff_line = np.zeros((3, 3, 3))             # aff(1) + R: [e0, e1] = e1
    aff_line[0, 1, 1], aff_line[1, 0, 1] = 1.0, -1.0
    sol = np.zeros((3, 3, 3))                  # sol(1,2): ad_e0 = diag(1, 2)
    sol[0, 1, 1], sol[1, 0, 1] = 1.0, -1.0
    sol[0, 2, 2], sol[2, 0, 2] = 2.0, -2.0
    h3 = np.zeros((3, 3, 3))                   # H^3: ad_e2 = id on span(e0, e1)
    for k in (0, 1):
        h3[2, k, k], h3[k, 2, k] = 1.0, -1.0
    rng = np.random.default_rng(43)
    for c in (catalog.sl2(1.0, 1.0).algebra.structure_constants, aff_line, sol):
        for _ in range(2):
            got = search_tg_hyperplanes(MetricLieAlgebra(LieAlgebra(c), random_spd(rng, 3)))
            assert len(got) == 0 and not got.continuum
    for gram in (None, random_spd(rng, 3)):
        got = search_tg_hyperplanes(MetricLieAlgebra(LieAlgebra(h3), gram))
        assert got.continuum
        assert max(got.residuals) < 1e-10


# ----------------------------------------------------- exact sl2-family starts

def test_exact_census_on_the_sl2_grid(monkeypatch):
    # the sl2 family's conic starts alone find both Borel normals, and no third
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    for a in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
        for b in (0.25, 0.5, 1.0, 1.7, 3.0):
            got = search_tg_hyperplanes(catalog.sl2(a, b))
            assert len(got) == 2 and not got.continuum, (a, b)
            second = np.array([a, 2 * b, 0.0]) / np.hypot(a, 2 * b)
            assert np.abs(got.normals[0] - second).max() < 1e-12, (a, b)
            assert np.abs(got.normals[1] - np.eye(3)[0]).max() < 1e-12, (a, b)
            assert max(got.residuals) < 1e-12, (a, b)


def test_heisenberg_and_su2_census_is_a_certificate(monkeypatch):
    # heisenberg: K is empty and the one weight is 0; su(2): S is definite.
    # No start, so neither LM nor multistart runs
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(tg_analysis, "_batch_lm", refuse)
    for M in (catalog.heisenberg(), MetricLieAlgebra(LieAlgebra(SU2))):
        starts, spheres = _family_starts(M.onb_constants, levi_civita(M).coefficients)
        assert starts.shape == (0, 3) and spheres == []
        got = search_tg_hyperplanes(M)
        assert len(got) == 0 and not got.continuum and got.components == []


def _sl2(a, b):
    return catalog.sl2(a, b).algebra.structure_constants


def _borel_normals(a, b, at, n):
    """The two Borel normals of sl2(a, b), at coordinates at .. at + 2 of R^n."""
    rows = np.zeros((2, n))
    rows[:, at:at + 3] = [[a / np.hypot(a, 2 * b), 2 * b / np.hypot(a, 2 * b), 0.0],
                          [1.0, 0.0, 0.0]]
    return rows


def test_exact_census_on_levi_dim_3_and_jordan_blocks(monkeypatch):
    # sl2(a, b) + R: the R line and the two Borel normals of the sl2 conic;
    # su(2) + R: the R line alone (S definite); sl2 x| R^2: none; Bianchi IV
    # (one Jordan weight): none, and the R line with + R.  Two simple ideals:
    # sl2 + sl2, the Borel normals of each; aff(1) + sl2 (g'' < g' on a
    # non-solvable g), its b and the Borel normals.  sl2(C) and sl3: none.
    # In the catalog basis and a rotated one, with multistart refused
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    rng = np.random.default_rng(59)
    line, e4 = np.zeros((1, 1, 1)), np.eye(4)[[3]]
    cases = [(direct_sum(_sl2(a, b), line), np.concatenate([e4, _borel_normals(a, b, 0, 4)]))
             for a, b in ((1.0, 1.0), (0.5, 3.0), (2.0, 0.25))]
    cases += [(direct_sum(SU2, line), e4), (SL2_PLANE, np.zeros((0, 5))),
              (BIANCHI4, np.zeros((0, 3))), (direct_sum(BIANCHI4, line), e4),
              (direct_sum(_sl2(1.0, 1.0), _sl2(0.5, 3.0)),
               np.concatenate([_borel_normals(1.0, 1.0, 0, 6), _borel_normals(0.5, 3.0, 3, 6)])),
              (direct_sum(table(2, {(0, 1, 1): 1.0}), _sl2(2.0, 0.25)),
               np.concatenate([np.eye(5)[[1]], _borel_normals(2.0, 0.25, 2, 5)])),
              (SL2C, np.zeros((0, 6))), (SL3, np.zeros((0, 8)))]
    for c, want in cases:
        want = want[np.lexsort(want.T[::-1])]   # the search sorts lexicographically
        got = search_tg_hyperplanes(MetricLieAlgebra(LieAlgebra(c)))
        assert len(got) == len(want) and not got.continuum
        assert np.abs(np.reshape(got.normals, want.shape) - want).max(initial=0.0) < 1e-12
        Q = random_orthogonal(rng, len(c))
        got = search_tg_hyperplanes(MetricLieAlgebra(LieAlgebra(rotate_constants(c, Q))))
        assert len(got) == len(want) and not got.continuum
        assert max(got.residuals, default=0.0) < 1e-12
        for x in want @ Q:                      # the normals in the rotated basis
            assert min(min(np.abs(y - x).max(), np.abs(y + x).max())
                       for y in got.normals) < 1e-12


def test_levi_factor_plus_a_plane_prints_its_kernel_sphere(tmp_path, monkeypatch):
    # sl2 + sl2 + R^2: the 4 Borel normals stay isolated and R^2 is one
    # 2-dim kernel sphere, with no multistart sample of it
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    sl2 = catalog.sl2(1.0, 1.0).algebra.structure_constants
    c = direct_sum(direct_sum(sl2, sl2), np.zeros((2, 2, 2)))
    rep = json.loads(_search_json(["--algebra", _algebra_file(tmp_path, c)]))["result"]
    assert rep["count"] == 4 and rep["continuum"]
    assert [(x["kind"], x["basis"]) for x in rep["components"]] == [
        ("kernel_sphere", np.eye(8)[6:].tolist())]


def test_a_plane_weight_returns_before_any_conic_is_solved(monkeypatch):
    # H^3 + sl2(1, 0.7): the H^3 weight has a plane of eigenvectors, so the
    # search is multistart, and _family_starts says so before it solves the
    # sl2 conic; the answer is the forced multistart's, bit for bit
    h3 = table(3, {(0, 1, 1): 1.0, (0, 2, 2): 1.0})
    M = MetricLieAlgebra(LieAlgebra(direct_sum(h3, _sl2(1.0, 0.7))))
    want = _multistart(M)
    monkeypatch.setattr(tg_analysis, "_conic_starts", refuse)
    assert _family_starts(M.onb_constants, levi_civita(M).coefficients) is None
    got = search_tg_hyperplanes(M)
    assert len(got) == len(want) > 0 and got.continuum == want.continuum
    assert np.array(got.normals).tobytes() == np.array(want.normals).tobytes()
    assert got.residuals == want.residuals


def test_conic_starts_match_the_projector_oracle_bit_for_bit(monkeypatch):
    # on 3-dim sl2, F = g and B drops the round-off block I - F^T F; the
    # roots it gave fell below the floor, so the starts keep every bit.  On
    # the acceptance grid, six rotations, sl2(1e3, 2e3), sl2(1e-4, 40), and
    # for n > 3, where the block stays, sl2 + R and sl2 x| R^2 (whose block
    # forms do not vanish)
    calls, conic = [], tg_analysis._conic_starts
    monkeypatch.setattr(tg_analysis, "_conic_starts",
                        lambda *args: calls.append(args) or conic(*args))
    rng = np.random.default_rng(61)
    grid = [(a, b) for a in (0.5, 1.0, 2.0) for b in (0.5, 1.0, 2.0)]
    cs = [_sl2(a, b) for a, b in grid + [(1e3, 2e3), (1e-4, 40.0)]]
    cs += [rotate_constants(_sl2(*grid[k]), random_orthogonal(rng, 3)) for k in range(6)]
    cs += [direct_sum(_sl2(1.0, 2.0), np.zeros((1, 1, 1))), SL2_PLANE]
    for c in cs:
        search_tg_hyperplanes(MetricLieAlgebra(LieAlgebra(c)))
    assert [len(args[0]) for args in calls] == [3] * 17 + [4, 5]
    for args in calls:
        got = conic(*args)
        assert len(got) >= 3
        assert got.tobytes() == conic_starts_projector(*args).tobytes()


@pytest.mark.parametrize("scale", [1e3, 1e4])
def test_killing_rank_cut_is_relative_on_a_scaled_solvable_table(scale, monkeypatch):
    # rotated nonhomo times 1e3 or 1e4: g' times the Killing form is
    # round-off of order 1e-16 scale^2, which a plain 1e-10 rank cut reads
    # as a 2-dim (1e3) or 3-dim (1e4) rad^perp, the latter a false sl2
    # family; the cut is relative to |c|^2.  Only the aff(1) weight step may
    # run: one eigenspace call and no conic (a false sl2 family would solve
    # one), and the census is Y
    calls, eig, conic = [], tg_analysis._eigenspaces, tg_analysis._conic_starts
    monkeypatch.setattr(tg_analysis, "_eigenspaces",
                        lambda mats, tol: calls.append("eig") or eig(mats, tol))
    monkeypatch.setattr(tg_analysis, "_conic_starts",
                        lambda G, F, rows, scale: calls.append(len(F)) or conic(G, F, rows, scale))
    c = catalog.nonhomo().algebra.structure_constants * scale
    for seed in range(3):
        Q = random_orthogonal(np.random.default_rng(seed), 4)
        calls.clear()
        got = search_tg_hyperplanes(MetricLieAlgebra(LieAlgebra(rotate_constants(c, Q))))
        assert calls == ["eig"]
        assert len(got) == 1
        assert min(np.abs(got.normals[0] - s * Q[3]).max() for s in (1, -1)) < 1e-9


# --------------------------------------------- exact starts on solvable algebras

def _aff_gram(eigs, angle):
    r = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    g = r @ np.diag(eigs) @ r.T
    return 0.5 * (g + g.T)


def test_exact_census_on_nonhomo_and_aff(monkeypatch):
    # nonhomo: the R family is Z (not TG), the weight-2 aff(1) family
    # span{Z, Y} holds Y; aff(1): the family is g, and Y/|Y| is TG under
    # every gram (here the census bench's four)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    rng = np.random.default_rng(47)
    c = catalog.nonhomo().algebra.structure_constants
    for Q in (np.eye(4), random_orthogonal(rng, 4), random_orthogonal(rng, 4)):
        got = search_tg_hyperplanes(MetricLieAlgebra(LieAlgebra(rotate_constants(c, Q))))
        y = Q[3]                                # Y in the rotated basis
        assert len(got) == 1 and not got.continuum
        assert max(got.residuals) < 1e-12
        assert min(np.abs(got.normals[0] - y).max(), np.abs(got.normals[0] + y).max()) < 1e-12
    aff = np.zeros((2, 2, 2))
    aff[0, 1, 1], aff[1, 0, 1] = 1.0, -1.0
    for eigs, angle in (((0.5, 2.0), 0.85), ((1 / 3, 3.0), 2.29), ((1 / 3, 3.0), 2.69),
                        ((0.25, 2.0), 2.56)):
        gram = _aff_gram(eigs, angle)
        got = search_tg_hyperplanes(MetricLieAlgebra(LieAlgebra(aff), gram))
        assert len(got) == 1 and not got.continuum
        assert np.abs(got.normals[0] - np.eye(2)[1] / np.sqrt(gram[1, 1])).max() < 1e-12
        assert got.residuals[0] < 1e-12


def _algebra_file(tmp_path, c):
    n = len(c)
    data = {"dim": n, "brackets": [{"i": i, "j": j, "coeffs": c[i, j].tolist()}
                                   for i in range(n) for j in range(i + 1, n)
                                   if np.abs(c[i, j]).max() > 0]}
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_exact_census_on_wide_r_families(monkeypatch):
    # heisenberg + R: the R family U = span{x, y, e3} has the kernel K =
    # span{e3}; aff(1)^3: K = 0 and each weight's aff(1) family holds its b_i
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    rng = np.random.default_rng(53)
    aff = np.zeros((2, 2, 2))
    aff[0, 1, 1], aff[1, 0, 1] = 1.0, -1.0
    heis = direct_sum(catalog.heisenberg().algebra.structure_constants, np.zeros((1, 1, 1)))
    for c, want in ((heis, np.eye(4)[[3]]),
                    (direct_sum(direct_sum(aff, aff), aff), np.eye(6)[[5, 3, 1]])):
        got = search_tg_hyperplanes(MetricLieAlgebra(LieAlgebra(c)))
        assert len(got) == len(want) and not got.continuum
        assert np.array_equal(got.normals, want)
        assert got.residuals == [0.0] * len(want)
        Q = random_orthogonal(rng, len(c))
        got = search_tg_hyperplanes(MetricLieAlgebra(LieAlgebra(rotate_constants(c, Q))))
        assert len(got) == len(want) and not got.continuum
        assert max(got.residuals) < 1e-12
        for x in want @ Q:                      # the normals in the rotated basis
            assert min(min(np.abs(y - x).max(), np.abs(y + x).max())
                       for y in got.normals) < 1e-12


def test_continuum_and_wide_r_family_print_the_multistart_bytes(tmp_path):
    # e(2) + R: the R family's kernel is all of U = span{e2, e3}; heisenberg
    # + R^2: U is 4-dim and its kernel the 2-dim centre part.  Both print
    # one 2-dim kernel sphere and no isolated normal; forced multistart
    # prints the seeded multistart's normals, rerun for rerun
    heis = direct_sum(catalog.heisenberg().algebra.structure_constants, np.zeros((2, 2, 2)))
    for c in (_e2_plus_line().algebra.structure_constants, heis):
        M = MetricLieAlgebra(LieAlgebra(c))
        starts, spheres = _family_starts(M.onb_constants, levi_civita(M).coefficients)
        assert len(starts) == 0 and [len(K) for K in spheres] == [2]
        argv = ["--algebra", _algebra_file(tmp_path, c), "--seed", "3"]
        rep = json.loads(_search_json(argv))["result"]
        assert rep["count"] == 0 and rep["continuum"]
        assert [(x["kind"], len(x["basis"])) for x in rep["components"]] == [("kernel_sphere", 2)]
        with mock.patch.object(tg_analysis, "_family_starts", lambda c, G: None):
            text = _search_json(argv)
            assert _search_json(argv) == text
        rep = json.loads(text)["result"]
        want = _multistart(M, SearchConfig(seed=3))
        assert rep["continuum"] and rep["components"] == []
        assert rep["normals"] == [x.tolist() for x in want.normals]
        assert rep["residuals"] == want.residuals


def _h3_file(tmp_path, gram=None):
    # H^3: [e2, e_k] = e_k on span(e0, e1), so S = 0
    data = {"dim": 3, "brackets": [{"i": 0, "j": 2, "coeffs": [-1, 0, 0]},
                                   {"i": 1, "j": 2, "coeffs": [0, -1, 0]}]}
    if gram is not None:
        data["gram"] = gram
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(data))
    return str(path)


def _search_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["search", "--json"] + argv) == 0
    return out.getvalue()


def test_abelian_and_h3_return_to_multistart(tmp_path):
    # abelian:3 is one 3-dim kernel sphere with no isolated normal; the H^3
    # algebra (a weight space of dim 2) stays on multistart, 64 normals
    text = _search_json(["--builtin", "abelian:3"])
    assert _search_json(["--builtin", "abelian:3"]) == text
    rep = json.loads(text)["result"]
    assert rep["continuum"] and rep["count"] == 0 and rep["normals"] == []
    assert rep["components"] == [{"kind": "kernel_sphere", "basis": np.eye(3).tolist(),
                                  "residual": 0.0}]
    spd = [[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]]
    for argv in (["--algebra", _h3_file(tmp_path)], ["--algebra", _h3_file(tmp_path, spd)]):
        text = _search_json(argv)
        assert _search_json(argv) == text
        rep = json.loads(text)["result"]
        assert rep["continuum"] and rep["count"] == 64 and rep["components"] == [], argv
        assert max(rep["residuals"]) < 1e-14, argv
    # forced multistart on abelian:3: G = 0, so no start moves, and the
    # normals are the seeded draws themselves, sign-normalized and sorted,
    # as every earlier multistart printed them
    want = []
    for seq in np.random.SeedSequence(0).spawn(64):
        s = np.random.Generator(np.random.PCG64(seq)).standard_normal(3)
        t = s / np.linalg.norm(s)
        want.append(_sign_normalize(t / np.sqrt(t @ t)))
    want.sort(key=lambda v: tuple(np.round(v, 9)))
    with mock.patch.object(tg_analysis, "_family_starts", lambda c, G: None):
        rep = json.loads(_search_json(["--builtin", "abelian:3"]))["result"]
    assert rep["count"] == 64 and rep["continuum"]
    assert rep["normals"] == [v.tolist() for v in want]
    assert rep["residuals"] == [0.0] * 64


def test_lm_stops_at_the_round_off_floor():
    # sl2(1,1) + R from the 64 seeded starts, one start per call so that a
    # counting rj sees each start's own steps
    c = direct_sum(catalog.sl2(1.0, 1.0).algebra.structure_constants,
                   np.zeros((1, 1, 1)))
    rj = _residual_jacobian(levi_civita(MetricLieAlgebra(LieAlgebra(c))).coefficients)
    assert rj.f_stop > 1e-32
    reached = 0
    for seq in np.random.SeedSequence(0).spawn(64):
        s = np.random.Generator(np.random.PCG64(seq)).standard_normal(4)
        f = []

        def counting(t):
            out = rj(t)
            f.append(float(out[0][0] @ out[0][0]))
            return out
        counting.residual, counting.f_stop = rj.residual, rj.f_stop
        _batch_lm(counting, (s / np.linalg.norm(s))[None])
        best = f[0]
        for k, fc in enumerate(f[1:], 1):
            assert best >= rj.f_stop, f"step {k} taken after f reached {best:.3e}"
            best = min(best, fc)
        reached += best < rj.f_stop
    assert reached == 64


def test_search_reruns_print_identical_bytes():
    for argv in (["--builtin", "nonhomo", "--seed", "3"], ["--builtin", "sl2:1,2"]):
        assert _search_json(argv) == _search_json(argv)
