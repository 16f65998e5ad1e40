import numpy as np
import pytest

from helpers import (direct_sum, normal_curvature_identity, random_orthogonal,
                     random_spd, rotate_constants, second_normal_identity,
                     witness_target_einsum)

from tgkit import catalog
from tgkit.config import DEFAULT
from tgkit.errors import (DimensionMismatch, IdealResidualExceeded,
                          NonUnitVector, NotHelixOrderTwo, NotRecognized,
                          NotTotallyGeodesic, TgkitError)
from tgkit.lie_core import LieAlgebra, MetricLieAlgebra, Subspace
from tgkit.tg_analysis import (CaseTag, classify_case,
                               codazzi_residual, frenet_orbit, helix_witness,
                               hyperplane_tg_residual, search_tg_hyperplanes,
                               tg_subspace_check)

GRID = [(a, b) for a in (0.5, 1.0, 2.0) for b in (0.5, 1.0, 2.0)]

E3 = np.eye(3)
E4 = np.eye(4)


def sl2_plus_r2(a, b):
    c = direct_sum(catalog.sl2(a, b).algebra.structure_constants,
                   np.zeros((2, 2, 2)))
    return MetricLieAlgebra(LieAlgebra(c))


# ---------------------------------------------------------- subspace check

def test_sl2_upper_triangular_subalgebra_is_tg():
    for a, b in GRID:
        M = catalog.sl2(a, b)
        chk = tg_subspace_check(M, Subspace(3, E3[:, 1:]))
        assert chk.ok
        assert chk.residual == 0.0
        assert chk.witness is None


def test_nonhomo_bracket_witness():
    M = catalog.nonhomo()
    span = np.column_stack([E4[:, 0], E4[:, 3], E4[:, 2]])   # Z, Y, X2
    chk = tg_subspace_check(M, Subspace(4, span))
    assert not chk.ok
    assert abs(chk.residual - 1.0) < 1e-14
    assert chk.witness.kind == 'bracket'
    assert (chk.witness.i, chk.witness.j) == (0, 2)
    assert np.allclose(chk.witness.component, [0.0, -1.0, 0.0, 0.0], atol=1e-14)


def test_connection_witness_on_geodesically_open_line():
    # span(E1) is closed under the bracket but nabla_E1 E1 = -2b E3 leaves it
    M = catalog.sl2(1.0, 1.5)
    chk = tg_subspace_check(M, Subspace(3, E3[:, :1]))
    assert not chk.ok
    assert abs(chk.residual - 3.0) < 1e-14
    assert chk.witness.kind == 'connection'
    assert (chk.witness.i, chk.witness.j) == (0, 0)
    assert np.allclose(chk.witness.component, [0.0, 0.0, -3.0], atol=1e-14)


def test_trivial_and_full_subspaces():
    M = catalog.nonhomo()
    assert tg_subspace_check(M, Subspace(4, np.zeros((4, 0)))).ok
    assert tg_subspace_check(M, Subspace(4, np.eye(4))).ok
    with pytest.raises(DimensionMismatch):
        tg_subspace_check(M, Subspace(3, np.eye(3)))


def test_subspace_check_under_random_gram():
    # the Y-orthogonal hyperplane of the solvable example stays totally
    # geodesic when the metric is scaled separately on Y
    L = catalog.nonhomo().algebra
    M = MetricLieAlgebra(L, np.diag([1.0, 1.0, 1.0, 4.0]))
    chk = tg_subspace_check(M, Subspace(4, E4[:, :3]))
    assert chk.ok


# ------------------------------------------------------ hyperplane residual

def test_hyperplane_residuals_exact_values():
    M = catalog.nonhomo()
    assert hyperplane_tg_residual(M, E4[:, 3]) == 0.0
    assert abs(hyperplane_tg_residual(M, E4[:, 1]) - 1.0) < 1e-14
    for a, b in GRID:
        assert hyperplane_tg_residual(catalog.sl2(a, b), E3[:, 0]) == 0.0


def test_second_certified_normal_of_sl2():
    # the lower-triangular subalgebra is totally geodesic too: its normal
    # (a E1 + 2b E2)/sqrt(a^2 + 4b^2) certifies at round-off level
    for a, b in ((1.0, 1.0), (1.0, 2.0), (0.5, 2.0), (2.0, 0.5)):
        M = catalog.sl2(a, b)
        T = np.array([a, 2 * b, 0.0]) / np.hypot(a, 2 * b)
        assert hyperplane_tg_residual(M, T) < 1e-14


def test_unit_norm_gate():
    M = catalog.sl2(1, 1)
    with pytest.raises(NonUnitVector):
        hyperplane_tg_residual(M, 2.0 * E3[:, 0])


# ------------------------------------------------------------------ frenet

def test_frenet_sl2_grid_exact():
    for a, b in GRID:
        fd = frenet_orbit(catalog.sl2(a, b), E3[:, 0])
        assert fd.order == 2
        assert fd.curvatures == (2 * b, 2 * a)
        assert np.allclose(fd.frame[0], [1, 0, 0], atol=1e-15)
        assert np.allclose(fd.frame[1], [0, 0, -1], atol=1e-15)
        assert np.allclose(fd.frame[2], [0, 1, 0], atol=1e-15)
        assert np.isnan(fd.truncation_residual)
        assert not fd.borderline


def test_frenet_circle_and_line():
    fd = frenet_orbit(catalog.nonhomo(), E4[:, 3])
    assert fd.order == 1
    assert fd.curvatures == (2.0,)
    assert np.allclose(fd.frame[1], [1, 0, 0, 0], atol=1e-15)
    assert fd.truncation_residual == 0.0

    fd = frenet_orbit(catalog.nonhomo(), E4[:, 1])
    assert fd.order == 1
    assert fd.curvatures == (1.0,)

    fd = frenet_orbit(catalog.abelian(3), E3[:, 0])
    assert fd.order == 0
    assert fd.curvatures == ()
    assert fd.truncation_residual == 0.0


def test_frenet_mixed_direction_hand_values():
    # T = (Y + X1)/sqrt(2): nabla_T T = 1.5 Z, then the flag closes after N2
    M = catalog.nonhomo()
    T = (E4[:, 3] + E4[:, 1]) / np.sqrt(2.0)
    fd = frenet_orbit(M, T)
    assert fd.order == 2
    assert abs(fd.curvatures[0] - 1.5) < 1e-14
    assert abs(fd.curvatures[1] - 0.5) < 1e-14
    assert np.allclose(fd.frame[1], [1, 0, 0, 0], atol=1e-14)


# ------------------------------------------------------------ helix witness

def test_helix_witness_exact_recovery():
    for a, b in GRID:
        w = helix_witness(catalog.sl2(a, b), E3[:, 0])
        assert w.recovered_a == a
        assert w.recovered_b == b
        assert w.residuals['ideal_residual'] == 0.0
        assert w.residuals['bracket_table_residual'] == 0.0
        assert w.Lambda.dim == 3
        assert w.s.dim == 2
        assert w.ideal_I.dim == 0


@pytest.mark.parametrize("field, error", [("ideal", IdealResidualExceeded),
                                          ("bracket_table", NotRecognized)])
def test_helix_and_frenet_gates_reject_nan(field, error):
    # admission rejects NaN structure constants, and the residuals of an
    # admitted algebra are finite, so a NaN tolerance is what reaches these
    # gates; the Frenet frame's orthonormality gate has a fixed bound, which
    # round-off alone can cross (test_frenet_orthonormality_gate_is_reachable)
    tol = DEFAULT.replace(**{field: float("nan")})
    M = MetricLieAlgebra(LieAlgebra(catalog.sl2().algebra.structure_constants, tol), None, tol)
    with pytest.raises(error):
        helix_witness(M, E3[:, 0])


def test_frenet_orthonormality_gate_is_reachable():
    # curvatures (80, 2e-4) in a rotated basis: round-off leaves the frame
    # 2.3e-10 from orthonormal, past the fixed 1e-10 bound
    Q = random_orthogonal(np.random.default_rng(1), 3)
    c = rotate_constants(catalog.sl2(1e-4, 40).algebra.structure_constants, Q)
    M = MetricLieAlgebra(LieAlgebra(0.5 * (c - np.transpose(c, (1, 0, 2)))))
    with pytest.raises(TgkitError, match="Frenet frame lost orthonormality"):
        frenet_orbit(M, Q[0])


@pytest.mark.parametrize("a, b, seed", [(1e7, 3e7, 8), (1e7, 3e7, 23), (1e8, 1e8, 4)])
def test_frenet_orbit_admits_large_sl2_under_an_spd_gram(a, b, seed):
    # w_s - k_s (w_s / k_s) measures only round-off, which at this scale
    # passed 1e-9 (1.9e-9 to 4.2e-9 for these draws) on input that every
    # construction gate admits; the orthonormality gate is what remains
    rng = np.random.default_rng(seed)
    M = MetricLieAlgebra(catalog.sl2(a, b).algebra, random_spd(rng, 3))
    T = rng.standard_normal(3)
    fd = frenet_orbit(M, T / M.norm(T))
    assert fd.order == 2 and all(np.isfinite(fd.curvatures))


def test_helix_witness_with_flat_factor():
    M = sl2_plus_r2(1.0, 2.0)
    T = np.zeros(5)
    T[0] = 1.0
    w = helix_witness(M, T)
    assert w.recovered_a == 1.0
    assert w.recovered_b == 2.0
    assert w.ideal_I.dim == 2
    assert w.residuals['ideal_residual'] < 1e-10
    # the ideal is the flat block
    assert np.abs(w.ideal_I.basis[:3, :]).max() < 1e-12


def test_helix_recognition_runs_no_search(monkeypatch):
    # helix_witness recognizes the quotient at its own Frenet frame
    from tgkit import tg_analysis

    def refuse(*args, **kwargs):
        raise AssertionError("search called")

    monkeypatch.setattr(tg_analysis, "search_tg_hyperplanes", refuse)
    for a, b in GRID:
        report = classify_case(catalog.sl2(a, b), E3[:, 0])
        assert report.case_tag is CaseTag.HELIX_ORDER_TWO
    T = np.zeros(5)
    T[0] = 1.0
    w = helix_witness(sl2_plus_r2(1.0, 2.0), T)
    assert (w.recovered_a, w.recovered_b) == (1.0, 2.0)


def test_witness_target_matches_the_einsum_oracle_bit_for_bit():
    # the target is sl2(k2/2, k1/2) under a signed permutation, and the
    # einsum it replaced only multiplied by 0 and +-1: table_res keeps its
    # bits at every Borel normal of the grid, six rotations, sl2(1e3, 2e3)
    # and sl2(1e-4, 40)
    rng = np.random.default_rng(67)
    cs = [catalog.sl2(a, b).algebra.structure_constants
          for a, b in GRID + [(1e3, 2e3), (1e-4, 40.0)]]
    cs += [rotate_constants(catalog.sl2(*GRID[k]).algebra.structure_constants,
                            random_orthogonal(rng, 3)) for k in range(6)]
    algebras = [MetricLieAlgebra(LieAlgebra(c)) for c in cs]
    seen = 0
    for M in algebras:
        for T in search_tg_hyperplanes(M).normals:
            w = helix_witness(M, T)
            want = witness_target_einsum(w.recovered_a, w.recovered_b)
            assert w.residuals['bracket_table_residual'] == float(
                np.abs(w.quotient_constants - want).max())
            seen += 1
    assert seen == 2 * len(algebras)


def test_helix_table_gate_is_relative_to_the_table():
    # curvatures (80, 2e-4): at the lower Borel normal of sl2(1e-4, 40) the
    # table residual is round-off of entries up to 80, past the absolute
    # bracket_table, and within bracket_table max(1, max|table|)
    M = catalog.sl2(1e-4, 40)
    normals = search_tg_hyperplanes(M).normals
    assert len(normals) == 2
    table_res = []
    for T in normals:
        report = classify_case(M, T)
        assert report.case_tag is CaseTag.HELIX_ORDER_TWO
        w = report.witness
        assert max(abs(w.recovered_a - 1e-4), abs(w.recovered_b - 40)) <= DEFAULT.sl2_match
        table_res.append(w.residuals['bracket_table_residual'])
    assert max(table_res) > DEFAULT.bracket_table


def test_helix_witness_rejects_wrong_order():
    with pytest.raises(NotHelixOrderTwo):
        helix_witness(catalog.nonhomo(), E4[:, 3])
    with pytest.raises(NotHelixOrderTwo):
        helix_witness(catalog.abelian(3), E3[:, 0])


def test_helix_witness_rejects_non_ideal_complement():
    # order-two orbit whose span leaves out X2 only; [Z,X2] re-enters the
    # span, so the complement is not an ideal
    M = catalog.nonhomo()
    T = (E4[:, 3] + E4[:, 1]) / np.sqrt(2.0)
    with pytest.raises(IdealResidualExceeded):
        helix_witness(M, T)


# ----------------------------------------------------------- classification

def test_classify_geodesic_normal_on_flat_factors():
    for n in (3, 4, 5):
        M = catalog.abelian(n)
        rep = classify_case(M, np.eye(n)[:, 0])
        assert rep.case_tag is CaseTag.GEODESIC_NORMAL
        assert rep.eigenvalue_lambda == 0.0
        assert rep.frenet.order == 0
        assert rep.witness is None


def test_classify_circle_normal():
    rep = classify_case(catalog.nonhomo(), E4[:, 3])
    assert rep.case_tag is CaseTag.CIRCLE_NORMAL
    assert rep.frenet.curvatures == (2.0,)
    assert np.allclose(rep.character_hint, [2.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert rep.residuals['character_annihilation'] == 0.0
    assert rep.residuals['codazzi_residual'] < 1e-14


def test_classify_helix_order_two():
    rep = classify_case(catalog.sl2(1, 2), E3[:, 0])
    assert rep.case_tag is CaseTag.HELIX_ORDER_TWO
    assert rep.witness is not None
    assert rep.witness.recovered_a == 1.0
    assert rep.witness.recovered_b == 2.0

    M = sl2_plus_r2(1.0, 2.0)
    T = np.zeros(5)
    T[0] = 1.0
    rep = classify_case(M, T)
    assert rep.case_tag is CaseTag.HELIX_ORDER_TWO
    assert rep.witness.residuals['ideal_residual'] < 1e-10


def test_classify_requires_certification():
    # the gates in order: unit norm, then the TG residual, then Codazzi
    M = catalog.nonhomo()
    with pytest.raises(NotTotallyGeodesic) as e:
        classify_case(M, E4[:, 1])
    assert e.value.label == "tg_residual"
    assert np.float64(e.value.residual).tobytes() == \
        np.float64(hyperplane_tg_residual(M, E4[:, 1])).tobytes()
    # a non-unit normal, TG direction or not, never reaches a residual gate
    for T in (2 * E4[:, 1], 0.5 * E4[:, 1], 2 * E4[:, 3], E4[:, 1] + E4[:, 3]):
        with pytest.raises(NonUnitVector):
            classify_case(M, T)


def test_classify_rejects_non_finite_normal():
    with pytest.raises(TgkitError):
        classify_case(catalog.sl2(1, 1), np.array([1.0, np.nan, 0.0]))


def test_classify_gates_the_codazzi_residual():
    # tg residual 4e-10 passes tg_residual = 1e-9; Codazzi 1.2e-9 fails codazzi = 1e-9
    T = np.array([0.0, 4e-10, 0.0, 1.0])
    with pytest.raises(NotTotallyGeodesic) as e:
        classify_case(catalog.nonhomo(), T / np.linalg.norm(T))
    assert e.value.label == "codazzi_residual"
    assert e.value.residual > 1e-9


def test_codazzi_gate_admits_rotated_sl2_at_scale():
    # rotated sl2(1e3, 2e3): Codazzi residuals 8.8e-10 to 2.8e-8, the larger
    # of each rotation's two above codazzi = 1e-9, read at most 0.66 of the
    # round-off floor 4 n eps max|R| (3.1e-8 to 4.3e-8); on nonhomo that
    # floor is 1.4e-14, below the 1.2e-9 above
    for s in range(20):
        c = rotate_constants(catalog.sl2(1e3, 2e3).algebra.structure_constants,
                             random_orthogonal(np.random.default_rng(s), 3))
        M = MetricLieAlgebra(LieAlgebra(0.5 * (c - np.transpose(c, (1, 0, 2)))))
        found = search_tg_hyperplanes(M)
        assert len(found) == 2
        reps = [classify_case(M, T) for T in found]
        assert max(rep.residuals["codazzi_residual"] for rep in reps) > DEFAULT.codazzi
        for rep in reps:
            assert rep.case_tag is CaseTag.HELIX_ORDER_TWO
            w = rep.witness
            assert abs(w.recovered_a - 1e3) < 1e-11 * 1e3
            assert abs(w.recovered_b - 2e3) < 1e-11 * 2e3


def test_search_and_classify_reuse_the_cached_connection():
    M = catalog.sl2(1.0, 2.0)
    G = M.connection.coefficients
    for T in search_tg_hyperplanes(M).normals:
        classify_case(M, T)
    assert M.connection.coefficients is G


# --------------------------------------------------------- curvature ids

def test_codazzi_on_certified_normals():
    assert codazzi_residual(catalog.sl2(1, 1), E3[:, 0]) < 1e-13
    assert codazzi_residual(catalog.nonhomo(), E4[:, 3]) < 1e-13
    assert codazzi_residual(catalog.abelian(4), np.eye(4)[:, 2]) == 0.0


def test_normal_curvature_identity_values():
    for a, b in GRID:
        assert normal_curvature_identity(catalog.sl2(a, b), E3[:, 0]) < 1e-13
    assert normal_curvature_identity(catalog.nonhomo(), E4[:, 3]) < 1e-13
    assert normal_curvature_identity(catalog.abelian(3), E3[:, 1]) == 0.0


def test_second_normal_identity_values():
    for a, b in GRID:
        assert second_normal_identity(catalog.sl2(a, b), E3[:, 0]) < 1e-13
    with pytest.raises(NotHelixOrderTwo):
        second_normal_identity(catalog.nonhomo(), E4[:, 3])


