import numpy as np
import pytest

from helpers import (koszul_loops, curvature_loops, operator_loops,
                     jacobi_loops, random_orthogonal, rotate_constants,
                     sl2_rep_constants, random_spd)

from tgkit import catalog
from tgkit import tg_analysis as ta
from tgkit.config import DEFAULT
from tgkit.errors import (DegeneratePlane, DimensionMismatch, JacobiViolation,
                          NonFiniteInput, NotPositiveDefinite, TgkitError)
from tgkit.lie_core import (ConnectionTable, LieAlgebra, MetricLieAlgebra, _sl2_closed,
                            Subspace, complement_onb, curvature_tensor,
                            jacobi_residual, levi_civita, sectional,
                            wedge_coords)

GRID = [(a, b) for a in (0.5, 1.0, 2.0) for b in (0.5, 1.0, 2.0)]


def sl2_closed(a, b):
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 2 * a
    c[0, 2, 0] = 2 * b
    c[0, 2, 1] = -2 * a
    c[1, 2, 1] = -2 * b
    return c - np.transpose(c, (1, 0, 2))


def sl2_connection(a, b):
    G = np.zeros((3, 3, 3))
    G[0, 0, 2] = -2 * b
    G[0, 2, 0] = 2 * b
    G[0, 1, 2] = 2 * a
    G[0, 2, 1] = -2 * a
    G[1, 1, 2] = 2 * b
    G[1, 2, 1] = -2 * b
    return G


# ------------------------------------------------------------ construction

def test_sl2_brackets_match_matrix_commutators():
    for a, b in GRID:
        M = catalog.sl2(a, b)
        ref = sl2_rep_constants(a, b)
        assert np.abs(M.algebra.structure_constants - ref).max() < 1e-13
        assert np.abs(M.algebra.structure_constants - sl2_closed(a, b)).max() == 0.0


def test_bracket_bilinear_extension():
    M = catalog.sl2(1, 1)
    x = np.array([1.0, 2.0, 0.5])
    y = np.array([-0.5, 1.0, 3.0])
    want = np.zeros(3)
    c = M.algebra.structure_constants
    for i in range(3):
        for j in range(3):
            want += x[i] * y[j] * c[i, j]
    assert np.allclose(M.algebra.bracket(x, y), want, atol=1e-14)
    with pytest.raises(DimensionMismatch):
        M.algebra.bracket(np.ones(4), np.ones(3))


def test_antisymmetry_required():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0      # missing the (1,0,2) = -1 partner
    with pytest.raises(TgkitError):
        LieAlgebra(c)


def test_dimension_range():
    with pytest.raises(DimensionMismatch):
        LieAlgebra(np.zeros((1, 1, 1)))
    with pytest.raises(DimensionMismatch):
        LieAlgebra(np.zeros((9, 9, 9)))


def test_jacobi_gate_and_residual_value():
    c = catalog.sl2(1, 1).algebra.structure_constants.copy()
    c[0, 1, 0] += 0.1
    c[1, 0, 0] -= 0.1
    res = jacobi_residual(c)
    assert abs(res - 0.2) < 1e-13
    assert abs(res - jacobi_loops(c)) < 1e-13
    with pytest.raises(JacobiViolation):
        LieAlgebra(c)


def test_nan_tolerances_fail_the_admission_gates():
    # a NaN tolerance rejects rather than switching its gate off
    c = catalog.sl2(1, 1).algebra.structure_constants.copy()
    c[0, 1, 0] += 0.5
    c[1, 0, 0] -= 0.5
    assert abs(jacobi_residual(c) - 1.0) < 1e-13
    with pytest.raises(JacobiViolation):
        LieAlgebra(c, DEFAULT.replace(jacobi=float("nan")))
    tol = DEFAULT.replace(spd_min_eig=float("nan"))
    with pytest.raises(NotPositiveDefinite):
        MetricLieAlgebra(catalog.sl2(1, 1).algebra, np.diag([1.0, -1.0, 1.0]), tol)


def test_identity_gates_scale_with_the_constants():
    # rotated sl2(1e3, 2e3) carries round-off of size eps max|c|^2 in its
    # Jacobi sum (up to 9.3e-9 > jacobi = 1e-9 on these rotations) and of
    # size eps max|c| in its connection identities; all are admitted
    for s in range(20):
        c = rotate_constants(_sl2_closed(1e3, 2e3), random_orthogonal(np.random.default_rng(s), 3))
        c = 0.5 * (c - np.transpose(c, (1, 0, 2)))
        conn = MetricLieAlgebra(LieAlgebra(c)).connection
        assert max(conn.compat_residual, conn.torsion_residual) <= 1e-15 * np.abs(c).max()
    # constants near 1e200 (a valid, scaled sl2) overflow the Jacobi sum,
    # so floats cannot check them: refused as non-finite, with no warning
    with pytest.raises(NonFiniteInput, match=r"overflows float range \(max\|c\| = 2\.000e\+200\)"):
        LieAlgebra(_sl2_closed(1e200, 1e200))
    # an antisymmetry defect far above round-off still fails at any scale
    c = _sl2_closed(1e3, 2e3)
    c[0, 1, 2] += 1e-6
    with pytest.raises(TgkitError, match="not antisymmetric"):
        LieAlgebra(c)


def test_scaling_one_bracket_coefficient_keeps_jacobi():
    # the [E1,E2] -> t E3 family stays a Lie algebra for every t, so this
    # particular coefficient is the wrong knob for breaking Jacobi
    c = catalog.sl2(1, 1).algebra.structure_constants.copy()
    c[0, 1, 2] += 0.1
    c[1, 0, 2] -= 0.1
    assert jacobi_residual(c) < 1e-14


def test_gram_gates():
    L = catalog.sl2(1, 1).algebra
    with pytest.raises(DimensionMismatch):
        MetricLieAlgebra(L, np.eye(4))
    bad = np.eye(3)
    bad[0, 1] = 1e-3      # not symmetric
    with pytest.raises(TgkitError):
        MetricLieAlgebra(L, bad)
    with pytest.raises(NotPositiveDefinite):
        MetricLieAlgebra(L, np.diag([1.0, 1.0, -1.0]))


def test_onb_change_orthonormalizes_random_gram():
    rng = np.random.default_rng(7)
    L = catalog.nonhomo().algebra
    for _ in range(20):
        gram = random_spd(rng, 4)
        M = MetricLieAlgebra(L, gram)
        res = np.abs(M.onb_change.T @ gram @ M.onb_change - np.eye(4)).max()
        assert res < 1e-12
        assert M.onb_residual == res
        cp = M.onb_constants
        assert np.abs(cp + np.transpose(cp, (1, 0, 2))).max() < 1e-12
        # round trip input <-> frame coordinates
        v = rng.normal(size=4)
        assert np.allclose(M.from_onb(M.to_onb(v)), v, atol=1e-12)


# -------------------------------------------------------------- connection

def test_koszul_against_loop_oracle():
    rng = np.random.default_rng(3)
    mk = [catalog.sl2(1, 1), catalog.sl2(0.5, 2), catalog.nonhomo(),
          catalog.heisenberg(), catalog.abelian(3)]
    for M in mk:
        table = levi_civita(M)
        assert isinstance(table, ConnectionTable)
        assert np.abs(table.coefficients - koszul_loops(M.onb_constants)).max() < 1e-14
        assert table.torsion_residual < 1e-12
        assert table.compat_residual < 1e-13
    # same under a random SPD gram
    M = MetricLieAlgebra(catalog.nonhomo().algebra, random_spd(rng, 4))
    table = levi_civita(M)
    assert np.abs(table.coefficients - koszul_loops(M.onb_constants)).max() < 1e-13


def test_sl2_connection_hand_table():
    for a, b in GRID:
        G = levi_civita(catalog.sl2(a, b)).coefficients
        assert np.abs(G - sl2_connection(a, b)).max() == 0.0


def test_nonhomo_connection_hand_table():
    G = levi_civita(catalog.nonhomo()).coefficients
    want = np.zeros((4, 4, 4))
    want[0, 1, 2] = 1.0    # nabla_Z rotates the (X1, X2) plane
    want[0, 2, 1] = -1.0
    want[1, 1, 0] = 1.0    # nabla_X1 X1 = Z
    want[1, 0, 1] = -1.0
    want[2, 2, 0] = 1.0
    want[2, 0, 2] = -1.0
    want[3, 3, 0] = 2.0    # nabla_Y Y = 2Z
    want[3, 0, 3] = -2.0
    assert np.abs(G - want).max() == 0.0


def test_abelian_connection_vanishes():
    G = levi_civita(catalog.abelian(5)).coefficients
    assert np.abs(G).max() == 0.0


# --------------------------------------------------------------- curvature

def test_curvature_against_loop_oracle():
    for M in (catalog.sl2(2, 0.5), catalog.nonhomo(), catalog.heisenberg()):
        cd = curvature_tensor(M)
        R = curvature_loops(M.onb_constants, koszul_loops(M.onb_constants))
        assert np.abs(cd.components - R).max() < 1e-13
        assert np.abs(cd.operator_matrix - operator_loops(R)).max() < 1e-13


def test_sl2_sectional_curvatures():
    for a, b in GRID:
        M = catalog.sl2(a, b)
        e = np.eye(3)
        assert abs(sectional(M, e[0], e[1]) - 4 * b * b) < 1e-12
        assert abs(sectional(M, e[0], e[2]) + 4 * b * b) < 1e-12
        assert abs(sectional(M, e[1], e[2]) + 4 * b * b) < 1e-12


def test_sl2_operator_eigenvalues():
    for a, b in GRID:
        cd = catalog.sl2(a, b).curvature
        vals, vecs = cd.eigenvalues, cd.eigenvectors
        want = np.sort([4 * b * b, -4 * b * b, -4 * b * b])
        assert np.abs(vals - want).max() < 1e-12
        assert np.abs(vecs.T @ vecs - np.eye(3)).max() < 1e-12


def test_heisenberg_sectionals():
    M = catalog.heisenberg()
    e = np.eye(3)
    assert abs(sectional(M, e[0], e[1]) + 0.75) < 1e-14
    assert abs(sectional(M, e[0], e[2]) - 0.25) < 1e-14
    assert abs(sectional(M, e[1], e[2]) - 0.25) < 1e-14


def test_two_dim_solvable_operator():
    # [Z,Y] = 2Y gives a hyperbolic plane of curvature -4; the operator on
    # the single wedge Z^Y must be the 1x1 matrix [-4]
    c = np.zeros((2, 2, 2))
    c[0, 1, 1] = 2.0
    c[1, 0, 1] = -2.0
    M = MetricLieAlgebra(LieAlgebra(c))
    cd = curvature_tensor(M)
    assert cd.pairs == ((0, 1),)
    assert abs(cd.operator_matrix[0, 0] + 4.0) < 1e-14
    assert abs(cd.eigenvalues[0] + 4.0) < 1e-14


def test_nonhomo_mixed_plane():
    M = catalog.nonhomo()
    e = np.eye(4)
    assert abs(sectional(M, e[1], e[2]) + 1.0) < 1e-14


def test_sectional_plane_invariance():
    # K depends on the plane, not the spanning pair
    M = catalog.sl2(1, 2)
    rng = np.random.default_rng(11)
    x, y = np.eye(3)[0], np.eye(3)[1]
    for _ in range(10):
        A = rng.normal(size=(2, 2))
        while abs(np.linalg.det(A)) < 0.1:
            A = rng.normal(size=(2, 2))
        x2 = A[0, 0] * x + A[0, 1] * y
        y2 = A[1, 0] * x + A[1, 1] * y
        assert abs(sectional(M, x2, y2) - sectional(M, x, y)) < 1e-10


def test_sectional_degenerate_plane():
    M = catalog.sl2(1, 1)
    v = np.array([1.0, 2.0, 0.0])
    with pytest.raises(DegeneratePlane):
        sectional(M, v, 2 * v)


def test_operator_index_order_not_plain_r():
    # the operator entry must be R[i,j,l,k]; using R[i,j,k,l] flips signs
    M = catalog.sl2(1, 1)
    cd = curvature_tensor(M)
    R = cd.components
    pairs = cd.pairs
    for p, (i, j) in enumerate(pairs):
        assert abs(cd.operator_matrix[p, p] - R[i, j, j, i]) < 1e-14


def test_curvature_eigendecomposition_reconstructs():
    rng = np.random.default_rng(5)
    for M in (catalog.sl2(1, 1), catalog.nonhomo(),
              MetricLieAlgebra(catalog.heisenberg().algebra, random_spd(rng, 3))):
        cd = curvature_tensor(M)
        rec = cd.eigenvectors @ np.diag(cd.eigenvalues) @ cd.eigenvectors.T
        assert np.abs(rec - cd.operator_matrix).max() < 1e-10


def test_tensor_identities_random_grams():
    rng = np.random.default_rng(42)
    algebras = [catalog.sl2(1, 1).algebra, catalog.nonhomo().algebra,
                catalog.heisenberg().algebra, catalog.abelian(3).algebra]
    for L in algebras:
        for _ in range(25):
            M = MetricLieAlgebra(L, random_spd(rng, L.dim))
            table = levi_civita(M)
            assert table.torsion_residual < 1e-12
            assert table.compat_residual < 1e-13
            R = curvature_tensor(M).components
            assert np.abs(R + np.transpose(R, (1, 0, 2, 3))).max() < 1e-10
            assert np.abs(R + np.transpose(R, (0, 1, 3, 2))).max() < 1e-10
            assert np.abs(R - np.transpose(R, (2, 3, 0, 1))).max() < 1e-10
            bianchi = (R + np.transpose(R, (0, 2, 3, 1))
                       + np.transpose(R, (0, 3, 1, 2)))
            assert np.abs(bianchi).max() < 1e-10


# ------------------------------------------------------------------ helpers

def test_wedge_coords_lexicographic():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 2.0, 0.0])
    assert np.allclose(wedge_coords(x, y), [2.0, 0.0, 0.0])
    z = np.array([0.5, -1.0, 3.0])
    w = np.array([2.0, 0.0, 1.0])
    want = [z[0] * w[1] - z[1] * w[0],
            z[0] * w[2] - z[2] * w[0],
            z[1] * w[2] - z[2] * w[1]]
    assert np.allclose(wedge_coords(z, w), want)


def test_complement_onb_properties():
    rng = np.random.default_rng(9)
    for n in (3, 4, 6):
        for _ in range(5):
            t = rng.normal(size=n)
            t /= np.linalg.norm(t)
            Q = complement_onb(t)
            assert Q.shape == (n, n - 1)
            assert np.abs(Q.T @ Q - np.eye(n - 1)).max() < 1e-12
            assert np.abs(Q.T @ t).max() < 1e-12


def test_subspace_gates():
    with pytest.raises(DimensionMismatch):
        Subspace(3, np.ones((4, 2)))
    with pytest.raises(DimensionMismatch):
        Subspace(3, np.column_stack([np.ones(3), np.ones(3)]))
    s = Subspace(3, np.zeros((3, 0)))
    assert s.dim == 0


def test_orthonormality_gates_reject_nan():
    # admission rejects a NaN gram, so a NaN tolerance is what reaches the
    # orthonormal-frame gate
    with pytest.raises(TgkitError, match="orthonormalization failed"):
        MetricLieAlgebra(LieAlgebra(_sl2_closed(1.0, 1.0)), None,
                         DEFAULT.replace(onb=float("nan")))


# --------------------------------------------------------- cached geometry

def test_connection_and_curvature_are_built_once_per_algebra():
    M = catalog.sl2(1.0, 2.0)
    assert levi_civita(M) is M.connection
    assert levi_civita(M) is levi_civita(M)
    assert curvature_tensor(M) is M.curvature
    assert curvature_tensor(M) is curvature_tensor(M)
    assert M.curvature.components.flags.writeable is False


def test_cached_geometry_gates_with_the_algebra_tolerances():
    # a gate that fails is not cached: every read raises again
    L = LieAlgebra(catalog.sl2(1.0, 2.0).algebra.structure_constants)
    M = MetricLieAlgebra(L, None, DEFAULT.replace(r_symmetry=-1.0))
    for _ in range(2):
        with pytest.raises(TgkitError, match="curvature symmetry"):
            curvature_tensor(M)
    assert levi_civita(M) is M.connection


def test_curvature_gates_scale_with_the_curvature():
    # sl2(100, 30) in a rotated basis: max |R| is 3600, and the curvature
    # operator's round-off asymmetry (1.1e-11) passes the 1e-12 gate only
    # relative to that size
    Q = random_orthogonal(np.random.default_rng(0), 3)
    c = rotate_constants(catalog.sl2(100.0, 30.0).algebra.structure_constants, Q)
    L = LieAlgebra(0.5 * (c - c.transpose(1, 0, 2)))
    report = ta.classify_case(MetricLieAlgebra(L), Q[0])
    assert report.case_tag is ta.CaseTag.HELIX_ORDER_TWO
    assert abs(report.witness.recovered_a - 100.0) <= 1e-9 * 100.0
    assert abs(report.witness.recovered_b - 30.0) <= 1e-9 * 30.0
    # the scaled gate still rejects that asymmetry under a tighter bound
    tight = MetricLieAlgebra(L, None, DEFAULT.replace(operator_symmetric=1e-16))
    with pytest.raises(TgkitError, match="curvature operator not symmetric"):
        curvature_tensor(tight)
