"""Metric Lie algebras: connection, curvature, curvature operator.

All tensors live in a cached orthonormal frame computed once per metric
algebra.  Index conventions:

    c[i][j][k]   bracket coefficients, [e_i, e_j] = sum_k c[i][j][k] e_k
    G[i][j][k]   connection, nabla_{E_i} E_j = sum_k G[i][j][k] E_k
    R[i][j][k][l] = <R(E_i,E_j)E_k, E_l> with
    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z

The curvature operator acts on 2-vectors indexed by lexicographic pairs
(i, j), i < j; its matrix entry is M[p][q] = R[i_p][j_p][j_q][i_q], which
makes diagonal entries the sectional curvatures of coordinate planes.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (DegeneratePlane, DimensionMismatch, JacobiViolation,
                     NonFiniteInput, NotPositiveDefinite, TgkitError)

SUBSPACE_RANK = 1e-10      # smallest singular value of a Subspace basis
DIM_RANGE = (2, 8)         # supported algebra dimensions, inclusive


def _as_tensor(c):
    c = np.asarray(c, dtype=float)
    if c.ndim != 3 or len(set(c.shape)) != 1:
        raise DimensionMismatch(f"structure constants must be n*n*n, got shape {c.shape}")
    return c


def _jacobi_tensor(c):
    J = np.einsum('ijm,mkl->ijkl', c, c)
    return J + np.transpose(J, (1, 2, 0, 3)) + np.transpose(J, (2, 0, 1, 3))


class LieAlgebra:
    """A real Lie algebra given by structure constants."""

    def __init__(self, structure_constants, tol: Tolerances = DEFAULT):
        c = _as_tensor(structure_constants)
        n = c.shape[0]
        if not DIM_RANGE[0] <= n <= DIM_RANGE[1]:
            raise DimensionMismatch(f"dimension {n} outside supported range {list(DIM_RANGE)}")
        if not np.isfinite(c).all():
            raise NonFiniteInput("structure constants contain NaN or inf")
        # gates on residual / s, s = max(1, max|c|), failed by NaN or overflow;
        # Jacobi's too is / s, not s^2: an error d in c moves it by about s d
        scale = max(1.0, float(np.abs(c).max()))
        anti = float(np.abs(c + np.transpose(c, (1, 0, 2))).max())
        if not anti / scale <= 1e-12:
            raise TgkitError(f"structure constants not antisymmetric (residual {anti:.3e})")
        with np.errstate(over='ignore', invalid='ignore'):
            res = float(np.abs(_jacobi_tensor(c)).max())
        if not np.isfinite(res):
            raise NonFiniteInput(f"Jacobi sum overflows float range (max|c| = {scale:.3e})")
        if not res / scale <= tol.jacobi:
            raise JacobiViolation(res)
        self.dim = n
        self.structure_constants = c
        self.structure_constants.setflags(write=False)

    def bracket(self, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise DimensionMismatch("vector length does not match algebra dimension")
        return np.einsum('i,j,ijk->k', x, y, self.structure_constants)


def jacobi_residual(L) -> float:
    """Max-norm of the cyclic Jacobi sum; 0 for a valid Lie algebra."""
    c = L.structure_constants if isinstance(L, LieAlgebra) else _as_tensor(L)
    return float(np.abs(_jacobi_tensor(c)).max())


def _antisym(entries, n):
    c = np.zeros((n, n, n))
    for (i, j, k), v in entries.items():
        c[i, j, k] += v
        c[j, i, k] -= v
    return c


def _sl2_closed(a, b):
    # Milnor's sl2 table: [E1,E2] = 2a E3, [E1,E3] = 2b E1 - 2a E2, [E2,E3] = -2b E2
    return _antisym({(0, 1, 2): 2 * a,
                     (0, 2, 0): 2 * b, (0, 2, 1): -2 * a,
                     (1, 2, 1): -2 * b}, 3)


class MetricLieAlgebra:
    """Lie algebra plus inner product, with a cached orthonormal frame.

    onb_change has the orthonormal basis vectors as columns (in input
    coordinates); onb_change^T gram onb_change = I, and onb_residual is the
    max-norm of onb_change^T gram onb_change - I.  Every gate reads `tol`;
    `connection` and `curvature` are computed and gated once, on first use.
    """

    def __init__(self, algebra: LieAlgebra, gram=None, tol: Tolerances = DEFAULT):
        n = algebra.dim
        if gram is None:
            gram = np.eye(n)
        gram = np.asarray(gram, dtype=float)
        if gram.shape != (n, n):
            raise DimensionMismatch(f"gram must be {n}x{n}, got {gram.shape}")
        if not np.isfinite(gram).all():
            raise NonFiniteInput("gram matrix contains NaN or inf")
        if np.abs(gram - gram.T).max() > 1e-12:
            raise TgkitError("gram matrix not symmetric")
        eigs = np.linalg.eigvalsh(gram)
        if not eigs[0] > tol.spd_min_eig:
            raise NotPositiveDefinite(eigs[0])
        self.algebra = algebra
        self.gram = gram
        self.gram.setflags(write=False)
        self.tol = tol
        self.onb_change, self.onb_residual = self._build_onb(gram, tol)
        self._onb_inv = np.linalg.inv(self.onb_change)
        self.onb_constants = self._transport_constants()

    @staticmethod
    def _build_onb(gram, tol):
        # Cholesky gives Q = L^{-T}; one modified Gram-Schmidt pass in the
        # gram inner product polishes conditioning.
        L = np.linalg.cholesky(gram)
        Q = gram_schmidt(np.linalg.inv(L.T), gram)
        res = float(np.abs(Q.T @ gram @ Q - np.eye(Q.shape[0])).max())
        if not res <= tol.onb:
            raise TgkitError(f"orthonormalization failed (residual {res:.3e})")
        return Q, res

    def _transport_constants(self):
        c = self.algebra.structure_constants
        cp = np.einsum('ip,jq,ijk,mk->pqm', self.onb_change, self.onb_change, c, self._onb_inv)
        cp = 0.5 * (cp - np.transpose(cp, (1, 0, 2)))
        cp.setflags(write=False)
        return cp

    @functools.cached_property
    def connection(self) -> ConnectionTable:
        """Koszul formula in the orthonormal frame.

        G[i][j][k] = (c[ijk] - c[jki] + c[kij]) / 2 on the orthonormal
        structure constants.
        """
        c = self.onb_constants
        G = 0.5 * (c - np.transpose(c, (2, 0, 1)) + np.transpose(c, (1, 2, 0)))
        compat = float(np.abs(G + np.transpose(G, (0, 2, 1))).max())
        torsion = float(np.abs(G - np.transpose(G, (1, 0, 2)) - c).max())
        scale = max(1.0, float(np.abs(c).max()))
        if not compat / scale <= self.tol.metric_compat:
            raise TgkitError(f"metric compatibility violated ({compat:.3e})")
        if not torsion / scale <= self.tol.torsion:
            raise TgkitError(f"torsion-free identity violated ({torsion:.3e})")
        G.setflags(write=False)
        return ConnectionTable(G, torsion, compat)

    @functools.cached_property
    def curvature(self) -> CurvatureData:
        """Curvature tensor and curvature operator in the orthonormal frame."""
        tol = self.tol
        c = self.onb_constants
        G = self.connection.coefficients
        R = (np.einsum('jkm,iml->ijkl', G, G)
             - np.einsum('ikm,jml->ijkl', G, G)
             - np.einsum('ijm,mkl->ijkl', c, G))
        sym1 = np.abs(R + np.transpose(R, (1, 0, 2, 3))).max()
        sym2 = np.abs(R + np.transpose(R, (0, 1, 3, 2))).max()
        sym3 = np.abs(R - np.transpose(R, (2, 3, 0, 1))).max()
        bianchi = np.abs(R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))).max()
        worst = max(sym1, sym2, sym3)
        scale = max(1.0, float(np.abs(R).max()))   # relative gates; a NaN R fails them
        if not worst <= tol.r_symmetry * scale:
            raise TgkitError(f"curvature symmetry violated ({worst:.3e})")
        if not bianchi <= tol.bianchi * scale:
            raise TgkitError(f"first Bianchi identity violated ({bianchi:.3e})")
        i, j = _pair_index(self.dim)
        op = R[i[:, None], j[:, None], j, i]
        asym = np.abs(op - op.T).max()
        if not asym <= tol.operator_symmetric * scale:
            raise TgkitError(f"curvature operator not symmetric ({asym:.3e})")
        op = 0.5 * (op + op.T)
        vals, vecs = np.linalg.eigh(op)
        rec = np.abs(vecs @ np.diag(vals) @ vecs.T - op).max()
        if not rec <= tol.operator_reconstruct * scale:
            raise TgkitError(f"eigendecomposition reconstruction off ({rec:.3e})")
        R.setflags(write=False)
        op.setflags(write=False)
        return CurvatureData(R, op, vals, vecs, tuple(zip(i.tolist(), j.tolist())), scale)

    @property
    def dim(self):
        return self.algebra.dim

    def inner(self, x, y):
        return float(np.asarray(x, float) @ self.gram @ np.asarray(y, float))

    def norm(self, x):
        return float(np.sqrt(self.inner(x, x)))

    def to_onb(self, x):
        """Input-basis coordinates -> orthonormal-frame coordinates."""
        return self._onb_inv @ np.asarray(x, float)

    def from_onb(self, x):
        return self.onb_change @ np.asarray(x, float)


def gram_schmidt(Q, gram):
    """Modified Gram-Schmidt on the columns of Q in the gram inner product, in place."""
    for j in range(Q.shape[1]):
        v = Q[:, j]
        for i in range(j):
            v = v - (Q[:, i] @ gram @ v) * Q[:, i]
        Q[:, j] = v / np.sqrt(v @ gram @ v)
    return Q


@dataclasses.dataclass(frozen=True)
class Subspace:
    """Column span of `basis` inside an ambient algebra."""
    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        if B.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis rows {B.shape[0]} != ambient dimension {self.ambient_dim}")
        if B.shape[1] > self.ambient_dim:
            raise DimensionMismatch(f"basis has {B.shape[1]} columns")
        if B.shape[1]:      # zero columns encode the trivial subspace
            sv = np.linalg.svd(B, compute_uv=False)
            if sv[-1] <= SUBSPACE_RANK:
                raise DimensionMismatch(
                    f"basis columns nearly dependent (smallest singular value {sv[-1]:.3e})")
        B.setflags(write=False)
        object.__setattr__(self, 'basis', B)

    @property
    def dim(self):
        return self.basis.shape[1]


@dataclasses.dataclass(frozen=True)
class ConnectionTable:
    """Levi-Civita coefficients in the orthonormal frame."""
    coefficients: np.ndarray
    torsion_residual: float
    compat_residual: float


def levi_civita(M: MetricLieAlgebra) -> ConnectionTable:
    """The connection of M, computed and gated once (MetricLieAlgebra.connection)."""
    return M.connection


@dataclasses.dataclass(frozen=True)
class CurvatureData:
    components: np.ndarray          # R[i][j][k][l] in the orthonormal frame
    operator_matrix: np.ndarray     # on lexicographic pairs i<j
    eigenvalues: np.ndarray         # ascending
    eigenvectors: np.ndarray        # columns, orthonormal
    pairs: tuple
    scale: float                    # max(1, max|R|), the round-off scale of its gates


def curvature_tensor(M: MetricLieAlgebra) -> CurvatureData:
    """The curvature of M, computed and gated once (MetricLieAlgebra.curvature)."""
    return M.curvature


def sectional(M: MetricLieAlgebra, x, y) -> float:
    """K(x, y) for the plane spanned by input-basis vectors x, y."""
    gx = M.inner(x, x)
    gy = M.inner(y, y)
    gxy = M.inner(x, y)
    den = gx * gy - gxy * gxy
    if not den > M.tol.degenerate_plane:
        raise DegeneratePlane(f"Gram determinant {den:.3e}")
    R = curvature_tensor(M).components
    xo = M.to_onb(x)
    yo = M.to_onb(y)
    num = np.einsum('ijkl,i,j,k,l->', R, xo, yo, yo, xo)
    return float(num / den)


def _pair_index(n):
    """(i, j) over the lexicographic pairs i < j of range(n), as index arrays:
    np.triu_indices(n, 1) from a mask, at a sixth of its cost."""
    return np.nonzero(np.less.outer(np.arange(n), np.arange(n)))


def wedge_coords(x, y):
    """Coordinates of x^y on the lexicographic pair basis (orthonormal frame),
    broadcast over leading axes."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    i, j = _pair_index(x.shape[-1])
    return x[..., i] * y[..., j] - x[..., j] * y[..., i]


def rowdot(a, b):
    """Dot products along the last axis, broadcast over leading axes.

    Goes through matmul so that every row of C-ordered input equals the
    1-D `a @ b` (and sqrt(rowdot(a, a)) the 1-D `np.linalg.norm(a)`) bit
    for bit; an einsum or a sum of products rounds differently.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def complement_onb(T):
    """Orthonormal basis of T^perp (orthonormal-frame coordinates).

    Householder reflection; deterministic and exactly orthogonal to T up
    to round-off.  T may carry leading batch axes; the basis vectors are
    the columns of the trailing n x (n-1) matrix.
    """
    T = np.asarray(T, float)
    n = T.shape[-1]
    s = np.where(T[..., :1] >= 0, 1.0, -1.0)
    v = T + s * np.sqrt(rowdot(T, T))[..., None] * np.eye(n)[0]
    H = np.eye(n) - 2.0 * (v[..., :, None] * v[..., None, :]) / rowdot(v, v)[..., None, None]
    return H[..., 1:]
