"""Totally geodesic hyperplane analysis on metric Lie algebras.

Certification, sphere-constrained search for hyperplane normals, algebraic
Frenet data of the normal orbit, the order-two helix witness with its
quotient bracket table, and the trichotomy classifier
(geodesic normal / circle normal / order-two helix).
"""
from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from .config import DEFAULT
from .errors import (DimensionMismatch, IdealResidualExceeded, NonUnitVector,
                     NotHelixOrderTwo, NotRecognized, NotTotallyGeodesic,
                     TgkitError)
from .lie_core import (MetricLieAlgebra, Subspace, _pair_index, _sl2_closed,
                       complement_onb, curvature_tensor, levi_civita, rowdot,
                       wedge_coords)


# ---------------------------------------------------------------- subspaces

@dataclasses.dataclass(frozen=True)
class SubspaceWitness:
    kind: str          # 'bracket' or 'connection'
    i: int             # indices into the orthonormalized subspace basis
    j: int
    component: np.ndarray   # offending perpendicular component, input basis


@dataclasses.dataclass(frozen=True)
class SubspaceCheck:
    ok: bool
    residual: float
    witness: SubspaceWitness | None


def _matvecs(A, X):
    """A @ x for every row x of X, each bit for bit the 1-D product (a plain
    X @ A.T rounds differently)."""
    return (A @ X[..., None])[..., 0]


def _subspace_onb(M: MetricLieAlgebra, S: Subspace):
    # orthonormal basis of S in frame coordinates, order- and
    # orientation-preserving (QR with positive diagonal)
    Q, R = np.linalg.qr(_matvecs(M._onb_inv, S.basis.T).T)
    return Q * np.where(np.diag(R) < 0, -1.0, 1.0)


def tg_subspace_check(M: MetricLieAlgebra, S: Subspace) -> SubspaceCheck:
    """Is S a totally geodesic subalgebra?  ([S,S] in S and nabla_S S in S.)"""
    if S.ambient_dim != M.dim:
        raise DimensionMismatch("subspace ambient dimension does not match algebra")
    U = _subspace_onb(M, S)
    P = np.eye(M.dim) - U @ U.T      # projector onto S^perp, frame coords
    n, m = U.shape
    # [u_i, u_j] for i < j, then nabla_{u_i} u_j for all i, j, both row-major;
    # the witness is the first largest perpendicular part, None if all vanish
    bi, bj = _pair_index(m)
    V = np.concatenate([np.einsum('pi,qj,pqk->ijk', U, U, M.onb_constants)[bi, bj],
                        np.einsum('pi,qj,pqk->ijk', U, U, levi_civita(M).coefficients)
                        .reshape(m * m, n)])
    perp = _matvecs(P, V)
    r = np.concatenate([[0.0], np.sqrt(rowdot(perp, perp))])
    k = int(np.argmax(r))
    witness = None
    if k:
        b = len(bi)
        kind, (i, j) = (('bracket', (bi[k - 1], bj[k - 1])) if k <= b
                        else ('connection', divmod(k - 1 - b, m)))
        witness = SubspaceWitness(kind, int(i), int(j), M.from_onb(perp[k - 1]))
    return SubspaceCheck(float(r[k]) <= M.tol.tg_residual, float(r[k]), witness)


def _unit_onb(M: MetricLieAlgebra, T):
    T = np.asarray(T, float)
    nrm = M.norm(T)
    if not abs(nrm - 1.0) <= M.tol.unit_norm:
        raise NonUnitVector(f"|T| = {nrm!r}, expected 1")
    return M.to_onb(T)


def _tg_residuals(G, t, Q):
    """max |<nabla_X Y, t>| over the columns X, Y of Q = complement_onb(t), an
    orthonormal basis of t^perp, for every unit row of t (frame coordinates):
    the one TG residual formula.  The caller builds Q, once per t."""
    n = t.shape[-1]
    Mm = (t @ G.reshape(n * n, n).T).reshape(t.shape[:-1] + (n, n))
    return np.abs(Q.swapaxes(-1, -2) @ Mm @ Q).max(axis=(-2, -1))


def hyperplane_tg_residual(M: MetricLieAlgebra, T) -> float:
    """max |<nabla_X Y, T>| over an orthonormal basis X, Y of T^perp.

    Zero iff the left-invariant distribution T^perp is integrable with
    totally geodesic leaves.
    """
    G = levi_civita(M).coefficients
    t = _unit_onb(M, T)
    return float(_tg_residuals(G, t, complement_onb(t)))


# ------------------------------------------------------------------- search

@dataclasses.dataclass(frozen=True)
class SearchConfig:
    """n_starts and seed are read only where _family_starts returns None (a
    real weight whose eigenspace has dim >= 2) for seeded multistart; no
    other input draws a start.  residual_threshold is read-only (M.tol)."""
    n_starts: int = 64
    seed: int = 0
    residual_threshold: float = dataclasses.field(default=DEFAULT.search_residual, init=False)


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """The isolated normals with their TG residuals, and the continuum
    components (kernel spheres), each as its gram-orthonormal rows in the
    input basis, with the residual bound that certifies its whole sphere."""
    normals: list
    residuals: list
    continuum: bool
    components: list
    component_residuals: list

    def __iter__(self):
        return iter(self.normals)

    def __len__(self):
        return len(self.normals)


_EPS = float(np.finfo(float).eps)


def _residual_jacobian(G):
    """r(t) = vec(P M(t) P) with M(t) = G.t and P = I - t t^T, its Jacobian
    along the columns d of Q = complement_onb(t), and Q.

    Row d of the Jacobian is vec(dP M P + P M(d) P + P M dP) with
    dP = -(d t^T + t d^T).  t may carry leading batch axes (one start per
    row); each row of a C-ordered stack evaluates bit for bit as a lone 1-D
    t does.  rj.f_stop is the round-off of |r|^2 on unit t.
    """
    n = G.shape[0]
    eye = np.eye(n)

    def koszul(x):
        return np.einsum('ijk,...k->...ij', G, x)

    def parts(t):
        P = eye - t[..., :, None] * t[..., None, :]
        Mm = koszul(t)
        PM = P @ Mm
        return P, Mm, PM, (PM @ P).reshape(t.shape[:-1] + (n * n,))

    def rj(t):
        Q = complement_onb(t)
        D = np.swapaxes(Q, -1, -2)                     # rows are the d
        P, Mm, PM, r = parts(t)
        dP = -(D[..., :, :, None] * t[..., None, None, :]
               + t[..., None, :, None] * D[..., :, None, :])
        Pd = P[..., None, :, :]
        dR = dP @ (Mm @ P)[..., None, :, :] + Pd @ koszul(D) @ Pd + PM[..., None, :, :] @ dP
        return r, dR.reshape(t.shape[:-1] + (n - 1, n * n)), Q
    rj.residual = lambda t: parts(t)[3]               # r alone, the bits of rj(t)[0]
    rj.f_stop = max(1e-32, (4 * n * _EPS * max(1.0, float(np.abs(G).max()))) ** 2)
    return rj


def _unit_rows(x):
    return x / np.sqrt(rowdot(x, x))[..., None]


_LM_ITER = 100
_LM_FLOOR = 1e-12


def _batch_lm(rj, t):
    """Levenberg-Marquardt on the sphere for every row of t at once.

    A step solves (J J^T + lam s I) xi = -J r, with s the largest entry of
    J J^T, and moves to (t + Q xi)/|t + Q xi|.  lam falls tenfold when the
    step lowers f = |r|^2 (and is taken) and rises tenfold otherwise.  A
    start retires when f reaches the round-off rj.f_stop, when lam > 1e12
    (f has plateaued), when J vanishes, or after _LM_ITER steps.
    lam >= _LM_FLOOR keeps the damped system nonsingular on every live row,
    so one stacked solve serves all.  A stack all at round-off builds no J.
    """
    t = t.copy()
    r = rj.residual(t)
    if (rowdot(r, r) < rj.f_stop).all():
        return t
    r, J, Q = rj(t)
    f = rowdot(r, r)
    lam = np.full(len(t), 1e-3)
    eye = np.eye(t.shape[1] - 1)
    live = np.arange(len(t))
    for _ in range(_LM_ITER):
        A = J[live] @ np.swapaxes(J[live], 1, 2)
        s = A.max(axis=(1, 2), initial=0.0)
        go = ~(f[live] < rj.f_stop) & ~(lam[live] > 1e12) & (s > 0)
        live, A, s = live[go], A[go], s[go]
        if not len(live):
            break
        xi = np.linalg.solve(A + (lam[live] * s)[:, None, None] * eye,
                             -(J[live] @ r[live][..., None]))
        cand = _unit_rows(t[live] + (Q[live] @ xi)[..., 0])
        rc, Jc, Qc = rj(cand)
        fc = rowdot(rc, rc)
        down = fc < f[live]
        won = live[down]
        t[won], r[won], J[won], Q[won], f[won] = (cand[down], rc[down], Jc[down],
                                                  Qc[down], fc[down])
        lam[live] = np.where(down, np.maximum(lam[live] / 10, _LM_FLOOR), lam[live] * 10)
    return t


def _real_roots(coef, floor):
    """Near-real roots of the columns of coef (coefficients, highest first)
    above floor, by one batched eigvals of np.roots' companion matrices; a
    negligible leading coefficient sends its root past 1e8, which is dropped."""
    big = np.abs(coef).max(axis=0) > floor
    P = coef[:, big].T / np.abs(coef[:, big]).max(axis=0)[:, None]
    d = P.shape[1] - 1
    comp = np.zeros((len(P), d, d))
    comp[:, 1:, :-1] = np.eye(d - 1)
    comp[:, 0] = -P[:, 1:] / np.where(np.abs(P[:, :1]) < 1e-13, 1e-13, P[:, :1])
    w = np.linalg.eigvals(comp).ravel()
    return w.real[(np.abs(w.imag) <= 1e-6 * (1 + np.abs(w))) & (np.abs(w) < 1e8)]


def _first_of_each(Y, err, inner, cos):
    """Indices of the rows of Y in increasing err (stable), each kept unless
    |<y, y'>| >= cos in the inner product `inner` for a row y' kept before it."""
    order = np.argsort(err, kind='stable')
    near = (np.abs(Y[order] @ inner @ Y[order].T) >= cos).tolist()
    kept = []
    for i, row in enumerate(near):
        if not any(row[j] for j in kept):
            kept.append(i)
    return order[kept]


def _distinct(t, err, scale):
    """The unit rows t with err <= 1e-6 scale, one per point up to sign, the
    most accurate (a start -t polishes to exactly minus the polish of t)."""
    t, err = t[err <= 1e-6 * scale], err[err <= 1e-6 * scale]
    return t[_first_of_each(t, err, np.eye(t.shape[-1]), math.cos(1e-6))]


def _span_split(rows, ref=1.0):
    """Orthonormal rows spanning the row space of rows, and orthonormal rows
    spanning its orthogonal complement (SVD, rank relative to 1e-10 of the
    larger of ref and the top singular value)."""
    _, sv, vt = np.linalg.svd(rows)
    rank = int((sv > 1e-10 * max(ref, sv[0] if len(sv) else ref)).sum())
    return vt[:rank], vt[rank:]


def _brackets(c, A, B):
    """All [a, b] for rows a of A and b of B, as rows."""
    return np.einsum('ai,bj,ijk->abk', A, B, c).reshape(-1, c.shape[0])


# s @ _CROSS, reshaped 3 x 3, is [s]x^T: columns spanning s^perp
_CROSS = np.cross(np.eye(3)[:, None], np.eye(3)).reshape(3, 9)
_NODES = np.cos(np.pi * np.arange(7) / 6)          # Chebyshev points fix the degree 6
_VANDER2, _VANDER6 = np.vander(_NODES, 3, increasing=True), np.vander(_NODES)


def _conic_starts(G, F, rows, scale):
    """Points t = s(w) F of the conic s(w) = sum_j w^j rows[j] in the
    coordinates s of a 3-dim family F (orthonormal rows) at which all of
    B^T M(t) B vanishes, B = [I - F^T F | F^T [s]x] (columns spanning
    t^perp; F^T [s]x alone if F = g): the near-real roots of these sextics
    in w, and w = inf.  They never all vanish (lemma 2 of _family_starts)."""
    S = _VANDER2 @ rows
    B = F.T @ (S @ _CROSS).reshape(7, 3, 3)
    if len(G) > 3:
        B = np.concatenate([np.broadcast_to(np.eye(len(G)) - F.T @ F, (7,) + G.shape[1:]), B], -1)
    forms = np.swapaxes(B, -1, -2) @ np.einsum('ijk,...k->...ij', G, S @ F) @ B
    # symmetric parts on and above the diagonal, antisymmetric below; on a
    # conic of subalgebras the antisymmetric ones vanish and are not solved
    forms = np.where(np.tri(B.shape[-1], k=-1, dtype=bool), forms - np.swapaxes(forms, -1, -2),
                     forms + np.swapaxes(forms, -1, -2))
    w = _real_roots(np.linalg.solve(_VANDER6, forms.reshape(7, -1)),
                    1e-12 * scale * np.abs(S).max() ** 3)
    return np.concatenate([np.vander(w, 3, increasing=True) @ rows, rows[-1:]]) @ F


def _eigenspaces(mats, tol):
    """Orthonormal rows spanning the eigenspace of each real eigenvalue (one
    per cluster within tol) of a fixed generic combination A of the
    mats[k]^T: as the mats commute, a line is a common left eigenvector."""
    A = np.einsum('k,kpq->qp', np.sqrt(np.arange(2.0, len(mats) + 2)), mats)
    lam = np.linalg.eigvals(A)
    lam = lam.real[np.abs(lam.imag) <= tol]
    return [_span_split(A - x * np.eye(len(A)))[1]
            for i, x in enumerate(lam) if not (np.abs(lam[:i] - x) <= tol).any()]


def _family_starts(c, G):
    """(exact starts as unit rows, kernel spheres as orthonormal row blocks),
    both in frame coordinates, or None for the seeded multistart.

    If t^perp = h is a subalgebra of codimension one and N is the largest
    ideal of g inside h, g/N is R, aff(1) or sl2(R) (K. H. Hofmann, Illinois
    J. Math. 9, 1965), and t lies in N^perp.  g/N = R: t lies in U =
    (g')^perp, where M(t) = G.t is symmetric with M(t) t = 0, so t is TG iff
    G.t = 0: the R-family normals are the unit vectors of the kernel K of
    u -> G.u on U, a start when dim K = 1 and a whole sphere, returned as
    the rows of K, when dim K >= 2.  g/N = sl2(R): N holds the radical, the
    Killing-orthogonal of g', and all simple ideals s_j of g/rad but one, so
    t lies in F_i = (rad + sum_j s_j)^perp, a 3-dim left eigenspace of a
    generic element of the centroid of the quotient table on F = rad^perp
    (F itself when dim F = 3; sl2(C) has complex eigenvalues, sl3, su3 and
    su(2,1) 8-dim ones).  On F_i part (a) of the TG condition is the conic
    s^T S s = 0, S the symmetric part of Milnor's L in [X, Y] = L(X x Y) for
    the quotient table on F_i, and empty when S is definite (su(2)).
    g/N = aff(1) needs g'' < g': the quotient map is alpha a + phi b, with
    alpha a character (a vector in U) and phi on g' a real joint
    eigenvector theta, of weight alpha, of U acting on (g'/g'')* (g'/g''
    represented by W = g' cap (g'')^perp; g' acts on it as 0, so on any g
    the actions commute); phi on U solves phi([u_k, u_l]) = alpha_k
    phi(u_l) - alpha_l phi(u_k); t lies in span{alpha, phi} (g itself for
    n = 2) and is the unit phi orthogonal to alpha (lemma 1).  The starts are
    these, the _conic_starts and K when it is a line, where the TG residual is
    small; None only for a real weight whose eigenspace is not a line.

    Lemma 1: t is orthogonal to alpha.  <[t, X], X> = <nabla_X X, t> = 0
    on X = s + N (s the unit vector of h cap N^perp), with [t, N] in N,
    gives [t, s] = kappa t; kappa != 0, as g/N is not abelian, and
    alpha([t, s]) = 0.  Lemma 2: a conic's sextics never all vanish, else
    each Borel plane of the quotient on F_i is TG (Koszul reads only F_i
    parts), so by Codazzi each Borel normal is a Ricci eigenvector and Ric
    = lambda I, which no left-invariant metric on SL(2)~ has (Milnor 1976).
    """
    n = c.shape[0]
    D1, U = _span_split(c.reshape(n * n, n))        # g' and U = (g')^perp
    K = _span_split(G.reshape(n * n, n) @ U.T)[1] @ U if len(U) else U
    spheres = [K] if len(K) >= 2 else []
    scale = max(1.0, float(np.abs(G).max()))
    points, aff = [K[:0] if spheres else K], []     # the conic points, then the aff(1) ones
    D2 = _span_split(_brackets(c, D1, D1))[0]
    # rad^perp, rank cut relative to |c|^2, the Killing scale: on a solvable g
    # this product is round-off, and on a nilpotent g the Killing form is too
    F = _span_split(D1 @ np.einsum('ilm,jml->ij', c, c), float((c * c).sum()))[0]
    ideals = [F] if len(F) == 3 else []
    if len(F) > 3:                                  # the centroid of the table on F
        m, eye = len(F), np.eye(len(F))
        q = (_brackets(c, F, F) @ F.T).reshape(m, m, m)
        # rows of C ad_a - ad_a C, ad_a = q[a]^T; a QR spares the SVD the m^3 rows
        comm = np.einsum('pP,arQ->aprPQ', eye, q) - np.einsum('aPp,Qr->aprPQ', q, eye)
        cent = _span_split(np.linalg.qr(comm.reshape(m ** 3, m * m), mode='r'))[1]
        ideals = [P @ F for P in _eigenspaces(cent.reshape(-1, m, m), 1e-6) if len(P) == 3]
    if len(D2) < len(D1):                           # g'' < g': the aff(1) families
        tol = 1e-6 * scale
        W = _span_split(D1 - D1 @ D2.T @ D2)[0]
        A = np.einsum('ki,qj,ijl,pl->kpq', U, W, c, W)  # A[k]: ad u_k on g'/g'', basis W
        k, l = _pair_index(len(U))
        for null in _eigenspaces(A, tol):
            if len(null) != 1:
                return None                         # a weight with a plane of eigenvectors
            th = null[0]
            alpha = A @ th @ th
            if not np.linalg.norm(alpha) > tol:
                continue
            E = np.zeros((len(k), len(U)))
            E[np.arange(len(k)), l], E[np.arange(len(k)), k] = alpha[k], -alpha[l]
            rhs = _brackets(c, U, U).reshape(len(U), len(U), n)[k, l] @ (th @ W)
            a = alpha @ U / np.linalg.norm(alpha)
            phi = th @ W + np.linalg.lstsq(E, rhs, rcond=None)[0] @ U
            phi -= (phi @ a) * a
            aff.append(phi[None] / np.linalg.norm(phi))       # lemma 1
    for F in ideals:                                # the sl2 families
        q = np.einsum('ai,bj,ijk,ck->abc', F, F, c, F)
        L = np.stack([q[2, 1], q[0, 2], q[1, 0]])
        lam, V = np.linalg.eigh(0.5 * (L + L.T))
        if lam[0] < 0 < lam[2]:                     # u_i (1 - w^2) + u_j 2w + u_m (1 + w^2)
            u = (V / np.sqrt(np.abs(lam))).T
            i, j, m = (1, 2, 0) if lam[1] > 0 else (0, 1, 2)
            points.append(_conic_starts(G, F, np.stack([u[i] + u[m], 2 * u[j], u[m] - u[i]]),
                                        scale))
    t = _unit_rows(np.concatenate(points + aff))
    return _distinct(t, _tg_residuals(G, t, complement_onb(t)), scale), spheres


# A normal's sign comes from its first coordinate above this.  A normal at a
# double zero of the residual is only accurate to about 1e-8 (on e(2) + R its
# near-zero coordinates read 1e-8 to 2.5e-8), while no isolated census normal
# has a nonzero coordinate below 4e-5.
_SIGN_FLOOR = 1e-6


def _sign_normalize(v):
    for x in v:
        if abs(x) > _SIGN_FLOOR:
            return v + 0.0 if x > 0 else -v + 0.0
    return v + 0.0


def search_tg_hyperplanes(M: MetricLieAlgebra, config: SearchConfig = None) -> SearchResult:
    """Unit normals of TG hyperplanes, polished by Levenberg-Marquardt, and
    the kernel spheres of TG normals.

    The starts are the exact points of _family_starts on Hofmann's R,
    aff(1) and sl2 families, on any g.  Where it returns None (a real
    weight whose eigenspace has dim >= 2), config.n_starts seeded random
    starts, and continuum means more than tol.continuum_minima normals.
    All starts run together as one array through _batch_lm and are
    certified as one stack by _tg_residuals.

    A kernel K of dim >= 2 is one component: M(t) = G.t is linear in t, so
    on its unit sphere the TG residual is at most sqrt(dim K) max_i |G.k_i|
    (Frobenius) over its orthonormal rows k_i.  That bound is gated on
    tol.search_residual and reported; a normal within tol.dedup_angle of a
    component's span is not listed apart, and continuum means a component.

    Deterministic for a fixed config.seed; normals are sign-normalized,
    deduplicated, lexicographically sorted, and expressed in the input
    basis.
    """
    tol = M.tol
    config = config or SearchConfig()
    n = M.dim
    G = levi_civita(M).coefficients
    family = _family_starts(M.onb_constants, G)
    starts, spheres = family or (None, [])
    if family is None:
        seeds = np.random.SeedSequence(config.seed).spawn(config.n_starts)
        starts = _unit_rows(np.array(
            [np.random.Generator(np.random.PCG64(s)).standard_normal(n)
             for s in seeds]).reshape(-1, n))
    bounds = [math.sqrt(len(K)) * float(np.linalg.norm(K @ G.reshape(n * n, n).T, axis=1).max())
              for K in spheres]
    spheres = [(K, r) for K, r in zip(spheres, bounds) if r <= tol.search_residual]
    ts = _batch_lm(_residual_jacobian(G), starts) if len(starts) else starts
    X = M.from_onb(ts.T).T
    X = X / np.sqrt(rowdot(X @ M.gram, X))[:, None]
    t = M.to_onb(X.T).T
    res = _tg_residuals(G, t, complement_onb(t))
    isolated = res <= tol.search_residual
    for K, _ in spheres:
        isolated &= np.linalg.norm(t @ K.T, axis=1) < math.cos(tol.dedup_angle)
    keep = np.flatnonzero(isolated)
    Y = np.array([_sign_normalize(X[i]) for i in keep]).reshape(-1, n)
    # sign classes closer than the dedup angle merge into the smallest residual
    reps = _first_of_each(Y, res[keep], M.gram, math.cos(tol.dedup_angle))
    merged = sorted(((Y[i], float(res[keep[i]])) for i in reps),
                    key=lambda pair: tuple(np.round(pair[0], 6)))
    return SearchResult([x for x, _ in merged], [r for _, r in merged],
                        len(merged) > tol.continuum_minima if family is None else bool(spheres),
                        [M.from_onb(K.T).T for K, _ in spheres], [r for _, r in spheres])


# ------------------------------------------------------------------- frenet

@dataclasses.dataclass(frozen=True)
class FrenetData:
    order: int
    curvatures: tuple           # k_1 .. k_p, all above the zero threshold
    frame: tuple                # eps_1 .. eps_{p+1}, input basis
    truncation_residual: float  # first rejected curvature (nan if none seen)
    borderline: bool            # truncation fell in [eps_k_warn, eps_k)
    error_bars: dict | None = None


def frenet_orbit(M: MetricLieAlgebra, T) -> FrenetData:
    """Frenet apparatus of the one-parameter orbit of T.

    eps_1 = T; w_s = nabla_{eps_1} eps_s + k_{s-1} eps_{s-1};
    k_s = |w_s|; stops at k_s < eps_k or s = n - 1.
    """
    return _frenet(M, _unit_onb(M, T))


def _frenet(M, t):
    """frenet_orbit at the unit frame vector t."""
    tol = M.tol
    G = levi_civita(M).coefficients
    frame, ks = [t], []
    trunc, borderline = float('nan'), False
    for s in range(1, M.dim):
        w = np.einsum('ijk,i,j->k', G, frame[0], frame[-1])
        if s >= 2:
            w = w + ks[-1] * frame[-2]
        k = float(np.linalg.norm(w))
        if k < tol.eps_k:
            trunc = k
            borderline = k >= tol.eps_k_warn
            break
        ks.append(k)
        frame.append(w / k)
    # the frame's orthonormality; round-off can break it when the curvatures
    # are far apart (rotated sl2(1e-4, 40) reads 2.3e-10)
    F = np.stack(frame, axis=1)
    onb_res = np.abs(F.T @ F - np.eye(len(frame))).max()
    if not onb_res <= 1e-10:
        raise TgkitError(f"Frenet frame lost orthonormality ({onb_res:.3e})")
    return FrenetData(len(ks), tuple(ks),
                      tuple(M.from_onb(v) for v in frame),
                      trunc, borderline)


# ------------------------------------------------------------- helix witness

_WITNESS_INDEX = np.ravel_multi_index(np.ix_(*[[0, 2, 1]] * 3), (3, 3, 3))
_WITNESS_SIGNS = np.einsum('a,b,d->abd', *[[1.0, -1.0, 1.0]] * 3)


@dataclasses.dataclass(frozen=True)
class HelixWitness:
    Lambda: Subspace            # span(T, N1, N2), the sl2 lift
    s: Subspace                 # span(N1, N2), the 2-dim solvable TG subalgebra
    ideal_I: Subspace           # Lambda^perp, kernel of the submersion onto SL(2)~
    quotient_constants: np.ndarray
    recovered_a: float
    recovered_b: float
    residuals: dict


def helix_witness(M: MetricLieAlgebra, T) -> HelixWitness:
    """Certificate for an order-two helix orbit: span, ideal, quotient table.

    Raises NotHelixOrderTwo unless the orbit's Frenet order is exactly 2,
    IdealResidualExceeded when the orthogonal complement of the helix span
    fails to be an ideal (which falsifies the TG hypothesis for T), and
    NotRecognized when the quotient misses the sl2(k2/2, k1/2) table.
    """
    return _helix_witness(M, frenet_orbit(M, T))


def _helix_witness(M, fd: FrenetData) -> HelixWitness:
    """helix_witness from the Frenet data fd of the orbit."""
    tol = M.tol
    n = M.dim
    if fd.order != 2:
        raise NotHelixOrderTwo(fd.order)
    k1, k2 = fd.curvatures
    c = M.onb_constants
    # the frame as n x 3 in C order (the ideal einsum below rounds by layout);
    # the quotient span(T, N1, N2) modulo the complement, in that basis,
    # against sl2(k2/2, k1/2) in the basis (E1, -E3, E2): axes (0, 2, 1), signs (1, -1, 1)
    B = np.ascontiguousarray(_matvecs(M._onb_inv, np.array(fd.frame)).T)
    q = np.einsum('ip,jq,ijk,km->pqm', B, B, c, B)
    target = _sl2_closed(k2 / 2, k1 / 2).take(_WITNESS_INDEX) * _WITNESS_SIGNS
    table_res = float(np.abs(q - target).max())
    I_basis = _span_split(B.T)[1].T                           # n x (n-3)
    ideal_res = 0.0
    if I_basis.shape[1] > 0:
        br = np.einsum('pqk,qu->puk', c, I_basis)             # [e_p, u] for u in I
        lam_comp = np.einsum('puk,km->pum', br, B)            # Lambda components
        ideal_res = float(np.abs(lam_comp).max())
    if not ideal_res <= tol.ideal:
        raise IdealResidualExceeded(ideal_res)
    if not table_res <= tol.bracket_table:
        raise NotRecognized(f"quotient bracket table residual {table_res:.3e}")
    return HelixWitness(
        Lambda=Subspace(n, np.stack(fd.frame, axis=1)),
        s=Subspace(n, np.stack([fd.frame[1], fd.frame[2]], axis=1)),
        ideal_I=Subspace(n, _matvecs(M.onb_change, I_basis.T).T),
        quotient_constants=q,
        recovered_a=k2 / 2.0,
        recovered_b=k1 / 2.0,
        residuals={'ideal_residual': ideal_res,
                   'bracket_table_residual': table_res},
    )


# ----------------------------------------------------------- classification

class CaseTag(str, enum.Enum):
    GEODESIC_NORMAL = "GeodesicNormal"
    CIRCLE_NORMAL = "CircleNormal"
    HELIX_ORDER_TWO = "HelixOrderTwo"
    HIGHER_ORDER = "HigherOrder"


def codazzi_residual(M: MetricLieAlgebra, T) -> float:
    """max |<R(X,Y)Z, T>| over orthonormal X, Y, Z spanning T^perp."""
    t = _unit_onb(M, T)
    return _codazzi(curvature_tensor(M).components, t, complement_onb(t))


def _codazzi(R, t, Q):
    """codazzi_residual at unit frame t, Q = complement_onb(t): R t, then Q on each index."""
    W = Q.T @ ((R.reshape(-1, len(t)) @ t).reshape(R.shape[:3]) @ Q)
    return float(np.abs(Q.T @ W.reshape(len(t), -1)).max())


@dataclasses.dataclass(frozen=True)
class ClassificationReport:
    case_tag: CaseTag
    frenet: FrenetData
    witness: HelixWitness | None
    character_hint: np.ndarray | None
    eigenvalue_lambda: float | None
    residuals: dict


def _wedge_eigen_lambda(M, t, Q):
    # each t^X, X a column of Q = complement_onb(t), must live in one eigenspace of the
    # curvature operator, one eigenvalue for all X; C-ordered rows give the 1-D products' bits
    W = np.ascontiguousarray(wedge_coords(t, Q.T))
    RW = _matvecs(curvature_tensor(M).operator_matrix, W)
    li = rowdot(W, RW)          # |w| = 1 for orthonormal T, X
    D = RW - li[:, None] * W
    res = np.sqrt(rowdot(D, D))
    # the residual runs up to the first X whose eigenvalue leaves the first
    off = np.flatnonzero(np.abs(li - li[0]) > M.tol.eigen_membership)
    if len(off):
        return None, max(float(res[:off[0] + 1].max()), float(abs(li[off[0]] - li[0])))
    worst = float(res.max())
    return (float(li[0]) if worst <= M.tol.eigen_membership else None), worst


def classify_case(M: MetricLieAlgebra, T) -> ClassificationReport:
    """Trichotomy for a certified TG hyperplane normal.

    GeodesicNormal / CircleNormal / HelixOrderTwo by the Frenet order of
    the normal orbit; HigherOrder flags a falsified prediction.  Raises
    NotTotallyGeodesic when the TG residual fails tg_residual or the Codazzi
    residual fails max(codazzi, 4 n eps max(1, max|R|)), R's round-off floor.
    """
    tol = M.tol
    G = levi_civita(M).coefficients
    t = _unit_onb(M, T)
    Q = complement_onb(t)
    res = float(_tg_residuals(G, t, Q))
    if not res <= tol.tg_residual:
        raise NotTotallyGeodesic(res)
    cod = _codazzi(curvature_tensor(M).components, t, Q)
    if not cod <= max(tol.codazzi, 4 * M.dim * _EPS * curvature_tensor(M).scale):
        raise NotTotallyGeodesic(cod, 'codazzi_residual')
    fd = _frenet(M, t)
    residuals = {'tg_residual': res, 'codazzi_residual': cod}
    witness = hint = lam = None
    if fd.order == 0:
        tag = CaseTag.GEODESIC_NORMAL
        lam, memb = _wedge_eigen_lambda(M, t, Q)
        residuals['eigen_membership'] = memb
    elif fd.order == 1:
        tag = CaseTag.CIRCLE_NORMAL
        hint = fd.curvatures[0] * (M.gram @ fd.frame[1])
        c = M.algebra.structure_constants
        residuals['character_annihilation'] = float(
            np.abs(np.einsum('k,ijk->ij', hint, c)).max())
    elif fd.order == 2:
        tag = CaseTag.HELIX_ORDER_TWO
        witness = _helix_witness(M, fd)
        residuals.update(witness.residuals)
    else:
        tag = CaseTag.HIGHER_ORDER
    return ClassificationReport(tag, fd, witness, hint, lam, residuals)
