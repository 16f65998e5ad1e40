"""Independent reference implementations used as test oracles.

Everything here is deliberately written with plain loops so that a bug in
the vectorized library code cannot hide in a shared einsum.
"""

import math
import operator

import numpy as np

from tgkit.coord_engine import ScalarField
from tgkit.errors import NotHelixOrderTwo, NotTotallyGeodesic
from tgkit.lie_core import MetricLieAlgebra, complement_onb, curvature_tensor
from tgkit.tg_analysis import (_EPS, CaseTag, ClassificationReport, FrenetData,
                               _wedge_eigen_lambda, codazzi_residual, frenet_orbit,
                               helix_witness, hyperplane_tg_residual)


def constant(value):
    """Chart evaluator returning value at every point of a stack (..., n),
    as chart evaluators take points on the last axis."""
    value = np.asarray(value, float)
    return lambda x: np.broadcast_to(value, np.shape(x)[:-1] + value.shape)


def coordinate_field(k, n):
    """The coordinate x^k of R^n as a ScalarField: exact gradient e_k and
    Hessian 0, as floats at one point and over a stack alike."""
    e = tuple(float(i == k) for i in range(n))
    return ScalarField(lambda x: x[k], grad=lambda x: e, hess=lambda x: ((0.0,) * n,) * n)


def koszul_loops(c):
    """Connection coefficients from structure constants, orthonormal frame.

    G[i][j][k] = <nabla_{e_i} e_j, e_k> via the Koszul formula with all
    metric-derivative terms dropped (left-invariant fields, orthonormal
    frame): 1/2 (<[ei,ej],ek> - <[ej,ek],ei> + <[ek,ei],ej>).
    """
    n = c.shape[0]
    G = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                G[i, j, k] = 0.5 * (c[i, j, k] - c[j, k, i] + c[k, i, j])
    return G


def curvature_loops(c, G):
    """R[i][j][k][l] = <R(ei,ej)ek, el> assembled term by term.

    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z.
    """
    n = c.shape[0]
    R = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    s = 0.0
                    for m in range(n):
                        s += G[j, k, m] * G[i, m, l]
                        s -= G[i, k, m] * G[j, m, l]
                        s -= c[i, j, m] * G[m, k, l]
                    R[i, j, k, l] = s
    return R


def operator_loops(R):
    """Curvature operator on lexicographic wedge pairs, entry by entry."""
    n = R.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(pairs)
    op = np.zeros((m, m))
    for p, (i, j) in enumerate(pairs):
        for q, (k, l) in enumerate(pairs):
            op[p, q] = R[i, j, l, k]
    return op


def subspace_check_loops(M: MetricLieAlgebra, S):
    """(ok, residual, witness) of tg_subspace_check, one basis pair at a time.

    The basis goes to the frame column by column and is orthonormalized by
    QR with the signs of R's diagonal made positive.  Brackets [u_i, u_j],
    i < j, then connections nabla_{u_i} u_j, each row-major; the witness
    (kind, i, j, component in the input basis) is the first strictly
    largest perpendicular part, None if every part vanishes.
    """
    from tgkit.lie_core import levi_civita
    n, m = M.dim, S.dim
    U = np.empty((n, 0))
    if m:
        B = np.stack([M.to_onb(S.basis[:, k]) for k in range(m)], axis=1)
        U, R = np.linalg.qr(B)
        for k in range(m):
            if R[k, k] < 0:
                U[:, k] = -U[:, k]
    P = np.eye(n) - U @ U.T
    best, witness = 0.0, None
    pairs = [('bracket', i, j, M.onb_constants) for i in range(m) for j in range(i + 1, m)]
    pairs += [('connection', i, j, levi_civita(M).coefficients)
              for i in range(m) for j in range(m)]
    for kind, i, j, table in pairs:
        perp = P @ np.einsum('p,q,pqk->k', U[:, i], U[:, j], table)
        r = float(np.linalg.norm(perp))
        if r > best:
            best, witness = r, (kind, i, j, M.from_onb(perp))
    return best <= M.tol.tg_residual, best, witness


def wedge_eigen_loops(M: MetricLieAlgebra, t):
    """(lambda, residual) of tg_analysis._wedge_eigen_lambda, one wedge t^X
    at a time over the Householder complement of the unit frame vector t:
    the residual runs up to the first X whose eigenvalue leaves the first."""
    op = curvature_tensor(M).operator_matrix
    Q = complement_onb(t)
    n = len(t)
    lam, worst = None, 0.0
    for a in range(Q.shape[1]):
        x = Q[:, a]
        w = np.array([t[i] * x[j] - t[j] * x[i] for i in range(n) for j in range(i + 1, n)])
        rw = op @ w
        li = float(w @ rw)
        worst = max(worst, float(np.linalg.norm(rw - li * w)))
        if lam is None:
            lam = li
        elif abs(li - lam) > M.tol.eigen_membership:
            return None, max(worst, abs(li - lam))
    return (lam if worst <= M.tol.eigen_membership else None), worst


def codazzi_einsum(R, t, Q):
    """tg_analysis._codazzi as the one 5-operand einsum it replaced:
    max |R(X, Y, Z, t)| over the columns X, Y, Z of Q = complement_onb(t)."""
    return float(np.abs(np.einsum('ia,jb,kc,ijkl,l->abc', Q, Q, Q, R, t)).max())


def distinct_rounding(t, err, scale):
    """The search's start dedup with its own rule: the unit rows t with
    err <= 1e-6 scale in increasing err (stable), the sign of each row's
    largest entry made positive, the first row of each 6-decimal rounding."""
    t = t[np.argsort(err, kind='stable')][np.sort(err) <= 1e-6 * scale]
    t *= np.sign(t[np.arange(len(t)), np.abs(t).argmax(axis=-1)])[:, None]
    keys = np.round(t, 6).tolist()
    return t[[i for i, key in enumerate(keys) if key not in keys[:i]]]


def merge_loops(found, gram, dedup_angle):
    """The search's result merge with its own rule: (normal, residual) pairs
    whose normals are closer than dedup_angle (gram inner product, up to
    sign) merge into the first kept pair they meet, which keeps the smaller
    residual; the kept pairs sorted by the 6-decimal rounding of the normal."""
    n = len(gram)
    Y = np.array([x for x, _ in found]).reshape(-1, n)
    near = np.abs(Y @ gram @ Y.T) >= math.cos(dedup_angle)
    reps = []
    for i, (_, r) in enumerate(found):
        for k, j in enumerate(reps):
            if near[i, j]:
                if r < found[j][1]:
                    reps[k] = i
                break
        else:
            reps.append(i)
    return sorted((found[i] for i in reps), key=lambda pair: tuple(np.round(pair[0], 6)))


def jacobi_loops(c):
    """Max norm of the cyclic sum [[x,y],z] + [[y,z],x] + [[z,x],y]."""
    n = c.shape[0]
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = np.zeros(n)
                for m in range(n):
                    v += c[i, j, m] * c[m, k]
                    v += c[j, k, m] * c[m, i]
                    v += c[k, i, m] * c[m, j]
                worst = max(worst, np.abs(v).max())
    return worst


def sl2_rep_constants(a, b):
    """sl2 structure constants straight from 2x2 commutators.

    Solves the 4x3 linear system per bracket with lstsq, which is an
    independent route from the package's triangular expansion.
    """
    return matrix_constants([a * np.array([[0., 1.], [-1., 0.]]),
                             2 * b * np.array([[0., 1.], [0., 0.]]),
                             b * np.array([[1., 0.], [0., -1.]])])


def matrix_constants(E):
    """Structure constants of the span of the matrices E, which the
    commutator must preserve, in that basis (lstsq per bracket)."""
    M = np.stack([e.ravel() for e in E], axis=1)
    c = np.zeros((len(E),) * 3)
    for i in range(len(E)):
        for j in range(len(E)):
            br = (E[i] @ E[j] - E[j] @ E[i]).ravel()
            c[i, j], _, _, _ = np.linalg.lstsq(M, br, rcond=None)
    return c


def realified(c):
    """A complex Lie algebra with structure constants c as a real one, in
    the basis x_1 .. x_n, i x_1 .. i x_n."""
    n = len(c)
    r = np.zeros((2 * n,) * 3)
    r[:n, :n, :n] = r[:n, n:, n:] = r[n:, :n, n:] = c
    r[n:, n:, :n] = -c
    return r


def refuse(*args, **kwargs):
    """Stand-in for np.random.SeedSequence or _batch_lm where a test
    requires that neither runs."""
    raise AssertionError("multistart or LM called")


def table(n, entries):
    """Antisymmetric structure constants from {(i, j, k): c_ij^k}."""
    c = np.zeros((n, n, n))
    for (i, j, k), v in entries.items():
        c[i, j, k] += v
        c[j, i, k] -= v
    return c


# su(2); sl2 x| R^2 (h, e, f acting on span(x, y) by the standard
# representation); Bianchi IV (ad e0 = [[1, 1], [0, 1]] on span(e1, e2))
SU2 = table(3, {(1, 2, 0): 1.0, (2, 0, 1): 1.0, (0, 1, 2): 1.0})
SL2_PLANE = table(5, {(0, 1, 1): 2.0, (0, 2, 2): -2.0, (1, 2, 0): 1.0, (0, 3, 3): 1.0,
                      (0, 4, 4): -1.0, (1, 4, 3): 1.0, (2, 3, 4): 1.0})
BIANCHI4 = table(3, {(0, 1, 1): 1.0, (0, 2, 1): 1.0, (0, 2, 2): 1.0})
# two simple algebras without a codimension-one subalgebra: sl2(C) = su(2)
# complexified, as a real algebra, and sl3(R) (Cartan, then off-diagonal units)
SL2C = realified(SU2)
SL3 = matrix_constants([np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 1.0, -1.0])]
                       + [np.outer(np.eye(3)[i], np.eye(3)[j])
                          for i in range(3) for j in range(3) if i != j])


def rotate_constants(c, Q):
    """Structure constants in the rotated basis f_a = sum_i Q[i,a] e_i.

    Q orthogonal, so the inverse change is the transpose.
    """
    return np.einsum('ia,jb,kd,ijk->abd', Q, Q, Q, c)


def random_orthogonal(rng, n):
    A = rng.normal(size=(n, n))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + 0.5 * np.eye(n)


def direct_sum(c1, c2):
    """Structure constants of the direct sum (block diagonal, zero mixing)."""
    n1, n2 = c1.shape[0], c2.shape[0]
    n = n1 + n2
    c = np.zeros((n, n, n))
    c[:n1, :n1, :n1] = c1
    c[n1:, n1:, n1:] = c2
    return c


def lm_one(rj, t, max_iter=100, floor=1e-12):
    """Levenberg-Marquardt of one start on the sphere, as a plain loop.

    rj(t) returns the residual vector, its Jacobian along the columns of
    Q and Q itself for a single unit vector t; rj.f_stop is the round-off
    of |r|^2 at which a start stops.
    """
    lam = 1e-3
    r, J, Q = rj(t)
    f = r @ r
    for _ in range(max_iter):
        if f < rj.f_stop or lam > 1e12:
            break
        A = J @ J.T
        s = A.max(initial=0.0)
        if not s > 0:
            break
        xi = np.linalg.solve(A + lam * s * np.eye(len(A)), -(J @ r))
        cand = t + Q @ xi
        cand = cand / np.linalg.norm(cand)
        rc, Jc, Qc = rj(cand)
        fc = rc @ rc
        if fc < f:
            t, r, J, Q, f = cand, rc, Jc, Qc, fc
            lam = max(lam / 10, floor)
        else:
            lam *= 10
    return t


def geodesic_per_stage(CM, x0, v0, tmax, h):
    """RK4 on the geodesic equation with a gated christoffel call per stage.

    The per-stage loop geodesic_integrate used before its stages were
    batched: every stage gram is gated on the spot and the acceleration is
    -Gamma(v, v) through the inverse gram.  Returns (points, velocities,
    speed drift).
    """
    from tgkit.coord_engine import christoffel
    x0 = np.asarray(x0, float)
    v0 = np.asarray(v0, float)
    g0 = CM.gram(x0)
    s0 = float(np.sqrt(v0 @ g0 @ v0))
    nsteps = max(1, round(tmax / h))
    h = tmax / nsteps

    def accel(x, v):
        G = christoffel(CM, x)
        return -np.einsum('kij,i,j->k', G, v, v)

    times = np.arange(nsteps + 1) * h
    points = [x0]
    vels = [v0]
    x, v = x0.copy(), v0.copy()
    for _ in range(nsteps):
        k1x, k1v = v, accel(x, v)
        k2x, k2v = v + 0.5 * h * k1v, accel(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = v + 0.5 * h * k2v, accel(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = v + h * k3v, accel(x + h * k3x, v + h * k3v)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        points.append(x)
        vels.append(v)
    points = np.array(points)
    vels = np.array(vels)
    speeds = np.array([np.sqrt(w @ CM.gram(p) @ w) for p, w in zip(points, vels)])
    rel = np.abs(speeds - s0) / s0
    drift = float((rel[1:] / np.maximum(times[1:], h)).max())
    return points, vels, drift


def geodesic_list_loop(CM, x0, v0, tmax, h):
    """RK4 on the chart's stages with a list comprehension per vector, no gate.

    The loop geodesic_integrate ran before its step was generated per
    dimension, the same float operations in the same order, kept as a
    bit-for-bit oracle.  Returns (points, velocities, speed drift).
    """
    from tgkit.coord_engine import _generic_stage
    x0 = np.asarray(x0, float)
    v0 = np.asarray(v0, float)
    s0 = float(np.sqrt(v0 @ CM.gram(x0) @ v0))
    nsteps = max(1, round(tmax / h))
    h = tmax / nsteps
    n = CM.dim
    stage = CM.stage_at or (lambda x, v: _generic_stage(CM, x, v))
    stage_g = []

    def accel(x, v):
        g, a = stage(x, v)
        stage_g.append(g)
        return a

    times = np.arange(nsteps + 1) * h
    x, v = x0.tolist(), v0.tolist()
    points, vels = [x], [v]
    hh, h6 = 0.5 * h, h / 6.0
    for _ in range(nsteps):
        k1v = accel(x, v)
        k2x = [a + hh * b for a, b in zip(v, k1v)]
        k2v = accel([a + hh * b for a, b in zip(x, v)], k2x)
        k3x = [a + hh * b for a, b in zip(v, k2v)]
        k3v = accel([a + hh * b for a, b in zip(x, k2x)], k3x)
        k4x = [a + h * b for a, b in zip(v, k3v)]
        k4v = accel([a + h * b for a, b in zip(x, k3x)], k4x)
        x = [a + h6 * (b + 2 * c + 2 * d + e) for a, b, c, d, e in zip(x, v, k2x, k3x, k4x)]
        v = [a + h6 * (b + 2 * c + 2 * d + e) for a, b, c, d, e in zip(v, k1v, k2v, k3v, k4v)]
        points.append(x)
        vels.append(v)
    points, vels = np.array(points), np.array(vels)
    grams = np.empty((nsteps + 1, n, n))
    grams[:-1] = np.array(stage_g, float).reshape(-1, n, n)[::4]
    grams[-1] = CM.gram(points[-1])
    speeds = np.sqrt(np.einsum('ni,nij,nj->n', vels, grams, vels))
    rel = np.abs(speeds - s0) / s0
    return points, vels, float((rel[1:] / np.maximum(times[1:], h)).max())


def diagonal_stage_loop(n):
    """make(coeffs) -> stage_at, the stage catalog._diagonal_metric had before
    it was generated per dimension: a list comprehension per vector, the same
    float operations in the same order, kept as a bit-for-bit oracle."""
    diag = slice(0, n * n, n + 1)

    def make(coeffs):
        def stage_at(x, v):
            d, dd = coeffs(x[0], math)
            g = [0.0] * (n * n)
            g[diag] = d
            a = [-(v[0] * p * c) / q for p, c, q in zip(dd, v, d)]
            a[0] = (0.5 * sum([p * c * c for p, c in zip(dd, v)]) - v[0] * dd[0] * v[0]) / d[0]
            return g, a
        return stage_at
    return make


def solve_loop(g, b):
    """g^-1 b on Python floats for a gram g given as n^2 floats, row-major:
    Gaussian elimination without pivoting, with the dim-2 case written out."""
    n = len(b)
    if n == 2:
        f = g[2] / g[0]
        y = (b[1] - f * b[0]) / (g[3] - f * g[1])
        return [(b[0] - g[1] * y) / g[0], y]
    a, y = list(g), list(b)
    for k in range(n):
        for i in range(k + 1, n):
            f = a[i * n + k] / a[k * n + k]
            for j in range(k + 1, n):
                a[i * n + j] -= f * a[k * n + j]
            y[i] -= f * y[k]
    for k in reversed(range(n)):
        for j in range(k + 1, n):
            y[k] -= a[k * n + j] * y[j]
        y[k] /= a[k * n + k]
    return y


def product_stage_loop(m, nb):
    """make(weight, base_stage) -> stage_at, the stage coord_engine._product_metric
    had before it was generated per (m, nb): the gram picked from
    (0, w, *base gram) by an itemgetter table, map/sum and list comprehensions,
    and solve_loop, kept as a bit-for-bit oracle."""
    dim = m + nb
    pick = operator.itemgetter(*[
        1 if i == j < m else 2 + (i - m) * nb + j - m if min(i, j) >= m else 0
        for i in range(dim) for j in range(dim)])

    def make(weight, base_stage):
        def stage_at(x, v):
            u, vf = x[m:], v[:m]
            w, dw = weight(x[:m], u, True)
            gB, aB = base_stage(u, v[m:])
            f = 0.5 * sum(map(operator.mul, vf, vf))
            dv = sum(map(operator.mul, dw, v))
            a = [(f * d - dv * c) / w for d, c in zip(dw, vf)]
            a += [p + f * y for p, y in zip(aB, solve_loop(gB, dw[m:]))]
            return pick((0.0, w, *gB)), a
        return stage_at
    return make


def normal_curvature_identity(M: MetricLieAlgebra, T, fd: FrenetData = None) -> float:
    """Residual of <T,[X,T]> = k1 <N1, X> over the basis (0 when k1 = 0)."""
    fd = fd or frenet_orbit(M, T)
    T = np.asarray(T, float)
    k1 = fd.curvatures[0] if fd.order >= 1 else 0.0
    n1 = fd.frame[1] if fd.order >= 1 else np.zeros(M.dim)
    worst = 0.0
    for i in range(M.dim):
        e = np.eye(M.dim)[i]
        lhs = M.inner(T, M.algebra.bracket(e, T))
        rhs = k1 * M.inner(n1, e)
        worst = max(worst, abs(lhs - rhs))
    return worst


def second_normal_identity(M: MetricLieAlgebra, T, fd: FrenetData = None) -> float:
    """Residual of N2 = k2^{-1} [T, N1] + k2^{-1} k1 T for order-2 orbits."""
    fd = fd or frenet_orbit(M, T)
    if fd.order < 2:
        raise NotHelixOrderTwo(fd.order)
    k1, k2 = fd.curvatures[:2]
    T = np.asarray(T, float)
    v = fd.frame[2] - (M.algebra.bracket(T, fd.frame[1]) + k1 * T) / k2
    return M.norm(v)


def classify_oracle(M: MetricLieAlgebra, T) -> ClassificationReport:
    """classify_case through the public per-normal functions, each called on
    T: the TG and Codazzi residuals, the Frenet orbit and the helix witness
    each rebuild the unit frame vector and its complement (and the witness
    its Frenet orbit), with the gates in the same order."""
    tol = M.tol
    res = hyperplane_tg_residual(M, T)
    if not res <= tol.tg_residual:
        raise NotTotallyGeodesic(res)
    cod = codazzi_residual(M, T)
    scale = max(1.0, float(np.abs(curvature_tensor(M).components).max()))
    if not cod <= max(tol.codazzi, 4 * M.dim * _EPS * scale):
        raise NotTotallyGeodesic(cod, 'codazzi_residual')
    fd = frenet_orbit(M, T)
    residuals = {'tg_residual': res, 'codazzi_residual': cod}
    witness = hint = lam = None
    if fd.order == 0:
        tag = CaseTag.GEODESIC_NORMAL
        t = M.to_onb(np.asarray(T, float))
        lam, memb = _wedge_eigen_lambda(M, t, complement_onb(t))
        residuals['eigen_membership'] = memb
    elif fd.order == 1:
        tag = CaseTag.CIRCLE_NORMAL
        hint = fd.curvatures[0] * (M.gram @ fd.frame[1])
        residuals['character_annihilation'] = float(
            np.abs(np.einsum('k,ijk->ij', hint, M.algebra.structure_constants)).max())
    elif fd.order == 2:
        tag = CaseTag.HELIX_ORDER_TWO
        witness = helix_witness(M, T)
        residuals.update(witness.residuals)
    else:
        tag = CaseTag.HIGHER_ORDER
    return ClassificationReport(tag, fd, witness, hint, lam, residuals)
