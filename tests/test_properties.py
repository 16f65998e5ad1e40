"""Property tests over random points of the catalog charts, over planted
case-(c) algebras, and over random command lines."""
import contextlib
import dataclasses
import io
import itertools
import os
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest

from helpers import (SL2_PLANE, SL2C, classify_oracle, codazzi_einsum, diagonal_stage_loop,
                     direct_sum, distinct_rounding, geodesic_list_loop, merge_loops,
                     product_stage_loop, random_orthogonal, random_spd, refuse, rotate_constants,
                     subspace_check_loops, table, wedge_eigen_loops)

from tgkit import catalog, coord_engine
from tgkit import tg_analysis as ta
from tgkit.cli import run
from tgkit.coord_engine import (ScalarField, CoordinateMetric, _christoffel_from, _spray,
                                build_warped_product, christoffel, geodesic_integrate, mathlib,
                                twisting_phi)
from tgkit.errors import TgkitError
from tgkit.lie_core import (LieAlgebra, MetricLieAlgebra, Subspace, complement_onb,
                            curvature_tensor, levi_civita)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# an exact-gradient logf over the polar hyperbolic plane
WARP_LOGF = ScalarField(lambda u: 0.3 * u[0] + 0.2 * mathlib(u[1]).sin(u[1]),
                        grad=lambda u: (0.3, 0.2 * mathlib(u[1]).cos(u[1])))
# an exact-gradient logf over the cartesian twisted-h2 chart (t, x, y), whose
# gram is dense, so the product stage runs the general 3 x 3 solve
CART_LOGF = ScalarField(lambda u: 0.2 * u[1] - 0.1 * u[2] * u[2] + 0.1 * mathlib(u[0]).sin(u[0]),
                        grad=lambda u: (0.1 * mathlib(u[0]).cos(u[0]), 0.2, -0.2 * u[2]))
# chart and a map from the unit cube into a region of its domain
CHARTS = {
    "hyperbolic2": (catalog.hyperbolic_plane(),
                    lambda c: np.array([0.2 + 2.8 * c[0], 2 * np.pi * c[1]])),
    "twisted-h2-polar": (catalog.catalog_lookup("twisted-h2", {"kappa": 1.5}),
                         lambda c: np.array([2 * np.pi * c[0], 0.2 + 2.8 * c[1],
                                             2 * np.pi * c[2]])),
    "twisted-h2-polar-0.5": (catalog.catalog_lookup("twisted-h2", {"kappa": 0.5}),
                             lambda c: np.array([2 * np.pi * c[0], 0.2 + 2.8 * c[1],
                                                 2 * np.pi * c[2]])),
    # two flat coordinates over the polar hyperbolic plane, an exact-gradient logf
    "warped-h2": (build_warped_product(2, catalog.hyperbolic_plane(), WARP_LOGF),
                  lambda c: np.array([4 * c[0] - 2, 4 * c[1] - 2, 0.2 + 2.8 * c[2],
                                      2 * np.pi * c[3]])),
    # one flat coordinate over the cartesian twisted-h2 chart
    "warped-cartesian": (build_warped_product(1, catalog.twisted_h2_cartesian(1.5), CART_LOGF),
                         lambda c: np.array([4 * c[0] - 2, 2 * np.pi * c[1], 3 * c[2] - 1.5,
                                             3 * c[3] - 1.5])),
    "twisted-h2-cartesian": (catalog.twisted_h2_cartesian(1.5),
                             lambda c: np.array([2 * np.pi * c[0], 3 * c[1] - 1.5,
                                                 3 * c[2] - 1.5])),
    "nonhomo": (catalog.nonhomo_metric(), lambda c: 4 * np.asarray(c) - 2),
    "euclidean": (catalog.euclidean_metric(3), lambda c: 4 * np.asarray(c[:3]) - 2),
}

unit = st.floats(0.0, 1.0)
speed = st.floats(-3.0, 3.0)


# each draw runs on every chart: a drawn chart name leaves some charts
# undrawn under derandomize
@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(cube=st.lists(unit, min_size=4, max_size=4),
                  vel=st.lists(speed, min_size=4, max_size=4))
def test_spray_is_minus_christoffel_of_v_v(cube, vel):
    for CM, to_chart in CHARTS.values():
        x = to_chart(cube)
        v = np.array(vel[:CM.dim])
        G = christoffel(CM, x)
        want = -np.einsum('kij,i,j->k', G, v, v)
        gram, stage = CM.stage_at(x.tolist(), v.tolist())
        # the stage's gram is gram_at's, bit for bit
        assert np.array(gram, float).reshape(CM.dim, CM.dim).tobytes() == \
            np.asarray(CM.gram_at(x), float).tobytes()
        for got in (_spray(CM.gram(x), CM.partials(x), v), np.array(stage)):
            # relative to the size of the terms, |Gamma| |v|^2
            assert np.abs(got - want).max() <= 1e-12 * np.abs(G).max() * (v @ v)


@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(cube=st.lists(unit, min_size=4, max_size=4))
def test_exact_partials_match_richardson_partials(cube):
    for CM, to_chart in CHARTS.values():
        x = to_chart(cube)
        exact = CM.partials(x, exact=True)
        fd = CM.partials(x, exact=False)
        # relative to max |dg|, the bound the fixed-point Christoffel check uses
        assert np.abs(exact - fd).max() <= 1e-6 * np.abs(exact).max()


# charts for the RK4 oracle: every dimension of the generated step from 1 to
# 8, each catalog stage, both warped products (the warped weight's flat jet),
# and a chart without stage_at (the _generic_stage path)
_HYP = catalog.hyperbolic_plane()
RK4_CHARTS = ([catalog.euclidean_metric(n) for n in range(1, 9)]
              + [_HYP, catalog.nonhomo_metric(), CHARTS["twisted-h2-polar"][0],
                 CHARTS["twisted-h2-cartesian"][0], CHARTS["warped-h2"][0],
                 CHARTS["warped-cartesian"][0],
                 CoordinateMetric(2, _HYP.gram_at, _HYP.partials_at)])


@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(cube=st.lists(unit, min_size=8, max_size=8),
                  vel=st.lists(st.one_of(st.floats(-0.3, -0.05), st.floats(0.05, 0.3)),
                               min_size=8, max_size=8),
                  h=st.floats(1e-3, 1e-2))
def test_generated_rk4_step_matches_the_list_loop_bit_for_bit(cube, vel, h):
    # step counts on both sides of the gate block edges B and 2B, B =
    # _GATE_STEPS patched to 64: the edges do not depend on B's value, and a
    # run spans at most 1.29 time units, which with starts in [0.5, 1.5]^n
    # keeps the polar radius off the axis (a function-scoped monkeypatch
    # would trip hypothesis's health check)
    with mock.patch.object(coord_engine, "_GATE_STEPS", 64):
        B = coord_engine._GATE_STEPS
        for CM in RK4_CHARTS:
            x0, v0 = [0.5 + c for c in cube[:CM.dim]], vel[:CM.dim]
            for nsteps in (1, B - 1, B, B + 1, 2 * B + 1):
                tr = geodesic_integrate(CM, x0, v0, nsteps * h, h)
                points, vels, drift = geodesic_list_loop(CM, x0, v0, nsteps * h, h)
                assert len(points) == nsteps + 1
                assert np.array_equal(tr.points, points) and np.array_equal(tr.velocities, vels)
                assert tr.speed_drift == drift


def _stage_charts():
    """Every catalog chart (euclidean:1 to 8), a diagonal chart whose g_00
    varies, and warped products with m = 1 and 2 flat coordinates over the
    dim-2 bases hyperbolic2 and the dense hyperboloid plane and the dim-3
    cartesian twisted-h2 chart."""
    def logf(k):
        return ScalarField(lambda u: 0.3 * u[0] + 0.2 * mathlib(u[-1]).sin(u[-1]),
                           grad=lambda u: (0.3,) + (0.0,) * (k - 2)
                           + (0.2 * mathlib(u[-1]).cos(u[-1]),))
    charts = [catalog.euclidean_metric(n) for n in range(1, 9)]
    charts += [catalog.hyperbolic_plane(), catalog.nonhomo_metric(),
               catalog.catalog_lookup("twisted-h2", {"kappa": 1.5}),
               catalog.catalog_lookup("twisted-h2", {"kappa": -0.5}),
               catalog.twisted_h2_cartesian(1.5), catalog.twisted_h2_cartesian(-0.5),
               catalog._diagonal_metric(3, lambda z, m: ((m.exp(z), 2.0 - m.sin(z), 1.0 + z * z),
                                                         (m.exp(z), -m.cos(z), 2.0 * z)))]
    for base in (catalog.hyperbolic_plane(), catalog._hyperboloid_plane(),
                 catalog.twisted_h2_cartesian(1.5)):
        charts += [build_warped_product(m, base, logf(base.dim)) for m in (1, 2)]
    return charts


# the same charts with the list-comprehension stages the generated ones replaced
STAGE_CHARTS = _stage_charts()
with mock.patch.object(catalog, "_diagonal_stage", diagonal_stage_loop), \
        mock.patch.object(coord_engine, "_product_stage", product_stage_loop):
    LOOP_STAGE_CHARTS = _stage_charts()


def _stage_bits(stage, x, v):
    """The stage's gram and spray as bytes, so the sign of zero counts, or
    the type and message of its error."""
    try:
        g, a = stage(x, v)
    except Exception as exc:
        return type(exc), str(exc)
    return struct.pack(f"{len(g)}d", *g), struct.pack(f"{len(a)}d", *a)


signed_zero = st.sampled_from((0.0, -0.0))


# zero coordinates put the polar charts on their axis, where the stages raise
@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(x=st.lists(st.one_of(signed_zero, st.floats(-2.0, 2.0)), min_size=8, max_size=8),
                  v=st.lists(st.one_of(signed_zero, speed), min_size=8, max_size=8),
                  flip=st.lists(st.booleans(), min_size=8, max_size=8))
def test_generated_stages_match_the_list_comprehension_stages_bit_for_bit(x, v, flip):
    flipped = [-c if f else c for c, f in zip(v, flip)]
    for new, old in zip(STAGE_CHARTS, LOOP_STAGE_CHARTS):
        assert new.stage_at.__code__ is not old.stage_at.__code__
        n = new.dim
        for w in (v[:n], flipped[:n]):
            assert _stage_bits(new.stage_at, x[:n], w) == _stage_bits(old.stage_at, x[:n], w)


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_christoffel_stack_matches_per_point(name):
    CM, to_chart = CHARTS[name]
    cubes = np.random.default_rng(5).uniform(0.0, 1.0, size=(20, 4))
    pts = np.array([to_chart(c) for c in cubes])
    grams = np.stack([CM.gram(p) for p in pts])
    partials = np.stack([CM.partials(p) for p in pts])
    stacked = _christoffel_from(grams, partials)
    assert stacked.shape == (20,) + (CM.dim,) * 3
    for G, g, dg in zip(stacked, grams, partials):
        one = _christoffel_from(g, dg)
        assert np.abs(G - one).max() <= 1e-15 * np.abs(one).max()


def _same_bits(stacked, one_by_one):
    return np.asarray(stacked).tobytes() == np.array(one_by_one, float).tobytes()


@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 6))
def test_stacked_evaluators_equal_per_point_bit_for_bit(seed, rows):
    # gram_at and partials_at on a (2, rows, n) stack, row by row
    cubes = np.random.default_rng(seed).uniform(0.0, 1.0, size=(2 * rows, 4))
    for CM, to_chart in CHARTS.values():
        X = np.array([to_chart(c) for c in cubes])
        for evaluate in (CM.gram_at, CM.partials_at):
            stacked = evaluate(X.reshape(2, rows, CM.dim))
            assert _same_bits(stacked.reshape((2 * rows,) + stacked.shape[2:]),
                              [evaluate(x) for x in X])


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), kappa=st.sampled_from((0.5, 1.5, -2.0)))
def test_stacked_twist_and_field_equal_per_point_bit_for_bit(seed, kappa):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 2 * np.pi, 12)
    u = np.stack([rng.uniform(0.2, 3.0, 12), rng.uniform(0.0, 2 * np.pi, 12)], axis=1)
    spec = catalog.twisted_h2(kappa)
    stacked = twisting_phi(spec, t, u)
    assert all(_same_bits(s, [twisting_phi(spec, ti, ui)[k] for ti, ui in zip(t, u)])
               for k, s in enumerate(stacked))
    # the warped logf: exact value and gradient, finite-difference Hessian
    for evaluate in (WARP_LOGF.value, WARP_LOGF.gradient, WARP_LOGF.hessian):
        assert _same_bits(evaluate(u), [evaluate(ui) for ui in u])


# the ported fields and their dimensions
FIELDS = {"twisted-h2 alpha": (catalog.twisted_h2(1.5).alpha, 2),
          "twisted-h2 beta": (catalog.twisted_h2(1.5).beta, 2),
          "warped-h2 logf": (WARP_LOGF, 2), "warped-cartesian logf": (CART_LOGF, 3)}


@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 6))
def test_field_at_one_point_equals_its_stacked_rows_bit_for_bit(seed, rows):
    # value and gradient on Python floats at each point, against one
    # evaluation on a (2, rows, n) stack of the same points
    rng = np.random.default_rng(seed)
    for field, n in FIELDS.values():
        X = rng.uniform(-3.0, 3.0, size=(2 * rows, n))
        for evaluate in (field.value, field.gradient):
            stacked = evaluate(X.reshape(2, rows, n))
            assert _same_bits(stacked.reshape((2 * rows,) + stacked.shape[2:]),
                              [evaluate(x) for x in X])
        assert all(isinstance(field.value(x), float) for x in X)


# case (c) planted: sl2(a, b) + R^k in a random orthonormal basis.  E1 is a
# TG normal whose orbit is an order-two helix with curvatures (2|b|, 2|a|),
# so classify_case must recover (|a|, |b|) over [1e-4, 10].  (Admission's
# curvature gates are relative to max |R|, so sl2(100, 30) passes them.)
log_scale = st.floats(-4.0, 1.0).map(lambda e: 10.0 ** e)
sign = st.sampled_from((1.0, -1.0))


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(a=log_scale, b=log_scale, sa=sign, sb=sign, k=st.integers(0, 2),
                  seed=st.integers(0, 2 ** 32 - 1))
# the Killing form of sl2(1, 1e-3) is nearly degenerate
@hypothesis.example(a=1.0, b=1e-3, sa=1.0, sb=1.0, k=1, seed=0)
def test_planted_helix_recovers_a_and_b(a, b, sa, sb, k, seed):
    c = direct_sum(catalog.sl2(sa * a, sb * b).algebra.structure_constants,
                   np.zeros((k, k, k)))
    Q = random_orthogonal(np.random.default_rng(seed), 3 + k)
    c = rotate_constants(c, Q)
    M = MetricLieAlgebra(LieAlgebra(0.5 * (c - c.transpose(1, 0, 2))))
    report = ta.classify_case(M, Q[0])       # E1 in the rotated basis
    assert report.case_tag is ta.CaseTag.HELIX_ORDER_TWO
    w = report.witness
    assert abs(w.recovered_a - a) <= 1e-9 * a
    assert abs(w.recovered_b - b) <= 1e-9 * b


# command lines: real subcommands over cheap builtins, verify over single
# ledger entries and the whole catalog, vectors of the builtin's dimension and
# malformed ones, search seeds, tolerance overrides with non-finite values
# and unknown names, and --out paths (a bad one is in a missing directory).
# The slots are numbered in the order they are drawn, and at most one takes
# a bad value, so most draws get past parsing and run their command.
ALGEBRAS = {"sl2": 3, "sl2:1,0.5": 3, "nonhomo": 4, "heisenberg": 3, "abelian:2": 2}
CHART_DIMS = {"hyperbolic2": 2, "euclidean:2": 2, "nonhomo": 4, "twisted-h2": 3}
BAD_BUILTINS = ("abelian:n=x", "twisted-h2:chart=cartesian", "twisted-h2:chart=spec",
                "sl2:c=3", "sl2:0,1", "nosuch")
# None is verify with no name: the whole catalog
LEDGER = ((None, "sl2", "sl2:2,0.5", "sl2:-1,0.5", "nonhomo", "abelian:2", "euclidean:1",
           "hyperbolic2", "twisted-h2", "twisted-h2:-0.5"),
          ("sl2:c=3", "euclidean:n=inf", "abelian:9", "nosuch", "sl2:1e-200,1",
           "twisted-h2:1e154"))
BAD_VECTORS = ("0,0,0", "nan,1,0", "inf,0", "1,x", "", ";")
TOL_NAMES = (("jacobi", "spd_min_eig", "tg_residual", "codazzi", "eps_k",
              "bracket_table", "sl2_match", "unit_norm", "speed_reject", "grid"),
             ("bogus", ""))
TOL_VALUES = (("0", "1e-300", "1e-6", "2", "1e300"), ("nan", "inf", "-inf", "-1", "x", ""))
SEEDS = (("0", "4", "17"), ("-1", "x", ""))
# a .csv report is a geodesic trajectory; other commands write JSON
OUTS = {False: ("report.json",), True: ("report.json", "trajectory.csv")}
BAD_OUTS = ("missing/report.json", "missing/trajectory.csv")
# the vector options each command reads, as slots of alternatives: tg-check
# reads one of --normal and --subspace, which exclude each other
FLAGS = {"tg-check": (("--normal", "--subspace"),), "frenet": (("--normal",),),
         "classify": (("--normal",),), "geodesic": (("--x0",), ("--v0",))}


@st.composite
def command_lines(draw):
    chosen = draw(st.integers(0, 19))    # the bad slot; none past the last slot
    slots = itertools.count()

    def bad():
        return next(slots) == chosen

    def pick(values):
        return draw(st.sampled_from(values[bad()]))

    def vector(dim):
        if bad():
            return draw(st.sampled_from(BAD_VECTORS))
        coords = st.sampled_from(("0", "1", "-0.5", "2"))
        return ",".join(draw(st.lists(coords, min_size=dim, max_size=dim)))

    cmd = draw(st.sampled_from(("info", "curvature", "tg-check", "frenet",
                                "classify", "geodesic", "search", "verify")))
    geodesic = cmd == "geodesic"
    if cmd == "verify":
        entry = pick(LEDGER)
        argv = [cmd] + ([entry] if entry else [])
    else:
        good = CHART_DIMS if geodesic else ALGEBRAS
        builtin = draw(st.sampled_from(BAD_BUILTINS if bad() else sorted(good)))
        argv = [cmd, "--builtin", builtin]
        dim = good.get(builtin, 3)
        for choices in FLAGS.get(cmd, ()):
            flag = draw(st.sampled_from(choices))
            if not bad():
                val = vector(dim) if flag != "--subspace" else \
                    f"{vector(dim)};{vector(dim)}"
                # flag=value, so that a value led by '-' is not taken for an option
                argv.append(f"{flag}={val}")
    if geodesic:
        argv += ["--tmax", "0.05"]
    if cmd == "search":
        argv += ["--seed", pick(SEEDS)]
    for _ in range(draw(st.integers(0, 2))):
        argv += ["--tol", f"{pick(TOL_NAMES)}={pick(TOL_VALUES)}"]
    if draw(st.booleans()):
        argv += ["--out", pick((OUTS[geodesic], BAD_OUTS))]
    return argv + draw(st.sampled_from(([], ["--json"])))


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(argv=command_lines())
# the derandomized draws give search only builtins without an algebra form
@hypothesis.example(argv=["search", "--builtin", "nonhomo", "--seed", "4"])
# and no verify of the whole catalog
@hypothesis.example(argv=["verify", "--json"])
# few random draws get past every slot, so two writes into a missing directory
@hypothesis.example(argv=["info", "--builtin", "sl2", "--out", "missing/report.json"])
@hypothesis.example(argv=["geodesic", "--builtin", "hyperbolic2", "--x0", "1,0.5",
                          "--v0", "0.6,0.4", "--tmax", "0.05", "--out", "missing/trajectory.csv"])
def test_cli_exits_0_1_or_2_and_never_raises(argv):
    # --out paths are written under a fresh temporary directory
    with tempfile.TemporaryDirectory() as tmp:
        argv = [os.path.join(tmp, arg) if flag == "--out" else arg
                for flag, arg in zip([None] + argv, argv)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    assert code in (0, 1, 2), argv


# exact n = 3 starts against seeded multistart, on identity, diagonal and SPD
# grams over 3-dim algebras covering every branch of S with a nonzero S
def _algebra3(name):
    c = np.zeros((3, 3, 3))
    for i, j, k, v in {
        "sl2": [],
        "aff+line": [(0, 1, 1, 1.0)],                          # [e0, e1] = e1
        "sol12": [(0, 1, 1, 1.0), (0, 2, 2, 2.0)],             # ad_e0 = diag(1, 2)
        "heisenberg": [(0, 1, 2, 1.0)],
        "su2": [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0)],
        "e2": [(2, 0, 1, 1.0), (2, 1, 0, -1.0)],               # rotations of the plane
        "bianchi4": [(0, 1, 1, 1.0), (0, 2, 1, 1.0), (0, 2, 2, 1.0)],  # a Jordan weight
    }[name]:
        c[i, j, k], c[j, i, k] = v, -v
    return catalog.sl2(1.0, 1.0).algebra.structure_constants if name == "sl2" else c


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(name=st.sampled_from(["aff+line", "e2", "heisenberg", "sl2", "sol12", "su2"]),
                  kind=st.sampled_from(["diagonal", "spd"]),
                  gram_seed=st.integers(0, 2 ** 32 - 1))
@hypothesis.example(name="e2", kind="identity", gram_seed=0)
def test_exact_starts_agree_with_multistart(name, kind, gram_seed):
    # diagonal grams keep the coordinate normals of aff(1) + R and sol(1,2);
    # generic ones leave none
    rng = np.random.default_rng(gram_seed)
    a = rng.standard_normal((3, 3))
    gram = {"identity": np.eye(3), "diagonal": np.diag(rng.uniform(0.3, 3.0, 3)),
            "spd": a @ a.T + 0.5 * np.eye(3)}[kind]
    M = MetricLieAlgebra(LieAlgebra(_algebra3(name)), gram)
    assert ta._family_starts(M.onb_constants, levi_civita(M).coefficients) is not None
    exact = ta.search_tg_hyperplanes(M)
    with mock.patch.object(ta, "_family_starts", lambda c, G: None):
        multi = ta.search_tg_hyperplanes(M)
    assert (len(exact), exact.continuum) == (len(multi), multi.continuum)
    for x, r in zip(exact.normals, exact.residuals):
        k = int(np.argmin([np.abs(x - y).max() for y in multi.normals]))
        assert np.abs(x - multi.normals[k]).max() <= 1e-9 or r < multi.residuals[k]


@pytest.mark.parametrize("name", ["aff+line", "bianchi4", "e2", "heisenberg", "sl2", "sol12",
                                  "su2"])
def test_every_3_dim_class_stays_exact(name, monkeypatch):
    # under the identity, a diagonal and an SPD gram and in a rotated basis
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    rng = np.random.default_rng(61)
    c, a = _algebra3(name), rng.standard_normal((3, 3))
    for gram in (None, np.diag(rng.uniform(0.3, 3.0, 3)), a @ a.T + 0.5 * np.eye(3)):
        M = MetricLieAlgebra(LieAlgebra(c), gram)
        assert ta._family_starts(M.onb_constants, levi_civita(M).coefficients) is not None
        ta.search_tg_hyperplanes(M)
    ta.search_tg_hyperplanes(_basis_change(c, "rotated", rng))


# exact family starts against seeded multistart on solvable algebras:
# R x| R^k (ad z = A, k <= 3) with distinct real weights, an optional
# rotation block a +- ib and an optional change of eigenbasis, an optional
# + R (the R family stays 2-dim), in the catalog, a rotated or an SPD basis.
# k = 1 is aff(1).  Dimension 3 draws take the conic starts.
WEIGHTS = (-2.0, -1.3, -0.7, -0.4, 0.5, 0.8, 1.0, 1.7, 2.5, 3.1)


def _semidirect(A):
    c = np.zeros((len(A) + 1,) * 3)
    c[0, 1:, 1:], c[1:, 0, 1:] = A.T, -A.T         # [z, x_j] = sum_i A[i, j] x_i
    return c


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(weights=st.permutations(WEIGHTS), k=st.sampled_from((3, 2, 1)),
                  block=st.booleans(), mix=st.booleans(), line=st.booleans(),
                  basis=st.sampled_from(["catalog", "rotated", "spd"]),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_family_starts_agree_with_multistart(weights, k, block, mix, line, basis, seed):
    rng = np.random.default_rng(seed)
    A = np.diag(weights[:k])
    if block and k >= 2:
        a, b = rng.uniform(-2, 2), rng.uniform(0.3, 2)
        A[:2, :2] = [[a, -b], [b, a]]
    if mix:
        S = rng.standard_normal((k, k)) + 2 * np.eye(k)
        A = S @ A @ np.linalg.inv(S)
    c = _semidirect(A)
    if line:
        c = direct_sum(c, np.zeros((1, 1, 1)))
    n = len(c)
    gram = None
    if basis == "rotated":
        c = rotate_constants(c, random_orthogonal(rng, n))
    elif basis == "spd":
        a = rng.standard_normal((n, n))
        gram = a @ a.T + 0.5 * np.eye(n)
    M = MetricLieAlgebra(LieAlgebra(c), gram)
    assert ta._family_starts(M.onb_constants, levi_civita(M).coefficients) is not None
    exact = ta.search_tg_hyperplanes(M)
    with mock.patch.object(ta, "_family_starts", lambda c, G: None):
        multi = ta.search_tg_hyperplanes(M)
    assert (len(exact), exact.continuum) == (len(multi), multi.continuum)
    for x, r in zip(exact.normals, exact.residuals):
        j = int(np.argmin([np.abs(x - y).max() for y in multi.normals]))
        assert np.abs(x - multi.normals[j]).max() <= 1e-9 or r < multi.residuals[j]
        # the sign rule reads the first coordinate above 1e-6: no true
        # coordinate sits near it
        assert not ((np.abs(x) > 1e-9) & (np.abs(x) < 1e-5)).any()


# the R-family kernel against 512 seeded starts on solvable algebras whose
# R family U = (g')^perp is 2- to 4-dim: R^2 x| R^3 (two diagonal
# derivations, distinct joint weights), aff(1)^3, aff(1)^2 + R, heisenberg
# + aff(1) and heisenberg + R, in a rotated or an SPD basis
AFF = _semidirect(np.ones((1, 1)))
HEIS = catalog.heisenberg().algebra.structure_constants
LINE = np.zeros((1, 1, 1))


def _r2_r3(w):
    c = np.zeros((5, 5, 5))
    for z in (0, 1):
        for k in range(3):
            c[z, 2 + k, 2 + k], c[2 + k, z, 2 + k] = w[3 * z + k], -w[3 * z + k]
    return c


WIDE_R = {
    "r2-r3": _r2_r3,
    "aff3": lambda w: direct_sum(direct_sum(AFF, AFF), AFF),
    "aff2+R": lambda w: direct_sum(direct_sum(AFF, AFF), LINE),
    "heis+aff": lambda w: direct_sum(HEIS, AFF),
    "heis+R": lambda w: direct_sum(HEIS, LINE),
}


def _basis_change(c, basis, rng):
    n = len(c)
    if basis == "rotated":
        return MetricLieAlgebra(LieAlgebra(rotate_constants(c, random_orthogonal(rng, n))))
    a = rng.standard_normal((n, n))
    return MetricLieAlgebra(LieAlgebra(c), a @ a.T + 0.5 * np.eye(n))


@pytest.mark.parametrize("kind", sorted(WIDE_R))
@hypothesis.settings(max_examples=3, deadline=None, derandomize=True, database=None)
@hypothesis.given(weights=st.permutations(WEIGHTS), basis=st.sampled_from(["rotated", "spd"]),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_r_family_kernel_agrees_with_multistart(kind, weights, basis, seed):
    M = _basis_change(WIDE_R[kind](weights), basis, np.random.default_rng(seed))
    assert ta._family_starts(M.onb_constants, levi_civita(M).coefficients) is not None
    exact = ta.search_tg_hyperplanes(M)
    with mock.patch.object(ta, "_family_starts", lambda c, G: None):
        multi = ta.search_tg_hyperplanes(M, ta.SearchConfig(n_starts=512))
    assert (len(exact), exact.continuum) == (len(multi), multi.continuum)
    for x in exact.normals:
        assert min(np.abs(x - y).max() for y in multi.normals) <= 1e-8


# the family starts against 512 seeded starts on algebras with a Levi
# factor, sl2(a, b) + R, su(2) + R, sl2 x| R^2 and its + R, two simple
# ideals (sl2 + sl2, su(2) + sl2, su(2) + su(2), sl2 + sl2 + R), sl2(C),
# and g'' < g' on a non-solvable g (aff(1) + sl2, nonhomo + sl2), and on
# Jordan weights, R x| R^k with ad z = J2(w0), J2(w0) + R, J3(w0) and
# J2(w0) + (w1), in a rotated or an SPD basis, or in their own basis with a
# random SPD gram on the first summand, whose frame is then no longer the
# catalog basis
def _jordan(k, w, mu=None):
    A = w * np.eye(k) + np.eye(k, k=1)
    if mu is not None:
        A[-1, -1], A[-2, -1] = mu, 0.0
    return _semidirect(A)


def _sl2(w, i=0):
    return catalog.sl2(abs(w[i]), abs(w[i + 1])).algebra.structure_constants


def _su2(w, i=0):
    return table(3, dict(zip([(1, 2, 0), (2, 0, 1), (0, 1, 2)], np.abs(w[i:i + 3]))))


# (structure constants from the weights, dim of the first summand)
LEVI_JORDAN = {
    "sl2+R": (lambda w: direct_sum(_sl2(w), LINE), 3),
    "su2+R": (lambda w: direct_sum(_su2(w), LINE), 3),
    "sl2xR2": (lambda w: SL2_PLANE, 5),
    "sl2xR2+R": (lambda w: direct_sum(SL2_PLANE, LINE), 5),
    "sl2+sl2": (lambda w: direct_sum(_sl2(w), _sl2(w, 2)), 3),
    "su2+sl2": (lambda w: direct_sum(_su2(w), _sl2(w, 3)), 3),
    "su2+su2": (lambda w: direct_sum(_su2(w), _su2(w, 3)), 3),
    "sl2C": (lambda w: SL2C, 6),
    "aff+sl2": (lambda w: direct_sum(AFF, _sl2(w)), 2),
    "nonhomo+sl2": (lambda w: direct_sum(catalog.nonhomo().algebra.structure_constants,
                                         _sl2(w)), 4),
    "sl2+sl2+R": (lambda w: direct_sum(direct_sum(_sl2(w), _sl2(w, 2)), LINE), 3),
    "jordan2": (lambda w: _jordan(2, w[0]), 3),
    "jordan2+R": (lambda w: direct_sum(_jordan(2, w[0]), LINE), 3),
    "jordan3": (lambda w: _jordan(3, w[0]), 4),
    "jordan2+mu": (lambda w: _jordan(3, w[0], w[1]), 4),
}


@pytest.mark.parametrize("kind", sorted(LEVI_JORDAN))
@hypothesis.settings(max_examples=3, deadline=None, derandomize=True, database=None)
@hypothesis.given(weights=st.permutations(WEIGHTS),
                  basis=st.sampled_from(["rotated", "spd", "product"]),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_levi_and_jordan_families_agree_with_multistart(kind, weights, basis, seed):
    make, m = LEVI_JORDAN[kind]
    c, rng = make(weights), np.random.default_rng(seed)
    if basis == "product":
        gram = np.eye(len(c))
        gram[:m, :m] = random_spd(rng, m)
        M = MetricLieAlgebra(LieAlgebra(c), gram)
    else:
        M = _basis_change(c, basis, rng)
    with mock.patch.object(np.random, "SeedSequence", refuse):     # the search is exact
        exact = ta.search_tg_hyperplanes(M)
    if kind in ("su2+su2", "sl2C") and basis != "rotated":
        # no subalgebra of codimension one, so no TG normal under any metric;
        # the 512-start oracle, 0.5 s here, runs on the rotated draws
        assert len(exact) == 0 and not exact.continuum
        return
    with mock.patch.object(ta, "_family_starts", lambda c, G: None):
        multi = ta.search_tg_hyperplanes(M, ta.SearchConfig(n_starts=512))
    assert (len(exact), exact.continuum) == (len(multi), multi.continuum)
    for x in exact.normals:
        assert min(np.abs(x - y).max() for y in multi.normals) <= 1e-8


# lemma 1 of _family_starts, on answers that never used it: every
# CircleNormal T that forced multistart finds satisfies [alpha#, T] =
# |alpha|^2 T, alpha the character hint and alpha# = gram^-1 alpha.  On
# nonhomo and sums with aff(1), in a rotated or an SPD basis (which leaves
# a normal only on aff(1) itself), or with a diagonal gram on nonhomo and
# an SPD gram on the aff(1) summand, which keep the circle normals
AFF_SUMS = {"nonhomo": catalog.nonhomo().algebra.structure_constants, "aff": AFF,
            "aff+aff": direct_sum(AFF, AFF), "aff+sl2": direct_sum(AFF, _sl2([1.0, 0.7])),
            "aff+R": direct_sum(AFF, LINE)}


@pytest.mark.parametrize("kind", sorted(AFF_SUMS))
@pytest.mark.parametrize("basis", ["rotated", "spd", "product"])
def test_aff1_circle_normals_are_weight_vectors_of_the_character(kind, basis):
    c, circles = AFF_SUMS[kind], 0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        if basis != "product":
            M = _basis_change(c, basis, rng)
        elif kind == "nonhomo":
            M = MetricLieAlgebra(LieAlgebra(c), np.diag(rng.uniform(0.3, 3.0, 4)))
        else:
            gram = np.eye(len(c))
            gram[:2, :2] = random_spd(rng, 2)
            M = MetricLieAlgebra(LieAlgebra(c), gram)
        with mock.patch.object(ta, "_family_starts", lambda c, G: None):
            found = ta.search_tg_hyperplanes(M, ta.SearchConfig(n_starts=256))
        scale = np.abs(M.algebra.structure_constants).max() ** 2
        for T in found:
            rep = ta.classify_case(M, T)
            if rep.case_tag is ta.CaseTag.CIRCLE_NORMAL:
                alpha = rep.character_hint
                sharp = np.linalg.solve(M.gram, alpha)
                gap = M.algebra.bracket(sharp, T) - (alpha @ sharp) * T
                assert np.abs(gap).max() <= 1e-12 * scale, (seed, T)
                circles += 1
    assert circles >= (0 if basis == "spd" and kind != "aff" else 3)


# lemma 2 of _family_starts: no conic is TG at every point, so its sextics
# never all vanish.  On metric sl2 tables at scales 1e-3 to 1e4, plus R^k,
# in a rotated or an SPD basis, the largest coefficient of the one conic's
# forms clears the floor of _conic_starts by a factor of 1e6 or more
@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(a=st.floats(0.05, 20.0), b=st.floats(0.05, 20.0), scale=st.floats(-3.0, 4.0),
                  k=st.integers(0, 2), basis=st.sampled_from(["rotated", "spd"]),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_conic_forms_clear_their_floor(a, b, scale, k, basis, seed):
    c = catalog.sl2(a, b).algebra.structure_constants * 10.0 ** scale
    for _ in range(k):
        c = direct_sum(c, LINE)
    M = _basis_change(c, basis, np.random.default_rng(seed))
    ratios, roots = [], ta._real_roots

    def spy(coef, floor):
        ratios.append(np.abs(coef).max() / floor)
        return roots(coef, floor)

    with mock.patch.object(ta, "_real_roots", spy):
        ta.search_tg_hyperplanes(M)
    assert len(ratios) == 1 and ratios[0] >= 1e6


@pytest.mark.parametrize("seed", range(3))
def test_a_kernel_plane_leaves_the_family_starts(seed):
    # heisenberg + R^2 (K the 2-dim centre part of U, under any gram) and
    # e(2) + R (K = U): a sphere of TG normals, returned apart from the
    # starts as one 2-dim block of orthonormal rows on which G.k vanishes
    rng = np.random.default_rng(seed)
    heis_plane = direct_sum(HEIS, np.zeros((2, 2, 2)))
    for M in (_basis_change(heis_plane, "rotated", rng), _basis_change(heis_plane, "spd", rng),
              _basis_change(direct_sum(_algebra3("e2"), LINE), "rotated", rng)):
        G = levi_civita(M).coefficients
        starts, spheres = ta._family_starts(M.onb_constants, G)
        assert starts.shape == (0, M.dim) and [len(K) for K in spheres] == [2]
        K, = spheres
        assert np.abs(K @ K.T - np.eye(2)).max() < 1e-14
        assert np.abs(np.einsum('ijk,ak->aij', G, K)).max() < 1e-14


# kernel spheres against 256 forced multistart starts, on algebras with a
# kernel K of dim >= 2: R^k + h (h = R x| R^m with a random ad z, m = 1, 2),
# sl2(a, b) + R^k, sl2(a, b) + sl2(a', b') + R^k, heisenberg + R^k and
# e(2) + R, in a rotated basis, in a general basis B with the gram B^T B of
# the same metric, or in their own basis with a random SPD gram on each
# summand (a product metric, under which the two sl2 ideals are not
# orthogonal; e(2) + R only keeps its flat e(2) in the first two).  Every
# multistart normal lies on a component or on an isolated normal, and every
# isolated normal is found by multistart
def _kernel_sphere_table(kind, k, rng):
    """(structure constants, dim of the first summand)."""
    h = {"R^k+h": lambda: _semidirect(rng.standard_normal((rng.integers(1, 3),) * 2)),
         "sl2+R^k": lambda: catalog.sl2(*rng.uniform(0.3, 2.0, 2)).algebra.structure_constants,
         "sl2+sl2+R^k": lambda: direct_sum(
             catalog.sl2(*rng.uniform(0.3, 2.0, 2)).algebra.structure_constants,
             catalog.sl2(*rng.uniform(0.3, 2.0, 2)).algebra.structure_constants),
         "heis+R^k": lambda: HEIS, "e2+R": lambda: _algebra3("e2")}[kind]()
    k = {"e2+R": 1, "sl2+sl2+R^k": 2}.get(kind, k)      # dimension 8 at most
    return direct_sum(h, np.zeros((k, k, k))), len(h)


def _gram_distance(M, y, B):
    """Gram distance from y to the span of the gram-orthonormal rows B."""
    r = y - (B @ M.gram @ y) @ B
    return float(np.sqrt(max(r @ M.gram @ r, 0.0)))


@pytest.mark.parametrize("kind", ["R^k+h", "sl2+R^k", "sl2+sl2+R^k", "heis+R^k", "e2+R"])
@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(k=st.integers(2, 3), basis=st.sampled_from(["rotated", "general", "product"]),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_spheres_agree_with_multistart(kind, k, basis, seed):
    hypothesis.assume(kind != "e2+R" or basis != "product")
    rng = np.random.default_rng(seed)
    c, m = _kernel_sphere_table(kind, k, rng)
    if basis == "product":
        n = len(c)
        gram = np.zeros((n, n))
        for lo, hi in ((0, m), (m, n)):
            a = rng.standard_normal((hi - lo, hi - lo))
            gram[lo:hi, lo:hi] = a @ a.T + 0.5 * np.eye(hi - lo)
        M = MetricLieAlgebra(LieAlgebra(c), gram)
    else:
        M = _in_basis(c, basis, rng)[0]
    exact = ta.search_tg_hyperplanes(M)
    assert exact.continuum and exact.components
    for B, r in zip(exact.components, exact.component_residuals):
        assert len(B) >= 2 and np.abs(B @ M.gram @ B.T - np.eye(len(B))).max() < 1e-12
        assert r <= M.tol.search_residual
    with mock.patch.object(ta, "_family_starts", lambda c, G: None):
        multi = ta.search_tg_hyperplanes(M, ta.SearchConfig(n_starts=256))
    for y in multi.normals:
        on_sphere = min(_gram_distance(M, y, B) for B in exact.components) <= 1e-7
        assert on_sphere or min((min(np.abs(x - y).max(), np.abs(x + y).max())
                                 for x in exact.normals), default=1.0) <= 1e-8, y
    for x in exact.normals:
        assert min(min(np.abs(x - y).max(), np.abs(x + y).max()) for y in multi.normals) <= 1e-8


# the stacked subspace check and wedge eigenvalue test against their loop
# oracles, bit for bit, on random algebras of dimension 2 to 6: R x| R^(n-1)
# with a random or the identity ad z (hyperbolic space, where every wedge is
# an eigenvector), or sl2 + R^(n-3), in a rotated or an SPD basis
@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(n=st.integers(2, 6), kind=st.sampled_from(["random", "hyperbolic", "sl2"]),
                  basis=st.sampled_from(["rotated", "spd"]), dim=st.integers(0, 6),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_subspace_check_and_wedge_eigen_match_loops(n, kind, basis, dim, seed):
    rng = np.random.default_rng(seed)
    if kind == "sl2" and n >= 3:
        c = direct_sum(catalog.sl2(*rng.uniform(0.5, 2.0, 2)).algebra.structure_constants,
                       np.zeros((n - 3,) * 3))
    else:
        A = np.eye(n - 1) if kind == "hyperbolic" else rng.standard_normal((n - 1, n - 1))
        c = _semidirect(A)
    M = _basis_change(c, basis, rng)
    S = Subspace(n, rng.standard_normal((n, min(dim, n))))
    got = ta.tg_subspace_check(M, S)
    ok, residual, witness = subspace_check_loops(M, S)
    assert (got.ok, got.residual) == (ok, residual)
    if witness is None:
        assert got.witness is None
    else:
        w = got.witness
        assert (w.kind, w.i, w.j) == witness[:3]
        assert w.component.tobytes() == witness[3].tobytes()
    t = rng.standard_normal(n)
    t /= np.linalg.norm(t)
    for T in (t, np.eye(n)[0]):
        assert ta._wedge_eigen_lambda(M, T, complement_onb(T)) == wedge_eigen_loops(M, T)


# the one dedup rule, ta._first_of_each, against the two it replaced
# (helpers.distinct_rounding for starts, helpers.merge_loops for results),
# bit for bit: on unit rows with planted duplicates, and on the polished
# candidates of multistart searches
def _clear_of_rounding(z):
    # the rounding rule splits a point whose entries straddle a 6-decimal
    # rounding boundary, or flips it when its two largest entries tie
    frac = np.abs(z) * 1e6 % 1.0
    top = np.sort(np.abs(z))[-2:]
    return np.abs(frac - 0.5).min() > 0.01 and top[1] - top[0] > 1e-8


def _planted_rows(rng, n):
    """Unit rows: bases clear of the rounding rule's ties, rows 2e-4 to 1e-3
    from a base, and copies of bases moved by at most 1e-9, sign-flipped at
    random."""
    base = []
    while len(base) < rng.integers(1, 6):
        z = rng.standard_normal(n)
        z /= np.linalg.norm(z)
        if _clear_of_rounding(z):
            base.append(z)
    base = np.array(base)
    rows = [base]
    for _ in range(rng.integers(0, 4)):
        d = rng.standard_normal(n)
        d -= (d @ base[0]) * base[0]
        rows.append((base[0] + rng.uniform(2e-4, 1e-3) * d / np.linalg.norm(d))[None])
    for _ in range(rng.integers(1, 8)):
        z = base[rng.integers(len(base))] + rng.uniform(-1e-9, 1e-9, n) / np.sqrt(n)
        rows.append(rng.choice([-1.0, 1.0]) * z[None])
    rows = np.concatenate(rows)
    rows = rows / np.linalg.norm(rows, axis=1)[:, None]
    return rows[rng.permutation(len(rows))]


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(n=st.integers(3, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_one_dedup_rule_matches_the_rounding_and_merge_rules(n, seed):
    rng = np.random.default_rng(seed)
    z = _planted_rows(rng, n)
    # residuals with ties, and rows above the 1e-6 scale cut or NaN
    err = rng.integers(0, 4, len(z)) * 1e-11
    err[rng.random(len(z)) < 0.2] = rng.choice([2e-6, np.nan])
    scale = rng.uniform(1.0, 2.0)
    got = ta._distinct(z, err, scale)
    got = got * np.sign(got[np.arange(len(got)), np.abs(got).argmax(axis=-1)])[:, None]
    assert got.tobytes() == distinct_rounding(z, err, scale).tobytes()
    # the same rows, unit in an SPD gram, merged at the dedup angle
    a = rng.standard_normal((n, n))
    gram = a @ a.T + 0.5 * np.eye(n)
    Y = z @ np.linalg.inv(np.linalg.cholesky(gram))
    err = np.nan_to_num(err, nan=3e-11)
    kept = ta._first_of_each(Y, err, gram, np.cos(1e-4))
    got = sorted(((Y[i], float(err[i])) for i in kept), key=lambda p: tuple(np.round(p[0], 6)))
    want = merge_loops(list(zip(Y, err.tolist())), gram, 1e-4)
    assert [(x.tobytes(), r) for x, r in got] == [(x.tobytes(), r) for x, r in want]


@pytest.mark.parametrize("name", ["abelian-spd", "e2+R", "aff1+sl2", "sl2+sl2"])
def test_search_merge_matches_the_merge_loops(name):
    sl2 = catalog.sl2(1.0, 1.0).algebra.structure_constants
    c, gram = {"abelian-spd": (np.zeros((3, 3, 3)), np.diag([1.0, 2.0, 3.0]) + 0.5),
               "e2+R": (direct_sum(_algebra3("e2"), LINE), None),
               "aff1+sl2": (direct_sum(AFF, sl2), None),
               "sl2+sl2": (direct_sum(sl2, sl2), None)}[name]
    M = MetricLieAlgebra(LieAlgebra(c), gram)
    calls, first_of_each = [], ta._first_of_each

    def record(Y, err, inner, cos):
        calls.append((Y.copy(), err.copy()))
        return first_of_each(Y, err, inner, cos)
    # multistart, forced: abelian and e(2) + R are kernel spheres on the exact path
    for seed in range(6):
        calls.clear()
        with mock.patch.object(ta, "_first_of_each", record), \
                mock.patch.object(ta, "_family_starts", lambda c, G: None):
            got = ta.search_tg_hyperplanes(M, ta.SearchConfig(seed=seed))
        (Y, err), = calls                  # multistart: the merge is the only call
        want = merge_loops(list(zip(Y, err.tolist())), M.gram, M.tol.dedup_angle)
        assert len(got) > 0
        assert [x.tobytes() for x in got.normals] == [x.tobytes() for x, _ in want]
        assert got.residuals == [r for _, r in want]


# classify_case against helpers.classify_oracle, which calls the public
# per-normal functions on T, bit for bit: the tag, every residual, the Frenet
# data, the witness, the eigenvalue and the character hint, or the same
# refusal.  Algebras of dimension 2 to 6: sl2 + R^k (helix normals), the
# nonhomo type h x| R^m with [z, y] = mu y on R^m and h = R or R x| R^2
# (circle normals), and abelian continua (geodesic normals), each in a
# rotated basis, in a general basis B with the gram B^T B of the same metric
# (a dense frame, so every rounding of T shows), or in its own basis with a
# random SPD gram.  The normals: the planted one (in R^m for the nonhomo
# type; TG but for the SPD gram), the first search normals, the first row
# of each kernel sphere and a random unit vector, which is refused.
def _bits(x):
    """x as nested tuples of bytes, on which == is equality bit for bit."""
    if dataclasses.is_dataclass(x):
        return tuple((f.name, _bits(getattr(x, f.name))) for f in dataclasses.fields(x))
    if isinstance(x, dict):
        return tuple(sorted((k, _bits(v)) for k, v in x.items()))
    if isinstance(x, (tuple, list)):
        return tuple(map(_bits, x))
    if isinstance(x, (float, np.ndarray)):
        a = np.asarray(x)
        return a.dtype.str, a.shape, a.tobytes()
    return x


def _classified(classify, M, T):
    try:
        return _bits(classify(M, T))
    except TgkitError as e:
        return type(e), _bits(vars(e)), str(e)


def _in_basis(c, basis, rng):
    """(M, B): the table c in the basis f_a = B_ia e_i with the gram of the
    same metric, B random orthogonal ('rotated', identity gram) or general
    ('general', gram B^T B), or c in its own basis with a random SPD gram
    ('spd', B = I)."""
    n = len(c)
    B = {"rotated": random_orthogonal(rng, n), "spd": np.eye(n),
         "general": random_orthogonal(rng, n) @ np.diag(rng.uniform(0.5, 2.0, n))
         @ random_orthogonal(rng, n)}[basis]
    c = np.einsum('ia,jb,ijk,dk->abd', B, B, c, np.linalg.inv(B))
    a = rng.standard_normal((n, n))
    gram = {"rotated": None, "general": B.T @ B, "spd": a @ a.T + 0.5 * np.eye(n)}[basis]
    return MetricLieAlgebra(LieAlgebra(0.5 * (c - c.transpose(1, 0, 2))), gram), B


PLANTED_TAG = {"sl2": ta.CaseTag.HELIX_ORDER_TWO, "nonhomo": ta.CaseTag.CIRCLE_NORMAL,
               "abelian": ta.CaseTag.GEODESIC_NORMAL}


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(kind=st.sampled_from(sorted(PLANTED_TAG)), n=st.integers(2, 6),
                  basis=st.sampled_from(["rotated", "general", "spd"]),
                  seed=st.integers(0, 2 ** 32 - 1))
# one example per (kind, basis) pair, so each runs whatever the draws
@hypothesis.example(kind="sl2", n=4, basis="general", seed=0)
@hypothesis.example(kind="sl2", n=3, basis="rotated", seed=0)
@hypothesis.example(kind="sl2", n=5, basis="rotated", seed=1)
@hypothesis.example(kind="sl2", n=6, basis="spd", seed=2)
@hypothesis.example(kind="nonhomo", n=5, basis="general", seed=0)
@hypothesis.example(kind="nonhomo", n=4, basis="rotated", seed=3)
@hypothesis.example(kind="nonhomo", n=3, basis="spd", seed=4)
@hypothesis.example(kind="abelian", n=3, basis="spd", seed=0)
@hypothesis.example(kind="abelian", n=4, basis="rotated", seed=5)
@hypothesis.example(kind="abelian", n=2, basis="general", seed=6)
def test_classify_case_matches_the_public_call_chain(kind, n, basis, seed):
    hypothesis.assume(kind != "sl2" or n >= 3)
    rng = np.random.default_rng(seed)
    if kind == "sl2":
        c = direct_sum(catalog.sl2(*rng.uniform(0.5, 2.0, 2)).algebra.structure_constants,
                       np.zeros((n - 3,) * 3))
    elif kind == "nonhomo":
        p = 2 if n >= 4 else 0
        A = np.eye(n - 1) * rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        A[:p, :p] = rng.standard_normal((p, p))
        c = _semidirect(A)
    else:
        c = np.zeros((n, n, n))
    M, B = _in_basis(c, basis, rng)
    planted = np.linalg.inv(B)[:, n - 1 if kind == "nonhomo" else 0]
    planted = planted / M.norm(planted)
    random_unit = rng.standard_normal(n)
    found = ta.search_tg_hyperplanes(M)
    normals = [planted, *found.normals[:4], *(K[0] for K in found.components),
               random_unit / M.norm(random_unit)]
    for T in normals:
        assert _classified(ta.classify_case, M, T) == _classified(classify_oracle, M, T)
    if basis != "spd" or kind == "abelian":
        assert ta.classify_case(M, planted).case_tag is PLANTED_TAG[kind]


# the staged Codazzi contraction against the one einsum it replaced
# (helpers.codazzi_einsum), within the round-off floor 4 n eps max(1, max|R|)
# that classify_case gates on, at a random unit frame vector and at e_0 (the
# Householder complement's sign edge): random R x| R^(n-1), sl2 + R^(n-3) and
# abelian algebras of dimension 2 to 8, in a rotated basis, in a general
# basis B with the gram B^T B, or with a random SPD gram.  On the abelian
# algebras R is 0 and both read exactly 0.0.
@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(kind=st.sampled_from(["semidirect", "sl2", "abelian"]), n=st.integers(2, 8),
                  basis=st.sampled_from(["rotated", "general", "spd"]),
                  seed=st.integers(0, 2 ** 32 - 1))
@hypothesis.example(kind="semidirect", n=8, basis="general", seed=0)
@hypothesis.example(kind="sl2", n=8, basis="spd", seed=1)
@hypothesis.example(kind="abelian", n=8, basis="rotated", seed=2)
def test_staged_codazzi_matches_the_einsum(kind, n, basis, seed):
    hypothesis.assume(kind != "sl2" or n >= 3)
    rng = np.random.default_rng(seed)
    if kind == "sl2":
        c = direct_sum(catalog.sl2(*rng.uniform(0.5, 2.0, 2)).algebra.structure_constants,
                       np.zeros((n - 3,) * 3))
    elif kind == "semidirect":
        c = _semidirect(rng.standard_normal((n - 1, n - 1)))
    else:
        c = np.zeros((n, n, n))
    cd = curvature_tensor(_in_basis(c, basis, rng)[0])
    assert cd.scale == max(1.0, float(np.abs(cd.components).max()))
    u = rng.standard_normal(n)
    for t in (u / np.linalg.norm(u), np.eye(n)[0]):
        Q = complement_onb(t)
        got, want = ta._codazzi(cd.components, t, Q), codazzi_einsum(cd.components, t, Q)
        assert abs(got - want) <= 4 * n * ta._EPS * cd.scale
        if kind == "abelian":
            assert got == want == 0.0
