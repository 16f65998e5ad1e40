import numpy as np
import pytest

from tgkit import catalog, coord_engine
from tgkit.coord_engine import CoordinateMetric, TwistedProductSpec
from tgkit.errors import BadParams, UnknownName
from tgkit.lie_core import DIM_RANGE, MetricLieAlgebra

from helpers import sl2_rep_constants


def test_sl2_matches_least_squares_extraction():
    for a in (0.5, 1.0, 2.0, 0.3, 0.7):
        for b in (0.5, 1.0, 1.5, 0.3, 0.7):
            M = catalog.sl2(a, b)
            c_ref = sl2_rep_constants(a, b)
            assert np.abs(M.algebra.structure_constants - c_ref).max() < 1e-12


def test_sl2_bracket_table():
    M = catalog.sl2(1.0, 1.5)
    c = M.algebra.structure_constants
    assert np.array_equal(c[0, 1], [0.0, 0.0, 2.0])
    assert np.array_equal(c[0, 2], [3.0, -2.0, 0.0])
    assert np.array_equal(c[1, 2], [0.0, -3.0, 0.0])


def test_sl2_rejects_degenerate_parameters():
    with pytest.raises(BadParams):
        catalog.sl2(0.0, 1.0)
    with pytest.raises(BadParams):
        catalog.sl2(1.0, 0.0)


def test_nonhomo_bracket_table():
    c = catalog.nonhomo().algebra.structure_constants
    assert np.array_equal(c[0, 1], [0.0, 1.0, 1.0, 0.0])
    assert np.array_equal(c[0, 2], [0.0, -1.0, 1.0, 0.0])
    assert np.array_equal(c[0, 3], [0.0, 0.0, 0.0, 2.0])
    assert np.abs(c[1, 2]).max() == 0.0
    assert np.abs(c[1, 3]).max() == 0.0
    assert np.abs(c[2, 3]).max() == 0.0


def test_heisenberg_and_abelian():
    c = catalog.heisenberg().algebra.structure_constants
    assert np.array_equal(c[0, 1], [0.0, 0.0, 1.0])
    assert np.abs(catalog.abelian(4).algebra.structure_constants).max() == 0.0
    assert catalog.abelian(4).dim == 4


def test_nonhomo_chart_diagonal():
    CM = catalog.nonhomo_metric()
    z = 0.4
    g = CM.gram(np.array([z, 0.1, 0.2, 0.3]))
    want = np.diag([1.0, np.exp(4 * z), np.exp(2 * z), np.exp(2 * z)])
    assert np.abs(g - want).max() < 1e-14


def test_lookup_dispatch():
    assert isinstance(catalog.catalog_lookup("sl2", {"a": 0.5, "b": 2.0}),
                      MetricLieAlgebra)
    assert isinstance(catalog.catalog_lookup("nonhomo"), MetricLieAlgebra)
    assert isinstance(catalog.catalog_lookup("nonhomo", kind="coordinate"),
                      CoordinateMetric)
    assert catalog.catalog_lookup("abelian", {"n": 5}).dim == 5
    assert catalog.catalog_lookup("euclidean", {"n": 3}).dim == 3
    assert catalog.catalog_lookup("hyperbolic2").dim == 2


def test_lookup_twisted_variants():
    polar = catalog.catalog_lookup("twisted-h2", {"kappa": 2.0})
    assert isinstance(polar, CoordinateMetric) and polar.dim == 3
    cart = catalog.catalog_lookup("twisted-h2",
                                  {"kappa": 2.0, "chart": "cartesian"})
    assert isinstance(cart, CoordinateMetric) and cart.dim == 3
    spec = catalog.catalog_lookup("twisted-h2", {"chart": "spec"})
    assert isinstance(spec, TwistedProductSpec)
    assert catalog.catalog_lookup("twisted-h2", kind="cartesian").dim == 3


def test_lookup_rejects_bad_input():
    with pytest.raises(UnknownName) as err:
        catalog.catalog_lookup("so3")
    assert "sl2" in str(err.value)       # message lists the choices
    with pytest.raises(BadParams):
        catalog.catalog_lookup("sl2", {"a": 1.0, "frob": 2})
    with pytest.raises(BadParams):
        catalog.catalog_lookup("heisenberg", {"n": 4})
    with pytest.raises(BadParams):
        catalog.catalog_lookup("nonhomo", kind="matrix")
    # an entry with one form takes no kind, not even the name of its own
    for name in ("sl2", "heisenberg", "abelian", "hyperbolic2", "euclidean"):
        for kind in ("algebra", "coordinate", "chart"):
            with pytest.raises(BadParams, match=f"^{name} has no kind '{kind}'$"):
                catalog.catalog_lookup(name, kind=kind)
    with pytest.raises(BadParams):
        catalog.catalog_lookup("twisted-h2", {"chart": "spherical"})
    with pytest.raises(BadParams):
        catalog.euclidean_metric(0)


def test_builtin_dimensions_are_bounded_before_allocation():
    # n^3 and n^2 floats at these sizes cannot be allocated at all
    with pytest.raises(BadParams, match=r"outside supported range \[2, 8\]"):
        catalog.abelian(100000)
    with pytest.raises(BadParams, match=r"outside supported range \[1, 8\]"):
        catalog.euclidean_metric(10**9)
    lo, hi = DIM_RANGE
    assert catalog.abelian(hi).dim == hi
    assert catalog.euclidean_metric(hi).dim == hi
    for bad in ({"n": lo - 1}, {"n": hi + 1}):
        with pytest.raises(BadParams):
            catalog.catalog_lookup("abelian", bad)
    with pytest.raises(BadParams):
        catalog.catalog_lookup("euclidean", {"n": hi + 1})


def test_catalog_names_all_resolve():
    for name in catalog.CATALOG_NAMES:
        assert catalog.catalog_lookup(name) is not None


def test_stages_are_generated_once_per_shape(monkeypatch):
    sources, compiled = [], coord_engine._compiled

    def counted(src, **scope):
        sources.append(src)
        return compiled(src, **scope)
    monkeypatch.setattr(coord_engine, "_compiled", counted)
    monkeypatch.setattr(catalog, "_compiled", counted)
    catalog._diagonal_stage.cache_clear()
    coord_engine._product_stage.cache_clear()
    look = catalog.catalog_lookup
    polar, cart = ([look("twisted-h2", {"kappa": k}, kind) for k in (0.5, 2.0)]
                   for kind in ("chart", "cartesian"))
    e3 = [look("euclidean", {"n": 3}) for _ in range(2)]
    e2 = [look("euclidean"), look("hyperbolic2")]
    # one product stage over a dim-2 base, one diagonal stage per dimension
    assert len(sources) == 3
    for s, t in (polar, cart, (polar[0], cart[0]), e3, e2):
        assert s.stage_at is not t.stage_at and s.stage_at.__code__ is t.stage_at.__code__
    assert e3[0].stage_at.__code__ is not e2[0].stage_at.__code__
