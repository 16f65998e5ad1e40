"""The benchmark's tracing contract with tgkit.

perfbench/tracing.py records spans by rebinding tgkit's public functions,
methods and constructors by name, and reads `partials_at` off each metric.
These tests load that file (it needs only the standard library and numpy)
and check that every name it rebinds still resolves, so a refactor of the
chart engine cannot break `perfbench/run.py --trace 1` unnoticed.
"""
import importlib.util
import types
from pathlib import Path

import numpy as np
import pytest

import tgkit
import tgkit.catalog
import tgkit.cli
import tgkit.config
import tgkit.coord_engine
import tgkit.lie_core
import tgkit.tg_analysis

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TG = types.SimpleNamespace(catalog=tgkit.catalog, cli=tgkit.cli,
                           coord_engine=tgkit.coord_engine, lie_core=tgkit.lie_core,
                           tg_analysis=tgkit.tg_analysis)

CHARTS = (("hyperbolic2", None), ("nonhomo", "coordinate"), ("twisted-h2", "chart"),
          ("twisted-h2", "cartesian"), ("euclidean", None))


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    resolved = tracing.targets(TG)
    assert len(resolved) == len(tracing.TARGETS)
    for owner, attr, span, _ in resolved:
        # Rebound takes a class attribute from the class's own __dict__
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        assert found, (owner, attr, span)
        assert callable(getattr(owner, attr)), (owner, attr, span)


def test_search_config_fields_the_benchmark_reads(tracing):
    # perfbench/run.py reads residual_threshold for its census check; the
    # work hook of the search span reads n_starts
    config = tgkit.tg_analysis.SearchConfig()
    assert config.residual_threshold == tgkit.config.DEFAULT.search_residual
    assert config.n_starts == 64
    assert tracing._search_starts((None, config), {}, None) == 64.0


def test_every_exported_name_resolves():
    assert len(set(tgkit.__all__)) == len(tgkit.__all__)
    for name in tgkit.__all__:
        assert hasattr(tgkit, name), name


def test_every_catalog_chart_keeps_exact_partials(tracing):
    x = {2: [0.9, 1.2], 3: [0.3, 0.8, 0.6], 4: [0.2, 0.1, 0.3, -0.4]}
    for name, kind in CHARTS:
        CM = tgkit.catalog.catalog_lookup(name, kind=kind)
        assert callable(CM.partials_at), name
        # the work hook of the coord_engine.partials span reads partials_at
        assert tracing._partials_exact((CM, np.array(x[CM.dim])), {}, None) == 1.0, name


def test_rebinding_records_chart_spans_and_restores(tracing):
    ce = tgkit.coord_engine
    original = (ce.geodesic_integrate, vars(ce.CoordinateMetric)["partials"])
    tracer = tracing.Tracer()
    CM = tgkit.catalog.catalog_lookup("hyperbolic2")
    with tracing.Rebound(tracer, tracing.targets(TG)):
        ce.geodesic_integrate(CM, [1.0, 0.5], [0.6, 0.4], 0.01, 1e-3)
        # the closed-form geodesic stages call no partials; christoffel does
        ce.christoffel(CM, [1.0, 0.5])
    assert (ce.geodesic_integrate, vars(ce.CoordinateMetric)["partials"]) == original
    names = {tracer.names[i] for i in tracer.name}
    assert {"coord_engine.geodesic_integrate", "coord_engine.gram",
            "coord_engine.partials"} <= names


@pytest.mark.parametrize("name", ["sl2", "nonhomo"])
def test_rebinding_records_search_spans_and_restores(tracing, name):
    # sl2 takes the exact n = 3 starts, nonhomo the solvable-family starts
    ta = tgkit.tg_analysis
    original = (ta.search_tg_hyperplanes, ta.hyperplane_tg_residual)
    tracer = tracing.Tracer()
    M = tgkit.catalog.catalog_lookup(name)
    with tracing.Rebound(tracer, tracing.targets(TG)):
        got = ta.search_tg_hyperplanes(M)
    assert (ta.search_tg_hyperplanes, ta.hyperplane_tg_residual) == original
    assert len(got) == {"sl2": 2, "nonhomo": 1}[name]
    names = {tracer.names[i] for i in tracer.name}
    assert "tg_analysis.search_tg_hyperplanes" in names
