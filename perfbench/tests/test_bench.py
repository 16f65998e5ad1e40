"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("census", "certify", "chart", "verify")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    a = generate.fingerprint(generate.make_inputs(workload, 7))
    b = generate.fingerprint(generate.make_inputs(workload, 7))
    assert a == b
    assert a != generate.fingerprint(generate.make_inputs(workload, 8))


def test_inputs_identical_across_processes():
    code = ("import sys; sys.path.insert(0, %r); import generate; "
            "print(generate.fingerprint(generate.make_inputs('census', 7)))" % str(BENCH))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout.strip()
    assert out == generate.fingerprint(generate.make_inputs("census", 7))


def test_generator_never_imports_tgkit():
    code = ("import sys; sys.path.insert(0, %r); import generate; "
            "[generate.make_inputs(w, 1) for w in %r]; "
            "print(any(m.startswith('tgkit') for m in sys.modules))"
            % (str(BENCH), WORKLOADS))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout.strip()
    assert out == "False"


def _bindings(tg):
    mods = [tg.pkg, tg.lie_core, tg.tg_analysis, tg.coord_engine, tg.catalog, tg.cli]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for cls in (tg.lie_core.LieAlgebra, tg.lie_core.MetricLieAlgebra,
                tg.coord_engine.CoordinateMetric):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


def _same(a, b):
    assert a.keys() == b.keys()
    changed = [k for k in a if a[k] is not b[k]]
    assert not changed


def test_rebinding_is_restored_after_a_clean_run():
    tg = workloads.Tgkit()
    before = _bindings(tg)
    tracer = tracing.Tracer()
    with tracing.Rebound(tracer, tracing.targets(tg)):
        assert tg.tg_analysis.levi_civita is not before[("tgkit.tg_analysis", "levi_civita")]
        tracer.op_id = 0
        M = tg.catalog.catalog_lookup("sl2", {"a": 1.0, "b": 2.0})
        tg.tg_analysis.classify_case(M, np.array([1.0, 0.0, 0.0]))
    _same(before, _bindings(tg))
    a = tracer.arrays()
    names = {tracer.names[i] for i in a["name"]}
    # classify_case reaches the other modules through their own imports
    assert {"catalog.lookup", "lie_core.admission", "lie_core.levi_civita",
            "lie_core.curvature_tensor", "tg_analysis.helix_witness",
            "tg_analysis.search_tg_hyperplanes"} <= names


def test_rebinding_is_restored_when_traced_code_raises():
    tg = workloads.Tgkit()
    before = _bindings(tg)
    tracer = tracing.Tracer()
    with pytest.raises(tg.pkg.UnknownName):
        with tracing.Rebound(tracer, tracing.targets(tg)):
            tg.catalog.catalog_lookup("no-such-entry")
    _same(before, _bindings(tg))
    a = tracer.arrays()
    assert a["error"].tolist() == [1]
    assert tracer.names[a["name"][0]] == "catalog.lookup"


def test_self_time_on_a_hand_built_span_tree():
    # 0 [0, 10] -> 1 [1, 4] -> 3 [2, 3]
    #           -> 2 [5, 9]
    # 4 [11, 12] is a second root
    parent = np.array([-1, 0, 0, 1, -1])
    start = np.array([0.0, 1.0, 5.0, 2.0, 11.0])
    end = np.array([10.0, 4.0, 9.0, 3.0, 12.0])
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 2.0, 4.0, 1.0, 1.0]
    flag = tracing.under(parent, np.array([7, 8, 9, 9, 9]), {8})
    assert flag.tolist() == [False, False, False, True, False]


def test_tracer_spans_nest_and_time_self():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def outer():
        return traced_leaf() + traced_leaf()

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_outer = tracer.wrap(outer, "outer", work=lambda a, k, r: float(r))
    assert traced_outer() == 2
    a = tracer.arrays()
    assert a["parent"].tolist() == [-1, 0, 0]
    assert a["work"].tolist() == [2.0, 0.0, 0.0]
    # outer spans 0..5, each leaf 1 tick
    assert tracing.self_times(a["parent"], a["start"], a["end"]).tolist() == [3.0, 1.0, 1.0]


def test_tail_keeps_its_percentile_while_ten_samples_lie_beyond():
    assert run.tail([float(i) for i in range(1, 101)], 80.0) == (80.0, 80.0, 20)
    assert run.tail([float(i) for i in range(1, 51)], 80.0) == (80.0, 40.0, 10)
    # too few ops for p80: the highest percentile with ten beyond
    assert run.tail([float(i) for i in range(1, 41)], 80.0) == (75.0, 30.0, 10)
    assert run.tail([float(i) for i in range(1, 6)], 80.0) == (100.0, 5.0, 0)


def test_calibration_scales_by_the_kernel_time_near_each_op():
    cal = calibrate.Calibration()
    cal.at = [0.0, 1.0, 10.0, 11.0, 12.0]
    kernel = calibrate.REFERENCE_MS * 1e-3
    cal.took = [kernel, kernel, 2 * kernel, 2 * kernel, 2 * kernel]
    # an op at t=0.5 sees the fast samples, one at t=11 the slow ones
    assert cal.scale([0.5, 11.0], [0.3, 0.6]) == pytest.approx([0.3, 0.3])
    # no sample within the window: all samples count
    assert cal.kernel_s(100.0) == 2 * kernel


def _bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_has_no_failures(workload):
    stdout, res = _bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                         "--trace", "0")
    assert res["attempted"] >= 1 and res["failed"] == 0 and res["correct"]
    assert set(res["metrics"]) == {"throughput_ops_s", "op_p50_ms", "op_tail_ms",
                                   "setup_s", "peak_rss_mb"}
    assert "fail_ratio 0.000000" in stdout


def test_traced_smoke_run_prints_every_layer_metric():
    _, res = _bench("--workload", "certify", "--seed", "3", "--seconds", "0.3",
                    "--trace", "1")
    assert res["failed"] == 0
    assert list(res["metrics"]) == run.metric_names()
    assert res["metrics"]["lie_core.levi_civita.calls"]["value"] > 0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == run.metric_names()
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fails_without_tgkit_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
