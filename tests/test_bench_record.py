"""The bench recorder's aggregation and line count, on canned inputs; no benchmark runs."""
import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _line(values):
    metrics = {f"{w}.{m}": {"value": v, "unit": "x"}
               for (w, m), v in values.items()}
    return json.dumps({"correct": True, "attempted": 9, "failed": 0, "metrics": metrics})


def test_aggregate_takes_the_median_per_workload_and_metric():
    runs = [{("verify", "throughput_ops_s"): t, ("verify", "op_p50_ms"): p,
             ("chart", "throughput_ops_s"): 2 * t, ("chart", "op_p50_ms"): 3.0}
            for t, p in ((60.0, 5.0), (90.0, 4.0), (75.0, 7.0), (80.0, 6.0))]
    got = bench_record.aggregate([_line(r) for r in runs], ["verify", "chart"],
                                 ["throughput_ops_s", "op_p50_ms"])
    # an even count averages the middle two
    assert got == {"verify": {"throughput_ops_s": 77.5, "op_p50_ms": 5.5},
                   "chart": {"throughput_ops_s": 155.0, "op_p50_ms": 3.0}}


def test_aggregate_of_one_run_is_that_run():
    line = _line({("census", "setup_s"): 0.25})
    assert bench_record.aggregate([line], ["census"], ["setup_s"]) == \
        {"census": {"setup_s": 0.25}}


def test_src_lines_counts_newlines_of_the_package_modules(tmp_path):
    pkg = tmp_path / "src" / "tgkit"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("a = 1\nb = 2\n")
    (pkg / "mod.py").write_text("x\n\n\ny")          # no final newline: 3, as wc -l
    (pkg / "notes.txt").write_text("skipped\n")
    (tmp_path / "src" / "other.py").write_text("skipped\n")
    assert bench_record.src_lines(tmp_path) == 5
    assert bench_record.src_lines(bench_record.ROOT) > 0
