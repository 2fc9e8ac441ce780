"""The package names and results that the benchmark's per-layer tracer reads.

`perfbench/spans.py` wraps package functions by name (`TRACED`) and takes
work counts from their arguments and results (`COUNTERS`). It is loaded
here by file path, so renaming or deleting one of those functions fails the
tier-1 suite, not only a `perfbench/run.py --trace 1` run.
"""

import importlib
import importlib.util
from pathlib import Path

from tvmhrv import build_tvm_points, load_rr_series, second_order_diff

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_function(name: str):
    layer, function = name.split(".")
    return getattr(importlib.import_module(f"tvmhrv.{layer}"), function, None)


def test_every_traced_name_resolves():
    spans = load_spans()
    names = [f"{layer}.{fn}" for layer, fns in spans.TRACED.items() for fn in fns]
    assert [name for name in names if not callable(package_function(name))] == []


def test_counters_read_real_calls(corpus_dir):
    spans = load_spans()
    path = corpus_dir / "steady" / "rec00.txt"
    series = load_rr_series(path)
    lifted = build_tvm_points(second_order_diff(series))
    calls = {
        "series.load_rr_series": (path,),
        "sodp.second_order_diff": (series,),
        "tvm.build_grid": (lifted.base.x, lifted.base.y, lifted.z, (10, 10, 10)),
        "cluster.kmeans_1d": ([0.1, 0.2, 0.9, 1.0],),
    }
    # A counter added to spans.py needs a call here.
    assert sorted(spans.COUNTERS) == sorted(calls)
    counts = {}
    for name, counter in spans.COUNTERS.items():
        args = calls[name]
        counts[name] = counter(args, package_function(name)(*args))
        assert all(type(v) is int and v >= 0 for v in counts[name].values()), name
    # Every key the per-layer counts sum must be there.
    for span, key in spans.LAYER_COUNTS.values():
        if key is not None and span in counts:
            assert key in counts[span], (span, key)
    assert counts["series.load_rr_series"]["intervals"] == 80
    assert counts["sodp.second_order_diff"]["points"] == 78
    assert counts["cluster.kmeans_1d"]["features"] == 4
    grid = counts["tvm.build_grid"]
    assert 0 < grid["cells_occupied"] <= grid["cells_total"]
