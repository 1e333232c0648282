"""``tools/bench_diff.py`` flags a synthetic regression and passes a
synthetic change that stays inside every bound of ``BENCHMARK.json``."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "bench_diff", ROOT / "tools" / "bench_diff.py")
bench_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_diff)


def result(failed=0, **values):
    metrics = {"setup_s": 0.4, "peak_rss_mb": 200.0, "latency_p50_ms": 100.0,
               "latency_tail_ms": 120.0, "throughput_per_s": 100.0}
    metrics.update(values)
    return {"correct": failed == 0, "attempted": 25, "failed": failed,
            "metrics": {k: {"value": v, "unit": ""}
                        for k, v in metrics.items()}}


def run(tmp_path, capsys, parent, change):
    paths = []
    for name, doc in (("parent", parent), ("change", change)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    code = bench_diff.main(paths)
    return code, capsys.readouterr().out


def test_pass_within_bounds(tmp_path, capsys):
    # 3x the throughput, 20% slower setup: under the 25% bound
    code, out = run(tmp_path, capsys, {"audit": result()},
                    {"audit": result(throughput_per_s=300.0, setup_s=0.48)})
    assert code == 0, out
    assert "REGRESSION" not in out
    assert "throughput_per_s" in out and "+200.0%" in out


@pytest.mark.parametrize("values, failed", [
    ({"throughput_per_s": 70.0}, 0),     # higher is better, -30%
    ({"latency_tail_ms": 160.0}, 0),     # lower is better, +33%
    ({"peak_rss_mb": 230.0}, 0),         # 10% bound, +15%
    ({}, 1),                             # a failed operation
])
def test_regression_flagged(tmp_path, capsys, values, failed):
    code, out = run(tmp_path, capsys,
                    {"audit": result(), "serve": result()},
                    {"audit": result(failed=failed, **values),
                     "serve": result()})
    assert code == 1, out
    assert out.count("REGRESSION") == 2     # the row (or header) and verdict


def test_traced_runs_are_not_compared(tmp_path, capsys):
    traced = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {"routing.repair_s": {"value": 1.0, "unit": "s"}}}
    slower = {**traced, "metrics": {"routing.repair_s": {"value": 9.0,
                                                          "unit": "s"}}}
    code, _ = run(tmp_path, capsys, {"audit+trace": traced},
                  {"audit+trace": slower})
    assert code == 0


def test_collect_reads_last_line(tmp_path):
    out = tmp_path / "audit.txt"
    out.write_text("audit: report line\n" + json.dumps(result()) + "\n\n")
    target = tmp_path / "set.json"
    assert bench_diff.main(["--collect", str(target),
                            f"audit={out}"]) == 0
    assert json.loads(target.read_text()) == {"audit": result()}
