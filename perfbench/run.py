"""One command for the repository's benchmark.

    python3 perfbench/run.py --workload {audit,serve,reproduce} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is imported from
``src/`` of that checkout; nothing is installed.  Human-readable
findings go to standard output first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
and the span tree and self-time table are printed before that line.
The exit code is 0 whenever a result line was printed (its ``correct``
field says whether the outputs checked out) and non-zero otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys

import harness
from harness import ROOT, SRC

WORKLOADS = ("audit", "serve", "reproduce")


def _layer_metrics(module, tracer: harness.Tracer,
                   out: harness.Outcome) -> None:
    """Per-layer metrics from the spans: mean self time per call (mean
    inclusive time for the module's ``INCLUSIVE`` layers)."""
    table = harness.layer_table(tracer.spans)
    inclusive = getattr(module, "INCLUSIVE", set())
    for span, metric in module.LAYER_SPANS.items():
        scale = 1e3 if metric.endswith("_ms") else 1.0
        stat = table.get(span, harness.LayerStat())
        value = stat.mean_total_s if span in inclusive else stat.mean_self_s
        out.metric(metric, value * scale)
    for phase in module.PHASES:
        out.metric(f"coverage.{phase}",
                   harness.coverage(tracer.spans, phase,
                                    module.LAYER_SPANS.__contains__))
    print(harness.render_tree(tracer.spans))
    print(f"\n{'layer':<40} {'calls':>6} {'self_s':>10} {'mean_self_s':>12}")
    for name in sorted(table, key=lambda n: -table[n].self_s):
        st = table[name]
        print(f"{name:<40} {st.calls:>6} {st.self_s:>10.4f} "
              f"{st.mean_self_s:>12.6f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(args.workload)
    tracer = harness.Tracer(enabled=bool(args.trace))
    try:
        out = module.run(args.seed, args.seconds, tracer)
        if args.trace:
            _layer_metrics(module, tracer, out)
    finally:
        shutil.rmtree(ROOT / ".perfbench", ignore_errors=True)
    for line in out.mismatches:
        print(f"perfbench: MISMATCH {line}")
    key = "per_layer" if args.trace else "end_to_end"
    names = [(m["name"], m["unit"]) for m in spec[key]]
    print(harness.result_line(out, names, absent_is_zero=bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
