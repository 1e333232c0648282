#!/usr/bin/env python
"""Flag benchmark regressions between two perfbench result sets.

    python tools/bench_diff.py PARENT.json CHANGE.json
    python tools/bench_diff.py --collect OUT.json audit=audit.txt ...

A result set is a JSON object mapping a workload name to the last line
``perfbench/run.py`` printed for it (``correct``, ``attempted``,
``failed``, ``metrics``).  ``--collect`` builds one from saved
perfbench outputs, one ``workload=file`` argument each.

The diff applies every end-to-end metric's ``better`` and ``bound``
from ``BENCHMARK.json``: a ``lower``-is-better metric regresses when
the change exceeds the parent by more than ``bound`` (a fraction), a
``higher``-is-better one when it falls short of the parent by more
than ``bound``.  A workload also regresses when its run is not
``correct`` or fails a larger share of its operations.  Workloads or
metrics missing from either side are not compared (traced runs, which
carry only per-layer metrics, are kept for the record).  Prints one
table per workload and exits 1 on any regression, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def last_json_line(text: str) -> dict:
    """The last non-empty line of a perfbench output, parsed."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no perfbench result line")
    return json.loads(lines[-1])


def failed_share(result: dict) -> float:
    return result["failed"] / max(1, result["attempted"])


def diff(parent: dict, change: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether any workload regressed."""
    lines: list[str] = []
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        old, new = parent[workload], change[workload]
        rows = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in old["metrics"] or name not in new["metrics"]:
                continue
            a = old["metrics"][name]["value"]
            b = new["metrics"][name]["value"]
            change_frac = (b - a) / a if a else 0.0
            worse = change_frac if metric["better"] == "lower" \
                else -change_frac
            bad = worse > metric["bound"]
            regressed |= bad
            rows.append(f"  {name:<18} {a:>12.4g} {b:>12.4g} "
                        f"{100 * change_frac:>+8.1f}% "
                        f"{100 * metric['bound']:>6.0f}% "
                        f"{'REGRESSION' if bad else 'ok'}")
        if not rows:
            continue
        broken = not new["correct"] or failed_share(new) > failed_share(old)
        regressed |= broken
        lines.append(f"{workload}: correct {old['correct']} -> "
                     f"{new['correct']}, failed {old['failed']}/"
                     f"{old['attempted']} -> {new['failed']}/"
                     f"{new['attempted']}"
                     + ("  REGRESSION" if broken else ""))
        lines.append(f"  {'metric':<18} {'parent':>12} {'change':>12} "
                     f"{'delta':>9} {'bound':>7}")
        lines.extend(rows)
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--collect", metavar="OUT",
                        help="write a result set from workload=file pairs")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    if args.collect:
        results = {}
        for item in args.files:
            workload, _, path = item.partition("=")
            results[workload] = last_json_line(Path(path).read_text())
        Path(args.collect).write_text(json.dumps(results, indent=2) + "\n")
        return 0
    if len(args.files) != 2:
        parser.error("expected PARENT.json CHANGE.json")
    parent, change = (json.loads(Path(p).read_text()) for p in args.files)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, regressed = diff(parent, change, spec)
    print("\n".join(lines))
    print("bench_diff: " + ("REGRESSION past a bound" if regressed
                            else "no regression past a bound"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
