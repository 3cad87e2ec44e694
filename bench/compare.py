"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (copies of
bench/results/). For every workload, trace mode and metric the medians of
the two sets are printed with their ratio; an end-to-end metric that got
worse by more than its bound in BENCHMARK.json is marked. Runs made on
different Python versions are refused, because Fraction costs differ across
versions.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    runs = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        runs.setdefault((record["workload"], record["trace"]), []).append(record)
    if not runs:
        sys.exit(f"compare: no result files in {directory}")
    return runs


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    versions = {r["env"]["python"] for runs in (base, new) for rs in runs.values() for r in rs}
    if len(versions) != 1:
        print(f"compare: refusing runs made on different Python versions: {sorted(versions)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    for key in sorted(base.keys() & new.keys()):
        print(f"{key[0]} trace={key[1]}: {len(base[key])} base runs, {len(new[key])} new runs")
        for name in base[key][0]["metrics"]:
            old = statistics.median(r["metrics"][name]["value"] for r in base[key])
            cur = statistics.median(r["metrics"][name]["value"] for r in new[key])
            ratio = cur / old if old else float("nan")
            mark = ""
            if name in bounds:
                bound, better = bounds[name]
                worse = ratio - 1 if better == "lower" else 1 - ratio
                mark = "  WORSE THAN BOUND" if worse > bound else ""
            unit = base[key][0]["metrics"][name]["unit"]
            print(f"  {name:<40} {old:>12.6g} -> {cur:>12.6g} {unit:<6} x{ratio:.3f}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
