"""Tiny-size self-test of the benchmark: every named metric, every digest.

Runs each workload for one pool cycle per pass, untraced and traced, at the
reference seed 0, and asserts that the metric names are exactly the ones in
BENCHMARK.json and that no unit failed (so every digest matched). Run from
the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    run.load_prpd()
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        assert run.reference_digests(name, 0) is not None, f"no reference digests for {name}"
        metrics, _, attempted, failed, _ = run.measure_end_to_end(cls, 0, 0, cls(0).pool_size, 1)
        assert list(metrics) == end_to_end, f"{name}: end-to-end metrics {list(metrics)}"
        assert failed == 0 and attempted > 0, f"{name}: {failed} of {attempted} units failed"
        assert all(value > 0 for value, _, _ in metrics.values()), f"{name}: a zero metric"

        metrics, attempted, failed, _ = run.measure_layers(cls, 0, 0, workloads)
        assert list(metrics) == per_layer, f"{name}: per-layer metrics {list(metrics)}"
        assert failed == 0, f"{name}: {failed} of {attempted} traced units or probes failed"
        assert metrics[f"cli.{name}.s"][0] > 0
        print(f"selftest {name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
