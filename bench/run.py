"""prpd benchmark: four exact, single-threaded, closed-loop workloads.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload verify --seed 0 --seconds 15 --trace 0

Untraced runs (--trace 0) report the end-to-end metrics; traced runs
(--trace 1) rebind prpd's public functions to time each layer and report the
per-layer metrics. Every unit's exact output is checked; the last line of
standard output is the JSON result, and the full record (environment, sample
counts, unit times and spans) is written to bench/results/. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import operator
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEEDS = (0, 1)

# Other tenants of a shared machine slow it by up to 1.9x, in bursts of seconds and in
# stretches of minutes. So the timed phase runs whole pool cycles, at least MIN_UNITS
# units and --seconds, in one shuffled order, in blocks of one cycle's length, and times
# calibration(), a fixed pure-Python job, between blocks. Each timing is scaled by
# CALIBRATION_REF_S over the mean of the two calibrations around its block, and each
# input's time is the median of its ten or more scaled timings. CALIBRATION_REF_S is
# the best calibration time on the machine the benchmark was defined on (2 vCPUs,
# Python 3.11.7), so there an unloaded run is scaled by about 1.
MIN_UNITS = 100
CALIBRATION_REF_S = 0.0070
PARTS = 3              # the phase is cut in PARTS, with fresh processes after each
PROCESSES_PER_PART = 2
PHASE_CAP_S = 100.0    # the timed phase is sized to end by here, so a run ends within 180 s
CHILD_TIMEOUT_S = 60.0
GEN_EVAL_PASSES = 3

WORKLOAD_NAMES = ("verify", "certify", "snap", "ledger")
TRACED = ("robp.exact_average", "robp.random_robp", "robp.mat_pow",
          "pdist.matrix_form", "pdist.robust_form",
          "recursion.recursive_prpd", "recursion.measure_robust_error",
          "recursion.ledger_check",
          "sampler.tv_profile", "sampler.certify",
          "saks_zhou.armoni_pow", "saks_zhou.snap_matrix", "saks_zhou.robp_from_matrix",
          "saks_zhou.sz_power")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def monotonic() -> float:
    # system-wide, so a child's reading compares with its parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_prpd():
    """Import prpd from this checkout's src/ and nowhere else."""
    if not (SRC / "prpd" / "__init__.py").is_file():
        fail(f"no prpd sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import prpd
    if Path(prpd.__file__).resolve().parent != (SRC / "prpd").resolve():
        fail(f"imported prpd from {prpd.__file__}, not from {SRC}")
    return prpd


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "commit": git_commit(),
            "PRPD_ENUM_LIMIT": os.environ.get("PRPD_ENUM_LIMIT")}


def reference_digests(workload: str, seed: int):
    """Recorded digests for this seed, or None when the seed has none."""
    table = json.loads(REFERENCE.read_text())["digests"]
    return table.get(workload, {}).get(str(seed))


class Checker:
    """Times units and checks every exact output.

    A unit fails if it raises (a CapacityError included), breaks the bound
    it is paired with, or gives a digest other than the reference one; for
    a seed without reference digests, other than its own first result.
    """

    def __init__(self, wl, expected):
        self.wl = wl
        self.expected = expected
        self.seen = {}
        self.attempted = 0
        self.failed = 0

    def _failure(self, j: int, why: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"bench: {self.wl.name} unit {j} failed: {why}", file=sys.stderr)

    def run(self, j: int):
        """Run pool instance j; returns (seconds, per-unit counts)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = self.wl.unit(j)
        except Exception:  # a unit that raises is a failed unit; the run goes on
            elapsed = time.perf_counter() - start
            self._failure(j, traceback.format_exc())
            return elapsed, {}
        elapsed = time.perf_counter() - start
        digest, within, counts = self.wl.check(j, result)
        expected = self.expected[j] if self.expected else self.seen.setdefault(j, digest)
        if not within:
            self._failure(j, "result breaks its paired bound")
        elif digest != expected:
            self._failure(j, f"digest {digest}, expected {expected}")
        return elapsed, {**self.wl.unit_counts, **counts}


def calibration() -> float:
    """Seconds for a fixed job of the operations prpd's hot paths use."""
    start = time.perf_counter()
    total, counts = Fraction(0), {}
    for i in range(3000):
        bits = format(i, "012b")
        v = int(bits[2:8], 2)
        counts[v] = counts.get(v, 0) + 1
        total += Fraction(v - 31, 64)
    return time.perf_counter() - start


def calibrated_blocks(checker, sequence, size: int, tracer=None):
    """Run the inputs of `sequence` in blocks of `size`, calibrating between blocks.

    Returns the raw unit times, their scales and the per-unit counts.
    """
    times, scales, counts = [], [], {}
    before = calibration()
    for start in range(0, len(sequence), size):
        block = []
        for j in sequence[start:start + size]:
            if tracer is not None:
                tracer.unit = len(times) + len(block)
            elapsed, unit_counts = checker.run(j)
            block.append(elapsed)
            for key, value in unit_counts.items():
                counts[key] = counts.get(key, 0) + value
        after = calibration()
        times += block
        scales += [CALIBRATION_REF_S / ((before + after) / 2)] * len(block)
        before = after
    return times, scales, counts


def fresh_processes(workload: str, seed: int, count: int):
    """Run the fixed job (set-up plus one pool cycle) in fresh processes.

    Returns their set-up and total wall times, each with the calibration scale
    of the moment it ran, and the units they attempted and failed.
    """
    setup, total, scales, attempted, failed = [], [], [], 0, 0
    for _ in range(count):
        around = [calibration() for _ in range(3)]
        spawned = monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        ended = monotonic()
        around += [calibration() for _ in range(3)]
        scale = CALIBRATION_REF_S / statistics.median(around)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            attempted, failed = attempted + 1, failed + 1
            continue
        sys.stderr.write(proc.stderr)
        record = json.loads(proc.stdout.splitlines()[-1])
        setup.append(record["ready"] - spawned)
        total.append(ended - spawned)
        scales.append(scale)
        attempted += record["attempted"]
        failed += record["failed"]
    return setup, total, scales, attempted, failed


def run_child(wl_cls, seed: int) -> None:
    wl = wl_cls(seed)
    ready = monotonic()
    checker = Checker(wl, reference_digests(wl.name, seed))
    for j in range(wl.pool_size):
        checker.run(j)
    print(json.dumps({"ready": ready, "attempted": checker.attempted,
                      "failed": checker.failed}))


def measure_end_to_end(wl_cls, seed: int, seconds: float, min_units: int,
                       processes_per_part: int):
    wl = wl_cls(seed)
    checker = Checker(wl, reference_digests(wl.name, seed))
    pool = wl.pool_size
    warm = sum(checker.run(j)[0] for j in range(pool))  # checked, not timed; sizes the run
    cycles = max(math.ceil(min_units / pool), math.ceil(seconds / warm))
    cycles = max(1, min(cycles, int(PHASE_CAP_S / warm)))
    order = [j for j in range(pool) for _ in range(cycles)]
    random.Random(seed).shuffle(order)
    timings = [[] for _ in range(pool)]
    raw, setup, total, process_scales, attempted, failed = [], [], [], [], 0, 0
    for part in range(PARTS):
        sequence = order[part::PARTS]
        times, scales, _ = calibrated_blocks(checker, sequence, pool)
        for j, t, scale in zip(sequence, times, scales):
            timings[j].append(t * scale)
        raw += times
        # fresh processes spread over the run, so one slow stretch reaches few of them
        s, t, c, a, f = fresh_processes(wl.name, seed, processes_per_part)
        setup, total, process_scales = setup + s, total + t, process_scales + c
        attempted, failed = attempted + a, failed + f
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not setup:
        fail("no fresh workload process completed")
    per_input = [statistics.median(t) for t in timings]
    units = per_input * cycles  # one value per unit run; every input ran `cycles` times
    p90 = statistics.quantiles(units, n=10)[-1]
    setup_scaled = list(map(operator.mul, setup, process_scales))
    total_scaled = list(map(operator.mul, total, process_scales))
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s", len(setup)),
        "unit_s.p50": (statistics.median(units), "s", len(units)),
        "unit_s.p90": (p90, "s", len(units)),
        "units_per_s": (len(units) / sum(units), "1/s", len(units)),
        "total_s": (statistics.median(total_scaled), "s", len(total)),
        "peak_rss_mb": (rss_mib, "MiB", 1),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes "
                   f"(wall {statistics.median(setup):.4g} s)",
        "unit_s.p50": f"{len(units)} units of {pool} inputs, each input's median of {cycles} "
                      f"(raw {statistics.median(raw):.4g} s)",
        "unit_s.p90": f"{sum(t > p90 for t in per_input)} of {pool} inputs above "
                      f"(raw {statistics.quantiles(raw, n=10)[-1]:.4g} s)",
        "units_per_s": f"{len(units)} units (raw {len(raw) / sum(raw):.4g}/s)",
        "total_s": f"median of {len(total)} fresh processes, {pool} units each "
                   f"(wall {statistics.median(total):.4g} s)",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    detail = {"unit_s_scaled": timings, "unit_s_raw": raw, "setup_s": setup,
              "total_s": total, "process_scales": process_scales}
    return metrics, notes, checker.attempted + attempted, checker.failed + failed, detail


def _run_cli(wl, tmp: Path, tracer):
    """One in-process prpd.cli.main run of the workload's subcommand(s)."""
    expected = wl.cli_expected()
    sink = io.StringIO()
    try:
        with tracer.span(f"cli.{wl.name}"), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            codes = wl.cli_probe(tmp)
    except Exception:  # a probe that raises, or writes a record that is not JSON, fails
        print(f"bench: cli probe {wl.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
        return False
    if codes != expected:
        print(f"bench: cli probe {wl.name} exited {codes}, expected {expected}",
              file=sys.stderr)
    return codes == expected


def measure_layers(wl_cls, seed: int, seconds: float, workloads):
    prpd_modules = {name: sys.modules[f"prpd.{name}"]
                    for name in ("robp", "pdist", "recursion", "sampler", "saks_zhou")}
    targets = [(name, prpd_modules[name.split(".")[0]], name.split(".")[1]) for name in TRACED]
    targets.append(("recursion.ledger_io", workloads, "ledger_roundtrip"))
    tracer = Tracer()
    try:
        tracer.install(targets)
        wl = wl_cls(seed)
        tracer.uninstall()
        checker = Checker(wl, reference_digests(wl.name, seed))
        checker.run(0)
        cycle = list(range(wl.pool_size))
        untraced, scales, _ = calibrated_blocks(checker, cycle, wl.pool_size)
        untraced_s = sum(map(operator.mul, untraced, scales))
        tracer.install(targets)
        cycles = max(1, math.ceil(seconds / sum(untraced)))
        times, scales, counts = calibrated_blocks(checker, cycle * cycles, wl.pool_size, tracer)
        scale = statistics.median(scales)
        overhead = sum(map(operator.mul, times[:wl.pool_size], scales)) / untraced_s

        tracer.unit = "probe"
        gen_evals = 0
        if hasattr(wl, "gen_eval_probe"):
            for _ in range(GEN_EVAL_PASSES):
                with tracer.span("recursion.gen_eval"):
                    gen_evals = wl.gen_eval_probe()
        tracer.unit = "cli"
        probes = [wl if cls is wl_cls else cls(seed) for cls in workloads.WORKLOADS.values()]
        RESULTS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
            probe_ok = [_run_cli(p, Path(tmp), tracer) for p in probes]
    finally:
        tracer.uninstall()

    counts = {k: v / len(times) for k, v in counts.items()}
    metrics = layer_metrics(tracer, len(times), {**wl.setup_counts, **counts},
                            gen_evals, overhead, scale)
    failed = checker.failed + probe_ok.count(False)
    detail = {"scale": scale, "unit_s": times, "spans": tracer.spans}
    return metrics, checker.attempted + len(probes), failed, detail


def layer_metrics(tracer, units: int, counts: dict, gen_evals: int, overhead: float,
                  scale: float) -> dict:
    """Per-layer metrics per timed unit; a call made only in set-up counts per set-up.

    Times are scaled by the run's median calibration scale.
    """
    timed, setup, probes = {}, {}, {}
    for (name, start, end, _, unit), own in zip(tracer.spans, tracer.self_times()):
        if isinstance(unit, int):
            bucket = timed
        elif unit == "setup":
            bucket = setup
        else:
            probes.setdefault(name, []).append(end - start)
            continue
        acc = bucket.setdefault(name, [0.0, 0.0, 0])
        acc[0] += end - start
        acc[1] += own
        acc[2] += 1
    stats = {name: [v / units for v in acc] for name, acc in timed.items()}
    for name, acc in setup.items():
        stats.setdefault(name, acc)

    def busy(name, i=0):
        return stats.get(name, (0.0, 0.0, 0))[i]

    def per(seconds, count, multiplier):
        return seconds / count * multiplier if count else 0.0

    def probe(name):
        return statistics.median(probes[name]) if name in probes else 0.0

    strings = counts.get("pdist.strings", 0)
    samples = counts.get("sampler.samples", 0)
    checks = counts.get("recursion.ledger_checks", 0)
    paths = counts.get("saks_zhou.armoni_paths", 0)
    m = {
        "robp.exact_average.s": (busy("robp.exact_average"), "s"),
        "robp.exact_average.calls": (busy("robp.exact_average", 2), "count"),
        "robp.random_robp.s": (busy("robp.random_robp"), "s"),
        "robp.mat_pow.s": (busy("robp.mat_pow"), "s"),
        "robp.path_steps": (counts.get("robp.path_steps", 0), "count"),
        "pdist.matrix_form.s": (busy("pdist.matrix_form"), "s"),
        "pdist.matrix_form.calls": (busy("pdist.matrix_form", 2), "count"),
        "pdist.strings": (strings, "count"),
        "pdist.ns_per_string": (per(busy("pdist.matrix_form"), strings, 1e9), "ns"),
        "pdist.robust_form.s": (busy("pdist.robust_form"), "s"),
        "recursion.recursive_prpd.s": (busy("recursion.recursive_prpd"), "s"),
        "recursion.merge_nodes": (counts.get("recursion.merge_nodes", 0), "count"),
        "recursion.gen_eval.s": (probe("recursion.gen_eval"), "s"),
        "recursion.ns_per_gen_eval": (per(probe("recursion.gen_eval"), gen_evals, 1e9), "ns"),
        "recursion.measure_robust_error.self_s": (busy("recursion.measure_robust_error", 1), "s"),
        "recursion.ledger_check.s": (busy("recursion.ledger_check"), "s"),
        "recursion.ledger_checks": (checks, "count"),
        "recursion.us_per_check": (per(busy("recursion.ledger_check"), checks, 1e6), "us"),
        "recursion.ledger_io.s": (busy("recursion.ledger_io"), "s"),
        "sampler.tv_profile.s": (busy("sampler.tv_profile"), "s"),
        "sampler.samples": (samples, "count"),
        "sampler.ns_per_sample": (per(busy("sampler.tv_profile"), samples, 1e9), "ns"),
        "sampler.certify.self_s": (busy("sampler.certify", 1), "s"),
        "sampler.certified_ratio": (counts.get("sampler.certified", 0), "ratio"),
        "saks_zhou.armoni_pow.s": (busy("saks_zhou.armoni_pow"), "s"),
        "saks_zhou.armoni_pow.calls": (busy("saks_zhou.armoni_pow", 2), "count"),
        "saks_zhou.armoni_paths": (paths, "count"),
        "saks_zhou.ns_per_armoni_path": (per(busy("saks_zhou.armoni_pow"), paths, 1e9), "ns"),
        "saks_zhou.snap_matrix.s": (busy("saks_zhou.snap_matrix"), "s"),
        "saks_zhou.snap_entries": (counts.get("saks_zhou.snap_entries", 0), "count"),
        "saks_zhou.robp_from_matrix.s": (busy("saks_zhou.robp_from_matrix"), "s"),
    }
    for name in WORKLOAD_NAMES:
        m[f"cli.{name}.s"] = (probe(f"cli.{name}"), "s")
    m["bench.trace_overhead_ratio"] = (overhead, "ratio")
    return {name: (value * scale if unit in ("s", "ns", "us") else value, unit, units)
            for name, (value, unit) in m.items()}


def record_reference(workloads) -> None:
    """Write the digests of every pool instance for the reference seeds."""
    table = {}
    for name, cls in workloads.WORKLOADS.items():
        table[name] = {}
        for seed in REFERENCE_SEEDS:
            wl = cls(seed)
            digests = []
            for j in range(wl.pool_size):
                digest, within, _ = wl.check(j, wl.unit(j))
                if not within:
                    fail(f"{name} seed {seed} unit {j} breaks its bound; not recording")
                digests.append(digest)
            table[name][str(seed)] = digests
    env = environment()
    REFERENCE.write_text(json.dumps({"python": env["python"], "commit": env["commit"],
                                     "digests": table}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="record the reference digests of seeds 0 and 1 and exit")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if os.environ.get("PRPD_ENUM_LIMIT") is not None:
        fail("PRPD_ENUM_LIMIT is set; the benchmark runs at the default enumeration limit")
    load_prpd()
    import workloads

    if args.record_reference:
        record_reference(workloads)
        return
    wl_cls = workloads.WORKLOADS[args.workload]
    if args.child:
        run_child(wl_cls, args.seed)
        return

    env = environment()
    print(f"prpd benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} nproc={env['nproc']} commit={env['commit']}")
    if reference_digests(args.workload, args.seed) is None:
        print(f"seed {args.seed} has no reference digests: each result is checked against "
              f"its paired bound and for repeatability only")
    else:
        print(f"seed {args.seed}: every result is checked against its reference digest")

    if args.trace:
        metrics, attempted, failed, detail = measure_layers(
            wl_cls, args.seed, args.seconds, workloads)
        notes = {}
    else:
        metrics, notes, attempted, failed, detail = measure_end_to_end(
            wl_cls, args.seed, args.seconds, MIN_UNITS, PROCESSES_PER_PART)

    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {notes.get(name, f'{samples} units')}")
    if not args.trace:
        print(f"  {'fail_ratio':<40} {failed / attempted:>14.6g}        "
              f"{failed} failed of {attempted} attempted")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    record = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env,
              "samples": {name: samples for name, (_, _, samples) in metrics.items()},
              **detail}
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
