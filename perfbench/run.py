#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 36 --trace 0

The run repeats identical passes of the workload (set-up, then solve)
until the next pass would end after ``--seconds``, with at least two
passes.  Samples of a fixed calibration loop, taken around and between
the units of each pass, scale its times to a reference host speed.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes, prints the per-layer metrics
and a per-span self-time table, and writes the spans to
``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

One process runs one workload, so ``peak_rss_mb`` is that workload's
own high-water mark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from hashlib import blake2b
from pathlib import Path
from statistics import fmean, geometric_mean, median
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
MIN_PASSES = 2
IMPORT_PROBES = 7
#: Calibration samples taken before and after each pass and import probe.
CAL_BURST = 10

sys.path.insert(0, str(BENCH_DIR))

from harness import (  # noqa: E402
    Calibrator,
    Tally,
    Tracer,
    layer_table,
    percentile,
    render_table,
    tail_permille,
)

#: name -> unit; printed with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "solve_s": "s",
    "rounds_per_delta": "ratio",
    "colors_per_delta": "ratio",
    "coloring_geomean_ms": "ms",
    "coloring_tail_ms": "ms",
}

#: Span names whose time per traced pass is a per-layer metric.
SPAN_METRICS = {
    "graphs.generate_s": "graphs.generate",
    "graphs.to_directed_s": "graphs.to_directed",
    "graphs.to_csr_s": "graphs.to_csr",
    "core.color_edges_s": "core.color_edges",
    "core.strong_color_arcs_s": "core.strong_color_arcs",
    "verify.proper_s": "verify.proper",
    "verify.strong_s": "verify.strong",
    "serve.start_s": "serve.start",
    "serve.create_s": "serve.create",
    "serve.session_s": "serve.session",
}

#: Counters per pass that are per-layer metrics as they stand.
COUNT_METRICS = (
    "graphs.nodes",
    "graphs.edges",
    "core.calls",
    "core.rounds",
    "core.supersteps",
    "core.messages_delivered",
    "serve.recolor_rounds",
    "serve.fallbacks",
    "serve.violations_healed",
    "serve.mutate_requests",
    "serve.query_requests",
)

#: name -> unit; printed with --trace 1.
PER_LAYER = {
    "import.repro_s": "s",
    **{name: "s" for name in SPAN_METRICS},
    "serve.protocol_s": "s",
    "core.ms_per_round": "ms",
    **{name: "count" for name in COUNT_METRICS},
    "serve.incremental_hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_s": "s",
    "host.calibration_ms": "ms",
}

_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = [{bench!r}, {src!r}]; "
    "t = time.perf_counter(); import workloads; print(time.perf_counter() - t)"
)


def arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help="alg1-er-100k, paper-grid or serve-mixed")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def time_import() -> float:
    """Seconds to import the benchmark's repro modules in a fresh interpreter."""
    code = _IMPORT_PROBE.format(bench=str(BENCH_DIR), src=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def time_imports(cal: Calibrator) -> float:
    """Median import time over the probes, in reference seconds."""
    first = len(cal.samples)
    times = []
    for _ in range(IMPORT_PROBES):
        cal.burst(CAL_BURST // 2)
        times.append(time_import())
    cal.burst(CAL_BURST // 2)
    return median(times) * cal.scale(first)


def run_passes(workload, seed: int, seconds: float, trace: bool, tally: Tally, cal: Calibrator):
    """Run passes until the next one would overrun ``seconds``.

    Returns ``[(PassResult, Tracer)]``; with ``trace`` every second pass
    is traced.  Only the first pass computes the colorings digest.  Each
    pass's ``scale`` comes from the calibration samples around and in it.
    """
    passes = []
    start = time.perf_counter()
    while True:
        tracer = Tracer(trace and len(passes) % 2 == 1)
        first = len(cal.samples)
        cal.burst(CAL_BURST)
        result = workload.run_pass(seed, tracer, tally, cal, digest=not passes)
        cal.burst(CAL_BURST)
        result.scale = cal.scale(first)
        passes.append((result, tracer))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def code_hash() -> str:
    """A hash of the code a run executes: ``src/repro`` and the benchmark's files."""
    h = blake2b(digest_size=8)
    for path in sorted([*(SRC / "repro").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_digest(tally: Tally, store: Path, key: str, digest: str) -> None:
    """Digests stored under one key must agree across runs.

    The key names the code as well as the workload and seed, so runs of
    different code never compare their digests.
    """
    with tally.attempt(f"digest {key}"):
        known = json.loads(store.read_text()) if store.exists() else {}
        if known.setdefault(key, digest) != digest:
            raise AssertionError(f"colors digest {digest} differs from {known[key]} of an earlier run")
        store.parent.mkdir(exist_ok=True)
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)


def end_to_end(passes, import_s: float, tally: Tally, cal: Calibrator) -> dict:
    """The user-visible figures of the untraced passes.

    Passes repeat identical work.  Times are in reference seconds and
    medians over passes; a coloring's latency is scaled by the
    calibration samples nearest it, then the median of its measurements
    over passes.  The geometric mean and the tail percentile are over
    colorings, the tail chosen by how many distinct colorings there are.
    """
    results = [r for r, _ in passes]
    samples: Dict[str, List[float]] = {}
    for r in results:
        for unit, ms in r.latencies_ms.items():
            samples.setdefault(unit, []).append(ms * cal.scale_near(*r.latency_at[unit]))
    latencies = [median(v) for v in samples.values()]
    tail = tail_permille(len(latencies))
    return {
        "setup_s": import_s + median(r.setup_s * r.scale for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": tally.success_rate,
        "solve_s": median(r.solve_s * r.scale for r in results),
        "rounds_per_delta": fmean(x for r in results for x in r.rounds_per_delta),
        "colors_per_delta": fmean(x for r in results for x in r.colors_per_delta),
        "coloring_geomean_ms": geometric_mean(latencies) if latencies else 0.0,
        "coloring_tail_ms": percentile(latencies, tail) if latencies else 0.0,
    }


def per_layer(untraced, traced, table, import_s: float, cal: Calibrator) -> dict:
    """Layer times per traced pass, counts per pass, and the trace's own cost.

    Layer times are in reference seconds, scaled by the traced passes'
    median ``scale``; ``host.calibration_ms`` is the run's raw median
    calibration sample.
    """
    rows = {r["name"]: r for r in table}
    scale = median(r.scale for r, _ in traced)

    def spent(name: str, key: str = "total_s") -> float:
        return rows[name][key] * scale if name in rows else 0.0

    out = {"import.repro_s": import_s}
    for metric, span in SPAN_METRICS.items():
        out[metric] = spent(span)
    out["serve.protocol_s"] = spent("serve.request", "self_s")
    counts = traced[0][0].counts
    for name in COUNT_METRICS:
        out[name] = counts[name]
    core_s = out["core.color_edges_s"] + out["core.strong_color_arcs_s"]
    out["core.ms_per_round"] = 1e3 * core_s / counts["core.rounds"] if counts["core.rounds"] else 0.0
    inserts = counts["serve.inserts"]
    out["serve.incremental_hit_ratio"] = counts["serve.incremental_hits"] / inserts if inserts else 0.0
    out["trace.overhead_ratio"] = median(r.solve_s * r.scale for r, _ in traced) / median(
        r.solve_s * r.scale for r, _ in untraced
    )
    out["trace.unaccounted_s"] = spent("solve", "self_s")
    out["host.calibration_ms"] = 1e3 * median(cal.samples)
    return out


def write_spans(workload: str, seed: int, traced, table) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    doc = {
        "workload": workload,
        "seed": seed,
        "traced_passes": [
            [vars(s) for s in tracer.spans] for _, tracer in traced
        ],
        "self_time_per_pass": table,
    }
    path.write_text(json.dumps(doc))
    return path


def main(argv=None) -> int:
    parser = arg_parser()
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    cal = Calibrator()
    import_s = time_imports(cal)
    workloads.warm_up()
    tally = Tally()
    passes = run_passes(workload, args.seed, args.seconds, bool(args.trace), tally, cal)
    digest = passes[0][0].digest
    check_digest(tally, OUT / "digests.json", f"{args.workload}/seed={args.seed}/code={code_hash()}", digest)
    untraced = [p for p in passes if not p[1].enabled]
    traced = [p for p in passes if p[1].enabled]

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced, "
          f"{len(traced)} traced passes; colors digest {digest}")
    print(f"attempted {tally.attempted}, failed {tally.failed}, "
          f"error_rate {tally.error_rate:.6f}")
    for i, (r, t) in enumerate(passes):
        print(f"  pass {i}{' traced' if t.enabled else ''}: setup {r.setup_s:.4f} s, "
              f"solve {r.solve_s:.4f} s (raw), scale {r.scale:.4f}, "
              f"{len(r.latencies_ms)} colorings")
    for message in tally.messages[:10]:
        print(f"  failure: {message}")
    if traced:
        span_lists = [t.spans for _, t in traced]
        table = layer_table(span_lists)
        metrics = per_layer(untraced, traced, table, import_s, cal)
        units = PER_LAYER
        print(render_table(table))
        layers = sum(
            s.duration for spans in span_lists for s in spans
            if s.parent is not None and spans[s.parent].name == "solve"
        ) / len(span_lists)
        wall = next(r["total_s"] for r in table if r["name"] == "solve")
        unaccounted = next(r["self_s"] for r in table if r["name"] == "solve")
        print(f"traced solve wall {wall:.6f} s = layer spans {layers:.6f} s "
              f"+ unaccounted {unaccounted:.6f} s (raw seconds)")
        print(f"spans written to {write_spans(args.workload, args.seed, traced, table)}")
    else:
        metrics = end_to_end(untraced, import_s, tally, cal)
        units = END_TO_END
        samples = len(passes[0][0].latencies_ms)
        print(f"colorings per pass {samples}: tail is p{tail_permille(samples) / 10:g}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
