"""Tests for the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

from harness import (  # noqa: E402
    CAL_REF_S,
    Calibrator,
    Span,
    Tally,
    Tracer,
    layer_table,
    percentile,
    self_times,
    tail_permille,
)


# -- the percentile rule ------------------------------------------------------


@pytest.mark.parametrize(
    "units, expected",
    [
        (1, 500),
        (19, 500),
        (20, 500),
        (99, 500),
        (100, 900),
        (199, 900),
        (200, 950),
        (999, 950),
        (1000, 990),
        (9999, 990),
        (10000, 999),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(units, expected):
    assert tail_permille(units) == expected


@pytest.mark.parametrize("units", [20, 100, 110, 200, 660, 1000, 10000])
def test_chosen_tail_leaves_at_least_ten_samples_beyond(units):
    values = list(range(units))
    tail = percentile(values, tail_permille(units))
    assert sum(v > tail for v in values) >= 10


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert percentile(values, 500) == 50.0
    assert percentile(values, 900) == 90.0
    assert percentile(values, 999) == 100.0
    assert percentile([7.0], 990) == 7.0
    with pytest.raises(ValueError):
        percentile([], 500)


# -- failure counting ---------------------------------------------------------


def test_tally_counts_raised_units_as_failed():
    tally = Tally()
    with tally.attempt("ok"):
        pass
    with tally.attempt("bad"):
        raise RuntimeError("boom")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.error_rate == 0.5
    assert tally.success_rate == 0.5
    assert tally.messages == ["bad: RuntimeError: boom"]


def test_empty_tally_has_no_errors():
    assert Tally().error_rate == 0.0


def test_forced_verifier_failure_is_counted(monkeypatch):
    import workloads
    from repro.graphs.generators import erdos_renyi_avg_degree

    graph = erdos_renyi_avg_degree(40, 4.0, seed=3)
    tally = Tally()
    res = workloads.PassResult()
    cal = Calibrator()
    assert workloads._color(graph, "alg1", 1, "good", Tracer(False), tally, cal, res) is not None

    core_span, run, verify_span, check = workloads._ALGORITHMS["alg1"]

    def one_color(g, seed):
        result = run(g, seed=seed)
        result.colors = {e: 0 for e in result.colors}
        return result

    monkeypatch.setitem(workloads._ALGORITHMS, "alg1", (core_span, one_color, verify_span, check))
    assert workloads._color(graph, "alg1", 1, "forced", Tracer(False), tally, cal, res) is None
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.messages[0].startswith("forced: VerificationError")
    # The failed coloring leaves no latency or quality sample behind.
    assert len(res.latencies_ms) == len(res.latency_at) == len(res.rounds_per_delta) == 1
    assert res.counts["core.calls"] == 1


def test_digest_mismatch_fails_only_under_the_same_code(tmp_path):
    import run

    store = tmp_path / "digests.json"
    tally = Tally()
    run.check_digest(tally, store, "w/seed=1/code=aaaa", "d1")
    run.check_digest(tally, store, "w/seed=1/code=aaaa", "d1")
    # Other code may color differently on purpose: a new key, no failure.
    run.check_digest(tally, store, "w/seed=1/code=bbbb", "d2")
    assert (tally.attempted, tally.failed) == (3, 0)
    run.check_digest(tally, store, "w/seed=1/code=aaaa", "d2")
    assert (tally.attempted, tally.failed) == (4, 1)
    assert "differs from d1" in tally.messages[0]


# -- host speed ---------------------------------------------------------------


def test_scale_converts_the_median_sample_to_reference_seconds():
    cal = Calibrator()
    cal.samples = [CAL_REF_S * 4, CAL_REF_S * 2, CAL_REF_S * 2, CAL_REF_S * 0.5]
    assert cal.scale() == pytest.approx(0.5)
    assert cal.scale(first=3) == pytest.approx(2.0)


def test_scale_near_uses_the_samples_inside_and_k_on_each_side():
    cal = Calibrator()
    cal.samples = [CAL_REF_S * x for x in (4, 4, 1, 1, 1, 4, 4)]
    cal.stamps = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    assert cal.scale_near(3.5, 4.5, k=1) == pytest.approx(1.0)
    assert cal.scale_near(3.5, 4.5, k=3) == pytest.approx(0.25)
    assert cal.scale_near(0.0, 0.5, k=2) == pytest.approx(0.25)


def test_tick_takes_the_samples_owed_and_counts_their_time():
    cal = Calibrator(interval_s=3600.0)
    cal.tick()
    assert cal.samples == []
    cal.burst(2)
    assert len(cal.samples) == 2
    assert cal.spent == pytest.approx(sum(cal.samples))
    traced = Tracer(True)
    owed = Calibrator(interval_s=1e-9, max_owed=3)
    owed.tick(traced)
    assert len(owed.samples) == 3
    assert [s.name for s in traced.spans] == ["calibrate"]


# -- the serve mix ------------------------------------------------------------


def test_serve_schedule_splits_by_edges_and_keeps_the_op_mix():
    import random
    from collections import Counter

    import workloads

    serve = workloads.ServeMixed()
    ops = serve.schedule(random.Random(1), {"alg1": 2007, "dima2ed": 396})
    assert Counter(ops) == {
        ("alg1", "insert"): 550, ("alg1", "remove"): 150, ("alg1", "query"): 300,
        ("dima2ed", "insert"): 110, ("dima2ed", "remove"): 30, ("dima2ed", "query"): 60,
    }
    inserts = sum(op == "insert" for _, op in ops)
    assert tail_permille(inserts) == 950


# -- span self-time arithmetic ------------------------------------------------


def _spans():
    # solve [0, 10] > a [1, 4] > a.child [2, 3];  solve > b [5, 6]
    return [
        Span(0, "solve", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "a.child", 2.0, 3.0, 1),
        Span(3, "b", 5.0, 6.0, 0),
    ]


def test_self_time_subtracts_direct_children_only():
    own = self_times(_spans())
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_layer_spans_plus_unaccounted_sum_to_the_solve_wall():
    spans = _spans()
    own = self_times(spans)
    assert sum(own.values()) == spans[0].duration


def test_overlapping_and_overhanging_children_are_counted_once():
    spans = [
        Span(0, "p", 0.0, 10.0, None),
        Span(1, "x", 1.0, 4.0, 0),
        Span(2, "y", 3.0, 5.0, 0),
        Span(3, "z", 9.0, 12.0, 0),
    ]
    assert self_times(spans)[0] == 10.0 - 4.0 - 1.0


def test_layer_table_averages_passes_whose_span_ids_overlap():
    other = [Span(0, "solve", 20.0, 24.0, None), Span(1, "b", 21.0, 23.0, 0)]
    rows = {r["name"]: r for r in layer_table([_spans(), other])}
    assert rows["solve"] == {"name": "solve", "calls": 1.0, "total_s": 7.0, "self_s": 4.0}
    assert rows["a"] == {"name": "a", "calls": 0.5, "total_s": 1.5, "self_s": 1.0}
    assert rows["b"]["self_s"] == 1.5


def test_tracer_nests_spans_and_disabled_tracer_records_nothing():
    tracer = Tracer(True)
    with tracer.span("solve"):
        with tracer.span("core", unit="g1"):
            pass
        tracer.add("serve.session", 1.0, 2.0, unit="r1")
    solve, core, session = tracer.spans
    assert (solve.parent, core.parent, session.parent) == (None, 0, 0)
    assert core.unit == "g1" and core.end >= core.start
    off = Tracer(False)
    with off.span("solve"):
        off.add("x", 0.0, 1.0)
    assert off.spans == []


# -- the command --------------------------------------------------------------


def test_run_fails_without_the_repository_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
    assert "no repro package" in out.stderr


def test_benchmark_json_names_what_the_command_prints():
    import json

    import run
    import workloads

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
